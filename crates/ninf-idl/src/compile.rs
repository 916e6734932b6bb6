//! Compiled interface information — the "interpretable code" of two-stage RPC.
//!
//! Ninf's client never sees IDL text: "when the client calls the server, it
//! returns the compiled IDL information as interpretable code to the client.
//! `Ninf_call` then interprets the IDL code and marshalls the arguments"
//! (paper §2.3). We realize that design as a compact stack bytecode: each
//! array dimension of each parameter compiles to a [`SizeProgram`]; the
//! client-side interpreter evaluates the programs against the scalar input
//! arguments to size every array before marshalling. The whole
//! [`CompiledInterface`] is XDR-serializable so the server can ship it in the
//! first stage of every call.

use std::collections::BTreeMap;

use ninf_xdr::{XdrDecoder, XdrEncoder, XdrSink};

use crate::ast::{BaseType, Define, Mode, Param};
use crate::error::{IdlError, IdlResult};
use crate::expr::{BinOp, SizeExpr};

/// One stack-machine instruction of a dimension program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Push an integer constant.
    PushConst(i64),
    /// Push the value of the `i`-th scalar input parameter.
    PushVar(u16),
    Add,
    Sub,
    Mul,
    Div,
}

/// A compiled dimension expression: a postfix program over the scalar inputs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SizeProgram {
    /// Postfix instruction stream.
    pub ops: Vec<Op>,
}

impl SizeProgram {
    /// Compile an expression tree into postfix form.
    ///
    /// `scalar_index` maps scalar-input parameter names to their slot in the
    /// interface's scalar table.
    pub fn compile(expr: &SizeExpr, scalar_index: &BTreeMap<&str, u16>) -> IdlResult<Self> {
        let mut ops = Vec::new();
        emit(expr, scalar_index, &mut ops)?;
        Ok(Self { ops })
    }

    /// Evaluate against the scalar values (indexed like the scalar table).
    pub fn eval(&self, scalars: &[i64]) -> IdlResult<i64> {
        let mut stack: Vec<i64> = Vec::with_capacity(8);
        for op in &self.ops {
            match *op {
                Op::PushConst(v) => stack.push(v),
                Op::PushVar(i) => {
                    let v = *scalars.get(i as usize).ok_or_else(|| {
                        IdlError::Eval(format!(
                            "scalar slot {i} out of range ({} provided)",
                            scalars.len()
                        ))
                    })?;
                    stack.push(v);
                }
                Op::Add | Op::Sub | Op::Mul | Op::Div => {
                    let r = stack.pop().ok_or_else(stack_underflow)?;
                    let l = stack.pop().ok_or_else(stack_underflow)?;
                    let v = match *op {
                        Op::Add => l.checked_add(r),
                        Op::Sub => l.checked_sub(r),
                        Op::Mul => l.checked_mul(r),
                        Op::Div => {
                            if r == 0 {
                                return Err(IdlError::Eval(
                                    "division by zero in size program".into(),
                                ));
                            }
                            l.checked_div(r)
                        }
                        _ => unreachable!(),
                    }
                    .ok_or_else(|| IdlError::Eval("overflow in size program".into()))?;
                    stack.push(v);
                }
            }
        }
        match (stack.pop(), stack.is_empty()) {
            (Some(v), true) if v >= 0 => Ok(v),
            (Some(v), true) => Err(IdlError::Eval(format!(
                "size program produced negative extent {v}"
            ))),
            _ => Err(IdlError::Eval("size program left a malformed stack".into())),
        }
    }
}

fn stack_underflow() -> IdlError {
    IdlError::Eval("stack underflow in size program".into())
}

fn emit(expr: &SizeExpr, scalar_index: &BTreeMap<&str, u16>, ops: &mut Vec<Op>) -> IdlResult<()> {
    match expr {
        SizeExpr::Const(v) => ops.push(Op::PushConst(*v)),
        SizeExpr::Var(name) => {
            let slot = scalar_index.get(name.as_str()).ok_or_else(|| {
                IdlError::Semantic(format!("dimension references unknown scalar `{name}`"))
            })?;
            ops.push(Op::PushVar(*slot));
        }
        SizeExpr::Binary { op, lhs, rhs } => {
            emit(lhs, scalar_index, ops)?;
            emit(rhs, scalar_index, ops)?;
            ops.push(match op {
                BinOp::Add => Op::Add,
                BinOp::Sub => Op::Sub,
                BinOp::Mul => Op::Mul,
                BinOp::Div => Op::Div,
            });
        }
    }
    Ok(())
}

/// A compiled parameter: fixed metadata plus one program per dimension.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledParam {
    /// Parameter name (for diagnostics and `Calls` mapping).
    pub name: String,
    /// Transfer mode.
    pub mode: Mode,
    /// Element type.
    pub base: BaseType,
    /// One program per dimension; empty means scalar.
    pub dims: Vec<SizeProgram>,
}

impl CompiledParam {
    /// Whether the parameter is a scalar.
    pub fn is_scalar(&self) -> bool {
        self.dims.is_empty()
    }
}

/// Resolved layout of one parameter for a concrete call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamLayout {
    /// Parameter name.
    pub name: String,
    /// Transfer mode.
    pub mode: Mode,
    /// Element type.
    pub base: BaseType,
    /// Total element count (product of dimensions; 1 for scalars).
    pub count: usize,
    /// Payload bytes on the wire (count × element size; scalars count too).
    pub bytes: usize,
}

/// The full compiled interface the server ships to the client.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledInterface {
    /// Routine name.
    pub name: String,
    /// Names of the scalar input parameters, in slot order. Dimension
    /// programs index into this table.
    pub scalar_table: Vec<String>,
    /// All parameters in declaration order.
    pub params: Vec<CompiledParam>,
    /// Documentation carried through for client-side introspection.
    pub doc: String,
}

impl CompiledInterface {
    /// Compile a parsed `Define`.
    pub fn compile(def: &Define) -> IdlResult<Self> {
        let scalar_names: Vec<&Param> = def.scalar_inputs().collect();
        let mut scalar_index: BTreeMap<&str, u16> = BTreeMap::new();
        let mut scalar_table = Vec::with_capacity(scalar_names.len());
        for (i, p) in scalar_names.iter().enumerate() {
            scalar_index.insert(p.name.as_str(), i as u16);
            scalar_table.push(p.name.clone());
        }

        let mut params = Vec::with_capacity(def.params.len());
        for p in &def.params {
            let dims = p
                .dims
                .iter()
                .map(|d| SizeProgram::compile(d, &scalar_index))
                .collect::<IdlResult<Vec<_>>>()?;
            params.push(CompiledParam {
                name: p.name.clone(),
                mode: p.mode,
                base: p.base,
                dims,
            });
        }

        Ok(Self {
            name: def.name.clone(),
            scalar_table,
            params,
            doc: def.doc.clone().unwrap_or_default(),
        })
    }

    /// Map named scalar values onto the slot-ordered vector the programs use.
    pub fn scalar_slots(&self, scalars: &[(&str, i64)]) -> IdlResult<Vec<i64>> {
        self.scalar_table
            .iter()
            .map(|name| {
                scalars
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, v)| *v)
                    .ok_or_else(|| IdlError::Eval(format!("missing scalar input `{name}`")))
            })
            .collect()
    }

    /// Resolve the concrete layout of every parameter for a call with the
    /// given scalar inputs. This is what `Ninf_call`'s interpreter does
    /// before marshalling.
    pub fn layout(&self, scalars: &[(&str, i64)]) -> IdlResult<Vec<ParamLayout>> {
        let slots = self.scalar_slots(scalars)?;
        self.params
            .iter()
            .map(|p| {
                let mut count: usize = 1;
                for dim in &p.dims {
                    let extent = dim.eval(&slots)?;
                    count = count
                        .checked_mul(extent as usize)
                        .ok_or_else(|| IdlError::Eval("element count overflow".into()))?;
                }
                Ok(ParamLayout {
                    name: p.name.clone(),
                    mode: p.mode,
                    base: p.base,
                    count,
                    bytes: count * p.base.wire_bytes(),
                })
            })
            .collect()
    }

    /// Array payload bytes shipped client → server (mode in / inout arrays).
    ///
    /// Scalar inputs travel in the call header and are not counted; this is
    /// the paper's `T_comm` data volume convention (8n² + 20n for Linpack).
    pub fn request_bytes(&self, scalars: &[(&str, i64)]) -> IdlResult<usize> {
        Ok(self
            .layout(scalars)?
            .iter()
            .filter(|l| l.mode.sends() && !self.is_scalar_param(&l.name))
            .map(|l| l.bytes)
            .sum())
    }

    /// Array payload bytes shipped server → client (mode out / inout arrays).
    pub fn reply_bytes(&self, scalars: &[(&str, i64)]) -> IdlResult<usize> {
        Ok(self
            .layout(scalars)?
            .iter()
            .filter(|l| l.mode.receives() && !self.is_scalar_param(&l.name))
            .map(|l| l.bytes)
            .sum())
    }

    fn is_scalar_param(&self, name: &str) -> bool {
        self.params.iter().any(|p| p.name == name && p.is_scalar())
    }

    /// Serialize to XDR for shipping in an `InterfaceReply`.
    pub fn encode_xdr<S: XdrSink>(&self, enc: &mut XdrEncoder<S>) {
        enc.put_string(&self.name);
        enc.put_string(&self.doc);
        enc.put_u32(self.scalar_table.len() as u32);
        for s in &self.scalar_table {
            enc.put_string(s);
        }
        enc.put_u32(self.params.len() as u32);
        for p in &self.params {
            enc.put_string(&p.name);
            enc.put_u32(mode_tag(p.mode));
            enc.put_u32(base_tag(p.base));
            enc.put_u32(p.dims.len() as u32);
            for dim in &p.dims {
                enc.put_u32(dim.ops.len() as u32);
                for op in &dim.ops {
                    match *op {
                        Op::PushConst(v) => {
                            enc.put_u32(0);
                            enc.put_i64(v);
                        }
                        Op::PushVar(i) => {
                            enc.put_u32(1);
                            enc.put_u32(i as u32);
                        }
                        Op::Add => enc.put_u32(2),
                        Op::Sub => enc.put_u32(3),
                        Op::Mul => enc.put_u32(4),
                        Op::Div => enc.put_u32(5),
                    }
                }
            }
        }
    }

    /// Deserialize from XDR (client side of the first RPC stage).
    pub fn decode_xdr(dec: &mut XdrDecoder<'_>) -> IdlResult<Self> {
        let name = dec.get_string()?;
        let doc = dec.get_string()?;
        let n_scalars = dec.get_u32()? as usize;
        let mut scalar_table = Vec::with_capacity(n_scalars.min(64));
        for _ in 0..n_scalars {
            scalar_table.push(dec.get_string()?);
        }
        let n_params = dec.get_u32()? as usize;
        let mut params = Vec::with_capacity(n_params.min(64));
        for _ in 0..n_params {
            let pname = dec.get_string()?;
            let mode = untag_mode(dec.get_u32()?)?;
            let base = untag_base(dec.get_u32()?)?;
            let n_dims = dec.get_u32()? as usize;
            let mut dims = Vec::with_capacity(n_dims.min(8));
            for _ in 0..n_dims {
                let n_ops = dec.get_u32()? as usize;
                let mut ops = Vec::with_capacity(n_ops.min(64));
                for _ in 0..n_ops {
                    let op = match dec.get_u32()? {
                        0 => Op::PushConst(dec.get_i64()?),
                        1 => Op::PushVar(dec.get_u32()? as u16),
                        2 => Op::Add,
                        3 => Op::Sub,
                        4 => Op::Mul,
                        5 => Op::Div,
                        t => {
                            return Err(IdlError::Decode(format!(
                                "unknown size-program opcode {t}"
                            )))
                        }
                    };
                    ops.push(op);
                }
                dims.push(SizeProgram { ops });
            }
            params.push(CompiledParam {
                name: pname,
                mode,
                base,
                dims,
            });
        }
        Ok(Self {
            name,
            scalar_table,
            params,
            doc,
        })
    }
}

fn mode_tag(m: Mode) -> u32 {
    match m {
        Mode::In => 0,
        Mode::Out => 1,
        Mode::InOut => 2,
        Mode::Work => 3,
    }
}

fn untag_mode(t: u32) -> IdlResult<Mode> {
    match t {
        0 => Ok(Mode::In),
        1 => Ok(Mode::Out),
        2 => Ok(Mode::InOut),
        3 => Ok(Mode::Work),
        _ => Err(IdlError::Decode(format!("unknown mode tag {t}"))),
    }
}

fn base_tag(b: BaseType) -> u32 {
    match b {
        BaseType::Int => 0,
        BaseType::Long => 1,
        BaseType::Float => 2,
        BaseType::Double => 3,
    }
}

fn untag_base(t: u32) -> IdlResult<BaseType> {
    match t {
        0 => Ok(BaseType::Int),
        1 => Ok(BaseType::Long),
        2 => Ok(BaseType::Float),
        3 => Ok(BaseType::Double),
        _ => Err(IdlError::Decode(format!("unknown base type tag {t}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_one;

    fn dmmul() -> CompiledInterface {
        let def = parse_one(crate::stdlib()[0]).unwrap();
        CompiledInterface::compile(&def).unwrap()
    }

    #[test]
    fn compiles_dmmul() {
        let iface = dmmul();
        assert_eq!(iface.name, "dmmul");
        assert_eq!(iface.scalar_table, vec!["n"]);
        assert_eq!(iface.params.len(), 4);
        assert!(iface.params[0].is_scalar());
        assert_eq!(iface.params[1].dims.len(), 2);
    }

    #[test]
    fn layout_resolves_counts() {
        let iface = dmmul();
        let layout = iface.layout(&[("n", 8)]).unwrap();
        assert_eq!(layout[0].count, 1);
        assert_eq!(layout[1].count, 64);
        assert_eq!(layout[1].bytes, 512);
        assert_eq!(layout[3].mode, Mode::Out);
    }

    #[test]
    fn request_and_reply_bytes_for_dmmul() {
        let iface = dmmul();
        let n = 10i64;
        // A + B in, C out; scalars excluded.
        assert_eq!(
            iface.request_bytes(&[("n", n)]).unwrap(),
            2 * 8 * (n * n) as usize
        );
        assert_eq!(
            iface.reply_bytes(&[("n", n)]).unwrap(),
            8 * (n * n) as usize
        );
    }

    #[test]
    fn missing_scalar_is_error() {
        let iface = dmmul();
        assert!(matches!(iface.layout(&[("m", 8)]), Err(IdlError::Eval(_))));
    }

    #[test]
    fn xdr_roundtrip_preserves_interface() {
        for src in crate::stdlib() {
            let def = parse_one(src).unwrap();
            let iface = CompiledInterface::compile(&def).unwrap();
            let mut enc = XdrEncoder::new();
            iface.encode_xdr(&mut enc);
            let wire = enc.finish();
            let mut dec = XdrDecoder::new(&wire);
            let back = CompiledInterface::decode_xdr(&mut dec).unwrap();
            assert_eq!(back, iface);
            assert!(dec.is_empty());
        }
    }

    #[test]
    fn roundtripped_interface_computes_same_layout() {
        let iface = dmmul();
        let mut enc = XdrEncoder::new();
        iface.encode_xdr(&mut enc);
        let wire = enc.finish();
        let back = CompiledInterface::decode_xdr(&mut XdrDecoder::new(&wire)).unwrap();
        assert_eq!(
            back.layout(&[("n", 123)]).unwrap(),
            iface.layout(&[("n", 123)]).unwrap()
        );
    }

    #[test]
    fn corrupted_opcode_rejected() {
        let mut enc = XdrEncoder::new();
        enc.put_string("f");
        enc.put_string("");
        enc.put_u32(0); // no scalars
        enc.put_u32(1); // one param
        enc.put_string("x");
        enc.put_u32(0); // mode in
        enc.put_u32(3); // double
        enc.put_u32(1); // one dim
        enc.put_u32(1); // one op
        enc.put_u32(99); // bogus opcode
        let wire = enc.finish();
        assert!(matches!(
            CompiledInterface::decode_xdr(&mut XdrDecoder::new(&wire)),
            Err(IdlError::Decode(_))
        ));
    }

    #[test]
    fn malformed_program_stack_is_error() {
        let prog = SizeProgram { ops: vec![Op::Add] };
        assert!(matches!(prog.eval(&[]), Err(IdlError::Eval(_))));
        let prog = SizeProgram {
            ops: vec![Op::PushConst(1), Op::PushConst(2)],
        };
        assert!(matches!(prog.eval(&[]), Err(IdlError::Eval(_))));
    }

    #[test]
    fn var_slot_out_of_range_is_error() {
        let prog = SizeProgram {
            ops: vec![Op::PushVar(3)],
        };
        assert!(matches!(prog.eval(&[1, 2]), Err(IdlError::Eval(_))));
    }
}
