//! Typed argument values passed through `Ninf_call`.
//!
//! The current Ninf client API supports scalars and (multi-dimensional)
//! numeric arrays — the paper's footnote 1 notes that arbitrary user-defined
//! objects are future work. Matrices travel as flat column-major arrays; the
//! IDL layout supplies the logical dimensions.

use ninf_idl::{BaseType, IdlError};

/// One argument value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// 32-bit signed scalar.
    Int(i32),
    /// 64-bit signed scalar.
    Long(i64),
    /// Single-precision scalar.
    Float(f32),
    /// Double-precision scalar.
    Double(f64),
    /// Array of 32-bit signed integers.
    IntArray(Vec<i32>),
    /// Array of 64-bit signed integers.
    LongArray(Vec<i64>),
    /// Array of single-precision floats.
    FloatArray(Vec<f32>),
    /// Array of doubles (the workhorse: matrices, vectors).
    DoubleArray(Vec<f64>),
}

impl Value {
    /// The element base type.
    pub fn base_type(&self) -> BaseType {
        match self {
            Value::Int(_) | Value::IntArray(_) => BaseType::Int,
            Value::Long(_) | Value::LongArray(_) => BaseType::Long,
            Value::Float(_) | Value::FloatArray(_) => BaseType::Float,
            Value::Double(_) | Value::DoubleArray(_) => BaseType::Double,
        }
    }

    /// Whether this is a scalar value.
    pub fn is_scalar(&self) -> bool {
        matches!(
            self,
            Value::Int(_) | Value::Long(_) | Value::Float(_) | Value::Double(_)
        )
    }

    /// Element count (1 for scalars).
    pub fn count(&self) -> usize {
        match self {
            Value::IntArray(v) => v.len(),
            Value::LongArray(v) => v.len(),
            Value::FloatArray(v) => v.len(),
            Value::DoubleArray(v) => v.len(),
            _ => 1,
        }
    }

    /// Payload bytes this value occupies on the wire (excluding tags).
    pub fn wire_bytes(&self) -> usize {
        self.count() * self.base_type().wire_bytes()
    }

    /// The scalar's integer value, if it is an integer scalar. Used to bind
    /// IDL dimension variables.
    pub fn as_scalar_i64(&self) -> Option<i64> {
        match *self {
            Value::Int(v) => Some(v as i64),
            Value::Long(v) => Some(v),
            _ => None,
        }
    }

    /// Check this value against an IDL parameter layout.
    pub fn conforms(&self, base: BaseType, count: usize, scalar: bool) -> Result<(), IdlError> {
        if self.base_type() != base {
            return Err(IdlError::Semantic(format!(
                "argument type {:?} does not match IDL type {:?}",
                self.base_type(),
                base
            )));
        }
        if self.is_scalar() != scalar {
            return Err(IdlError::Semantic("scalar/array mismatch with IDL".into()));
        }
        if !scalar && self.count() != count {
            return Err(IdlError::Semantic(format!(
                "array length {} does not match IDL extent {count}",
                self.count()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Wire;
    use ninf_xdr::{XdrDecoder, XdrEncoder};

    /// `v`'s tagged image through the one codec, and the value read back.
    fn roundtrip(v: &Value) -> (usize, Value) {
        let mut enc = XdrEncoder::new();
        v.put(&mut enc);
        let wire = enc.finish();
        let mut dec = XdrDecoder::new(&wire);
        let back = Value::get(&mut dec).unwrap();
        assert!(dec.is_empty());
        (wire.len(), back)
    }

    #[test]
    fn scalar_roundtrip_all_types() {
        for v in [
            Value::Int(-7),
            Value::Long(1 << 40),
            Value::Float(2.5),
            Value::Double(-1e100),
        ] {
            // A tag word, then the body.
            assert_eq!(roundtrip(&v), (4 + v.wire_bytes(), v));
        }
    }

    #[test]
    fn array_roundtrip_all_types() {
        for v in [
            Value::IntArray(vec![1, -2, 3]),
            Value::LongArray(vec![1 << 40, -5]),
            Value::FloatArray(vec![0.5; 4]),
            Value::DoubleArray(vec![1.0, 2.0]),
        ] {
            // A tag word and a count word, then the body.
            assert_eq!(roundtrip(&v), (8 + v.wire_bytes(), v));
        }
    }

    #[test]
    fn conforms_checks_type_count_shape() {
        let v = Value::DoubleArray(vec![0.0; 9]);
        assert!(v.conforms(BaseType::Double, 9, false).is_ok());
        assert!(v.conforms(BaseType::Double, 8, false).is_err());
        assert!(v.conforms(BaseType::Float, 9, false).is_err());
        assert!(v.conforms(BaseType::Double, 9, true).is_err());
        let s = Value::Int(4);
        assert!(s.conforms(BaseType::Int, 1, true).is_ok());
        assert!(s.conforms(BaseType::Int, 1, false).is_err());
    }

    #[test]
    fn scalar_i64_extraction() {
        assert_eq!(Value::Int(5).as_scalar_i64(), Some(5));
        assert_eq!(Value::Long(-9).as_scalar_i64(), Some(-9));
        assert_eq!(Value::Double(1.0).as_scalar_i64(), None);
        assert_eq!(Value::IntArray(vec![1]).as_scalar_i64(), None);
    }

    #[test]
    fn wire_bytes_matches_layout_math() {
        assert_eq!(Value::Int(1).wire_bytes(), 4);
        assert_eq!(Value::Double(1.0).wire_bytes(), 8);
        assert_eq!(Value::DoubleArray(vec![0.0; 100]).wire_bytes(), 800);
        assert_eq!(Value::IntArray(vec![0; 7]).wire_bytes(), 28);
    }
}
