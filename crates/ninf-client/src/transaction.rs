//! Ninf transactions: `Ninf_transaction_begin` / `Ninf_transaction_end`.
//!
//! "The block of code surrounded by Ninf_transaction_begin and
//! Ninf_transaction_end are not executed immediately; rather,
//! data-dependency graph of the Ninf_call arguments are dynamically created,
//! and at the end of the code block, the metaserver schedules the computation
//! to multiple computational servers accordingly" (paper §2.4).
//!
//! A [`Transaction`] records planned calls whose arguments may be literal
//! values or references to *slots* written by earlier calls. Dependencies:
//!
//! * read-after-write: a call reading a slot depends on its latest writer;
//! * write-after-write / write-after-read: rewriting a slot depends on the
//!   previous writer and all readers since.
//!
//! [`Transaction::dependency_levels`] layers the DAG; calls within one level
//! have no mutual dependencies and run task-parallel (how the EP benchmark of
//! §4.3.1 fans out across the 32-node Alpha cluster). This crate only
//! records; `ninf_metaserver::Metaserver::execute_transaction` is the one
//! executor — over a one-server directory when there is a single server.

use ninf_protocol::Value;

/// A placeholder for a value produced by one call and consumed by another.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SlotId(pub usize);

/// One argument of a planned call.
#[derive(Debug, Clone, PartialEq)]
pub enum TxArg {
    /// A literal value known at planning time.
    Value(Value),
    /// The content of a slot (must be written by an earlier call).
    Ref(SlotId),
}

/// One recorded `Ninf_call`.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedCall {
    /// Routine name.
    pub routine: String,
    /// Input arguments (declaration order of the `mode_in`/`mode_inout`
    /// parameters).
    pub args: Vec<TxArg>,
    /// Slots receiving the call's outputs, in result order. `None` entries
    /// discard that output.
    pub outputs: Vec<Option<SlotId>>,
}

/// A recorded transaction.
#[derive(Debug, Default, Clone)]
pub struct Transaction {
    calls: Vec<PlannedCall>,
    n_slots: usize,
}

impl Transaction {
    /// `Ninf_transaction_begin`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate a fresh slot.
    pub fn slot(&mut self) -> SlotId {
        self.n_slots += 1;
        SlotId(self.n_slots - 1)
    }

    /// Record a call; returns its index.
    pub fn call(
        &mut self,
        routine: impl Into<String>,
        args: Vec<TxArg>,
        outputs: Vec<Option<SlotId>>,
    ) -> usize {
        self.calls.push(PlannedCall {
            routine: routine.into(),
            args,
            outputs,
        });
        self.calls.len() - 1
    }

    /// Recorded calls.
    pub fn calls(&self) -> &[PlannedCall] {
        &self.calls
    }

    /// Number of slots allocated.
    pub fn slot_count(&self) -> usize {
        self.n_slots
    }

    /// Per-call dependency lists (indices of earlier calls this call must
    /// wait for), from slot dataflow.
    ///
    /// # Errors
    /// Returns the offending call index if it reads a slot no earlier call
    /// wrote.
    pub fn dependencies(&self) -> Result<Vec<Vec<usize>>, usize> {
        let mut writer: Vec<Option<usize>> = vec![None; self.n_slots];
        let mut readers: Vec<Vec<usize>> = vec![Vec::new(); self.n_slots];
        let mut deps: Vec<Vec<usize>> = Vec::with_capacity(self.calls.len());

        for (i, call) in self.calls.iter().enumerate() {
            let mut d: Vec<usize> = Vec::new();
            for arg in &call.args {
                if let TxArg::Ref(slot) = arg {
                    match writer.get(slot.0).copied().flatten() {
                        Some(w) => d.push(w),
                        None => return Err(i),
                    }
                }
            }
            for out in call.outputs.iter().flatten() {
                // WAW: depend on the previous writer; WAR: on all readers.
                if let Some(w) = writer[out.0] {
                    d.push(w);
                }
                d.extend(readers[out.0].iter().copied());
            }
            // Register this call's reads/writes.
            for arg in &call.args {
                if let TxArg::Ref(slot) = arg {
                    readers[slot.0].push(i);
                }
            }
            for out in call.outputs.iter().flatten() {
                writer[out.0] = Some(i);
                readers[out.0].clear();
            }
            d.sort_unstable();
            d.dedup();
            deps.push(d);
        }
        Ok(deps)
    }

    /// Layer the DAG into parallel batches: level k contains calls all of
    /// whose dependencies are in levels < k.
    pub fn dependency_levels(&self) -> Result<Vec<Vec<usize>>, usize> {
        let deps = self.dependencies()?;
        let mut level = vec![0usize; deps.len()];
        for i in 0..deps.len() {
            // deps[i] only contains indices < i, so one forward pass layers
            // the whole DAG.
            level[i] = deps[i].iter().map(|&d| level[d] + 1).max().unwrap_or(0);
        }
        let max_level = level.iter().copied().max().map_or(0, |m| m + 1);
        let mut out = vec![Vec::new(); max_level];
        for (i, &l) in level.iter().enumerate() {
            out[l].push(i);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: i32) -> TxArg {
        TxArg::Value(Value::Int(v))
    }

    /// The paper's task-parallel EP loop: independent calls form one level.
    #[test]
    fn independent_calls_are_one_level() {
        let mut tx = Transaction::new();
        for _ in 0..8 {
            let out = tx.slot();
            tx.call("ep", vec![lit(24)], vec![Some(out)]);
        }
        let levels = tx.dependency_levels().unwrap();
        assert_eq!(levels.len(), 1);
        assert_eq!(levels[0].len(), 8);
    }

    /// dgefa → dgesl chains: the solve depends on the factorization.
    #[test]
    fn read_after_write_chains() {
        let mut tx = Transaction::new();
        let lu = tx.slot();
        let piv = tx.slot();
        let fact = tx.call("dgefa", vec![lit(4)], vec![Some(lu), Some(piv), None]);
        let x = tx.slot();
        let solve = tx.call(
            "dgesl",
            vec![lit(4), TxArg::Ref(lu), TxArg::Ref(piv)],
            vec![Some(x)],
        );
        let deps = tx.dependencies().unwrap();
        assert!(deps[fact].is_empty());
        assert_eq!(deps[solve], vec![fact]);
        let levels = tx.dependency_levels().unwrap();
        assert_eq!(levels, vec![vec![fact], vec![solve]]);
    }

    #[test]
    fn diamond_dependencies() {
        let mut tx = Transaction::new();
        let a = tx.slot();
        let c0 = tx.call("f", vec![lit(1)], vec![Some(a)]);
        let b = tx.slot();
        let c = tx.slot();
        let c1 = tx.call("g", vec![TxArg::Ref(a)], vec![Some(b)]);
        let c2 = tx.call("g", vec![TxArg::Ref(a)], vec![Some(c)]);
        let d = tx.slot();
        let c3 = tx.call("h", vec![TxArg::Ref(b), TxArg::Ref(c)], vec![Some(d)]);
        let levels = tx.dependency_levels().unwrap();
        assert_eq!(levels, vec![vec![c0], vec![c1, c2], vec![c3]]);
    }

    #[test]
    fn write_after_write_orders() {
        let mut tx = Transaction::new();
        let s = tx.slot();
        let first = tx.call("f", vec![lit(1)], vec![Some(s)]);
        let second = tx.call("f", vec![lit(2)], vec![Some(s)]);
        let deps = tx.dependencies().unwrap();
        assert_eq!(deps[second], vec![first]);
    }

    #[test]
    fn write_after_read_orders() {
        let mut tx = Transaction::new();
        let s = tx.slot();
        let w = tx.call("f", vec![lit(1)], vec![Some(s)]);
        let r = tx.call("g", vec![TxArg::Ref(s)], vec![None]);
        let rw = tx.call("f", vec![lit(2)], vec![Some(s)]);
        let deps = tx.dependencies().unwrap();
        assert_eq!(deps[r], vec![w]);
        // The rewrite must wait for the reader (and transitively the writer).
        assert!(deps[rw].contains(&r));
    }

    #[test]
    fn reading_unwritten_slot_is_error() {
        let mut tx = Transaction::new();
        let s = tx.slot();
        let bad = tx.call("g", vec![TxArg::Ref(s)], vec![None]);
        assert_eq!(tx.dependencies(), Err(bad));
        assert_eq!(tx.dependency_levels(), Err(bad));
    }

    #[test]
    fn empty_transaction_has_no_levels() {
        let tx = Transaction::new();
        assert_eq!(tx.dependency_levels().unwrap(), Vec::<Vec<usize>>::new());
    }

    #[test]
    fn discarded_outputs_do_not_create_slots_deps() {
        let mut tx = Transaction::new();
        let a = tx.call("ep", vec![lit(20)], vec![None, None]);
        let b = tx.call("ep", vec![lit(20)], vec![None, None]);
        let deps = tx.dependencies().unwrap();
        assert!(deps[a].is_empty());
        assert!(deps[b].is_empty());
    }
}
