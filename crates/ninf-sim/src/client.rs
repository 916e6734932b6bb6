//! The simulated client: the §4.1 model program.
//!
//! "we employ a routine which calls either the Linpack (sgetrf and sgetrs) or
//! the EP routine repeatedly. We assume that each client performs a Ninf_call
//! on the interval of s seconds with probability p" — with `s = 3`,
//! `p = 1/2` in the paper's runs. A client is synchronous: while a call is in
//! flight, decision epochs are skipped.

use ninf_protocol::SplitMix64;

/// One simulated client process.
#[derive(Debug)]
pub struct ClientProc {
    /// Index in the scenario's client list.
    pub index: usize,
    /// Whether a call is currently in flight.
    pub busy: bool,
    /// Private random stream (coin flips for the decision process).
    pub rng: SplitMix64,
}

impl ClientProc {
    /// New idle client.
    pub fn new(index: usize, rng: SplitMix64) -> Self {
        Self {
            index,
            busy: false,
            rng,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clients_start_idle() {
        let c = ClientProc::new(3, SplitMix64::new(1));
        assert_eq!(c.index, 3);
        assert!(!c.busy);
    }

    #[test]
    fn client_rngs_are_independent() {
        let mut root = SplitMix64::new(9);
        let mut a = ClientProc::new(0, root.fork());
        let mut b = ClientProc::new(1, root.fork());
        assert_ne!(a.rng.next_u64(), b.rng.next_u64());
    }
}
