//! Numerical kernels registered as *Ninf executables* on computational
//! servers.
//!
//! The SC'97 evaluation drives two application cores (paper §1, §3):
//!
//! * **Linpack** — LU factorization (`dgefa`) + back-substitution (`dgesl`),
//!   shipping dense matrices over the network: `8n² + 20n` bytes of traffic
//!   against `2/3·n³ + 2n²` flops. We provide the classic unblocked
//!   column-oriented routines, a blocked right-looking variant (the paper's
//!   `glub4`/`gslv4` "blocking optimizations … executed efficiently on
//!   RISC-based workstations"), and a rayon-parallel blocked variant standing
//!   in for the 4-PE libSci `sgetrf`/`sgetrs`.
//! * **NAS EP** — the embarrassingly parallel Monte-Carlo kernel with the
//!   official power-of-two linear congruential generator, O(1) communication.
//!
//! Plus the `dmmul` running example of §2 and a density-of-states (`dos`)
//! Monte-Carlo kernel, the "EP-style practical application in computational
//! chemistry" of §4.3.1.

pub mod blocked;
pub mod condition;
pub mod dmmul;
pub mod dos;
pub mod ep;
pub mod linpack;
pub mod matrix;
pub mod nbody;

pub use blocked::{dgefa_blocked, dgefa_blocked_parallel, dgesl_multi, DEFAULT_BLOCK};
pub use condition::{dgeco, dgesl_t};
pub use dmmul::{dmmul, dmmul_blocked, dmmul_parallel};
pub use dos::{dos_histogram, DosResult};
pub use ep::{
    ep_kernel, ep_kernel_parallel, ep_segment, ep_segment_any, EpResult, NasRng, EP_GAUSSIAN_BINS,
};
pub use linpack::{
    dgefa, dgesl, dgesl_cols, linpack_flops, linpack_message_bytes, matgen, random_matrix,
    residual_check, solve, ShapeError,
};
pub use matrix::Matrix;
pub use nbody::{
    nbody_flops, nbody_kernel, nbody_particles, nbody_probes, NbodyDiag, NBODY_PROBES,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flops_and_bytes_match_paper_models() {
        // Paper §3.1: T_comp work is 2/3 n^3 + 2 n^2; T_comm volume is 8n^2 + 20n.
        assert_eq!(linpack_flops(600), (2 * 600u64.pow(3)) / 3 + 2 * 600 * 600);
        assert_eq!(linpack_message_bytes(600), 8 * 600 * 600 + 20 * 600);
    }

    #[test]
    fn end_to_end_solve_small_system() {
        // 2x2: [[2, 1], [1, 3]] x = [3, 5] -> x = [0.8, 1.4]
        let mut a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let mut b = vec![3.0, 5.0];
        let x = solve(&mut a, &mut b).unwrap();
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }
}
