//! The WAN test battery: the `wan-partition` chaos scenario holding its
//! invariants under seeded loss, same-seed reproducibility down to the
//! byte, and the live shaped-loopback goodput shape agreeing with the
//! `ninf-netsim` FluidNet upload model.
//!
//! Everything here runs against real `ninfd` fleets over loopback TCP —
//! the only "network" is [`ninf_protocol::LinkTransport`], so the whole
//! battery is deterministic for a given seed and safe for CI.

use ninf_protocol::LinkShape;
use ninf_testkit::{chaos, run_chaos, wan_live_vs_sim, ChaosRun, Inject, DEFAULT_TOLERANCE};

fn wan_partition(seed: u64) -> ChaosRun {
    let spec = chaos("wan-partition").expect("scenario registered");
    run_chaos(&spec, seed, Inject::None).expect("fleet spawns on loopback")
}

#[test]
fn wan_partition_holds_its_invariants_across_seeds() {
    // Two seeds with distinct loss schedules; the 100-seed sweep lives in
    // CI (`ninf-chaos hunt --scenario wan-partition`), this pins the two
    // ends locally.
    for seed in [1997u64, 4242] {
        let run = wan_partition(seed);
        assert!(run.pass(), "seed {seed} failed:\n{}", run.transcript);
        // The scenario is only meaningful if the bulk leg actually ran:
        // the transcript must pin the link shape it shipped over.
        assert!(
            run.transcript.contains("# wan "),
            "transcript must record the link shape:\n{}",
            run.transcript
        );
    }
}

#[test]
fn same_seed_wan_partition_runs_print_byte_identical_transcripts() {
    // The determinism contract: transcripts are pure functions of
    // (spec, seed). Loss schedules, lane deaths, and retransmit counts are
    // all wall-clock-adjacent, so none of them may leak into the bytes.
    let a = wan_partition(7);
    let b = wan_partition(7);
    assert_eq!(
        a.transcript, b.transcript,
        "same-seed transcripts must be byte-identical"
    );
}

#[test]
fn live_goodput_shape_matches_the_fluidnet_model() {
    // Loss-free shaping for the differential, without the run-to-run
    // variance a lossy schedule would add on a loaded CI host. Both sides
    // run the window `lane_window` computes for this link (10 chunks of a
    // 160 KB bandwidth-delay product), so both say the same thing: one
    // lane already fills the pipe and more lanes change nothing.
    let shape = LinkShape::parse("bw=16m,delay=5ms").unwrap();
    let report = wan_live_vs_sim(&[1, 2, 4], shape, 1997, DEFAULT_TOLERANCE)
        .expect("live wan-streams leg runs");
    assert!(report.pass(), "{}", report.render());
}
