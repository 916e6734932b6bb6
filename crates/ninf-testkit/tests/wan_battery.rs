//! The WAN test battery: the `wan-partition` chaos scenario holding its
//! invariants under seeded loss, same-seed reproducibility down to the
//! byte, and the live shaped-loopback upload goodput agreeing with the
//! `ninf-netsim` FluidNet upload model.
//!
//! Everything here runs against real `ninfd` fleets over loopback TCP —
//! the only "network" is [`ninf_protocol::LinkTransport`], so the whole
//! battery is deterministic for a given seed and safe for CI.

use ninf_protocol::{LinkShape, MAX_LANE_WINDOW};
use ninf_testkit::{chaos, run_chaos, wan_live_vs_sim, ChaosRun, Inject, WAN_DIFF_CHUNK_BYTES};

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
    // (spec, seed). Loss schedules, redials, and retransmit counts are
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
    // variance a lossy schedule would add on a loaded CI host. One lane
    // over three links whose bandwidth-delay product is a quarter of, about
    // equal to, and twice the window cap: the window fills the first two
    // and binds on the third, and the model must say how much of each link
    // the upload gets.
    // At 1 MB/s a chunk takes 4 ms of link time, so the live sender's
    // per-chunk wake-ups stay a small share of it even on a loaded host.
    let bw = 1_000_000u64;
    let cap_bytes = u64::from(MAX_LANE_WINDOW * WAN_DIFF_CHUNK_BYTES);
    let link = |bdp_in_caps: f64| LinkShape {
        bytes_per_sec: bw,
        // bdp = bw × 2·delay
        delay_us: (bdp_in_caps * cap_bytes as f64 / (2.0 * bw as f64) * 1e6) as u64,
        ..LinkShape::default()
    };
    let report = wan_live_vs_sim(&[link(0.25), link(1.0), link(2.0)], 1997)
        .expect("live wan-upload leg runs");
    println!("{}", report.render());
    assert!(report.pass(), "{}", report.render());
}
