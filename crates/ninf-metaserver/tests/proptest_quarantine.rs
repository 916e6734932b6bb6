//! Property coverage for the quarantine state machine: no sequence of
//! failures and failed probes can reinstate a server — only a successful
//! probe (or a successful call) clears quarantine — and the event log the
//! directory emits always replays legally against a reference model.

use std::time::Duration;

use ninf_metaserver::{Directory, HealthEvent, ServerEntry, QUARANTINE_THRESHOLD};
use ninf_server::{
    builtin::register_stdlib, ExecMode, NinfServer, Registry, SchedPolicy, ServerConfig,
};
use proptest::prelude::*;

/// Events the harness can feed the directory. `ProbeDead` probes
/// 127.0.0.1:1 (connection refused, fails fast), so it can never succeed.
#[derive(Debug, Clone, Copy)]
enum Op {
    Fail,
    ProbeDead,
    Succeed,
}

fn dead_entry() -> ServerEntry {
    ServerEntry {
        name: "dead".into(),
        addr: "127.0.0.1:1".into(),
        bandwidth_bytes_per_sec: 10e6,
        linpack_mflops: 100.0,
    }
}

/// Reference state machine, replayed event-by-event to check the log.
#[derive(Default, Clone, Copy)]
struct Model {
    streak: u32,
    quarantined: bool,
}

/// Replay an event log against fresh models, panicking on any illegal
/// transition. Returns the final model per server.
fn replay(events: &[HealthEvent], servers: usize) -> Vec<Model> {
    let mut models = vec![Model::default(); servers];
    let mut pending_quarantine: Option<usize> = None;
    let mut pending_reinstate: Option<usize> = None;
    for (i, e) in events.iter().enumerate() {
        // A tip-over or clearing event must follow immediately.
        if let Some(s) = pending_quarantine.take() {
            assert_eq!(
                *e,
                HealthEvent::Quarantined { server: s },
                "event {i}: threshold crossed for {s} but no Quarantined followed"
            );
        } else if let Some(s) = pending_reinstate.take() {
            assert_eq!(
                *e,
                HealthEvent::Reinstated { server: s },
                "event {i}: success on quarantined {s} but no Reinstated followed"
            );
        }
        match *e {
            HealthEvent::Failure { server, streak, .. } => {
                let m = &mut models[server];
                m.streak += 1;
                assert_eq!(streak, m.streak, "event {i}: streak mismatch");
                if !m.quarantined && m.streak >= QUARANTINE_THRESHOLD {
                    m.quarantined = true;
                    pending_quarantine = Some(server);
                }
            }
            HealthEvent::Quarantined { server } => {
                assert!(
                    models[server].quarantined && models[server].streak >= QUARANTINE_THRESHOLD,
                    "event {i}: Quarantined without a tipping Failure"
                );
            }
            HealthEvent::Success { server, .. } => {
                let m = &mut models[server];
                if m.quarantined {
                    pending_reinstate = Some(server);
                }
                m.streak = 0;
                m.quarantined = false;
            }
            HealthEvent::Reinstated { server } => {
                // Legal only when the matching Success was just consumed;
                // `pending_reinstate` was cleared above, so reaching here
                // with state still quarantined (or out of order) is a bug.
                assert!(
                    !models[server].quarantined,
                    "event {i}: Reinstated while model still quarantined"
                );
            }
        }
    }
    assert!(pending_quarantine.is_none(), "dangling threshold crossing");
    assert!(pending_reinstate.is_none(), "dangling reinstatement");
    models
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Failures and dead probes can never reinstate: once the directory
    /// quarantines the server, every subsequent non-success event leaves it
    /// quarantined, and the directory state always agrees with the model.
    #[test]
    fn only_success_reinstates(ops in proptest::collection::vec(
        prop_oneof![4 => Just(Op::Fail), 2 => Just(Op::ProbeDead), 1 => Just(Op::Succeed)],
        1..40,
    )) {
        let mut d = Directory::new();
        d.register(dead_entry());
        let mut model = Model::default();
        for op in ops {
            match op {
                Op::Fail => {
                    d.record_failure(0);
                    model.streak += 1;
                    if model.streak >= QUARANTINE_THRESHOLD {
                        model.quarantined = true;
                    }
                }
                Op::ProbeDead => {
                    let available = d.try_reinstate(0, Some(Duration::from_millis(50)));
                    if model.quarantined {
                        // The probe target cannot answer, so reinstatement
                        // must be impossible.
                        prop_assert!(!available);
                        model.streak += 1;
                    } else {
                        prop_assert!(available);
                    }
                }
                Op::Succeed => {
                    d.record_success(0);
                    model = Model::default();
                }
            }
            prop_assert_eq!(d.is_quarantined(0), model.quarantined);
            prop_assert_eq!(d.failure_count(0), model.streak);
        }
        // The emitted event log replays legally and lands on the same state.
        let final_model = replay(&d.health_events(), 1)[0];
        prop_assert_eq!(final_model.quarantined, model.quarantined);
        prop_assert_eq!(final_model.streak, model.streak);
    }
}

/// A successful probe against a live server does reinstate — the positive
/// companion to the property above.
#[test]
fn successful_probe_reinstates() {
    let mut registry = Registry::new();
    register_stdlib(&mut registry, false);
    let server = NinfServer::start(
        "127.0.0.1:0",
        registry,
        ServerConfig {
            pes: 1,
            mode: ExecMode::TaskParallel,
            policy: SchedPolicy::Fcfs,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut d = Directory::new();
    d.register(ServerEntry {
        name: "live".into(),
        addr: server.addr().to_string(),
        bandwidth_bytes_per_sec: 10e6,
        linpack_mflops: 100.0,
    });
    for _ in 0..QUARANTINE_THRESHOLD {
        d.record_failure(0);
    }
    assert!(d.is_quarantined(0));
    assert!(d.try_reinstate(0, Some(Duration::from_secs(2))));
    assert!(!d.is_quarantined(0));
    assert_eq!(d.failure_count(0), 0);
    // The log ends Success{probe:true} → Reinstated and replays legally.
    let events = d.health_events();
    assert_eq!(
        &events[events.len() - 2..],
        &[
            HealthEvent::Success {
                server: 0,
                probe: true
            },
            HealthEvent::Reinstated { server: 0 },
        ]
    );
    let m = replay(&events, 1)[0];
    assert!(!m.quarantined);
    server.shutdown();
}
