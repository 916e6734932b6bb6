//! The server directory: registration, monitoring, and failure accounting.

use std::sync::Mutex;
use std::time::Duration;

use ninf_client::{CallOptions, NinfClient};
use ninf_protocol::{LoadReport, ProtocolResult};

use crate::balance::ServerState;

/// Consecutive failures after which a server is quarantined: selection skips
/// it until a probe succeeds again.
pub const QUARANTINE_THRESHOLD: u32 = 3;

/// Cap on the retained health-event log; transitions beyond it are counted
/// in [`Directory::health_events_dropped`] instead of recorded.
const EVENT_CAP: usize = 1 << 16;

/// One registered computational server.
#[derive(Debug, Clone)]
pub struct ServerEntry {
    /// Human-readable name ("J90@ETL").
    pub name: String,
    /// TCP address ("host:port").
    pub addr: String,
    /// Configured/measured bandwidth estimate in bytes/second.
    pub bandwidth_bytes_per_sec: f64,
    /// Calibrated Linpack rate in Mflops.
    pub linpack_mflops: f64,
}

/// Health accounting for one server.
#[derive(Debug, Clone, Copy, Default)]
struct Health {
    consecutive_failures: u32,
    quarantined: bool,
}

/// One observable health-state transition, appended (under the same lock
/// that mutates the state) every time failure accounting runs. The log is
/// what a correctness harness replays to check quarantine/reinstate
/// legality: a [`HealthEvent::Quarantined`] may only follow a
/// [`HealthEvent::Failure`] whose streak reached the threshold, and a
/// [`HealthEvent::Reinstated`] may only follow a [`HealthEvent::Success`]
/// on the same server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthEvent {
    /// One failed call (`probe == false`) or failed reinstatement probe
    /// (`probe == true`); `streak` is the consecutive-failure count *after*
    /// this failure.
    Failure {
        /// Server index.
        server: usize,
        /// Whether the failure came from a reinstatement probe.
        probe: bool,
        /// Consecutive failures including this one.
        streak: u32,
    },
    /// The failure streak crossed [`QUARANTINE_THRESHOLD`]; emitted
    /// immediately after the tipping [`HealthEvent::Failure`].
    Quarantined {
        /// Server index.
        server: usize,
    },
    /// One successful call (`probe == false`) or reinstatement probe
    /// (`probe == true`); resets the streak.
    Success {
        /// Server index.
        server: usize,
        /// Whether the success came from a reinstatement probe.
        probe: bool,
    },
    /// A quarantined server became available again; emitted immediately
    /// after the clearing [`HealthEvent::Success`].
    Reinstated {
        /// Server index.
        server: usize,
    },
}

/// Health slots plus the transition log, guarded by one lock so every
/// event sequence in the log is a legal serialization of the state
/// machine.
#[derive(Debug, Default, Clone)]
struct HealthState {
    slots: Vec<Health>,
    events: Vec<HealthEvent>,
    events_dropped: u64,
}

impl HealthState {
    fn note(&mut self, e: HealthEvent) {
        if self.events.len() < EVENT_CAP {
            self.events.push(e);
        } else {
            self.events_dropped += 1;
        }
    }
}

/// Point-in-time copy of one server's health accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthSnapshot {
    /// Consecutive failures so far.
    pub consecutive_failures: u32,
    /// Whether the server is currently quarantined.
    pub quarantined: bool,
}

/// The metaserver's view of the server fleet.
#[derive(Debug, Default)]
pub struct Directory {
    entries: Vec<ServerEntry>,
    // Interior mutability: failure accounting happens on the read-only call
    // paths (choose/execute), which take `&self`.
    health: Mutex<HealthState>,
}

impl Clone for Directory {
    fn clone(&self) -> Self {
        Self {
            entries: self.entries.clone(),
            health: Mutex::new(self.health.lock().expect("health lock").clone()),
        }
    }
}

impl Directory {
    /// Empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a server; returns its index.
    pub fn register(&mut self, entry: ServerEntry) -> usize {
        self.entries.push(entry);
        self.health
            .lock()
            .expect("health lock")
            .slots
            .push(Health::default());
        self.entries.len() - 1
    }

    /// All entries.
    pub fn entries(&self) -> &[ServerEntry] {
        &self.entries
    }

    /// Number of servers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the directory is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Shared failure bookkeeping for calls and probes.
    fn fail(&self, idx: usize, probe: bool) -> bool {
        let mut health = self.health.lock().expect("health lock");
        let h = &mut health.slots[idx];
        h.consecutive_failures += 1;
        let streak = h.consecutive_failures;
        let tipped = !h.quarantined && streak >= QUARANTINE_THRESHOLD;
        if tipped {
            health.slots[idx].quarantined = true;
        }
        health.note(HealthEvent::Failure {
            server: idx,
            probe,
            streak,
        });
        if tipped {
            health.note(HealthEvent::Quarantined { server: idx });
        }
        tipped
    }

    /// Shared success bookkeeping for calls and probes.
    fn succeed(&self, idx: usize, probe: bool) {
        let mut health = self.health.lock().expect("health lock");
        let was_quarantined = health.slots[idx].quarantined;
        health.slots[idx] = Health::default();
        health.note(HealthEvent::Success { server: idx, probe });
        if was_quarantined {
            health.note(HealthEvent::Reinstated { server: idx });
        }
    }

    /// Record one failed call against server `idx`. Returns `true` if this
    /// failure pushed the server over [`QUARANTINE_THRESHOLD`] into
    /// quarantine.
    pub fn record_failure(&self, idx: usize) -> bool {
        self.fail(idx, false)
    }

    /// Record one successful call against server `idx`, clearing its
    /// failure streak (and any quarantine).
    pub fn record_success(&self, idx: usize) {
        self.succeed(idx, false);
    }

    /// Whether server `idx` is currently quarantined.
    pub fn is_quarantined(&self, idx: usize) -> bool {
        self.health.lock().expect("health lock").slots[idx].quarantined
    }

    /// Consecutive failure count for server `idx`.
    pub fn failure_count(&self, idx: usize) -> u32 {
        self.health.lock().expect("health lock").slots[idx].consecutive_failures
    }

    /// Point-in-time health of every server, in registration order.
    pub fn health_snapshot(&self) -> Vec<HealthSnapshot> {
        self.health
            .lock()
            .expect("health lock")
            .slots
            .iter()
            .map(|h| HealthSnapshot {
                consecutive_failures: h.consecutive_failures,
                quarantined: h.quarantined,
            })
            .collect()
    }

    /// The health-state transition log so far (capped; see
    /// [`Directory::health_events_dropped`]).
    pub fn health_events(&self) -> Vec<HealthEvent> {
        self.health.lock().expect("health lock").events.clone()
    }

    /// Transitions that no longer fit the capped event log.
    pub fn health_events_dropped(&self) -> u64 {
        self.health.lock().expect("health lock").events_dropped
    }

    /// Indices of all non-quarantined servers, in registration order.
    pub fn available_indices(&self) -> Vec<usize> {
        let health = self.health.lock().expect("health lock");
        (0..self.entries.len())
            .filter(|&i| !health.slots[i].quarantined)
            .collect()
    }

    /// Probe a quarantined server and reinstate it if it answers within
    /// `deadline`. Returns `true` if the server is available afterwards.
    pub fn try_reinstate(&self, idx: usize, deadline: Option<Duration>) -> bool {
        if !self.is_quarantined(idx) {
            return true;
        }
        match probe_with_deadline(&self.entries[idx].addr, deadline) {
            Ok(_) => {
                self.succeed(idx, true);
                true
            }
            Err(_) => {
                // Stays quarantined; keep counting so monitoring can see how
                // long it has been down.
                self.fail(idx, true);
                false
            }
        }
    }

    /// Probe the given subset of servers' loads over the wire, each bounded
    /// by `deadline`. An unreachable or hung server reports infinite load
    /// with zero PEs, so it never wins selection.
    pub fn probe_states(&self, indices: &[usize], deadline: Option<Duration>) -> Vec<ServerState> {
        self.states(indices, |addr| {
            probe_with_deadline(addr, deadline).unwrap_or(LoadReport {
                pes: 0,
                running: u32::MAX / 2,
                queued: 0,
                load_average: f64::INFINITY,
                cpu_utilization: 100.0,
            })
        })
    }

    /// The given subset of servers as a policy that reads no load sees
    /// them ([`crate::Balancing::reads_load`]): the directory's figures,
    /// with an idle load that nothing reads, and no dial.
    pub fn unprobed_states(&self, indices: &[usize]) -> Vec<ServerState> {
        self.states(indices, |_| LoadReport {
            pes: 0,
            running: 0,
            queued: 0,
            load_average: 0.0,
            cpu_utilization: 0.0,
        })
    }

    fn states(&self, indices: &[usize], load: impl Fn(&str) -> LoadReport) -> Vec<ServerState> {
        indices
            .iter()
            .map(|&i| {
                let e = &self.entries[i];
                ServerState {
                    load: load(&e.addr),
                    bandwidth_bytes_per_sec: e.bandwidth_bytes_per_sec,
                    linpack_mflops: e.linpack_mflops,
                }
            })
            .collect()
    }
}

/// One load probe over a fresh connection, bounded by `deadline` so that an
/// accepting-but-silent server yields a typed timeout instead of a hang.
fn probe_with_deadline(addr: &str, deadline: Option<Duration>) -> ProtocolResult<LoadReport> {
    let options = match deadline {
        Some(d) => CallOptions::with_deadline(d),
        None => CallOptions::default(),
    };
    NinfClient::connect_with(addr, options)?.query_load()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(name: &str) -> ServerEntry {
        ServerEntry {
            name: name.into(),
            addr: "127.0.0.1:1".into(),
            bandwidth_bytes_per_sec: 2.5e6,
            linpack_mflops: 600.0,
        }
    }

    #[test]
    fn register_and_list() {
        let mut d = Directory::new();
        assert!(d.is_empty());
        d.register(entry("a"));
        d.register(entry("b"));
        assert_eq!(d.len(), 2);
        assert_eq!(d.entries()[1].name, "b");
    }

    #[test]
    fn probe_of_dead_server_yields_infinite_load() {
        let mut d = Directory::new();
        d.register(entry("dead"));
        let states = d.probe_states(&[0], Some(Duration::from_millis(100)));
        assert_eq!(states.len(), 1);
        assert!(states[0].load.load_average.is_infinite());
    }

    #[test]
    fn quarantine_kicks_in_after_threshold() {
        let mut d = Directory::new();
        d.register(entry("flaky"));
        for i in 0..QUARANTINE_THRESHOLD {
            assert!(!d.is_quarantined(0), "quarantined after only {i} failures");
            let tipped = d.record_failure(0);
            assert_eq!(tipped, i + 1 == QUARANTINE_THRESHOLD);
        }
        assert!(d.is_quarantined(0));
        assert!(d.available_indices().is_empty());
    }

    #[test]
    fn success_clears_failure_streak() {
        let mut d = Directory::new();
        d.register(entry("recovering"));
        d.record_failure(0);
        d.record_failure(0);
        d.record_success(0);
        assert_eq!(d.failure_count(0), 0);
        // The streak restarts: two more failures still don't quarantine.
        d.record_failure(0);
        d.record_failure(0);
        assert!(!d.is_quarantined(0));
    }

    #[test]
    fn available_indices_skips_quarantined() {
        let mut d = Directory::new();
        d.register(entry("a"));
        d.register(entry("b"));
        d.register(entry("c"));
        for _ in 0..QUARANTINE_THRESHOLD {
            d.record_failure(1);
        }
        assert_eq!(d.available_indices(), vec![0, 2]);
    }

    #[test]
    fn reinstate_of_dead_server_fails_and_keeps_quarantine() {
        let mut d = Directory::new();
        d.register(entry("dead"));
        for _ in 0..QUARANTINE_THRESHOLD {
            d.record_failure(0);
        }
        assert!(!d.try_reinstate(0, Some(Duration::from_millis(100))));
        assert!(d.is_quarantined(0));
    }

    #[test]
    fn clone_carries_health_state() {
        let mut d = Directory::new();
        d.register(entry("a"));
        for _ in 0..QUARANTINE_THRESHOLD {
            d.record_failure(0);
        }
        let d2 = d.clone();
        assert!(d2.is_quarantined(0));
        // The event log travels too.
        assert_eq!(d2.health_events(), d.health_events());
    }

    #[test]
    fn event_log_records_quarantine_transition() {
        let mut d = Directory::new();
        d.register(entry("flaky"));
        d.record_failure(0);
        d.record_success(0);
        for _ in 0..QUARANTINE_THRESHOLD {
            d.record_failure(0);
        }
        let events = d.health_events();
        assert_eq!(
            events,
            vec![
                HealthEvent::Failure {
                    server: 0,
                    probe: false,
                    streak: 1
                },
                HealthEvent::Success {
                    server: 0,
                    probe: false
                },
                HealthEvent::Failure {
                    server: 0,
                    probe: false,
                    streak: 1
                },
                HealthEvent::Failure {
                    server: 0,
                    probe: false,
                    streak: 2
                },
                HealthEvent::Failure {
                    server: 0,
                    probe: false,
                    streak: 3
                },
                HealthEvent::Quarantined { server: 0 },
            ]
        );
        assert_eq!(d.health_events_dropped(), 0);
    }

    #[test]
    fn failed_probe_logs_probe_failure() {
        let mut d = Directory::new();
        d.register(entry("dead"));
        for _ in 0..QUARANTINE_THRESHOLD {
            d.record_failure(0);
        }
        assert!(!d.try_reinstate(0, Some(Duration::from_millis(50))));
        let last = *d.health_events().last().unwrap();
        assert_eq!(
            last,
            HealthEvent::Failure {
                server: 0,
                probe: true,
                streak: QUARANTINE_THRESHOLD + 1
            }
        );
    }

    #[test]
    fn snapshot_reflects_current_state() {
        let mut d = Directory::new();
        d.register(entry("a"));
        d.register(entry("b"));
        d.record_failure(1);
        let snap = d.health_snapshot();
        assert_eq!(
            snap,
            vec![
                HealthSnapshot {
                    consecutive_failures: 0,
                    quarantined: false
                },
                HealthSnapshot {
                    consecutive_failures: 1,
                    quarantined: false
                },
            ]
        );
    }
}
