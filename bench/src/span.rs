//! The benchmark's own in-memory span recorder. Spans are recorded around
//! the calls into each layer — nothing inside the program is instrumented —
//! kept in memory, and written out when the run ends.

use serde_json::{json, Value as Json};

/// One span: a named interval, the span that caused it, and the trace (one
/// per call) it belongs to. Times are microseconds since the run's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub trace_id: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

#[derive(Debug, Default)]
pub struct Recorder {
    spans: Vec<Span>,
}

impl Recorder {
    /// Record a span and return its id for children to name as parent.
    pub fn record(
        &mut self,
        trace_id: u64,
        parent: Option<u32>,
        name: &'static str,
        start_us: f64,
        end_us: f64,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            trace_id,
            name,
            start_us,
            end_us,
        });
        id
    }

    /// Close a span whose end was not known when it was opened.
    pub fn set_end(&mut self, id: u32, end_us: f64) {
        self.spans[id as usize].end_us = end_us;
    }

    /// A span's duration minus the part of its interval its direct children
    /// cover (children clipped to the parent, overlaps counted once).
    pub fn self_time_us(&self, id: u32) -> f64 {
        let span = &self.spans[id as usize];
        let mut kids: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_us.max(span.start_us), s.end_us.min(span.end_us)))
            .filter(|(start, end)| end > start)
            .collect();
        kids.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut reach = f64::NEG_INFINITY;
        for (start, end) in kids {
            if end > reach {
                covered += end - start.max(reach);
                reach = end;
            }
        }
        span.dur_us() - covered
    }

    /// Sum of self times over one trace: with sequential children this is
    /// the root's duration, split by who owns each microsecond.
    pub fn self_times(&self, trace_id: u64) -> Vec<(&'static str, f64)> {
        self.spans
            .iter()
            .filter(|s| s.trace_id == trace_id)
            .map(|s| (s.name, self.self_time_us(s.id)))
            .collect()
    }

    pub fn to_json(&self) -> Json {
        Json::Array(
            self.spans
                .iter()
                .map(|s| {
                    json!({
                        "id": s.id,
                        "parent": s.parent.map_or(Json::Null, |p| json!(p)),
                        "trace_id": s.trace_id,
                        "name": s.name,
                        "start_us": s.start_us,
                        "end_us": s.end_us,
                    })
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_once() {
        let mut r = Recorder::default();
        let root = r.record(1, None, "frame_encode", 0.0, 100.0);
        let xdr = r.record(1, Some(root), "xdr.encode", 10.0, 40.0);
        r.record(1, Some(root), "crc", 30.0, 60.0); // overlaps xdr by 10
        r.record(1, Some(root), "late", 90.0, 130.0); // clipped to 90..100
        r.record(1, Some(xdr), "grandchild", 10.0, 20.0);
        r.record(2, None, "other-trace", 0.0, 50.0);
        // covered: 10..60 (50) + 90..100 (10)
        assert_eq!(r.self_time_us(root), 40.0);
        // the grandchild reduces xdr's self time, not the root's
        assert_eq!(r.self_time_us(xdr), 20.0);
        let total: f64 = r.self_times(1).iter().map(|(_, t)| t).sum();
        // 40 + 20 + 30 + 40 (unclipped own duration of `late`) + 10
        assert_eq!(total, 140.0);
        assert_eq!(r.self_times(2), vec![("other-trace", 50.0)]);
    }

    #[test]
    fn sequential_children_sum_to_the_root() {
        let mut r = Recorder::default();
        let root = r.record(7, None, "call", 0.0, 90.0);
        r.record(7, Some(root), "a", 0.0, 30.0);
        let b = r.record(7, Some(root), "b", 30.0, 80.0);
        r.record(7, Some(b), "b.inner", 35.0, 45.0);
        let total: f64 = r.self_times(7).iter().map(|(_, t)| t).sum();
        assert_eq!(total, 90.0);
        assert_eq!(r.self_time_us(root), 10.0);
    }
}
