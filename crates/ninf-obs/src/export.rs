//! Joining spans into call trees and exporting Chrome `trace_event` JSON.
//!
//! The exported document loads directly in Perfetto / `chrome://tracing`:
//! one `pid` per logical process (client, metaserver, server), one `tid` per
//! trace so each call tree renders on its own track, and complete (`ph:"X"`)
//! events carrying the raw ids in `args` so a trace file round-trips loss-
//! lessly through [`parse_chrome_trace`] for CI validation
//! (`ninf-trace check`).

use std::collections::{BTreeMap, HashMap, HashSet};

use serde_json::{json, Map, Value};

use crate::trace::Span;

/// Drop duplicate spans (same `trace_id` + `span_id`), keeping the first
/// occurrence. Joining recorders that shared a process (an in-process fleet)
/// or overlapping fetches produces duplicates; the tree wants each span
/// once.
pub fn dedup(spans: &[Span]) -> Vec<Span> {
    let mut seen = HashSet::new();
    spans
        .iter()
        .filter(|s| seen.insert((s.trace_id, s.span_id)))
        .cloned()
        .collect()
}

/// Render spans as a Chrome `trace_event` JSON document.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let spans = dedup(spans);
    // Stable pid per process name, in order of first appearance.
    let mut pids: Vec<String> = Vec::new();
    // Stable tid per trace id, in order of first appearance.
    let mut tids: Vec<u64> = Vec::new();
    let mut events: Vec<Value> = Vec::new();
    for span in &spans {
        let pid = match pids.iter().position(|p| *p == span.process) {
            Some(i) => i + 1,
            None => {
                pids.push(span.process.clone());
                events.push(json!({
                    "ph": "M",
                    "name": "process_name",
                    "pid": pids.len(),
                    "tid": 0,
                    "args": { "name": span.process },
                }));
                pids.len()
            }
        };
        let tid = match tids.iter().position(|t| *t == span.trace_id) {
            Some(i) => i + 1,
            None => {
                tids.push(span.trace_id);
                tids.len()
            }
        };
        events.push(json!({
            "ph": "X",
            "cat": "ninf",
            "name": span.name,
            "pid": pid,
            "tid": tid,
            "ts": span.start_us,
            "dur": span.dur_us,
            "args": {
                "trace_id": format!("{:016x}", span.trace_id),
                "span_id": format!("{:016x}", span.span_id),
                "parent_span_id": format!("{:016x}", span.parent_span_id),
                "process": span.process,
                "detail": span.detail,
            },
        }));
    }
    let mut doc = Map::new();
    doc.insert("traceEvents".into(), Value::Array(events));
    doc.insert("displayTimeUnit".into(), Value::String("ms".into()));
    serde_json::to_string_pretty(&Value::Object(doc)).expect("json render")
}

fn hex_id(args: &Value, key: &str) -> Result<u64, String> {
    let s = args[key]
        .as_str()
        .ok_or_else(|| format!("event args missing {key}"))?;
    u64::from_str_radix(s, 16).map_err(|e| format!("bad {key} {s:?}: {e}"))
}

/// Rebuild spans from a Chrome trace document produced by
/// [`chrome_trace_json`]. Metadata events are skipped; every `ph:"X"` event
/// must carry the id args.
pub fn parse_chrome_trace(text: &str) -> Result<Vec<Span>, String> {
    let doc: Value = serde_json::from_str(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let events = doc["traceEvents"]
        .as_array()
        .ok_or("document has no traceEvents array")?;
    let mut spans = Vec::new();
    for ev in events {
        if ev["ph"].as_str() != Some("X") {
            continue;
        }
        let args = &ev["args"];
        spans.push(Span {
            trace_id: hex_id(args, "trace_id")?,
            span_id: hex_id(args, "span_id")?,
            parent_span_id: hex_id(args, "parent_span_id")?,
            name: ev["name"].as_str().ok_or("event missing name")?.to_string(),
            process: args["process"]
                .as_str()
                .ok_or("event args missing process")?
                .to_string(),
            start_us: ev["ts"].as_u64().ok_or("event missing ts")?,
            dur_us: ev["dur"].as_u64().ok_or("event missing dur")?,
            detail: args["detail"].as_str().unwrap_or("").to_string(),
        });
    }
    Ok(spans)
}

/// Verify that every child span nests inside its parent's interval, within
/// `slack_us` of clock tolerance. Spans whose parent is absent from the set
/// are treated as roots (a partial fetch is not an error).
pub fn validate_nesting(spans: &[Span], slack_us: u64) -> Result<(), String> {
    let by_id: HashMap<(u64, u64), &Span> =
        spans.iter().map(|s| ((s.trace_id, s.span_id), s)).collect();
    for span in spans {
        if span.parent_span_id == 0 {
            continue;
        }
        let Some(parent) = by_id.get(&(span.trace_id, span.parent_span_id)) else {
            continue;
        };
        if span.start_us + slack_us < parent.start_us || span.end_us() > parent.end_us() + slack_us
        {
            return Err(format!(
                "span {:016x} `{}` [{}..{}] escapes parent `{}` [{}..{}]",
                span.span_id,
                span.name,
                span.start_us,
                span.end_us(),
                parent.name,
                parent.start_us,
                parent.end_us(),
            ));
        }
    }
    Ok(())
}

/// Verify that every client-side call span has at least one server span in
/// the same trace; returns the number of client calls checked.
pub fn client_server_coverage(spans: &[Span]) -> Result<usize, String> {
    let mut server_traces: HashSet<u64> = HashSet::new();
    for s in spans {
        if s.process == "server" {
            server_traces.insert(s.trace_id);
        }
    }
    let mut checked = 0;
    for s in spans {
        if s.process == "client" && s.name == "call" {
            if !server_traces.contains(&s.trace_id) {
                return Err(format!(
                    "client call trace {:016x} has no server span",
                    s.trace_id
                ));
            }
            checked += 1;
        }
    }
    Ok(checked)
}

/// ASCII call tree of one joined trace set: one block per trace, children
/// indented under parents and ordered by start time.
pub fn render_tree(spans: &[Span]) -> String {
    let spans = dedup(spans);
    let mut by_trace: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in &spans {
        by_trace.entry(s.trace_id).or_default().push(s);
    }
    let mut out = String::new();
    for (trace_id, mut members) in by_trace {
        members.sort_by_key(|s| (s.start_us, s.span_id));
        out.push_str(&format!("trace {trace_id:016x}\n"));
        let ids: HashSet<u64> = members.iter().map(|s| s.span_id).collect();
        let t0 = members.iter().map(|s| s.start_us).min().unwrap_or(0);
        // Roots: parent 0 or parent not fetched.
        let roots: Vec<&&Span> = members
            .iter()
            .filter(|s| s.parent_span_id == 0 || !ids.contains(&s.parent_span_id))
            .collect();
        for root in roots {
            render_subtree(root, &members, t0, 1, &mut out);
        }
    }
    out
}

fn render_subtree(span: &Span, all: &[&Span], t0: u64, depth: usize, out: &mut String) {
    let indent = "  ".repeat(depth);
    let detail = if span.detail.is_empty() {
        String::new()
    } else {
        format!("  [{}]", span.detail)
    };
    out.push_str(&format!(
        "{indent}{:<12} {:>10} +{:>8} µs  dur {:>8} µs{detail}\n",
        span.name,
        span.process,
        span.start_us.saturating_sub(t0),
        span.dur_us,
    ));
    for child in all.iter().filter(|s| s.parent_span_id == span.span_id) {
        render_subtree(child, all, t0, depth + 1, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceContext;

    fn span(ctx: TraceContext, name: &str, process: &str, start: u64, dur: u64) -> Span {
        Span {
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            parent_span_id: ctx.parent_span_id,
            name: name.into(),
            process: process.into(),
            start_us: start,
            dur_us: dur,
            detail: String::new(),
        }
    }

    fn sample_trace() -> Vec<Span> {
        let root = TraceContext::root();
        let rpc = root.child();
        let server = rpc.child();
        let exec = server.child();
        vec![
            span(root, "call", "client", 1000, 900),
            span(rpc, "rpc", "client", 1100, 700),
            span(server, "request", "server", 1200, 500),
            span(exec, "exec", "server", 1300, 300),
        ]
    }

    #[test]
    fn chrome_json_round_trips() {
        let spans = sample_trace();
        let text = chrome_trace_json(&spans);
        let parsed = parse_chrome_trace(&text).expect("parse");
        assert_eq!(parsed, spans);
    }

    #[test]
    fn chrome_json_has_metadata_and_valid_shape() {
        let text = chrome_trace_json(&sample_trace());
        let doc: Value = serde_json::from_str(&text).expect("valid json");
        let events = doc["traceEvents"].as_array().expect("array");
        // 2 process_name metadata events (client, server) + 4 spans.
        assert_eq!(events.len(), 6);
        let metas: Vec<_> = events
            .iter()
            .filter(|e| e["ph"].as_str() == Some("M"))
            .collect();
        assert_eq!(metas.len(), 2);
        assert_eq!(metas[0]["args"]["name"].as_str(), Some("client"));
    }

    #[test]
    fn nesting_validates_and_catches_escapes() {
        let mut spans = sample_trace();
        assert!(validate_nesting(&spans, 0).is_ok());
        // Push the exec span past its parent's end.
        spans[3].start_us = 5000;
        let err = validate_nesting(&spans, 0).unwrap_err();
        assert!(err.contains("escapes parent"), "{err}");
        // A big enough slack forgives it.
        assert!(validate_nesting(&spans, 10_000).is_ok());
    }

    #[test]
    fn orphan_spans_are_roots_not_errors() {
        let spans = &sample_trace()[2..]; // server side only
        assert!(validate_nesting(spans, 0).is_ok());
    }

    #[test]
    fn coverage_requires_a_server_span_per_client_call() {
        let spans = sample_trace();
        assert_eq!(client_server_coverage(&spans).unwrap(), 1);
        let client_only = &spans[..2];
        assert!(client_server_coverage(client_only).is_err());
        // No client calls at all: vacuously fine, zero checked.
        assert_eq!(client_server_coverage(&spans[2..]).unwrap(), 0);
    }

    #[test]
    fn dedup_drops_repeats() {
        let mut spans = sample_trace();
        spans.extend(sample_trace_clone(&spans));
        assert_eq!(dedup(&spans).len(), 4);
    }

    fn sample_trace_clone(spans: &[Span]) -> Vec<Span> {
        spans.to_vec()
    }

    #[test]
    fn tree_renders_depth_and_order() {
        let tree = render_tree(&sample_trace());
        let call = tree.find("call").unwrap();
        let rpc = tree.find("rpc").unwrap();
        let request = tree.find("request").unwrap();
        let exec = tree.find("exec").unwrap();
        assert!(call < rpc && rpc < request && request < exec);
        assert!(tree.starts_with("trace "));
        // Depth shows as growing indentation.
        let line = |needle: &str| {
            tree.lines()
                .find(|l| l.contains(needle))
                .unwrap()
                .chars()
                .take_while(|c| *c == ' ')
                .count()
        };
        assert!(line("call") < line("rpc"));
        assert!(line("rpc") < line("request"));
        assert!(line("request") < line("exec"));
    }
}
