//! `ninf-perf compare`: one row per (workload, end-to-end metric) of two
//! result files, judged against the bound the benchmark fixed.

use serde_json::Value as Json;

use crate::spec::{EndToEnd, END_TO_END, WORKLOADS};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Ok,
    /// The median is worse than the bound allows.
    Regressed,
    /// The run-to-run spread of either side is wider than the bound, so
    /// neither "unchanged" nor "regressed" can be claimed.
    Unresolved,
}

impl Status {
    fn as_str(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Regressed => "REGRESSED",
            Status::Unresolved => "unresolved",
        }
    }
}

/// Judge `b` against `a`. `spreads` are the IQR shares the two files carry
/// (absent with fewer than four sets).
pub fn judge(e: &EndToEnd, a: f64, b: f64, spreads: [Option<f64>; 2]) -> Status {
    if spreads.iter().flatten().any(|&s| s > e.bound) {
        Status::Unresolved
    } else if e.better.worsening(a, b) > e.bound {
        Status::Regressed
    } else {
        Status::Ok
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// Compare two result files; `Ok(false)` on any regression or a higher
/// error share.
pub fn compare(a: &Json, b: &Json) -> Result<bool, String> {
    let mut pass = true;
    println!(
        "{:<15} {:<22} {:>14} {:>14} {:>9} {:>7}  status",
        "workload", "metric", "a", "b", "change", "bound"
    );
    for w in &WORKLOADS {
        let (wa, wb) = (&a["workloads"][w.name], &b["workloads"][w.name]);
        if wa.is_null() || wb.is_null() {
            return Err(format!(
                "workload `{}` is missing from a result file",
                w.name
            ));
        }
        for e in &END_TO_END {
            let (ma, mb) = (&wa["end_to_end"][e.name], &wb["end_to_end"][e.name]);
            let (Some(va), Some(vb)) = (ma["value"].as_f64(), mb["value"].as_f64()) else {
                return Err(format!(
                    "{} / {} is missing from a result file",
                    w.name, e.name
                ));
            };
            let status = judge(e, va, vb, [ma["spread"].as_f64(), mb["spread"].as_f64()]);
            pass &= status != Status::Regressed;
            println!(
                "{:<15} {:<22} {:>14.4} {:>14.4} {:>+8.2}% {:>6.0}%  {}",
                w.name,
                e.name,
                va,
                vb,
                // Signed as a change of the value, not as a worsening.
                (vb - va) / va * 100.0,
                e.bound * 100.0,
                status.as_str(),
            );
        }
        let (ea, eb) = (
            wa["error_share"].as_f64().unwrap_or(0.0),
            wb["error_share"].as_f64().unwrap_or(0.0),
        );
        let worse = eb > ea;
        pass &= !worse;
        println!(
            "{:<15} {:<22} {:>14.6} {:>14.6} {:>9} {:>7}  {}",
            w.name,
            "error_share",
            ea,
            eb,
            "",
            "0",
            if worse { "REGRESSED" } else { "ok" },
        );
    }
    Ok(pass)
}

pub fn compare_cmd(paths: &[String]) -> Result<bool, String> {
    let [a, b] = paths else {
        return Err("compare takes two result files".into());
    };
    compare(&load(a)?, &load(b)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Better;

    const LAT: EndToEnd = EndToEnd {
        name: "call_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
    };
    const RATE: EndToEnd = EndToEnd {
        name: "calls_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
    };

    #[test]
    fn direction_and_bound_decide() {
        assert_eq!(judge(&LAT, 10.0, 10.9, [None, None]), Status::Ok);
        assert_eq!(judge(&LAT, 10.0, 11.2, [None, None]), Status::Regressed);
        assert_eq!(judge(&LAT, 10.0, 5.0, [None, None]), Status::Ok);
        assert_eq!(judge(&RATE, 100.0, 91.0, [None, None]), Status::Ok);
        assert_eq!(judge(&RATE, 100.0, 89.0, [None, None]), Status::Regressed);
        assert_eq!(judge(&RATE, 100.0, 150.0, [None, None]), Status::Ok);
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        assert_eq!(
            judge(&LAT, 10.0, 10.1, [Some(0.2), None]),
            Status::Unresolved
        );
        assert_eq!(
            judge(&LAT, 10.0, 20.0, [None, Some(0.11)]),
            Status::Unresolved
        );
        assert_eq!(
            judge(&LAT, 10.0, 20.0, [Some(0.05), Some(0.05)]),
            Status::Regressed
        );
    }
}
