//! Printing and persisting results: every metric by name with its unit,
//! the one-line JSON result the driver reads, and the files under
//! `benchmark/out/`.

use std::fmt::Write as _;
use std::path::PathBuf;

use crate::json::{quote, Json};
use crate::metrics::{find, MetricDef};
use crate::run::Outcome;

/// Where result and trace files go: `benchmark/out/` under the directory
/// the benchmark was started in (the repository root), which
/// `benchmark/.gitignore` keeps out of version control.
pub fn out_dir() -> PathBuf {
    PathBuf::from("benchmark").join("out")
}

/// Write `content` to `benchmark/out/<name>`.
pub fn write_out_file(name: &str, content: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(out_dir())?;
    std::fs::write(out_dir().join(name), content)
}

/// A number as JSON: every digit Rust needs to round-trip it; non-finite
/// values (a division by a zero count) read 0.
fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_owned()
    }
}

/// The result object of one run: exactly the keys `correct`, `attempted`,
/// `failed` and `metrics`, on one line.
pub fn result_json(out: &Outcome, defs: &[MetricDef]) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.failed == 0,
        out.attempted.max(1),
        out.failed
    );
    for (i, d) in defs.iter().enumerate() {
        let value = out.values.get(d.name).copied().unwrap_or(0.0);
        let _ = write!(
            s,
            "{}{}: {{\"value\": {}, \"unit\": {}}}",
            if i == 0 { "" } else { ", " },
            quote(d.name),
            number(value),
            quote(d.unit)
        );
    }
    s.push_str("}}");
    s
}

/// Print one run for people — every metric by name with its unit, the op
/// counts, notes and complaints — and then the result line for the driver.
pub fn print_outcome(workload: &str, mode: &str, out: &Outcome, defs: &[MetricDef]) {
    println!("# {workload} ({mode})");
    for d in defs {
        let value = out.values.get(d.name).copied().unwrap_or(0.0);
        println!("{:<40} {:>16.6} {}", d.name, value, d.unit);
    }
    println!("{:<40} {:>16} count", "ops_attempted", out.attempted.max(1));
    println!("{:<40} {:>16} count", "ops_failed", out.failed);
    for n in &out.notes {
        println!("# {n}");
    }
    for c in &out.complaints {
        println!("# FAILED: {c}");
    }
    println!("{}", result_json(out, defs));
}

/// One parsed result line.
#[derive(Debug, Clone, Default)]
pub struct Parsed {
    /// `correct`.
    pub correct: bool,
    /// `attempted`.
    pub attempted: u64,
    /// `failed`.
    pub failed: u64,
    /// `(name, value)` in declaration order of the metric lists.
    pub metrics: Vec<(String, f64)>,
    /// The line itself.
    pub line: String,
}

/// Parse the result line a run printed last.
pub fn parse_result(stdout: &str) -> Result<Parsed, String> {
    let line = stdout.lines().last().ok_or("no output")?;
    let j = Json::parse(line).map_err(|e| format!("last line is not a result: {e}"))?;
    let Some(Json::Obj(metrics)) = j.get("metrics") else {
        return Err("result has no metrics".into());
    };
    let mut named: Vec<(String, f64)> = metrics
        .iter()
        .map(|(k, v)| (k.clone(), v.get("value").and_then(Json::num).unwrap_or(0.0)))
        .collect();
    // Objects parse into name order; restore the declared order.
    let order = |name: &str| {
        crate::metrics::END_TO_END
            .iter()
            .chain(crate::metrics::PER_LAYER.iter())
            .position(|d| d.name == name)
            .unwrap_or(usize::MAX)
    };
    named.sort_by_key(|(k, _)| order(k));
    Ok(Parsed {
        correct: j.get("correct") == Some(&Json::Bool(true)),
        attempted: j.get("attempted").and_then(Json::num).unwrap_or(0.0) as u64,
        failed: j.get("failed").and_then(Json::num).unwrap_or(0.0) as u64,
        metrics: named,
        line: line.to_owned(),
    })
}

/// Is a metric allowed to differ between two runs of the same code and
/// seed? Host-clock readings, memory and the allocator's counts are (hash
/// maps seeded per process rehash at slightly different moments: measured,
/// one allocation in 10⁶ differs); everything else — simulated time,
/// counts, ratios of counts — must repeat bit for bit.
pub fn is_host_metric(name: &str) -> bool {
    match find(name) {
        Some(d) => {
            matches!(d.unit, "s" | "ms" | "us" | "ns" | "MiB" | "x")
                || name.starts_with("host.")
                || name == "obs.overhead_pct"
        }
        None => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{zeroed, END_TO_END};

    #[test]
    fn result_line_round_trips_with_all_digits() {
        let mut out = Outcome {
            attempted: 10,
            values: zeroed(&END_TO_END),
            ..Outcome::default()
        };
        out.values.insert("wall_s", 1.234_567_890_123_4);
        out.values.insert("write_amp", f64::NAN);
        let line = result_json(&out, &END_TO_END);
        let p = parse_result(&format!("# noise\n{line}")).unwrap();
        assert!(p.correct);
        assert_eq!((p.attempted, p.failed), (10, 0));
        assert_eq!(p.metrics.len(), END_TO_END.len());
        assert_eq!(p.metrics[0], ("wall_s".to_owned(), 1.234_567_890_123_4));
        assert_eq!(p.metrics[6], ("write_amp".to_owned(), 0.0));
        let j = Json::parse(&line).unwrap();
        let Json::Obj(top) = j else { panic!("object") };
        let keys: Vec<_> = top.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    }

    #[test]
    fn failures_make_the_result_incorrect() {
        let out = Outcome {
            attempted: 5,
            failed: 1,
            values: zeroed(&END_TO_END),
            ..Outcome::default()
        };
        assert!(
            !parse_result(&result_json(&out, &END_TO_END))
                .unwrap()
                .correct
        );
    }

    #[test]
    fn host_and_exact_metrics_are_told_apart() {
        for host in [
            "wall_s",
            "setup_s",
            "peak_rss_mib",
            "ufs.self_ns_per_op",
            "obs.overhead_pct",
            "bench.par.speedup_x",
            "host.allocs_per_op",
        ] {
            assert!(is_host_metric(host), "{host}");
        }
        for exact in [
            "sim_ms_per_op",
            "write_amp",
            "core.vld.calls_per_op",
            "fscore.cache.hit_pct",
            "disksim.events_per_op",
        ] {
            assert!(!is_host_metric(exact), "{exact}");
        }
    }
}
