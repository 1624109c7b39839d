//! `vlstat` — analyse the artifacts produced by `all_figures`.
//!
//! Three modes:
//!
//! * `vlstat TRACE.jsonl` — the original per-scope latency decomposition
//!   of a JSONL disk trace (span lines are skipped),
//! * `vlstat attr TRACE.jsonl [METRICS.json]` — the causal-span view:
//!   an aggregated span tree with per-path disk-time attribution, a
//!   per-kind rollup, the cleaning-tax ratio, and (when a metrics file is
//!   given) p50/p99 service-time quantiles from the disk histograms,
//! * `vlstat diff OLD.json NEW.json [--threshold PCT]` — compare two
//!   metrics JSON documents; counter changes beyond the threshold are
//!   regressions (nonzero exit), gauge/histogram/timing drift is advisory,
//! * `vlstat trend HISTORY.jsonl [PR]` — the performance history: one
//!   line per measured change, or one change's tables (the `trend`
//!   module); a malformed row is an error naming its line (nonzero exit).
//!
//! The tracer and metrics registry emit fixed ASCII JSON, so their parsers
//! are a few string scans; the history's free-form rows go through the
//! benchmark's JSON reader, which `trend` compiles in — no JSON library
//! required (the workspace builds offline).

use std::collections::BTreeMap;
use std::fmt::Write as _;

mod trend;

/// Extract the numeric value of `"key":` from a trace line.
fn num(line: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let Some(i) = line.find(&pat) else { return 0 };
    line[i + pat.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap_or(0)
}

/// Extract the string value of `"key":"..."` from a trace line.
fn strval<'a>(line: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\":\"");
    let Some(i) = line.find(&pat) else { return "" };
    let rest = &line[i + pat.len()..];
    &rest[..rest.find('"').unwrap_or(0)]
}

/// A span line carries a `"parent":` key; event lines carry `"at":`.
fn is_span_line(line: &str) -> bool {
    line.contains("\"parent\":")
}

// ===================================================================
// legacy mode: per-scope latency decomposition of the event trace
// ===================================================================

/// Seek-distance buckets, in cylinders.
const SEEK_BUCKETS: [(&str, u64, u64); 5] = [
    ("0", 0, 0),
    ("1-3", 1, 3),
    ("4-15", 4, 15),
    ("16-63", 16, 63),
    ("64+", 64, u64::MAX),
];

#[derive(Default)]
struct Acc {
    ops: u64,
    reads: u64,
    writes: u64,
    seeks: u64,
    faults: u64,
    overhead_ns: u64,
    seek_ns: u64,
    head_switch_ns: u64,
    rotation_ns: u64,
    transfer_ns: u64,
    seek_dist: [u64; SEEK_BUCKETS.len()],
}

impl Acc {
    fn busy_ns(&self) -> u64 {
        self.overhead_ns + self.seek_ns + self.head_switch_ns + self.rotation_ns + self.transfer_ns
    }
}

fn legacy_report(path: &str, text: &str) -> String {
    let mut scopes: BTreeMap<String, Acc> = BTreeMap::new();
    let mut total = 0u64;
    for line in text
        .lines()
        .filter(|l| !l.trim().is_empty() && !is_span_line(l))
    {
        total += 1;
        let acc = scopes.entry(strval(line, "scope").to_string()).or_default();
        acc.ops += 1;
        match strval(line, "kind") {
            "read" => acc.reads += 1,
            "write" => acc.writes += 1,
            "seek" => acc.seeks += 1,
            "fault" => acc.faults += 1,
            _ => {}
        }
        acc.overhead_ns += num(line, "overhead_ns");
        acc.seek_ns += num(line, "seek_ns");
        acc.head_switch_ns += num(line, "head_switch_ns");
        acc.rotation_ns += num(line, "rotation_ns");
        acc.transfer_ns += num(line, "transfer_ns");
        let d = num(line, "seek_cyls");
        for (i, &(_, lo, hi)) in SEEK_BUCKETS.iter().enumerate() {
            if d >= lo && d <= hi {
                acc.seek_dist[i] += 1;
                break;
            }
        }
    }

    let mut out = String::new();
    let _ = writeln!(out, "vlstat: {total} events from {path}\n");

    let _ = writeln!(out, "## per-scope latency decomposition");
    let _ = writeln!(
        out,
        "{:<24} {:>8} {:>10} {:>7} {:>7} {:>7} {:>7} {:>7}",
        "scope", "ops", "mean ms", "SCSI", "seek", "switch", "rot", "xfer"
    );
    for (scope, a) in &scopes {
        let busy = a.busy_ns();
        let pct = |x: u64| {
            if busy == 0 {
                "-".to_string()
            } else {
                format!("{:.0}%", x as f64 / busy as f64 * 100.0)
            }
        };
        let _ = writeln!(
            out,
            "{:<24} {:>8} {:>10.3} {:>7} {:>7} {:>7} {:>7} {:>7}",
            if scope.is_empty() { "(none)" } else { scope },
            a.ops,
            busy as f64 / a.ops.max(1) as f64 / 1e6,
            pct(a.overhead_ns),
            pct(a.seek_ns),
            pct(a.head_switch_ns),
            pct(a.rotation_ns),
            pct(a.transfer_ns),
        );
    }

    let _ = writeln!(out, "\n## op mix (reads / writes / seeks / faults)");
    for (scope, a) in &scopes {
        let _ = writeln!(
            out,
            "{:<24} {:>8} {:>8} {:>8} {:>8}",
            if scope.is_empty() { "(none)" } else { scope },
            a.reads,
            a.writes,
            a.seeks,
            a.faults,
        );
    }

    let _ = writeln!(out, "\n## seek distance distribution (cylinders)");
    let _ = write!(out, "{:<24}", "scope");
    for &(name, _, _) in &SEEK_BUCKETS {
        let _ = write!(out, " {name:>8}");
    }
    out.push('\n');
    for (scope, a) in &scopes {
        let _ = write!(
            out,
            "{:<24}",
            if scope.is_empty() { "(none)" } else { scope }
        );
        for &c in &a.seek_dist {
            let _ = write!(out, " {c:>8}");
        }
        out.push('\n');
    }
    out
}

// ===================================================================
// attr mode: causal-span tree, per-kind rollup, cleaning tax
// ===================================================================

/// One parsed span line.
#[derive(Clone)]
struct Span {
    id: u64,
    parent: u64,
    kind: String,
    label: String,
    open_ns: u64,
    close_ns: Option<u64>,
    disk_ns: u64,
    disk_cmds: u64,
}

/// Split the concatenated span dump into per-stack forests: span ids are
/// sequential from 1 within one table, so an id at or below its
/// predecessor marks the start of the next stack's dump.
fn parse_forests(text: &str) -> Vec<Vec<Span>> {
    let mut forests: Vec<Vec<Span>> = Vec::new();
    let mut prev_id = u64::MAX;
    for line in text
        .lines()
        .filter(|l| !l.trim().is_empty() && is_span_line(l))
    {
        let close = if line.contains("\"close_ns\":null") {
            None
        } else {
            Some(num(line, "close_ns"))
        };
        let s = Span {
            id: num(line, "span"),
            parent: num(line, "parent"),
            kind: strval(line, "kind").to_string(),
            label: strval(line, "label").to_string(),
            open_ns: num(line, "open_ns"),
            close_ns: close,
            disk_ns: num(line, "disk_ns"),
            disk_cmds: num(line, "disk_cmds"),
        };
        if s.id <= prev_id || forests.is_empty() {
            forests.push(Vec::new());
        }
        prev_id = s.id;
        forests.last_mut().expect("just pushed").push(s);
    }
    forests
}

#[derive(Default)]
struct PathAgg {
    count: u64,
    disk_ns: u64,
    subtree_ns: u64,
    wall_ns: u64,
    cmds: u64,
}

fn attr_report(trace_path: &str, text: &str, metrics: Option<(&str, &str)>) -> String {
    let forests = parse_forests(text);
    let mut out = String::new();
    if forests.is_empty() {
        let _ = writeln!(
            out,
            "vlstat attr: no span lines in {trace_path} (was the trace written with spans enabled?)"
        );
        return out;
    }
    for (fi, spans) in forests.iter().enumerate() {
        let _ = writeln!(out, "## stack {fi}: {} spans", spans.len());

        // Compute each span's label path, subtree disk time and inherited
        // background flag (ids are open-ordered, so parent < child).
        let mut subtree: BTreeMap<u64, u64> = BTreeMap::new();
        for s in spans.iter().rev() {
            let own = subtree.get(&s.id).copied().unwrap_or(0) + s.disk_ns;
            subtree.insert(s.id, own);
            if s.parent != 0 {
                *subtree.entry(s.parent).or_insert(0) += own;
            }
        }
        let mut path_of: BTreeMap<u64, String> = BTreeMap::new();
        let mut background: BTreeMap<u64, bool> = BTreeMap::new();
        let mut bg_ns = 0u64;
        let mut fg_ns = 0u64;
        let mut total_ns = 0u64;
        let mut paths: BTreeMap<String, PathAgg> = BTreeMap::new();
        let mut kinds: BTreeMap<String, PathAgg> = BTreeMap::new();
        for s in spans {
            let parent_path = if s.parent == 0 {
                String::new()
            } else {
                path_of.get(&s.parent).cloned().unwrap_or_default()
            };
            let path = if parent_path.is_empty() {
                s.label.clone()
            } else {
                format!("{parent_path}/{}", s.label)
            };
            let inherited = s.parent != 0 && background.get(&s.parent).copied().unwrap_or(false);
            let bg = inherited || s.kind == "compaction" || s.kind == "recovery";
            background.insert(s.id, bg);
            total_ns += s.disk_ns;
            if bg {
                bg_ns += s.disk_ns;
            } else {
                fg_ns += s.disk_ns;
            }
            let wall = s.close_ns.unwrap_or(s.open_ns) - s.open_ns;
            let agg = paths.entry(path.clone()).or_default();
            agg.count += 1;
            agg.disk_ns += s.disk_ns;
            agg.subtree_ns += subtree.get(&s.id).copied().unwrap_or(0);
            agg.wall_ns += wall;
            agg.cmds += s.disk_cmds;
            let k = kinds.entry(s.kind.clone()).or_default();
            k.count += 1;
            k.disk_ns += s.disk_ns;
            k.cmds += s.disk_cmds;
            path_of.insert(s.id, path);
        }

        let _ = writeln!(
            out,
            "{:<44} {:>7} {:>12} {:>12} {:>12} {:>8}",
            "span path", "count", "own ms", "subtree ms", "wall ms", "cmds"
        );
        for (path, a) in &paths {
            let depth = path.matches('/').count();
            let leaf = path.rsplit('/').next().unwrap_or(path);
            let name = format!("{}{leaf}", "  ".repeat(depth));
            let _ = writeln!(
                out,
                "{name:<44} {:>7} {:>12.3} {:>12.3} {:>12.3} {:>8}",
                a.count,
                a.disk_ns as f64 / 1e6,
                a.subtree_ns as f64 / 1e6,
                a.wall_ns as f64 / 1e6,
                a.cmds,
            );
        }

        let _ = writeln!(out, "\n### per-kind attribution");
        for (kind, a) in &kinds {
            let share = if total_ns == 0 {
                0.0
            } else {
                a.disk_ns as f64 / total_ns as f64 * 100.0
            };
            let _ = writeln!(
                out,
                "{kind:<14} {:>7} spans {:>12.3} ms disk ({share:>5.1} %) {:>8} cmds",
                a.count,
                a.disk_ns as f64 / 1e6,
                a.cmds,
            );
        }
        let tax = if fg_ns == 0 {
            0.0
        } else {
            bg_ns as f64 / fg_ns as f64 * 100.0
        };
        let _ = writeln!(
            out,
            "cleaning tax: {tax:.2} % (background {bg_ns} ns / foreground {fg_ns} ns)\n"
        );
    }

    if let Some((mpath, mtext)) = metrics {
        let flat = flatten_metrics(mtext);
        let _ = writeln!(out, "## service-time quantiles from {mpath} (ns)");
        let mut shown = false;
        for hist in ["disk.read_ns", "disk.write_ns", "disk.seek_ns"] {
            for (key, v) in &flat {
                if let Some(stack) = key.strip_suffix(&format!("/hist.{hist}.p50")) {
                    let p99 = flat
                        .get(&format!("{stack}/hist.{hist}.p99"))
                        .copied()
                        .unwrap_or(0.0);
                    let _ = writeln!(
                        out,
                        "{stack:<14} {hist:<16} p50 {:>12} p99 {:>12}",
                        *v as u64, p99 as u64
                    );
                    shown = true;
                }
            }
        }
        if !shown {
            let _ = writeln!(out, "(no disk histograms found)");
        }
    }
    out
}

// ===================================================================
// diff mode: metrics regression gate
// ===================================================================

/// Flatten a metrics JSON document (as written by `all_figures
/// --metrics-json`) into `section/key -> value`. Handles both the
/// one-key-per-line registry dumps and the single-line objects of the
/// `trace_check` block.
fn flatten_metrics(text: &str) -> BTreeMap<String, f64> {
    let mut flat = BTreeMap::new();
    let mut sections: Vec<String> = Vec::new();
    for raw in text.lines() {
        let line = raw.trim().trim_end_matches(',');
        if line.is_empty() || line == "{" {
            continue;
        }
        if line == "}" {
            sections.pop();
            continue;
        }
        let Some(rest) = line.strip_prefix('"') else {
            continue;
        };
        let Some(q) = rest.find('"') else { continue };
        let key = &rest[..q];
        let val = rest[q + 1..].trim_start_matches(':').trim();
        if val == "{" {
            sections.push(key.to_string());
            continue;
        }
        let prefix = if sections.is_empty() {
            key.to_string()
        } else {
            format!("{}/{key}", sections.join("/"))
        };
        if let Some(inner) = val.strip_prefix('{') {
            // Single-line object: parse every "k": n pair inside it.
            let inner = inner.trim_end_matches('}');
            for pair in inner.split(',') {
                let pair = pair.trim();
                let Some(p) = pair.strip_prefix('"') else {
                    continue;
                };
                let Some(q2) = p.find('"') else { continue };
                let k2 = &p[..q2];
                if let Ok(v) = p[q2 + 1..].trim_start_matches(':').trim().parse::<f64>() {
                    flat.insert(format!("{prefix}/{k2}"), v);
                }
            }
        } else if let Ok(v) = val.parse::<f64>() {
            flat.insert(prefix, v);
        }
    }
    flat
}

/// Gated keys fail the diff; everything else (histograms, gauges and the
/// timing-dependent trace-check numbers) is advisory drift.
fn is_gated(key: &str) -> bool {
    key.contains("/counters.")
}

/// Compare two flattened metrics maps. Returns (report, regression count).
fn diff_metrics(
    a: &BTreeMap<String, f64>,
    b: &BTreeMap<String, f64>,
    threshold_pct: f64,
) -> (String, usize) {
    let mut out = String::new();
    let mut regressions = 0usize;
    let mut advisories = 0usize;
    let keys: std::collections::BTreeSet<&String> = a.keys().chain(b.keys()).collect();
    for key in keys {
        let gated = is_gated(key);
        match (a.get(key), b.get(key)) {
            (Some(&x), Some(&y)) => {
                if x == y {
                    continue;
                }
                let rel = if x == 0.0 {
                    f64::INFINITY
                } else {
                    ((y - x) / x).abs() * 100.0
                };
                let fail = gated && rel > threshold_pct;
                if fail {
                    regressions += 1;
                } else {
                    advisories += 1;
                }
                let _ = writeln!(
                    out,
                    "{} {key}: {x} -> {y} ({:+.2} %)",
                    if fail { "FAIL" } else { "  ~ " },
                    if x == 0.0 { f64::INFINITY } else { (y - x) / x * 100.0 },
                );
            }
            (Some(&x), None) => {
                if gated {
                    regressions += 1;
                } else {
                    advisories += 1;
                }
                let _ = writeln!(
                    out,
                    "{} {key}: {x} -> (missing)",
                    if gated { "FAIL" } else { "  ~ " }
                );
            }
            (None, Some(&y)) => {
                if gated {
                    regressions += 1;
                } else {
                    advisories += 1;
                }
                let _ = writeln!(
                    out,
                    "{} {key}: (missing) -> {y}",
                    if gated { "FAIL" } else { "  ~ " }
                );
            }
            (None, None) => unreachable!("key came from one of the maps"),
        }
    }
    let _ = writeln!(
        out,
        "vlstat diff: {regressions} regression(s), {advisories} advisory drift(s), threshold {threshold_pct} %"
    );
    (out, regressions)
}

// ===================================================================

fn read_or_die(path: &str) -> String {
    match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("vlstat: {path}: {e}");
            std::process::exit(1);
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: vlstat TRACE.jsonl\n       vlstat attr TRACE.jsonl [METRICS.json]\n       vlstat diff OLD.json NEW.json [--threshold PCT]\n       vlstat trend HISTORY.jsonl [PR]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("attr") => {
            let Some(trace) = args.get(2) else { usage() };
            let text = read_or_die(trace);
            let mtext = args.get(3).map(|p| (p.as_str(), read_or_die(p)));
            let metrics = mtext.as_ref().map(|(p, t)| (*p, t.as_str()));
            print!("{}", attr_report(trace, &text, metrics));
        }
        Some("diff") => {
            let (Some(old), Some(new)) = (args.get(2), args.get(3)) else {
                usage()
            };
            let mut threshold = 0.0f64;
            let mut i = 4;
            while i < args.len() {
                if args[i] == "--threshold" {
                    threshold = args
                        .get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage());
                    i += 2;
                } else {
                    usage();
                }
            }
            let a = flatten_metrics(&read_or_die(old));
            let b = flatten_metrics(&read_or_die(new));
            if a.is_empty() {
                eprintln!("vlstat diff: {old} contains no metrics");
                std::process::exit(2);
            }
            let (report, regressions) = diff_metrics(&a, &b, threshold);
            print!("{report}");
            if regressions > 0 {
                std::process::exit(1);
            }
        }
        Some("trend") => {
            let (Some(path), None) = (args.get(2), args.get(4)) else {
                usage()
            };
            let pr = args.get(3).map(|p| p.parse::<u64>().unwrap_or_else(|_| usage()));
            let rows = trend::parse_history(&read_or_die(path)).unwrap_or_else(|e| {
                eprintln!("vlstat trend: {path}: {e}");
                std::process::exit(1);
            });
            match pr {
                None => print!("{}", trend::summary(&rows)),
                Some(pr) => match rows.iter().find(|r| r.pr == pr) {
                    Some(row) => print!("{}", trend::tables(row)),
                    None => {
                        eprintln!("vlstat trend: {path} has no row for pr {pr}");
                        std::process::exit(1);
                    }
                },
            }
        }
        Some(path) => {
            let text = read_or_die(path);
            print!("{}", legacy_report(path, &text));
        }
        None => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPAN_DUMP: &str = concat!(
        "{\"span\":1,\"parent\":0,\"kind\":\"fs_op\",\"label\":\"ufs.write\",\"open_ns\":0,\"close_ns\":100,\"disk_ns\":30,\"disk_cmds\":1}\n",
        "{\"span\":2,\"parent\":1,\"kind\":\"log_append\",\"label\":\"vlog.map_append\",\"open_ns\":10,\"close_ns\":50,\"disk_ns\":20,\"disk_cmds\":1}\n",
        "{\"span\":3,\"parent\":0,\"kind\":\"compaction\",\"label\":\"vld.compact\",\"open_ns\":100,\"close_ns\":300,\"disk_ns\":40,\"disk_cmds\":2}\n",
        "{\"span\":4,\"parent\":3,\"kind\":\"log_append\",\"label\":\"vlog.map_append\",\"open_ns\":120,\"close_ns\":180,\"disk_ns\":25,\"disk_cmds\":1}\n",
        "{\"span\":1,\"parent\":0,\"kind\":\"fs_op\",\"label\":\"ufs.read\",\"open_ns\":0,\"close_ns\":40,\"disk_ns\":15,\"disk_cmds\":1}\n",
    );

    #[test]
    fn forests_split_on_id_restart() {
        let forests = parse_forests(SPAN_DUMP);
        assert_eq!(forests.len(), 2);
        assert_eq!(forests[0].len(), 4);
        assert_eq!(forests[1].len(), 1);
    }

    #[test]
    fn attr_report_computes_cleaning_tax_with_inheritance() {
        let rep = attr_report("t.jsonl", SPAN_DUMP, None);
        // Background = compaction (40) + its map-append child (25);
        // foreground = 30 + 20. Tax = 65/50 = 130 %.
        assert!(rep.contains("cleaning tax: 130.00 %"), "{rep}");
        // Second stack is all foreground.
        assert!(rep.contains("cleaning tax: 0.00 %"), "{rep}");
        // The child path is indented under its parent.
        assert!(rep.contains("  vlog.map_append"), "{rep}");
    }

    #[test]
    fn legacy_report_skips_span_lines() {
        let mixed = format!(
            "{SPAN_DUMP}{}\n",
            "{\"at\":5,\"scope\":\"s/x\",\"kind\":\"write\",\"span\":1,\"lba\":0,\"sectors\":8,\"overhead_ns\":7,\"seek_ns\":0,\"head_switch_ns\":0,\"rotation_ns\":0,\"transfer_ns\":3,\"seek_cyls\":0,\"queue\":0}"
        );
        let rep = legacy_report("t.jsonl", &mixed);
        assert!(rep.contains("1 events"), "{rep}");
        assert!(rep.contains("s/x"), "{rep}");
    }

    #[test]
    fn flatten_handles_sections_and_inline_objects() {
        let doc = concat!(
            "{\n",
            "\"ufs-vld\": {\n",
            "\"counters.disk.writes\": 10,\n",
            "\"gauges.vlog.depth\": -2,\n",
            "\"hist.disk.write_ns.p50\": 4096\n",
            "},\n",
            "\"trace_check\": {\n",
            "\"ufs-vld\": {\"attr_ns\": 77, \"busy_ns\": 77},\n",
            "}\n",
            "}\n"
        );
        let flat = flatten_metrics(doc);
        assert_eq!(flat.get("ufs-vld/counters.disk.writes"), Some(&10.0));
        assert_eq!(flat.get("ufs-vld/gauges.vlog.depth"), Some(&-2.0));
        assert_eq!(flat.get("ufs-vld/hist.disk.write_ns.p50"), Some(&4096.0));
        assert_eq!(flat.get("trace_check/ufs-vld/attr_ns"), Some(&77.0));
    }

    #[test]
    fn diff_gates_counters_but_not_histograms() {
        let mut a = BTreeMap::new();
        let mut b = BTreeMap::new();
        a.insert("s/counters.disk.writes".to_string(), 100.0);
        b.insert("s/counters.disk.writes".to_string(), 103.0);
        a.insert("s/hist.disk.write_ns.p99".to_string(), 5000.0);
        b.insert("s/hist.disk.write_ns.p99".to_string(), 9000.0);

        let (rep, regressions) = diff_metrics(&a, &b, 0.0);
        assert_eq!(regressions, 1, "{rep}");
        assert!(rep.contains("FAIL s/counters.disk.writes"), "{rep}");
        assert!(rep.contains("  ~  s/hist.disk.write_ns.p99"), "{rep}");

        // Within a 5 % threshold the counter change passes.
        let (_, regressions) = diff_metrics(&a, &b, 5.0);
        assert_eq!(regressions, 0);

        // A gated key disappearing is always a regression.
        b.remove("s/counters.disk.writes");
        let (rep, regressions) = diff_metrics(&a, &b, 50.0);
        assert_eq!(regressions, 1, "{rep}");
    }
}
