//! `figures_quick`: the quick figure suite as users and CI run it — the
//! `all_figures` binary as a child process, reached only through its
//! command line. The one workload that crosses `bench::setup`'s aged
//! cache, snapshot forking, the fig9 memo and `par`.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::host;
use crate::json::Json;
use crate::metrics::{BENCH_SECTIONS, PER_LAYER};
use crate::report;
use crate::run::Outcome;

/// Section headers the quick suite must print, in order.
const SECTIONS: [&str; 12] = [
    "## Table 1:",
    "## Figure 1:",
    "## Figure 2:",
    "## Figure 6:",
    "## Figure 7:",
    "## Figure 8:",
    "## Table 2:",
    "## Figure 9:",
    "## Figure 10:",
    "## Figure 11:",
    "## Appendix A.1:",
    "## VLFS",
];

/// The paper's Table 2 speedups of the VLD over the regular disk (HP +
/// SPARC, Seagate + SPARC, Seagate + Ultra) — the repository's only
/// numeric reference results.
const PAPER_TABLE2_SPEEDUPS: [f64; 3] = [2.6, 5.1, 9.9];

/// One child run of the quick suite.
#[derive(Debug, Default)]
pub struct ChildRun {
    /// Did the child start and exit with status 0?
    pub ok: bool,
    /// Why not, if not.
    pub error: String,
    /// Its standard output: the figure text.
    pub stdout: String,
    /// Wall seconds from spawn to exit.
    pub wall_s: f64,
    /// Simulated clock events it executed (from its timing record).
    pub events: u64,
    /// `(section, wall ms, simulated events)` from its timing record.
    pub sections: Vec<(String, f64, u64)>,
}

/// `all_figures` sits beside this executable: both are built into the
/// shared target directory.
fn all_figures_exe() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("all_figures")))
        .unwrap_or_else(|| PathBuf::from("all_figures"))
}

/// Run `all_figures --quick --threads <threads>`, stdout captured. The
/// pool width is pinned on the command line, never through the
/// environment (which `host::scrub_env` has cleared of `VLFS_*`).
pub fn run_child(threads: usize) -> ChildRun {
    let mut run = ChildRun::default();
    let timing = report::out_dir().join(format!("timing-{}.json", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(report::out_dir()) {
        run.error = format!("cannot create {}: {e}", report::out_dir().display());
        return run;
    }
    let t0 = Instant::now();
    let output = Command::new(all_figures_exe())
        .args([
            "--quick",
            "--threads",
            &threads.to_string(),
            "--timing-json",
        ])
        .arg(&timing)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output();
    run.wall_s = t0.elapsed().as_secs_f64();
    match output {
        Ok(o) => {
            run.ok = o.status.success();
            if !run.ok {
                run.error = format!("all_figures exited with {}", o.status);
            }
            run.stdout = String::from_utf8_lossy(&o.stdout).into_owned();
        }
        Err(e) => run.error = format!("cannot run {}: {e}", all_figures_exe().display()),
    }
    if let Some(j) = std::fs::read_to_string(&timing)
        .ok()
        .and_then(|t| Json::parse(&t).ok())
    {
        run.events = j.get("sim_events").and_then(Json::num).unwrap_or(0.0) as u64;
        for s in j.get("sections").and_then(Json::arr).unwrap_or(&[]) {
            run.sections.push((
                s.get("name").and_then(Json::str).unwrap_or("").to_owned(),
                s.get("wall_ms").and_then(Json::num).unwrap_or(0.0),
                s.get("sim_events").and_then(Json::num).unwrap_or(0.0) as u64,
            ));
        }
    }
    let _ = std::fs::remove_file(&timing);
    run
}

/// Output checks on a child run: it succeeded, every section is present,
/// no cell failed, and (given the first run's text) stdout is
/// byte-identical. Returns one line per problem.
pub fn check_output(run: &ChildRun, first: Option<&str>) -> Vec<String> {
    let mut problems = Vec::new();
    if !run.ok {
        problems.push(run.error.clone());
        return problems;
    }
    let mut at = 0;
    for header in SECTIONS {
        match run.stdout[at..].find(header) {
            Some(i) => at += i + header.len(),
            None => problems.push(format!("section '{header}' missing or out of order")),
        }
    }
    if run.stdout.contains("err:") {
        problems.push("a figure cell reads 'err:'".to_owned());
    }
    if first.is_some_and(|f| f != run.stdout) {
        problems.push("stdout differs from the first child run's".to_owned());
    }
    if run.events == 0 {
        problems.push("no timing record (or no simulated events)".to_owned());
    }
    problems
}

/// The three "N.Nx" speedups of Table 2, in row order.
pub fn table2_speedups(stdout: &str) -> Vec<f64> {
    let Some(start) = stdout.find("## Table 2:") else {
        return Vec::new();
    };
    stdout[start..]
        .lines()
        .skip(1)
        .take_while(|l| !l.starts_with("## "))
        .filter_map(|l| l.split_whitespace().last())
        .filter_map(|cell| cell.strip_suffix('x'))
        .filter_map(|n| n.parse().ok())
        .collect()
}

/// Mean relative error of the simulated speedups against the paper's, %.
pub fn table2_err_pct(speedups: &[f64]) -> Option<f64> {
    if speedups.len() != PAPER_TABLE2_SPEEDUPS.len() {
        return None;
    }
    let sum: f64 = speedups
        .iter()
        .zip(PAPER_TABLE2_SPEEDUPS)
        .map(|(s, p)| (s - p).abs() / p)
        .sum();
    Some(100.0 * sum / speedups.len() as f64)
}

/// The traced run of `figures_quick`: one child at width 1 (its
/// `--timing-json` is the per-section breakdown) and one at
/// `min(nproc, 4)` for the informational pool speedup.
pub fn traced() -> Outcome {
    let mut out = Outcome::new(&PER_LAYER);
    // A discarded child first, as in the timed run.
    run_child(1);
    let run = run_child(1);
    out.attempted += run.events.max(1);
    for problem in check_output(&run, None) {
        out.check(false, || problem);
    }
    let v = &mut out.values;
    for (name, wall_ms, events) in &run.sections {
        if let Some(s) = BENCH_SECTIONS.iter().find(|s| *s == name) {
            let host_ms = crate::metrics::find(&format!("bench.{s}.host_ms")).expect("declared");
            let per_event =
                crate::metrics::find(&format!("bench.{s}.ns_per_event")).expect("declared");
            v.insert(host_ms.name, *wall_ms);
            v.insert(per_event.name, wall_ms * 1e6 / (*events).max(1) as f64);
        }
    }
    v.insert("disksim.events_per_op", 1.0);
    v.insert(
        "disksim.host_ns_per_event",
        run.wall_s * 1e9 / run.events.max(1) as f64,
    );
    let speedups = table2_speedups(&run.stdout);
    match table2_err_pct(&speedups) {
        Some(err) => {
            v.insert("bench.table2_err_pct", err);
            out.notes.push(format!(
                "Table 2 speedups {speedups:?} vs the paper's {PAPER_TABLE2_SPEEDUPS:?}: mean relative error {err:.1} %"
            ));
        }
        None => out.check(false, || {
            format!("Table 2: expected 3 speedups, found {speedups:?}")
        }),
    }
    let width = host::nproc().min(4);
    let par = run_child(width);
    for problem in check_output(&par, Some(&run.stdout)) {
        out.check(false, || format!("{width} threads: {problem}"));
    }
    out.values
        .insert("bench.par.speedup_x", run.wall_s / par.wall_s.max(1e-9));
    out.notes.push(format!(
        "pool: {:.3} s at 1 thread, {:.3} s at {width} (nproc {}); informational, never gated",
        run.wall_s,
        par.wall_s,
        host::nproc()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "## Table 1: disk parameters\n\n\
        ## Figure 1: x\n## Figure 2: x\n## Figure 6: x\n## Figure 7: x\n## Figure 8: x\n\
        ## Table 2: update-in-place vs virtual-log latency (ms) at 80% utilisation\n\n\
        \x20     platform    UFS/Regular        UFS/VLD        speedup\n\
        --------------- -------------- -------------- --------------\n\
        \x20   HP + SPARC          15.89           7.18           2.2x\n\
        Seagate + SPARC           3.94           0.92           4.3x\n\
        Seagate + Ultra           3.73           0.73           5.1x\n\n\
        ## Figure 9: x\n## Figure 10: x\n## Figure 11: x\n## Appendix A.1: x\n## VLFS (x)\n";

    #[test]
    fn table2_is_parsed_and_scored_against_the_paper() {
        let s = table2_speedups(SAMPLE);
        assert_eq!(s, vec![2.2, 4.3, 5.1]);
        let err = table2_err_pct(&s).unwrap();
        let want = 100.0 * ((0.4 / 2.6) + (0.8 / 5.1) + (4.8 / 9.9)) / 3.0;
        assert!((err - want).abs() < 1e-9);
        assert_eq!(table2_err_pct(&[1.0]), None);
    }

    #[test]
    fn output_checks_catch_each_failure_class() {
        let good = ChildRun {
            ok: true,
            stdout: SAMPLE.into(),
            events: 5,
            ..ChildRun::default()
        };
        assert!(check_output(&good, Some(SAMPLE)).is_empty());
        let missing = ChildRun {
            stdout: SAMPLE.replace("## Figure 10:", "## Fig 10:"),
            ..clone(&good)
        };
        assert_eq!(check_output(&missing, None).len(), 1);
        let err_cell = ChildRun {
            stdout: SAMPLE.replace("4.3x", "err:boom"),
            ..clone(&good)
        };
        assert!(check_output(&err_cell, None)
            .iter()
            .any(|p| p.contains("err:")));
        assert!(check_output(&good, Some("other"))
            .iter()
            .any(|p| p.contains("differs")));
        let dead = ChildRun {
            ok: false,
            error: "exit 1".into(),
            ..ChildRun::default()
        };
        assert_eq!(check_output(&dead, None), vec!["exit 1".to_owned()]);
    }

    fn clone(r: &ChildRun) -> ChildRun {
        ChildRun {
            ok: r.ok,
            stdout: r.stdout.clone(),
            events: r.events,
            ..ChildRun::default()
        }
    }
}
