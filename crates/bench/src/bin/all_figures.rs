//! Regenerate every table and figure in one run (used to refresh
//! EXPERIMENTS.md). Pass `--quick` for a fast smoke pass.
//!
//! Sections run in their fixed order on the main thread; within each
//! section the figure modules fan their independent simulation points
//! across a scoped thread pool (`disksim::par`), so stdout is
//! byte-identical to a fully sequential run. `--threads N` (or the
//! `VLFS_THREADS` env var) pins the pool width; `--timing-json PATH`
//! writes the per-section wall-clock / simulated-event record that
//! `BENCH_all_figures.json` archives. The human-readable timing report
//! goes to stderr so it never perturbs the figure text.
//!
//! `--trace PATH` and `--metrics-json PATH` additionally run the traced
//! observability exhibit (see `vlfs_bench::obs`), exporting a JSONL event
//! trace (analysed by the `vlstat` binary) and a metrics document; figure
//! stdout is unaffected.

use disksim::par;
use vlfs_bench::timing;

const USAGE: &str = "usage: all_figures [--quick] [--threads N] [--timing-json PATH] \
                     [--trace PATH] [--metrics-json PATH]";

#[derive(Debug, Default, PartialEq)]
struct Args {
    quick: bool,
    threads: Option<usize>,
    timing_json: Option<String>,
    trace: Option<String>,
    metrics_json: Option<String>,
}

/// Parse the command line (program name already stripped). Anything not
/// listed in [`USAGE`] is an error: a mistyped `--quik` must not silently
/// run the full suite.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args::default();
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--quick" => out.quick = true,
            "--threads" => {
                out.threads =
                    Some(par::parse_threads(&value()?).map_err(|e| format!("--threads: {e}"))?)
            }
            "--timing-json" => out.timing_json = Some(value()?),
            "--trace" => out.trace = Some(value()?),
            "--metrics-json" => out.metrics_json = Some(value()?),
            _ => return Err(format!("unknown argument {arg:?}")),
        }
    }
    Ok(out)
}

fn main() {
    let Args {
        quick,
        threads,
        timing_json,
        trace: trace_path,
        metrics_json: metrics_path,
    } = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("all_figures: {e}; {USAGE}");
        std::process::exit(2);
    });
    if let Some(n) = threads {
        par::set_threads(n);
    }

    let (w1, t2, files, mb, u8_, u9, b10, b11) = if quick {
        (120, 40, 200, 4, 400, 200, 1200, 800)
    } else {
        (400, 120, 1500, 10, 2000, 1000, 6000, 4000)
    };
    let mode = if quick { "quick" } else { "full" };
    let mut rec = timing::Recorder::new(mode, par::threads());

    macro_rules! section {
        ($name:literal, $body:expr) => {
            println!("{}", rec.time($name, || $body));
        };
    }
    section!("table1", vlfs_bench::table1::run());
    section!("fig1", vlfs_bench::fig1::run(w1));
    section!("fig2", vlfs_bench::fig2::run(t2));
    section!("fig6", vlfs_bench::fig6::run(files));
    section!("fig7", vlfs_bench::fig7::run(mb));
    section!("fig8", vlfs_bench::fig8::run(u8_));
    section!("table2", vlfs_bench::table2::run(u9));
    section!("fig9", vlfs_bench::fig9::run(u9));
    section!("fig10", vlfs_bench::fig10::run(b10));
    section!("fig11", vlfs_bench::fig11::run(b11));
    section!("appendix", vlfs_bench::appendix::run(if quick { 200 } else { 800 }));
    section!(
        "vlfs_preview",
        vlfs_bench::vlfs_preview::run(if quick { 150 } else { 600 })
    );

    // The observability exhibit runs only when an export path was given.
    // It writes the trace / metrics files and reports on stderr, so stdout
    // stays byte-identical whether or not tracing is enabled.
    if trace_path.is_some() || metrics_path.is_some() {
        let report = rec.time("obs", || {
            vlfs_bench::obs::run(
                if quick { 240 } else { 800 },
                trace_path.as_deref(),
                metrics_path.as_deref(),
            )
        });
        eprint!("{report}");
    }

    eprint!("{}", rec.report());
    if let Some(path) = timing_json {
        if let Err(e) = std::fs::write(&path, rec.to_json() + "\n") {
            eprintln!("# failed to write {path}: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn accepts_the_documented_flags() {
        assert_eq!(parse(""), Ok(Args::default()));
        assert_eq!(
            parse("--quick --threads 4 --timing-json t.json --trace t.jsonl --metrics-json m.json"),
            Ok(Args {
                quick: true,
                threads: Some(4),
                timing_json: Some("t.json".into()),
                trace: Some("t.jsonl".into()),
                metrics_json: Some("m.json".into()),
            })
        );
    }

    #[test]
    fn rejects_unknown_junk_zero_and_missing_values() {
        for (line, needle) in [
            ("--quik", "unknown argument"),
            ("quick", "unknown argument"),
            ("--threads four", "positive integer"),
            ("--threads 0", "positive integer"),
            ("--quick --threads", "--threads needs a value"),
            ("--timing-json", "--timing-json needs a value"),
        ] {
            let err = parse(line).expect_err(line);
            assert!(err.contains(needle), "{line:?}: {err}");
        }
    }
}
