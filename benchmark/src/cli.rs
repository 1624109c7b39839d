//! The command line of both binaries.
//!
//! * `vlbench --workload W --seed N --seconds S --trace 0|1` — one run of
//!   one workload in this process (the driver's contract). `--trace 1`
//!   hands over to the sibling `vlbench-traced` binary, so the timed
//!   binary carries no shim and no counting allocator.
//! * `vlbench [--seed N] [--seconds S]` — every workload, timed then
//!   traced, each in a process of its own; prints every metric and writes
//!   `benchmark/out/results.json`.
//! * `vlbench --traced` — the traced runs only.
//! * `vlbench --selfcheck` — two full sets of the same build, compared.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use crate::host;
use crate::json::quote;
use crate::layers;
use crate::metrics::{find, END_TO_END, PER_LAYER};
use crate::report::{self, is_host_metric, parse_result, Parsed};
use crate::run;
use crate::workloads::{Workload, RUN_SECONDS};

/// Parsed arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// `--workload`: run just this one, in this process.
    pub workload: Option<Workload>,
    /// `--seed` (default 1).
    pub seed: u64,
    /// `--seconds` (default [`RUN_SECONDS`]).
    pub seconds: f64,
    /// `--trace 1`: the traced run.
    pub trace: bool,
    /// `--traced`: all workloads, traced runs only.
    pub traced_only: bool,
    /// `--selfcheck`.
    pub selfcheck: bool,
}

/// Parse the command line (without the program name).
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        traced_only: false,
        selfcheck: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload = Some(Workload::from_name(v).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload '{v}' (one of: {})", names.join(", "))
                })?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds >= 0.0 && a.seconds <= 3600.0) {
                    return Err("--seconds must be between 0 and 3600".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--traced" => a.traced_only = true,
            "--selfcheck" => a.selfcheck = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(a)
}

fn sibling(name: &str) -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join(name)))
        .unwrap_or_else(|| PathBuf::from(name))
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Entry point of `vlbench`, the timed binary.
pub fn main_timed() -> ExitCode {
    host::scrub_env();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vlbench: {e}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(_) if args.trace => {
            // The traced run lives in the other binary; stdout passes through.
            match Command::new(sibling("vlbench-traced"))
                .args(&argv)
                .stdin(Stdio::null())
                .status()
            {
                Ok(s) => exit_code(s.success()),
                Err(e) => {
                    eprintln!("vlbench: cannot run vlbench-traced: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some(w) => {
            let out = run::timed(w, args.seed, args.seconds);
            report::print_outcome(w.name(), "timed", &out, &END_TO_END);
            exit_code(out.failed == 0)
        }
        None if args.selfcheck => selfcheck(&args),
        None => {
            let set = run_set(&args, !args.traced_only);
            let written = report::write_out_file("results.json", &results_json(&args, &set));
            if let Err(e) = &written {
                eprintln!("vlbench: cannot write results.json: {e}");
            }
            exit_code(set.ok && written.is_ok())
        }
    }
}

/// Entry point of `vlbench-traced`: one traced run of one workload.
pub fn main_traced() -> ExitCode {
    host::scrub_env();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vlbench-traced: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = args.workload else {
        eprintln!("vlbench-traced: --workload is required (run `vlbench` for all of them)");
        return ExitCode::from(2);
    };
    let out = layers::traced(w, args.seed);
    report::print_outcome(w.name(), "traced", &out, &PER_LAYER);
    exit_code(out.failed == 0)
}

/// The results of one pass over all workloads.
struct Set {
    /// `(workload, timed result, traced result)`.
    rows: Vec<(Workload, Option<Parsed>, Option<Parsed>)>,
    /// Every run exited 0 with a parsable, correct result.
    ok: bool,
}

/// Run one workload in a process of its own, passing its output through.
fn child_run(w: Workload, args: &Args, trace: bool) -> Option<Parsed> {
    let exe = std::env::current_exe().ok()?;
    let output = Command::new(exe)
        .args(["--workload", w.name(), "--seed", &args.seed.to_string()])
        .args([
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .ok()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let parsed = parse_result(&stdout).ok()?;
    (output.status.success() && parsed.correct).then_some(parsed)
}

fn run_set(args: &Args, timed: bool) -> Set {
    let mut set = Set {
        rows: Vec::new(),
        ok: true,
    };
    for w in Workload::ALL {
        let t = if timed {
            child_run(w, args, false)
        } else {
            None
        };
        let l = child_run(w, args, true);
        set.ok &= l.is_some() && (t.is_some() || !timed);
        set.rows.push((w, t, l));
    }
    set
}

/// `results.json`: the environment, then every workload's two result
/// objects exactly as the runs printed them.
fn results_json(args: &Args, set: &Set) -> String {
    let mut s = format!(
        "{{\n  \"nproc\": {},\n  \"rustc\": {},\n  \"commit\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \"workloads\": {{",
        host::nproc(),
        quote(&host::rustc_version()),
        quote(&host::git_commit()),
        args.seed,
        args.seconds
    );
    for (i, (w, timed, traced)) in set.rows.iter().enumerate() {
        let line = |p: &Option<Parsed>| p.as_ref().map_or("null".to_owned(), |p| p.line.clone());
        let _ = write!(
            s,
            "{}\n    {}: {{\n      \"timed\": {},\n      \"traced\": {}\n    }}",
            if i == 0 { "" } else { "," },
            quote(w.name()),
            line(timed),
            line(traced)
        );
    }
    s.push_str("\n  }\n}\n");
    s
}

/// Two full sets of the same build and seed: every simulated metric and
/// count must agree exactly, every host end-to-end metric within its bound.
fn selfcheck(args: &Args) -> ExitCode {
    let (a, b) = (run_set(args, true), run_set(args, true));
    let mut ok = a.ok && b.ok;
    println!("# selfcheck: workload metric first second spread bound verdict");
    for ((w, ta, la), (_, tb, lb)) in a.rows.iter().zip(&b.rows) {
        for (pa, pb) in [(ta, tb), (la, lb)] {
            let (Some(pa), Some(pb)) = (pa, pb) else {
                continue;
            };
            if (pa.attempted, pa.failed) != (pb.attempted, pb.failed) {
                ok = false;
                println!(
                    "{} ops_attempted/ops_failed differ: {:?} vs {:?}",
                    w.name(),
                    (pa.attempted, pa.failed),
                    (pb.attempted, pb.failed)
                );
            }
            for ((name, x), (_, y)) in pa.metrics.iter().zip(&pb.metrics) {
                let spread = if x == y {
                    0.0
                } else {
                    (x - y).abs() / x.abs().min(y.abs()).max(f64::MIN_POSITIVE)
                };
                let bound = find(name).map_or(0.0, |d| d.bound);
                let verdict = if !is_host_metric(name) {
                    if x == y {
                        "identical"
                    } else {
                        "DIFFERS"
                    }
                } else if bound == 0.0 {
                    "not gated"
                } else if spread <= bound {
                    "within bound"
                } else {
                    "OVER BOUND"
                };
                ok &= !matches!(verdict, "DIFFERS" | "OVER BOUND");
                println!(
                    "{:<20} {:<36} {:>16.6} {:>16.6} {:>8.3} % {:>5.1} % {}",
                    w.name(),
                    name,
                    x,
                    y,
                    spread * 100.0,
                    bound * 100.0,
                    verdict
                );
            }
        }
    }
    println!("# selfcheck: {}", if ok { "passed" } else { "FAILED" });
    exit_code(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(str::to_owned).collect::<Vec<_>>())
    }

    #[test]
    fn the_driver_command_line_parses() {
        let a = args("--workload fs_mix --seed 42 --seconds 6 --trace 1").unwrap();
        assert_eq!(a.workload, Some(Workload::FsMix));
        assert_eq!((a.seed, a.seconds, a.trace), (42, 6.0, true));
        let d = args("").unwrap();
        assert_eq!((d.workload, d.seed, d.trace), (None, 1, false));
        assert_eq!(d.seconds, RUN_SECONDS as f64);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(args("--workload nope").is_err());
        assert!(args("--trace 2").is_err());
        assert!(args("--seed").is_err());
        assert!(args("--seconds -1").is_err());
        assert!(args("--frobnicate").is_err());
    }
}
