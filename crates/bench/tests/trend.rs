//! `vlstat trend` refuses a history it cannot render: a malformed row, a
//! row missing a required field, or a `pr` out of order each fail the run
//! and name the line. The committed history renders, the same way every
//! time.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A row with the required core and one table.
const GOOD: &str = r#"{"pr":1,"change":"a","claim":null,"claim_met":null,"method":"m","tables":[{"title":"t","columns":["x","y"],"rows":[["one","2.5"]]}]}"#;

fn history() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/perf_history.jsonl")
}

fn trend(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vlstat"))
        .arg("trend")
        .args(args)
        .output()
        .expect("vlstat runs")
}

/// Run `vlstat trend` on a file holding `rows`, one per line.
fn trend_of(name: &str, rows: &[&str]) -> Output {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.jsonl"));
    std::fs::write(&path, rows.join("\n") + "\n").expect("temp file written");
    trend(&[path.to_str().expect("UTF-8 path")])
}

/// The run failed, and its error names `line` and says `what`.
fn refused(out: &Output, line: usize, what: &str) {
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains(&format!("line {line}: ")), "{err}");
    assert!(err.contains(what), "{err}");
}

#[test]
fn a_malformed_row_is_refused_by_line() {
    let out = trend_of("malformed", &[GOOD, r#"{"pr":2,"change":"b""#]);
    refused(&out, 2, "expected ','");
    let out = trend_of("not_an_object", &["[1, 2]"]);
    refused(&out, 1, "not an object");
}

#[test]
fn a_row_missing_a_required_field_is_refused_by_line() {
    for field in ["pr", "change", "claim", "claim_met", "method"] {
        let row = GOOD.replacen(&format!("\"{field}\""), "\"other\"", 1);
        let out = trend_of(&format!("missing_{field}"), &[&row]);
        refused(&out, 1, &format!("missing required field \"{field}\""));
    }
    let ragged = GOOD.replace(r#"["one","2.5"]"#, r#"["one"]"#);
    let out = trend_of("ragged", &[&ragged]);
    refused(&out, 1, "has 1 cells for 2 columns");
}

#[test]
fn a_duplicate_or_out_of_order_pr_is_refused_by_line() {
    let second = GOOD.replace(r#""pr":1"#, r#""pr":2"#);
    let out = trend_of("duplicate", &[GOOD, &second, &second]);
    refused(&out, 3, "pr 2 does not follow pr 2");
    let out = trend_of("out_of_order", &[&second, "", GOOD]);
    refused(&out, 3, "pr 1 does not follow pr 2");
}

#[test]
fn a_row_renders_its_tables() {
    let out = trend_of("good", &[GOOD]);
    assert!(out.status.success(), "{out:?}");
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("good.jsonl");
    let out = trend(&[path.to_str().expect("UTF-8 path"), "1"]);
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(text.contains("## t\n\n| x   |   y |\n"), "{text}");
    assert!(text.contains("|-----|----:|\n| one | 2.5 |\n"), "{text}");
    let out = trend(&[path.to_str().expect("UTF-8 path"), "9"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
}

#[test]
fn the_committed_history_renders_the_same_every_time() {
    let path = history();
    let path = path.to_str().expect("UTF-8 path");
    let first = trend(&[path]);
    assert!(first.status.success(), "{first:?}");
    assert_eq!(first.stdout, trend(&[path]).stdout);
    let one = trend(&[path, "49"]);
    assert!(one.status.success(), "{one:?}");
    assert_eq!(one.stdout, trend(&[path, "49"]).stdout);
}
