//! A requested output file that cannot be created fails `all_figures`
//! before any figure runs, with the exit status of a bad flag.

use std::path::Path;
use std::process::Command;

#[test]
fn an_uncreatable_timing_json_fails_before_any_figure() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("no-such-directory");
    assert!(!dir.exists(), "{} must not exist", dir.display());
    let path = dir.join("timing.json");
    let out = Command::new(env!("CARGO_BIN_EXE_all_figures"))
        .args(["--quick", "--timing-json"])
        .arg(&path)
        .output()
        .expect("all_figures runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "a figure was printed: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(path.to_str().expect("UTF-8 path")),
        "{stderr}"
    );
    assert!(stderr.contains("usage: all_figures"), "{stderr}");
}
