//! Knob inventory: the workspace reads exactly four environment variables,
//! and README's "Environment" table documents each of them.
//!
//! Every independent knob doubles the configurations tests and CI must
//! cover, so adding one has to be a deliberate, reviewed edit of the list
//! below — not a stray `env::var` deep in a crate.
//!
//! Recipe inventory, same idea: the harness crates format and mount file
//! systems in exactly one module, so every harness crash-checks and measures
//! the same stacks.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

const KNOBS: [&str; 4] = [
    "VLFS_MC_EPISODES",
    "VLFS_MC_SMOKE_SEEDS",
    "VLFS_SEED",
    "VLFS_THREADS",
];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return; // not every crate has tests/ or benches/
    };
    for entry in entries {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every variable name passed to `env::var` / `env::var_os` in `src`. The
/// name must be a string literal at the call site, or this inventory could
/// not see it.
fn env_reads(file: &Path, src: &str, out: &mut BTreeSet<String>) {
    // Assembled at run time so this file does not match its own search.
    for call in ["var(", "var_os("].map(|f| format!("env::{f}")) {
        for (at, _) in src.match_indices(&call) {
            let arg = src[at + call.len()..].trim_start();
            let name = arg
                .strip_prefix('"')
                .and_then(|rest| rest.split_once('"'))
                .map(|(name, _)| name)
                .unwrap_or_else(|| {
                    panic!(
                        "{}: {call}..) takes a non-literal name: {:?}",
                        file.display(),
                        arg.lines().next().unwrap_or("")
                    )
                });
            out.insert(name.to_owned());
        }
    }
}

#[test]
fn the_workspace_reads_exactly_the_documented_env_vars() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    rust_files(&root.join("tests"), &mut files);
    rust_files(&root.join("examples"), &mut files);
    for krate in fs::read_dir(root.join("crates")).expect("crates/") {
        let krate = krate.expect("readable directory entry").path();
        for sub in ["src", "tests", "benches"] {
            rust_files(&krate.join(sub), &mut files);
        }
    }
    assert!(files.len() > 50, "walked only {} files", files.len());

    // The process-wide fast / reference switch is retired: an old kernel
    // kept as an oracle lives in `#[cfg(test)]` beside the code it checks,
    // never behind a runtime mode. (Assembled at run time, as above.)
    let retired = [["reference", "_mode"], ["VLFS_", "REFERENCE"]].map(|p| p.concat());
    let mut found = BTreeSet::new();
    for file in &files {
        let src = fs::read_to_string(file).expect("readable source file");
        env_reads(file, &src, &mut found);
        for name in &retired {
            assert!(!src.contains(name), "{}: {name} is back", file.display());
        }
    }
    let expected: BTreeSet<String> = KNOBS.iter().map(|k| k.to_string()).collect();
    assert_eq!(
        found, expected,
        "environment variables read in the workspace changed; a new knob \
         needs a row in README's Environment table and an entry in KNOBS"
    );

    let readme = fs::read_to_string(root.join("README.md")).expect("README.md");
    let table = readme
        .split_once("\n## Environment\n")
        .expect("README has an Environment section")
        .1;
    let table = table
        .split("\n## ")
        .next()
        .expect("split yields a first item");
    for knob in KNOBS {
        assert!(
            table.lines().any(|l| l.starts_with(&format!("| `{knob}`"))),
            "{knob} has no row in README's Environment table"
        );
    }
}

/// The calls that assemble or remount a file-system stack.
const RECIPE_CALLS: [&str; 5] = [
    "Ufs::format(",
    "Ufs::mount",
    "LogDisk::format(",
    "LogDisk::mount(",
    "lfs_filesystem(",
];

/// The one module that may make them — the crash checks that remount the
/// logical disk on its own included.
const RECIPE: &str = "crates/modelcheck/src/stack.rs";

#[test]
fn the_harness_crates_build_stacks_in_one_module() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for krate in ["modelcheck", "bench"] {
        rust_files(&root.join("crates").join(krate).join("src"), &mut files);
    }
    assert!(files.len() > 25, "walked only {} files", files.len());

    let mut found = BTreeSet::new();
    for file in &files {
        let rel = file.strip_prefix(root).expect("walked from root");
        let rel = rel.to_str().expect("UTF-8 path").to_owned();
        let src = fs::read_to_string(file).expect("readable source file");
        for call in RECIPE_CALLS {
            let count = src.matches(call).count();
            if count > 0 && rel != RECIPE {
                found.insert((rel.clone(), call, count));
            }
        }
    }
    assert_eq!(
        found,
        BTreeSet::new(),
        "a harness crate formats or mounts a stack outside {RECIPE}; describe \
         the stack as a StackSpec instead"
    );
}
