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
//!
//! Codec inventory, same idea again: every on-disk field is read and written
//! through `disksim::codec`, so byte order, field width and what a short
//! buffer means are decided in one place, and a parse path cannot panic on
//! a short field — nor on an `unwrap` or `expect`, outside a short list of
//! calls that guard in-memory invariants.
//!
//! Placement inventory: one module prices cylinders, so the eager
//! allocator's sweeps and the compactor's hole-plug search decide the
//! head-track exception and the tie rule in one function.
//!
//! Drive-command inventory: the drive model splits a request into track
//! runs in one walker and plans, charges and traces a timed transfer in
//! one command, so reads, shared reads and writes cannot drift apart.

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

/// `src` without its `#[cfg(test)]` items: from each attribute to the end
/// of the item it guards (a `;`, or the brace matching the item's first
/// `{`, skipping line comments and string and character literals).
fn non_test(src: &str) -> String {
    const ATTR: &str = "#[cfg(test)]";
    let mut out = String::new();
    let mut rest = src;
    while let Some(at) = rest.find(ATTR) {
        out.push_str(&rest[..at]);
        let item = &rest[at + ATTR.len()..];
        let bytes = item.as_bytes();
        let (mut i, mut depth) = (0, 0usize);
        let end = loop {
            match bytes.get(i).copied() {
                None => break bytes.len(),
                Some(b';') if depth == 0 => break i + 1,
                Some(b'{') => depth += 1,
                Some(b'}') => {
                    depth -= 1;
                    if depth == 0 {
                        break i + 1;
                    }
                }
                Some(b'/') if bytes.get(i + 1) == Some(&b'/') => {
                    while bytes.get(i + 1).is_some_and(|&b| b != b'\n') {
                        i += 1;
                    }
                }
                Some(b'"') => {
                    i += 1;
                    while bytes[i] != b'"' {
                        i += if bytes[i] == b'\\' { 2 } else { 1 };
                    }
                }
                Some(b'\'') if bytes.get(i + 2) == Some(&b'\'') => i += 2,
                Some(b'\'') if bytes.get(i + 1) == Some(&b'\\') => {
                    i += 2;
                    while bytes[i] != b'\'' {
                        i += 1;
                    }
                }
                _ => {}
            }
            i += 1;
        };
        rest = &item[end..];
    }
    out.push_str(rest);
    out
}

/// The one module that turns bytes into integers, and the digest kernel,
/// which folds whole words at memory speed.
const DECODES: [&str; 2] = [
    "crates/disksim/src/codec.rs",
    "crates/disksim/src/digest.rs",
];

/// The modules that lay out or walk an on-disk record.
const RECORD_MODULES: [&str; 12] = [
    "crates/core/src/checkpoint.rs",
    "crates/core/src/mapsector.rs",
    "crates/core/src/tail.rs",
    "crates/core/src/vlfs.rs",
    "crates/disksim/src/image.rs",
    "crates/lfs/src/seg.rs",
    "crates/ufs/src/dir.rs",
    "crates/ufs/src/fs.rs",
    "crates/ufs/src/fsck.rs",
    "crates/ufs/src/inode.rs",
    "crates/ufs/src/layout.rs",
    "crates/ufs/src/tree.rs",
];

/// The `expect` calls a record module may make outside its tests, by
/// message: each guards an in-memory invariant (of the buffer cache, or
/// that splitting a path yields its last component), never bytes from the
/// media.
const INVARIANT_EXPECTS: [&str; 5] = [
    "full cache is non-empty",
    "fresh buffer is unshared",
    "sole owner",
    "flushed block cached",
    "non-empty path",
];

#[test]
fn every_record_field_goes_through_the_codec() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for krate in fs::read_dir(root.join("crates")).expect("crates/") {
        rust_files(
            &krate.expect("readable directory entry").path().join("src"),
            &mut files,
        );
    }
    assert!(files.len() > 50, "walked only {} files", files.len());

    let mut found = BTreeSet::new();
    let mut records = BTreeSet::new();
    for file in &files {
        let rel = file.strip_prefix(root).expect("walked from root");
        let rel = rel.to_str().expect("UTF-8 path").to_owned();
        let src = fs::read_to_string(file).expect("readable source file");
        let code = non_test(&src);
        assert!(
            !code.contains("cfg(test)]"),
            "{rel}: a test item was not stripped"
        );
        // Whitespace out, so a call split over lines still matches.
        let code: String = code.split_whitespace().collect();
        if code.contains("from_le_bytes") && !DECODES.contains(&rel.as_str()) {
            found.insert((rel.clone(), "from_le_bytes"));
        }
        if RECORD_MODULES.contains(&rel.as_str()) {
            records.insert(rel.clone());
            let mut code = code;
            for message in INVARIANT_EXPECTS {
                let call = format!(".expect(\"{message}\")");
                code = code.replace(&call.split_whitespace().collect::<String>(), "");
            }
            for call in ["to_le_bytes", "try_into().unwrap(", ".unwrap()", ".expect("] {
                if code.contains(call) {
                    found.insert((rel.clone(), call));
                }
            }
        }
    }
    assert_eq!(
        records.len(),
        RECORD_MODULES.len(),
        "a record module moved: walked {records:?}"
    );
    assert_eq!(
        found,
        BTreeSet::new(),
        "a record field is read or written outside disksim::codec (use its \
         get_/put_ functions, which make a short field Corrupt), or a record \
         module unwraps outside INVARIANT_EXPECTS"
    );
}

/// The one module that may build a cylinder's pricing plan: every placement
/// search goes through its `best_in_cylinder`.
const PLACEMENT: &str = "crates/core/src/alloc.rs";

#[test]
fn one_placement_search() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for krate in fs::read_dir(root.join("crates")).expect("crates/") {
        rust_files(
            &krate.expect("readable directory entry").path().join("src"),
            &mut files,
        );
    }
    assert!(files.len() > 50, "walked only {} files", files.len());

    let mut found = BTreeSet::new();
    for file in &files {
        let rel = file.strip_prefix(root).expect("walked from root");
        let rel = rel.to_str().expect("UTF-8 path").to_owned();
        let src = fs::read_to_string(file).expect("readable source file");
        // Comments out, then whitespace, so a call split over lines still
        // matches and the definition reads `fncylinder_pricer(`.
        let code: String = non_test(&src)
            .lines()
            .filter(|line| !line.trim_start().starts_with("//"))
            .flat_map(str::split_whitespace)
            .collect();
        let calls =
            code.matches("cylinder_pricer(").count() - code.matches("fncylinder_pricer(").count();
        if calls > 0 {
            found.insert((rel, calls));
        }
    }
    assert!(
        found.iter().any(|(rel, _)| rel == PLACEMENT),
        "{PLACEMENT} prices no cylinder: {found:?}"
    );
    found.retain(|(rel, _)| rel != PLACEMENT);
    assert_eq!(
        found,
        BTreeSet::new(),
        "a placement search prices cylinders outside {PLACEMENT}; go through \
         alloc::best_in_cylinder instead"
    );
}

/// The drive model, where every simulated command is planned and charged.
const DRIVE: &str = "crates/disksim/src/disk.rs";

/// Each function of `code` by name, with the text after its name up to
/// the next `fn`.
fn functions(code: &str) -> Vec<(&str, &str)> {
    code.split("fn ")
        .skip(1)
        .map(|f| {
            let end = f
                .find(|c: char| !(c.is_alphanumeric() || c == '_'))
                .unwrap_or(f.len());
            f.split_at(end)
        })
        .collect()
}

#[test]
fn one_drive_command() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let src = fs::read_to_string(root.join(DRIVE)).expect("readable drive model");
    let code: String = non_test(&src)
        .lines()
        .filter(|line| !line.trim_start().starts_with("//"))
        .collect::<Vec<_>>()
        .join("\n");
    let fns = functions(&code);
    assert!(fns.len() > 40, "found only {} functions in {DRIVE}", fns.len());
    let doing = |what: &str| -> Vec<&str> {
        fns.iter()
            .filter(|(_, body)| body.contains(what))
            .map(|&(name, _)| name)
            .collect()
    };
    assert_eq!(
        doing("lba_to_phys("),
        ["runs"],
        "{DRIVE} splits a request into track runs outside its run walker; \
         walk `runs` instead"
    );
    for tail in ["busy +=", "observe_op("] {
        assert_eq!(
            doing(tail),
            ["command", "seek_to"],
            "{DRIVE} has a second accounting tail (`{tail}`); issue the \
             command through `command` instead"
        );
    }
}
