//! Knob inventory: the workspace reads exactly four environment variables,
//! and README's "Environment" table documents each of them.
//!
//! Static inventory: every library `static` that can change and every
//! `thread_local!` is listed with its reason, so simulator state does not
//! become shared by every stack in the process without a reviewed edit.
//!
//! Every independent knob doubles the configurations tests and CI must
//! cover, so adding one has to be a deliberate, reviewed edit of the list
//! below — not a stray `env::var` deep in a crate.
//!
//! Recipe inventory, same idea: the harness crates format and mount file
//! systems in exactly one module, so every harness crash-checks and measures
//! the same stacks.
//!
//! Parse boundary: the files that read bytes from the media open with a
//! clippy deny list (indexing, slicing, `unwrap`, `expect`, `panic!`), so a
//! damaged image yields an error, never a panic; clippy enforces it, and
//! this inventory checks that no listed file has lost the list. Decoding an
//! integer from bytes outside `disksim::codec` is clippy's to refuse too
//! (`clippy.toml`, `disallowed-methods`).
//!
//! Placement inventory: one module prices cylinders, so the eager
//! allocator's sweeps and the compactor's hole-plug search decide the
//! head-track exception and the tie rule in one function.
//!
//! Drive-command inventory: the drive model splits a request into track
//! runs in one walker and plans, charges and traces a timed transfer in
//! one command, so reads, shared reads and writes cannot drift apart.
//!
//! Surface inventory: `results/api.txt` records every public item of every
//! library crate. An item no other crate names is `pub(crate)`, where
//! rustc's dead-code lint can see it; widening the API is an edit of that
//! file, visible in review.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

const KNOBS: [&str; 4] = [
    "VLFS_MC_EPISODES",
    "VLFS_MC_SMOKE_SEEDS",
    "VLFS_SEED",
    "VLFS_THREADS",
];

/// Every library `static` that can change, and every `thread_local!`,
/// with why it stays: state shared by the stacks of one process makes a
/// result depend on what ran beside it, so each entry must earn its keep.
/// A `static` can change when its type names a type rather than only
/// primitives and arrays of them: `Mutex`, `RwLock`, `OnceLock`,
/// `LazyLock`, `Atomic*`, `Cell`, `RefCell` or a wrapper of one.
const STATICS: [(&str, &str, &str); 4] = [
    (
        "crates/disksim/src/clock.rs",
        "EVENTS",
        "the process-wide event count: benchmark/src/layers.rs reads it \
         (clock::events), so it goes when the benchmark sums per-clock counts",
    ),
    (
        "crates/disksim/src/disk.rs",
        "POOL",
        "the drive's page pool, one per thread: pmap hands each worker a \
         share of the caller's and takes it back, so no page is reachable \
         from two threads",
    ),
    (
        "crates/disksim/src/par.rs",
        "CONFIGURED",
        "the --threads knob: all_figures sets it once from its flag",
    ),
    (
        "crates/modelcheck/src/diff.rs",
        "CACHE",
        "format_writes's count, a pure function of its StackSpec, until \
         episodes fork a formatted snapshot instead of formatting",
    ),
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

/// The `static` items declared in `code` (comment lines already gone):
/// each one's offset, name and type.
fn static_items(code: &str) -> Vec<(usize, &str, &str)> {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut items = Vec::new();
    for (at, _) in code.match_indices("static ") {
        if code[..at].ends_with(|c: char| c == '\'' || is_ident(c)) {
            continue; // a lifetime, or part of a longer word
        }
        let rest = code[at + "static ".len()..].trim_start();
        let rest = rest.strip_prefix("mut ").unwrap_or(rest);
        let name_end = rest.find(|c: char| !is_ident(c)).unwrap_or(rest.len());
        let (name, rest) = rest.split_at(name_end);
        let Some(ty) = rest.trim_start().strip_prefix(':') else {
            continue;
        };
        let ty = &ty[..ty.find(['=', ';']).unwrap_or(ty.len())];
        items.push((at, name, ty.trim()));
    }
    items
}

/// Every `static` under `crates/*/src` outside tests that can change, and
/// every `static` a `thread_local!` declares, as (file, name).
fn shared_statics(root: &Path) -> BTreeSet<(String, String)> {
    let mut files = Vec::new();
    for krate in fs::read_dir(root.join("crates")).expect("crates/") {
        rust_files(
            &krate.expect("readable directory entry").path().join("src"),
            &mut files,
        );
    }
    let mut found = BTreeSet::new();
    for file in &files {
        let rel = file.strip_prefix(root).expect("walked from root");
        let rel = rel.to_str().expect("UTF-8 path").to_owned();
        let src = fs::read_to_string(file).expect("readable source file");
        let code: String = non_test(&src)
            .lines()
            .filter(|l| !l.trim_start().starts_with("//"))
            .flat_map(|l| [l, "\n"])
            .collect();
        let locals: Vec<(usize, usize)> = code
            .match_indices("thread_local!")
            .map(|(at, _)| {
                let open = at + code[at..].find('{').expect("thread_local! block");
                let mut depth = 0;
                let close = code[open..]
                    .char_indices()
                    .find(|&(_, c)| {
                        depth += (c == '{') as i32 - (c == '}') as i32;
                        depth == 0
                    })
                    .map_or(code.len(), |(i, _)| open + i);
                (open, close)
            })
            .collect();
        for (at, name, ty) in static_items(&code) {
            let local = locals
                .iter()
                .any(|&(open, close)| (open..close).contains(&at));
            let names_a_type = ty
                .split(|c: char| !c.is_alphanumeric() && c != '_')
                .any(|word| {
                    word.starts_with(char::is_uppercase) && word.contains(char::is_lowercase)
                });
            if local || names_a_type || code[at..].starts_with("static mut") {
                found.insert((rel.clone(), name.to_owned()));
            }
        }
    }
    found
}

#[test]
fn every_shared_static_is_listed_with_its_reason() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let found = shared_statics(root);
    let listed: BTreeSet<(String, String)> = STATICS
        .iter()
        .map(|&(file, name, _)| (file.to_owned(), name.to_owned()))
        .collect();
    let new: Vec<_> = found.difference(&listed).collect();
    let stale: Vec<_> = listed.difference(&found).collect();
    assert!(
        new.is_empty() && stale.is_empty(),
        "shared statics changed: new {new:?} (state a run owns belongs in a value its \
         caller passes down; one that must stay needs an entry in STATICS with its \
         reason), stale entries {stale:?}"
    );
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

/// The files that parse bytes from the media (DESIGN.md, "Parse
/// boundary").
const PARSE_BOUNDARY: [&str; 15] = [
    "crates/core/src/checkpoint.rs",
    "crates/core/src/mapsector.rs",
    "crates/core/src/recovery.rs",
    "crates/core/src/tail.rs",
    "crates/disksim/src/codec.rs",
    "crates/disksim/src/image.rs",
    "crates/lfs/src/mount.rs",
    "crates/lfs/src/seg.rs",
    "crates/ufs/src/bitmap.rs",
    "crates/ufs/src/dir.rs",
    "crates/ufs/src/fsck.rs",
    "crates/ufs/src/inode.rs",
    "crates/ufs/src/layout.rs",
    "crates/ufs/src/mount.rs",
    "crates/ufs/src/tree.rs",
];

/// Tier 1 does not run clippy, so it checks what clippy would enforce:
/// every boundary file opens with the deny list, and `clippy.toml` keeps
/// integer decoding in the codec.
#[test]
fn every_parse_boundary_file_denies_panics() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let deny = "clippy::indexing_slicing,clippy::unwrap_used,clippy::expect_used,clippy::panic";
    for file in PARSE_BOUNDARY {
        let src = fs::read_to_string(root.join(file)).expect("a boundary file");
        // The attribute opens a line, so a commented-out copy does not count.
        let list = src.split_once("\n#![deny(").and_then(|(_, rest)| rest.split_once(")]"));
        let list: Option<String> = list.map(|(list, _)| list.split_whitespace().collect());
        assert_eq!(list.as_deref(), Some(deny), "{file} lost its deny list");
    }
    let config = fs::read_to_string(root.join("clippy.toml")).expect("clippy.toml");
    for int in ["u8", "u16", "u32", "u64"] {
        let path = format!("path = \"{int}::from_le_bytes\"");
        assert!(config.contains(&path), "clippy.toml no longer disallows {int}::from_le_bytes");
    }
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

/// The record of every library crate's public surface.
const API: &str = "results/api.txt";

/// The library crates: the root crate and each `crates/*` crate, by crate
/// name, with their library sources (binaries under `src/bin` are not part
/// of the surface).
fn library_crates(root: &Path) -> Vec<(String, PathBuf, Vec<PathBuf>)> {
    let mut dirs = vec![root.to_path_buf()];
    for krate in fs::read_dir(root.join("crates")).expect("crates/") {
        dirs.push(krate.expect("readable directory entry").path());
    }
    let mut out = Vec::new();
    for dir in dirs {
        let manifest = fs::read_to_string(dir.join("Cargo.toml")).expect("Cargo.toml");
        let name = manifest
            .lines()
            .find_map(|l| l.strip_prefix("name = \""))
            .and_then(|rest| rest.split_once('"'))
            .map(|(name, _)| name.replace('-', "_"))
            .expect("a package name");
        let src = dir.join("src");
        let mut files = Vec::new();
        rust_files(&src, &mut files);
        files.retain(|f| !f.starts_with(src.join("bin")));
        files.sort();
        out.push((name, src, files));
    }
    out.sort();
    out
}

/// `use` lines for one `pub use` declaration, one per name it exports:
/// `a::{b, c::{d, e}}` gives `a::b`, `a::c::d` and `a::c::e`.
fn expand_use(prefix: &str, tree: &str, out: &mut Vec<String>) {
    let tree = tree.trim();
    let Some(open) = tree.find('{') else {
        out.push(format!("{prefix}{tree}"));
        return;
    };
    let (head, body) = (&tree[..open], &tree[open + 1..tree.len() - 1]);
    let (mut depth, mut start) = (0, 0);
    for (i, c) in body.char_indices().chain([(body.len(), ',')]) {
        match c {
            '{' => depth += 1,
            '}' => depth -= 1,
            ',' if depth == 0 => {
                if !body[start..i].trim().is_empty() {
                    expand_use(&format!("{prefix}{head}"), &body[start..i], out);
                }
                start = i + 1;
            }
            _ => {}
        }
    }
}

/// The identifier at the start of `s`.
fn ident(s: &str) -> &str {
    let end = s
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(s.len());
    &s[..end]
}

/// The type or item a top-level line opens a block for: `Disk` for
/// `impl<'a> Disk {` or `pub struct Disk {`.
fn owner(line: &str) -> String {
    if let Some(rest) = line.strip_prefix("impl") {
        let mut rest = rest.trim_start();
        if rest.starts_with('<') {
            let mut depth = 0;
            let end = rest
                .char_indices()
                .find(|&(_, c)| {
                    depth += match c {
                        '<' => 1,
                        '>' => -1,
                        _ => 0,
                    };
                    depth == 0
                })
                .map_or(rest.len(), |(i, _)| i + 1);
            rest = rest[end..].trim_start();
        }
        let ty = rest.split_once(" for ").map_or(rest, |(_, ty)| ty);
        return ident(ty).to_owned();
    }
    let words: Vec<&str> = line.split_whitespace().collect();
    words
        .iter()
        .position(|w| ["struct", "enum", "trait", "union", "mod"].contains(w))
        .and_then(|i| words.get(i + 1))
        .map_or_else(String::new, |w| ident(w).to_owned())
}

/// The keywords that declare an item, `fn` first so that a `const fn` is
/// a function.
const ITEM_KINDS: [&str; 9] = [
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union",
];

/// The public items a library file declares outside its tests, one line
/// each: `<module> <kind> <path>`, e.g. `disksim::disk fn Disk::read_sectors`,
/// `disksim::disk field DiskStats.reads` or `disksim use disk::Disk`. A
/// `pub(crate)` item is not public and is not listed.
fn public_items(module: &str, code: &str, out: &mut BTreeSet<String>) {
    let mut owner_of_block = String::new();
    let mut lines = code.lines();
    while let Some(line) = lines.next() {
        if line.starts_with('}') {
            owner_of_block.clear();
        } else if line.starts_with(char::is_alphabetic) && !line.starts_with("where") {
            owner_of_block = owner(line);
        }
        let Some(decl) = line.trim_start().strip_prefix("pub ") else {
            continue;
        };
        let nested = line.starts_with(' ');
        let qualified = |name: &str, sep: &str| {
            if nested && !owner_of_block.is_empty() {
                format!("{owner_of_block}{sep}{name}")
            } else {
                name.to_owned()
            }
        };
        if let Some(tree) = decl.strip_prefix("use ") {
            let mut text = tree.to_owned();
            while !text.contains(';') {
                text.push_str(lines.next().expect("a `pub use` ends with `;`"));
            }
            let (tree, _) = text.split_once(';').expect("a `;` was read");
            let mut names = Vec::new();
            expand_use("", tree, &mut names);
            for name in names {
                out.insert(format!("{module} use {}", qualified(&name, "::")));
            }
            continue;
        }
        let words: Vec<&str> = decl.split_whitespace().collect();
        let item = ITEM_KINDS.iter().find_map(|&kind| {
            let at = words.iter().position(|w| *w == kind)?;
            let name = ident(words.get(at + 1)?);
            (!name.is_empty()).then_some((kind, name))
        });
        match item {
            Some((kind, name)) => {
                out.insert(format!("{module} {kind} {}", qualified(name, "::")));
            }
            None if decl.contains(':') => {
                let field = ident(decl);
                out.insert(format!("{module} field {}", qualified(field, ".")));
            }
            None => panic!("{module}: an unrecognised public item: {line:?}"),
        }
    }
}

/// Every public item of every library crate, by a source scan: what each
/// `lib.rs` declares `pub mod` or `pub use`, and the `pub` items of every
/// library file, tests excluded.
fn api_surface(root: &Path) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for (name, src, files) in library_crates(root) {
        for file in files {
            let rel = file.strip_prefix(&src).expect("under src/");
            let rel = rel.to_str().expect("UTF-8 path").trim_end_matches(".rs");
            let rel = rel.trim_end_matches("/mod").replace('/', "::");
            let module = match rel.as_str() {
                "lib" => name.clone(),
                _ => format!("{name}::{rel}"),
            };
            let src = fs::read_to_string(&file).expect("readable source file");
            public_items(&module, &non_test(&src), &mut out);
        }
    }
    out
}

/// An item is public only if another crate names it or a public item
/// exposes it, and `results/api.txt` records which items are. A change to
/// the surface is a deliberate edit of that file, so a widened API shows up
/// as a diff in review.
#[test]
fn the_public_surface_is_recorded() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let found = api_surface(root);
    assert!(found.len() > 300, "found only {} public items", found.len());
    let text = fs::read_to_string(root.join(API)).expect("results/api.txt");
    let recorded: BTreeSet<String> = text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_owned)
        .collect();
    let mut diff = String::new();
    for line in found.difference(&recorded) {
        diff.push_str(&format!("+{line}\n"));
    }
    for line in recorded.difference(&found) {
        diff.push_str(&format!("-{line}\n"));
    }
    assert!(
        diff.is_empty(),
        "the public surface differs from {API} (+ public now, - no longer \
         public). Narrow a new item to pub(crate) unless another crate names \
         it; otherwise add each + line to {API} and delete each - line:\n{diff}"
    );
}

/// The documents that name knobs and record counts.
const DOCS: [&str; 4] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
];

/// Every `VLFS_*` name the documents mention is a knob the workspace
/// reads; a name ending in `_*` stands for the knobs it begins.
#[test]
fn the_docs_name_only_live_knobs() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut dead = BTreeSet::new();
    for doc in DOCS {
        let text = fs::read_to_string(root.join(doc)).expect("a document");
        for (at, _) in text.match_indices("VLFS_") {
            let rest = &text[at..];
            let len = rest
                .find(|c: char| !(c.is_ascii_uppercase() || c == '_'))
                .unwrap_or(rest.len());
            let name = &rest[..len];
            let live = if rest[len..].starts_with('*') {
                KNOBS.iter().any(|k| k.starts_with(name))
            } else {
                KNOBS.contains(&name)
            };
            if !live {
                dead.insert(format!("{doc}: {name}"));
            }
        }
    }
    assert_eq!(dead, BTreeSet::new(), "documents name knobs that are gone");
}

/// The history is data (`results/perf_history.jsonl`), so the documents
/// describe the present: a measured change adds a row, not a section.
#[test]
fn the_docs_keep_their_line_budgets() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for (doc, budget) in [("EXPERIMENTS.md", 740), ("DESIGN.md", 620)] {
        let lines = fs::read_to_string(root.join(doc))
            .expect("a document")
            .lines()
            .count();
        assert!(
            lines <= budget,
            "{doc} has {lines} lines, over its budget of {budget}: put history \
             in a results/perf_history.jsonl row, and describe only the present"
        );
    }
}

#[path = "../crates/bench/src/bin/vlstat/trend.rs"]
mod trend;

/// The text between `<!-- generated: NAME -->` and `<!-- end: NAME -->`.
fn generated_block<'a>(doc: &'a str, name: &str) -> &'a str {
    let open = format!("<!-- generated: {name} -->\n");
    let close = format!("<!-- end: {name} -->\n");
    let (_, rest) = doc
        .split_once(&open)
        .unwrap_or_else(|| panic!("no {open:?} marker"));
    let (block, _) = rest
        .split_once(&close)
        .unwrap_or_else(|| panic!("no {close:?} marker"));
    block
}

/// `results/gates.json` as a table: each recorded count of each CI gate.
fn render_gates(text: &str) -> String {
    use trend::json::Json;
    let gates = Json::parse(text).expect("results/gates.json parses");
    let Json::Obj(gates) = gates else {
        panic!("results/gates.json is not an object")
    };
    let mut rows = Vec::new();
    for (gate, body) in &gates {
        let mut add = |name: &str, value: &Json| {
            let value = trend::text(value).expect("a count is a number or a string");
            rows.push(vec![gate.clone(), name.to_owned(), value]);
        };
        for list in ["sections", "metrics"] {
            if let Some(Json::Obj(counts)) = body.get(list) {
                for (name, value) in counts {
                    add(name, value);
                }
            }
        }
        if let Some(total) = body.get("total") {
            add("total", total);
        }
    }
    let columns = ["gate", "count", "recorded"].map(str::to_owned);
    trend::markdown(&columns, &rows)
}

/// EXPERIMENTS.md embeds the history's summary and the recorded gate
/// counts as rendered; each block must equal its render. On a mismatch,
/// paste the printed render between the markers.
#[test]
fn the_generated_doc_blocks_are_their_renders() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let doc = fs::read_to_string(root.join("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    let history = fs::read_to_string(root.join("results/perf_history.jsonl"))
        .expect("results/perf_history.jsonl");
    let rows = trend::parse_history(&history).unwrap_or_else(|e| panic!("{e}"));
    for row in &rows {
        assert!(trend::tables(row).starts_with(&format!("PR {}: ", row.pr)));
    }
    let gates = fs::read_to_string(root.join("results/gates.json")).expect("results/gates.json");
    for (name, render) in [
        ("trend", trend::summary(&rows)),
        ("gates", render_gates(&gates)),
    ] {
        assert!(
            generated_block(&doc, name) == render,
            "EXPERIMENTS.md's {name} block differs from its render:\n{render}"
        );
    }
}
