//! Process-wide switch selecting the pre-optimisation *reference* paths.
//!
//! Several hot paths in this workspace keep their original, slower
//! implementation around as an oracle: the naive exhaustive allocator
//! search (`core::alloc::reference`), the per-run stepwise clock discipline
//! in [`crate::Disk::read_sectors`] / [`crate::Disk::write_sectors`], the
//! full-rescan victim pickers in `core::compact` and `lfs`, and the bench
//! harness rebuilding every aged cell instead of forking a snapshot.
//! Setting `VLFS_REFERENCE=1` in the environment routes every such call
//! site to its reference implementation for the whole process, which lets
//! CI re-run the figure suite both ways and diff the stdout byte-for-byte.
//! It is the only process-wide mode switch: the system has exactly two
//! configurations, fast and reference.
//!
//! The switch only ever selects between *representation-equivalent* code
//! paths — identical virtual-clock arithmetic and identical pick results —
//! so figure output must not depend on it; the byte-identity check is what
//! enforces that.

use std::sync::OnceLock;

/// True when `VLFS_REFERENCE` is set to `1` (or `true`) in the environment;
/// false when it is unset, `0` or `false`. Read once per process; changing
/// the variable afterwards has no effect.
///
/// # Panics
/// If the variable holds anything [`parse`] rejects: `VLFS_REFERENCE=yes`
/// must not silently select the fast paths.
pub fn reference_mode() -> bool {
    static MODE: OnceLock<bool> = OnceLock::new();
    *MODE.get_or_init(|| match std::env::var("VLFS_REFERENCE") {
        Ok(v) => parse(&v).unwrap_or_else(|e| panic!("VLFS_REFERENCE: {e}")),
        Err(_) => false,
    })
}

/// Parse a `VLFS_REFERENCE` value: `1` / `true` select the reference paths,
/// `0` / `false` the fast ones (`true` / `false` in any case).
pub fn parse(s: &str) -> Result<bool, String> {
    match s {
        "1" => Ok(true),
        "0" => Ok(false),
        _ if s.eq_ignore_ascii_case("true") => Ok(true),
        _ if s.eq_ignore_ascii_case("false") => Ok(false),
        _ => Err(format!("expected 0, 1, true or false, got {s:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::parse;

    #[test]
    fn parse_accepts_only_the_four_spellings() {
        assert_eq!(parse("1"), Ok(true));
        assert_eq!(parse("TRUE"), Ok(true));
        assert_eq!(parse("0"), Ok(false));
        assert_eq!(parse("false"), Ok(false));
        for bad in ["", "yes", "2", " 1", "on"] {
            let err = parse(bad).expect_err(bad);
            assert!(err.contains("0, 1, true or false"), "{bad:?}: {err}");
        }
    }
}
