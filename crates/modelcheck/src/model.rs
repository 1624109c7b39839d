//! The reference model: a flat map of name → bytes, plus the durability
//! oracle that says what must survive a crash.
//!
//! The model is deliberately trivial — no blocks, no cache, no log — so a
//! divergence always indicts the real stack (or the harness), never the
//! oracle. Its error results mirror the `FileSystem` contract exactly,
//! including the order of error checks in `rename`, so the differential
//! executor can compare `FsResult`s verbatim.
//!
//! # Durability rules
//!
//! The stacks only promise durability at `sync` boundaries (UFS metadata is
//! stronger, but the model checks the *common* contract all four stacks
//! share):
//!
//! * a name untouched since the last completed `sync` and present in the
//!   sync snapshot must survive a crash byte-for-byte;
//! * a name untouched since the last completed `sync` and absent from the
//!   snapshot must stay absent;
//! * anything touched since the snapshot is *uncertain*: after recovery the
//!   model adopts whatever the file system actually has for it — and from
//!   then on holds the stack to that adopted state, because recovery itself
//!   is a durability barrier (everything it reconstructs is on the media).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use fscore::{FsError, FsResult};

/// A file's bytes, shared between the live state and the durability floor
/// until a write to the live copy parts them.
pub type Bytes = Arc<Vec<u8>>;

/// In-memory reference state plus the durability snapshot.
#[derive(Debug, Clone, Default)]
pub struct RefModel {
    /// Live state: what a crash-free file system must show right now.
    files: BTreeMap<String, Bytes>,
    /// State at the last completed `sync` — the durability floor. Taking
    /// it copies names and pointers, not file contents.
    durable: BTreeMap<String, Bytes>,
    /// Names touched (created, written, deleted, renamed) since that sync.
    dirty: BTreeSet<String>,
}

impl RefModel {
    /// Fresh model for a freshly formatted volume.
    pub fn new() -> Self {
        Self::default()
    }

    /// Does the file exist in live state?
    pub fn exists(&self, name: &str) -> bool {
        self.files.contains_key(name)
    }

    /// Live size of a file.
    pub fn size(&self, name: &str) -> Option<u64> {
        self.files.get(name).map(|f| f.len() as u64)
    }

    /// Live contents, for full-state comparisons.
    pub fn live(&self) -> &BTreeMap<String, Bytes> {
        &self.files
    }

    /// Mirror of `FileSystem::create`.
    pub fn create(&mut self, name: &str) -> FsResult<()> {
        if self.files.contains_key(name) {
            return Err(FsError::Exists);
        }
        self.files.insert(name.to_string(), Bytes::default());
        self.dirty.insert(name.to_string());
        Ok(())
    }

    /// Mirror of `FileSystem::write` (on an open handle): extends with a
    /// zero-filled hole when `offset` is past the end.
    pub fn write(&mut self, name: &str, offset: u64, data: &[u8]) -> FsResult<()> {
        let f = Arc::make_mut(self.files.get_mut(name).ok_or(FsError::NotFound)?);
        let end = offset as usize + data.len();
        if f.len() < end {
            f.resize(end, 0);
        }
        f[offset as usize..end].copy_from_slice(data);
        self.dirty.insert(name.to_string());
        Ok(())
    }

    /// Mirror of `FileSystem::read`: the bytes a read of `len` at `offset`
    /// must return (short at end of file, empty past it).
    pub fn read(&self, name: &str, offset: u64, len: usize) -> FsResult<Vec<u8>> {
        let f = self.files.get(name).ok_or(FsError::NotFound)?;
        let start = (offset as usize).min(f.len());
        let end = (offset as usize).saturating_add(len).min(f.len());
        Ok(f[start..end].to_vec())
    }

    /// Mirror of `FileSystem::delete`.
    pub fn delete(&mut self, name: &str) -> FsResult<()> {
        if self.files.remove(name).is_none() {
            return Err(FsError::NotFound);
        }
        self.dirty.insert(name.to_string());
        Ok(())
    }

    /// Mirror of `FileSystem::rename`, with the same error-check order as
    /// the UFS implementation: missing source, self-rename no-op, taken
    /// destination.
    pub fn rename(&mut self, from: &str, to: &str) -> FsResult<()> {
        if !self.files.contains_key(from) {
            return Err(FsError::NotFound);
        }
        if from == to {
            return Ok(());
        }
        if self.files.contains_key(to) {
            return Err(FsError::Exists);
        }
        let bytes = self.files.remove(from).expect("presence checked");
        self.files.insert(to.to_string(), bytes);
        self.dirty.insert(from.to_string());
        self.dirty.insert(to.to_string());
        Ok(())
    }

    /// A `sync` completed: live state becomes the durability floor.
    pub fn commit_sync(&mut self) {
        self.durable = self.files.clone();
        self.dirty.clear();
    }

    /// Mark a name uncertain — used when a power cut interrupts an
    /// operation targeting it, so its on-media state is unknowable.
    pub fn mark_dirty(&mut self, name: &str) {
        self.dirty.insert(name.to_string());
    }

    /// Reconcile with the file system's actual state after a crash and
    /// recovery. `actual` maps every present name to its full contents;
    /// absent names are simply missing from the map.
    ///
    /// Clean names are checked against the durability floor; dirty names
    /// are adopted as found. On success the post-recovery state becomes
    /// both the live state and the new floor. On failure returns a
    /// human-readable description of the violated guarantee.
    pub fn crash_adopt(&mut self, actual: &BTreeMap<String, Vec<u8>>) -> Result<(), String> {
        let mut names: BTreeSet<&String> = actual.keys().collect();
        names.extend(self.durable.keys());
        names.extend(self.files.keys());
        names.extend(self.dirty.iter());
        let mut adopted: Vec<(String, Option<&Vec<u8>>)> = Vec::new();
        for n in names {
            if self.dirty.contains(n) {
                adopted.push((n.clone(), actual.get(n)));
                continue;
            }
            match (self.durable.get(n), actual.get(n)) {
                (Some(want), Some(got)) => {
                    if **want != *got {
                        return Err(format!(
                            "durability violated: '{n}' was synced with {} bytes but \
                             recovered with {} bytes{}",
                            want.len(),
                            got.len(),
                            first_difference(want, got)
                        ));
                    }
                }
                (Some(want), None) => {
                    return Err(format!(
                        "durability violated: '{n}' ({} bytes) was synced, untouched \
                         since, and lost across the crash",
                        want.len()
                    ));
                }
                (None, Some(got)) => {
                    return Err(format!(
                        "durability violated: '{n}' was absent at the last sync, \
                         untouched since, yet recovered with {} bytes",
                        got.len()
                    ));
                }
                (None, None) => {}
            }
        }
        for (n, state) in adopted {
            match state {
                Some(bytes) => {
                    self.files.insert(n, Arc::new(bytes.clone()));
                }
                None => {
                    self.files.remove(&n);
                }
            }
        }
        self.durable = self.files.clone();
        self.dirty.clear();
        Ok(())
    }
}

/// Locate the first differing byte for a readable report.
fn first_difference(a: &[u8], b: &[u8]) -> String {
    match a.iter().zip(b.iter()).position(|(x, y)| x != y) {
        Some(i) => format!(" (first difference at byte {i}: {:#04x} vs {:#04x})", a[i], b[i]),
        None => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_mirrors_fs_semantics() {
        let mut m = RefModel::new();
        assert_eq!(m.create("a"), Ok(()));
        assert_eq!(m.create("a"), Err(FsError::Exists));
        assert_eq!(m.write("a", 4, b"xy"), Ok(()));
        assert_eq!(m.read("a", 0, 10).unwrap(), vec![0, 0, 0, 0, b'x', b'y']);
        assert_eq!(m.read("a", 6, 4).unwrap(), Vec::<u8>::new());
        assert_eq!(m.rename("a", "a"), Ok(()));
        assert_eq!(m.rename("missing", "b"), Err(FsError::NotFound));
        assert_eq!(m.create("b"), Ok(()));
        assert_eq!(m.rename("a", "b"), Err(FsError::Exists));
        assert_eq!(m.delete("b"), Ok(()));
        assert_eq!(m.rename("a", "b"), Ok(()));
        assert!(!m.exists("a"));
        assert_eq!(m.size("b"), Some(6));
        assert_eq!(m.delete("a"), Err(FsError::NotFound));
    }

    #[test]
    fn durability_oracle_accepts_only_legal_crash_states() {
        let mut m = RefModel::new();
        m.create("keep").unwrap();
        m.write("keep", 0, b"data").unwrap();
        m.commit_sync();
        m.create("maybe").unwrap();

        // Legal: synced file intact, dirty file either way.
        let mut ok = BTreeMap::new();
        ok.insert("keep".to_string(), b"data".to_vec());
        assert!(m.clone().crash_adopt(&ok).is_ok());
        let mut ok2 = ok.clone();
        ok2.insert("maybe".to_string(), Vec::new());
        assert!(m.clone().crash_adopt(&ok2).is_ok());

        // Illegal: the synced file lost, altered, or a clean name
        // resurrected.
        assert!(m.clone().crash_adopt(&BTreeMap::new()).is_err());
        let mut bad = ok.clone();
        bad.insert("keep".to_string(), b"datA".to_vec());
        assert!(m.clone().crash_adopt(&bad).is_err());
        m.commit_sync(); // "maybe" now durable too, everything clean
        m.delete("maybe").unwrap();
        m.commit_sync(); // clean absence
        let mut res = ok.clone();
        res.insert("maybe".to_string(), Vec::new());
        assert!(m.clone().crash_adopt(&res).is_err(), "resurrection rejected");
    }

    #[test]
    fn adoption_becomes_the_new_floor() {
        let mut m = RefModel::new();
        m.create("f").unwrap();
        m.write("f", 0, b"lost").unwrap();
        // Crash before any sync: the file never made it.
        assert!(m.crash_adopt(&BTreeMap::new()).is_ok());
        assert!(!m.exists("f"));
        // A second crash must now hold the stack to that adopted absence…
        assert!(m.clone().crash_adopt(&BTreeMap::new()).is_ok());
        // …and a resurrection is a violation.
        let mut back = BTreeMap::new();
        back.insert("f".to_string(), b"lost".to_vec());
        assert!(m.crash_adopt(&back).is_err());
    }
}
