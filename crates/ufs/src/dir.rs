//! Directory entries.
//!
//! A directory's data is an ordinary file of fixed 32-byte entries; the
//! root directory is inode 0. A zero name length marks a free slot, so
//! freshly allocated directory blocks are valid empty directories. Which
//! slots of a directory are live is the `tree` module's to say.

use disksim::codec::{get_bytes, get_u32, get_u8, put_u32};
use disksim::DiskError;
use fscore::{FsError, FsResult};

/// Bytes per directory entry.
pub const DIRENT_SIZE: usize = 32;
/// Maximum file-name length.
pub(crate) const MAX_NAME: usize = DIRENT_SIZE - 5;

/// A directory entry: a name bound to an inode number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dirent {
    /// Inode of the file.
    pub ino: u32,
    /// File name (1..=MAX_NAME bytes).
    pub name: String,
}

impl Dirent {
    /// Validate a candidate file name.
    pub(crate) fn check_name(name: &str) -> FsResult<()> {
        if name.is_empty() {
            return Err(FsError::Invalid("empty file name"));
        }
        if name.len() > MAX_NAME {
            return Err(FsError::Invalid("file name too long"));
        }
        Ok(())
    }

    /// Serialise into a 32-byte slot.
    pub fn encode_into(&self, slot: &mut [u8]) {
        assert_eq!(slot.len(), DIRENT_SIZE);
        slot.fill(0);
        put_u32(slot, 0, self.ino);
        let bytes = self.name.as_bytes();
        slot[4] = bytes.len() as u8;
        slot[5..5 + bytes.len()].copy_from_slice(bytes);
    }

    /// Decode a [`DIRENT_SIZE`]-byte slot: `None` for a free slot (or one
    /// whose name is not a name). A buffer of any other length is `Corrupt`.
    pub fn decode(slot: &[u8]) -> FsResult<Option<Dirent>> {
        if slot.len() != DIRENT_SIZE {
            return Err(DiskError::Corrupt("directory slot of the wrong size").into());
        }
        let len = get_u8(slot, 4)? as usize;
        if len == 0 || len > MAX_NAME {
            return Ok(None);
        }
        let ino = get_u32(slot, 0)?;
        let name = String::from_utf8(get_bytes(slot, 5, len)?.to_vec());
        Ok(name.ok().map(|name| Dirent { ino, name }))
    }

    /// Write a free-slot marker.
    pub(crate) fn clear_slot(slot: &mut [u8]) {
        slot.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let d = Dirent {
            ino: 42,
            name: "hello.txt".into(),
        };
        let mut slot = vec![0u8; DIRENT_SIZE];
        d.encode_into(&mut slot);
        assert_eq!(Dirent::decode(&slot).unwrap(), Some(d));
    }

    #[test]
    fn zero_slot_is_free() {
        assert_eq!(Dirent::decode(&[0u8; DIRENT_SIZE]).unwrap(), None);
    }

    #[test]
    fn cleared_slot_is_free() {
        let d = Dirent {
            ino: 1,
            name: "x".into(),
        };
        let mut slot = vec![0u8; DIRENT_SIZE];
        d.encode_into(&mut slot);
        Dirent::clear_slot(&mut slot);
        assert_eq!(Dirent::decode(&slot).unwrap(), None);
    }

    #[test]
    fn name_validation() {
        assert!(Dirent::check_name("ok").is_ok());
        assert!(Dirent::check_name("").is_err());
        assert!(Dirent::check_name(&"x".repeat(MAX_NAME)).is_ok());
        assert!(Dirent::check_name(&"x".repeat(MAX_NAME + 1)).is_err());
    }
}
