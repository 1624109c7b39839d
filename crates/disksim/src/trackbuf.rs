//! Pooled track-sized buffers for the sparse media store.
//!
//! Track buffers are large (36 KB on the HP97560, 128 KB on the ST19101)
//! and, once snapshot forking is in play, extremely churny: every
//! copy-on-write fault in a fork copies one track, and the copy is freed
//! when the fork is dropped. Allocating each copy from the global
//! allocator works, but interleaving thousands of short-lived track-sized
//! chunks with the long-lived ones retained by cached snapshots fragments
//! the main heap arena — after a few dozen retained snapshots, *every*
//! subsequent track-sized allocation (fresh builds included) slows down by
//! an order of magnitude.
//!
//! [`TrackBuf`] sidesteps the allocator instead of fighting it: dropping a
//! buffer parks its allocation on a process-wide free list keyed by size,
//! and the next materialisation or copy-on-write fault of the same track
//! size reuses it. Steady-state forking then performs no track-sized
//! malloc/free at all, so the heap layout — and the cost of everything
//! else that allocates — stays independent of how many snapshots are alive.
//!
//! The pool caps each size class ([`POOL_CAP_PER_SIZE`]); beyond the cap,
//! drops fall through to the allocator as before. Buffer *contents* are
//! never reused: every constructor fully overwrites the buffer, so pooling
//! is invisible to simulation results.

use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::{Mutex, OnceLock};

/// Maximum parked buffers per size class. A full simulated disk is ~200
/// tracks, so this comfortably covers several concurrently-dropped forks
/// while bounding parked memory (2048 ST19101 tracks = 256 MB worst case,
/// reached only if that much was simultaneously live before).
const POOL_CAP_PER_SIZE: usize = 2048;

/// Free lists of parked allocations, keyed by buffer size.
type FreeLists = HashMap<usize, Vec<Box<[u8]>>>;

fn pool() -> &'static Mutex<FreeLists> {
    static POOL: OnceLock<Mutex<FreeLists>> = OnceLock::new();
    POOL.get_or_init(|| Mutex::new(HashMap::new()))
}

fn pool_take(len: usize) -> Option<Box<[u8]>> {
    pool().lock().ok()?.get_mut(&len)?.pop()
}

fn pool_put(data: Box<[u8]>) {
    if data.is_empty() {
        return;
    }
    if let Ok(mut p) = pool().lock() {
        let slot = p.entry(data.len()).or_default();
        if slot.len() < POOL_CAP_PER_SIZE {
            slot.push(data);
        }
    }
}

/// A track-sized byte buffer whose allocation is recycled through a
/// process-wide pool (see the module docs). Dereferences to `[u8]`;
/// `Clone` produces an independent copy (this is what `Arc::make_mut`
/// invokes on a copy-on-write fault).
pub(crate) struct TrackBuf {
    data: Box<[u8]>,
}

impl TrackBuf {
    /// A zero-filled buffer of `len` bytes (first materialisation of a
    /// sparse track).
    pub(crate) fn zeroed(len: usize) -> Self {
        match pool_take(len) {
            Some(mut data) => {
                data.fill(0);
                Self { data }
            }
            None => Self {
                data: vec![0u8; len].into_boxed_slice(),
            },
        }
    }

    /// An independent copy of `src` (copy-on-write fault).
    pub(crate) fn copy_of(src: &[u8]) -> Self {
        match pool_take(src.len()) {
            Some(mut data) => {
                data.copy_from_slice(src);
                Self { data }
            }
            None => Self {
                data: Box::from(src),
            },
        }
    }
}

impl Clone for TrackBuf {
    fn clone(&self) -> Self {
        Self::copy_of(&self.data)
    }
}

impl Drop for TrackBuf {
    fn drop(&mut self) {
        pool_put(std::mem::take(&mut self.data));
    }
}

impl Deref for TrackBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl DerefMut for TrackBuf {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl std::fmt::Debug for TrackBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TrackBuf({} bytes)", self.data.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_is_zero_even_after_reuse() {
        {
            let mut b = TrackBuf::zeroed(4096);
            b.fill(0xAB);
        } // parked dirty
        let b = TrackBuf::zeroed(4096);
        assert!(b.iter().all(|&x| x == 0));
    }

    #[test]
    fn copy_of_matches_source_after_reuse() {
        {
            let mut b = TrackBuf::zeroed(512);
            b.fill(0xCD);
        }
        let src: Vec<u8> = (0..512).map(|i| i as u8).collect();
        let b = TrackBuf::copy_of(&src);
        assert_eq!(&b[..], &src[..]);
    }

    #[test]
    fn clone_is_independent() {
        let mut a = TrackBuf::zeroed(64);
        a[0] = 1;
        let mut b = a.clone();
        b[0] = 2;
        assert_eq!(a[0], 1);
        assert_eq!(b[0], 2);
    }
}
