//! Seeded, splittable randomness for replayable episodes.
//!
//! The model checker deliberately does not use the workspace `rand` shim:
//! every episode must be reconstructible from a single `u64` printed in a
//! failure report, across shim upgrades. A splitmix64 core gives us that —
//! it is tiny, fast, well distributed for test-case generation, and the
//! `split` operation derives independent streams so the op generator and
//! the fault planner cannot perturb each other's draws when one of them
//! changes.

/// One splitmix64 step: advance `state` and return the next value.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A splittable deterministic generator.
#[derive(Debug, Clone)]
pub struct McRng {
    state: u64,
}

impl McRng {
    /// Seeded generator; the same seed always yields the same stream.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    /// Uniform value in `0..n` (`n > 0`). Modulo bias is irrelevant at
    /// test-generation quality.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }

    /// True with probability `percent`/100.
    pub fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    /// Derive an independent stream. Consumes one draw from `self`, so
    /// sibling splits with distinct `stream` tags are decorrelated.
    pub fn split(&mut self, stream: u64) -> McRng {
        McRng {
            state: self.next_u64() ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        }
    }
}

/// Deterministic payload bytes for a write: byte `i` depends only on
/// `(tag, offset + i)`, so the reference model and the executor produce
/// identical data from the compact `(tag, offset, len)` stored in the op,
/// and two writes with different tags never collide byte-for-byte.
pub fn fill(tag: u64, offset: u64, len: usize) -> Vec<u8> {
    // The stream is 8-byte words keyed by `pos / 8`: a ragged head up to
    // the next word boundary, whole words, a ragged tail.
    let word = |pos: u64| {
        let mut s = tag ^ (pos / 8).wrapping_mul(0x2545_F491_4F6C_DD1D);
        splitmix64(&mut s).to_le_bytes()
    };
    let mut out = vec![0u8; len];
    let phase = (offset % 8) as usize;
    let head = ((8 - phase) % 8).min(len);
    out[..head].copy_from_slice(&word(offset)[phase..phase + head]);
    let mut pos = offset + head as u64;
    let mut words = out[head..].chunks_exact_mut(8);
    for w in &mut words {
        w.copy_from_slice(&word(pos));
        pos += 8;
    }
    let tail = words.into_remainder();
    tail.copy_from_slice(&word(pos)[..tail.len()]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_split_independent() {
        let mut a = McRng::new(42);
        let mut b = McRng::new(42);
        let s1: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let s2: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(s1, s2);

        let mut r = McRng::new(7);
        let mut x = r.split(1);
        let mut y = McRng::new(7).split(2);
        assert_ne!(x.next_u64(), y.next_u64(), "streams with distinct tags differ");
    }

    #[test]
    fn fill_is_position_stable() {
        // Chunking must not matter: fill(tag, 0, 64) restricted to [8, 24)
        // equals fill(tag, 8, 16).
        let whole = fill(99, 0, 64);
        let part = fill(99, 8, 16);
        assert_eq!(&whole[8..24], &part[..]);
    }

    /// `fill` as first written — a growing vector, one `extend_from_slice`
    /// per word — kept as the oracle of the pre-sized one.
    fn fill_per_word(tag: u64, offset: u64, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        let mut i = 0usize;
        while i < len {
            let pos = offset + i as u64;
            let mut s = tag ^ (pos / 8).wrapping_mul(0x2545_F491_4F6C_DD1D);
            let word = splitmix64(&mut s).to_le_bytes();
            let phase = (pos % 8) as usize;
            let take = (8 - phase).min(len - i);
            out.extend_from_slice(&word[phase..phase + take]);
            i += take;
        }
        out
    }

    #[test]
    fn fill_is_byte_identical_to_the_per_word_one() {
        let mut r = McRng::new(0xF111);
        for offset in 0..17 {
            for len in 0..41 {
                assert_eq!(
                    fill(7, offset, len),
                    fill_per_word(7, offset, len),
                    "{offset}+{len}"
                );
            }
        }
        for _ in 0..200 {
            let (tag, offset, len) = (r.next_u64(), r.below(1 << 20), r.below(9000) as usize);
            assert_eq!(fill(tag, offset, len), fill_per_word(tag, offset, len));
        }
    }

    #[test]
    fn fill_distinguishes_tags() {
        assert_ne!(fill(1, 0, 32), fill(2, 0, 32));
    }
}
