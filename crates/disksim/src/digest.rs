//! The workspace's one checksum and content digest.
//!
//! [`Digest`] seals the logical disk's segments and summaries (`lfs::seg`,
//! where it was born), is the 32-bit record seal of [`crate::codec::seal`]
//! — the virtual log's map sectors, checkpoint slots and firmware tail
//! record, and the logical disk's checkpoints — and is the content hash of
//! the fault layer's acknowledged-write journal
//! ([`crate::fault::content_hash`]). It lives
//! here because `disksim` is the lowest crate all three need it from, and a
//! second kernel beside it would be one more thing to get wrong.

/// 64-bit lanes folded side by side by [`Digest`].
const LANES: usize = 4;
/// Bytes one round of [`Digest::update`] consumes: one word per lane. Every
/// `update` of a stream but the last must pass a multiple of this.
pub(crate) const STRIPE: usize = LANES * 8;
/// Odd multiplier of the lane step (2^64 / golden ratio).
const MUL: u64 = 0x9E37_79B9_7F4A_7C15;
/// Distinct lane seeds, so the lanes are not interchangeable.
const SEEDS: [u64; LANES] = [
    0xcbf2_9ce4_8422_2325,
    0x8422_2325_cbf2_9ce4,
    0x2545_f491_4f6c_dd1d,
    0xd6e8_feb8_6659_fd93,
];

/// One lane step: xor the word in, multiply by an odd constant, rotate so
/// high input bits reach the low half before the next multiply. Each of
/// the three is a bijection of the state for a fixed word and of the word
/// for a fixed state, so a stream differing from another in exactly one
/// word can never digest the same.
#[inline(always)]
fn step(lane: u64, word: u64) -> u64 {
    (lane ^ word).wrapping_mul(MUL).rotate_left(29)
}

/// A four-lane streaming digest. A crash can tear a multi-block flush; the
/// digest lets a reader detect and discard the torn bytes instead of
/// trusting them.
///
/// The stream is cut into 32-byte stripes; word `k` of every stripe feeds
/// lane `k`, so four independent multiply chains are in flight and the
/// fold runs at memory speed rather than at one multiply latency per word.
/// A ragged tail is zero-padded to a stripe, and [`Digest::finish`] folds
/// the lanes and the total length together, so the value is a pure
/// function of the byte stream and its length: cutting the stream into
/// `update` calls at any stripe boundary (every block boundary is one)
/// gives the same digest as one call over the concatenation, and streams
/// differing only by trailing zeros differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    lanes: [u64; LANES],
    len: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

impl Digest {
    /// The digest of the empty stream.
    pub const fn new() -> Self {
        Self {
            lanes: SEEDS,
            len: 0,
        }
    }

    /// Fold `bytes` onto the end of the stream. Only the last call of a
    /// stream may pass a length that is not a multiple of 32.
    pub fn update(&mut self, bytes: &[u8]) {
        assert!(
            self.len.is_multiple_of(STRIPE as u64),
            "Digest::update after a ragged update"
        );
        self.len += bytes.len() as u64;
        let mut lanes = self.lanes;
        let mut fold = |stripe: &[u8]| {
            for (lane, word) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
                *lane = step(
                    *lane,
                    u64::from_le_bytes(word.try_into().expect("chunk of 8")),
                );
            }
        };
        let mut stripes = bytes.chunks_exact(STRIPE);
        for stripe in &mut stripes {
            fold(stripe);
        }
        let tail = stripes.remainder();
        if !tail.is_empty() {
            let mut padded = [0u8; STRIPE];
            padded[..tail.len()].copy_from_slice(tail);
            fold(&padded);
        }
        self.lanes = lanes;
    }

    /// The digest of everything folded so far; the stream can go on.
    pub fn finish(&self) -> u64 {
        let mut h = self.lanes.iter().fold(self.len, |h, &lane| step(h, lane));
        h ^= h >> 32;
        h = h.wrapping_mul(MUL);
        h ^ (h >> 29)
    }
}

/// Digest of one contiguous byte string.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut d = Digest::new();
    d.update(bytes);
    d.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    const BS: usize = 4096;
    const SECTOR: usize = crate::SECTOR_BYTES;

    /// Deterministic, non-repeating filler.
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed.wrapping_mul(MUL) | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn digest_streams_block_by_block() {
        let blocks = 127;
        let data = noise(blocks * BS, 1);
        let mut running = Digest::new();
        for fill in 0..=blocks {
            // `finish` does not consume: the same state keeps streaming.
            assert_eq!(running.finish(), digest(&data[..fill * BS]), "fill {fill}");
            if fill < blocks {
                running.update(&data[fill * BS..(fill + 1) * BS]);
            }
        }
    }

    #[test]
    fn digest_folds_the_length() {
        let zeros = vec![0u8; 3 * BS];
        let mut seen = std::collections::BTreeSet::new();
        for blocks in 0..=3 {
            assert!(
                seen.insert(digest(&zeros[..blocks * BS])),
                "{blocks} zero blocks"
            );
        }
        // Ragged lengths (the header and checkpoint cases) too.
        assert_ne!(digest(&[]), digest(&[0]));
        assert_ne!(digest(&[0; 31]), digest(&[0; 32]));
        assert_ne!(digest(&[0; 33]), digest(&[0; 32]));
        let data = noise(100, 2);
        assert_ne!(digest(&data[..99]), digest(&data));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn digest_refuses_to_stream_past_a_ragged_update() {
        let mut d = Digest::new();
        d.update(&[1, 2, 3]);
        d.update(&[4]);
    }

    #[test]
    fn digest_notices_every_single_sector_substitution() {
        // What a torn flush leaves behind: one sector of the covered range
        // still holding something else (zeros, or the previous generation).
        let fill = 9;
        let data = noise(fill * BS, 3);
        let stale = noise(fill * BS, 4);
        let want = digest(&data);
        for sector in 0..fill * BS / SECTOR {
            let range = sector * SECTOR..(sector + 1) * SECTOR;
            let mut torn = data.clone();
            torn[range.clone()].fill(0);
            assert_ne!(digest(&torn), want, "zeroed sector {sector}");
            torn[range.clone()].copy_from_slice(&stale[range]);
            assert_ne!(digest(&torn), want, "stale sector {sector}");
        }
    }

    // What the acknowledged-write journal needs of its content hash: the
    // block a crash left on the media digests like the acknowledged one
    // only if it *is* the acknowledged one.

    #[test]
    fn any_single_flipped_bit_alters_a_block_digest() {
        let block = noise(BS, 5);
        let want = digest(&block);
        for bit in 0..BS * 8 {
            let mut flipped = block.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(digest(&flipped), want, "bit {bit}");
        }
    }

    #[test]
    fn any_sector_granular_tear_alters_a_block_digest() {
        // A torn write leaves the new block's first `survivors` sectors
        // over a different old block (zeros: never written before).
        let new = noise(BS, 6);
        for old in [noise(BS, 7), vec![0u8; BS]] {
            for survivors in 0..BS / SECTOR {
                let keep = survivors * SECTOR;
                let mut torn = old.clone();
                torn[..keep].copy_from_slice(&new[..keep]);
                assert_ne!(digest(&torn), digest(&new), "{survivors} survivors");
            }
        }
    }

    #[test]
    fn any_length_change_alters_a_block_digest() {
        let mut data = noise(BS, 8);
        data.extend_from_slice(&[0u8; 2 * STRIPE]);
        let want = digest(&data[..BS]);
        for len in (0..data.len()).filter(|&len| len != BS) {
            assert_ne!(digest(&data[..len]), want, "length {len}");
        }
    }
}
