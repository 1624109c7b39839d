//! Segment geometry and on-disk segment summaries.
//!
//! The log-structured logical disk divides the device into 512 KB segments
//! (the MIT LLD's size, which the paper uses). Each segment's first block
//! is its *summary*: the logical owner of every data slot, so a mounted
//! volume (or a cleaner) can tell live blocks from dead ones.

use disksim::codec::{get_u32, get_u32s, get_u64, put_u32, put_u32s, put_u64, seal, seal_holds};
use fscore::{FsError, FsResult};

/// The one checksum of the logical disk: segment data and summary headers,
/// and, folded to 32 bits by [`seal`], checkpoints. A crash can tear the
/// multi-block segment flush (summary first, data after); the checksums let
/// mount detect and discard such segments instead of replaying garbage.
pub use disksim::digest::{digest, Digest};

/// Device blocks per segment (512 KB / 4 KB).
pub(crate) const SEG_BLOCKS: u64 = 128;
/// Data slots per segment (one block goes to the summary).
pub const SEG_DATA: u64 = SEG_BLOCKS - 1;
/// Sentinel for "no owner" / unmapped.
pub const NONE: u32 = u32::MAX;
/// Summary magic ("LSEG").
pub(crate) const SUMMARY_MAGIC: u32 = 0x4C53_4547;

/// Byte length of the checksummed summary header: magic, fill, seq, owner
/// table and data checksum.
const HEAD_BYTES: usize = 16 + SEG_DATA as usize * 4 + 8;

/// Per-segment bookkeeping state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SegState {
    /// No live data; available for writing.
    Free,
    /// Sealed on disk, may contain live and dead blocks.
    Dirty,
    /// The segment currently accepting appends (in memory).
    Open,
}

/// In-memory image of a segment summary block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Summary {
    /// Logical owner of each data slot (NONE = never written).
    pub(crate) owners: [u32; SEG_DATA as usize],
    /// Number of slots actually appended.
    pub(crate) fill: u32,
    /// Monotonic flush sequence: every summary written to disk (partial
    /// flush or seal) gets a fresh value, so mount-time roll-forward can
    /// order segments and skip ones older than the checkpoint.
    pub(crate) seq: u64,
    /// [`Digest`] of the `fill` data blocks flushed with this summary.
    /// Roll-forward verifies it before trusting the segment: if the crash
    /// tore the flush after the summary block but before (all of) the data
    /// landed, the mismatch exposes it.
    pub(crate) data_csum: u64,
}

impl Summary {
    /// An empty summary.
    pub(crate) fn empty() -> Self {
        Self {
            owners: [NONE; SEG_DATA as usize],
            fill: 0,
            seq: 0,
            data_csum: 0,
        }
    }

    /// Serialise into `block` (one device block), overwriting all of it.
    /// The header is sealed with its own checksum so a torn summary write
    /// (partial sectors of the summary block itself) is detectable.
    pub(crate) fn encode_into(&self, block: &mut [u8]) {
        put_u32(block, 0, SUMMARY_MAGIC);
        put_u32(block, 4, self.fill);
        put_u64(block, 8, self.seq);
        put_u32s(block, 16, &self.owners);
        put_u64(block, HEAD_BYTES - 8, self.data_csum);
        put_u64(block, HEAD_BYTES, digest(&block[..HEAD_BYTES]));
        block[HEAD_BYTES + 8..].fill(0);
    }

    /// Decode a summary block, verifying the header checksum.
    pub(crate) fn decode(buf: &[u8]) -> FsResult<Summary> {
        if buf.len() < HEAD_BYTES + 8 {
            return Err(FsError::Invalid("summary block too small"));
        }
        if get_u32(buf, 0)? != SUMMARY_MAGIC {
            return Err(FsError::Invalid("bad segment summary magic"));
        }
        if digest(&buf[..HEAD_BYTES]) != get_u64(buf, HEAD_BYTES)? {
            return Err(FsError::Invalid("segment summary checksum mismatch"));
        }
        let fill = get_u32(buf, 4)?;
        if fill > SEG_DATA as u32 {
            return Err(FsError::Invalid("summary fill out of range"));
        }
        let mut owners = [NONE; SEG_DATA as usize];
        for (owner, stored) in owners.iter_mut().zip(get_u32s(buf, 16, SEG_DATA as usize)?) {
            *owner = stored;
        }
        Ok(Summary {
            owners,
            fill,
            seq: get_u64(buf, 8)?,
            data_csum: get_u64(buf, HEAD_BYTES - 8)?,
        })
    }
}

/// Checkpoint magic ("LCKP").
const CKPT_MAGIC: u32 = 0x4C43_4B50;
/// Bytes before the block map in a checkpoint image: magic, seal, logical
/// block count, flush sequence.
pub(crate) const CKPT_HEAD: usize = 24;
/// Byte offset of the checkpoint's seal ([`seal`]) over the whole slot.
const CKPT_SEAL: usize = 4;

/// Fill `raw` (one whole checkpoint slot) with the image of `map`.
pub(crate) fn encode_checkpoint(raw: &mut [u8], flush_seq: u64, map: &[u32]) {
    let map_end = CKPT_HEAD + 4 * map.len();
    put_u32(raw, 0, CKPT_MAGIC);
    put_u32(raw, CKPT_SEAL, 0);
    put_u64(raw, 8, map.len() as u64);
    put_u64(raw, 16, flush_seq);
    put_u32s(raw, CKPT_HEAD, map);
    raw[map_end..].fill(0);
    seal(raw, CKPT_SEAL);
}

/// Validate one checkpoint slot image; returns its flush sequence if the
/// magic, seal and geometry all check out, so mount can reject a
/// checkpoint torn by a power cut. An image too short for the header and
/// a map of `logical` entries is refused before anything is read.
pub(crate) fn validate_checkpoint(raw: &[u8], logical: u64) -> Option<u64> {
    if raw.len() < CKPT_HEAD || logical > ((raw.len() - CKPT_HEAD) / 4) as u64 {
        return None;
    }
    if get_u32(raw, 0).ok()? != CKPT_MAGIC || !seal_holds(raw, CKPT_SEAL) {
        return None;
    }
    if get_u64(raw, 8).ok()? != logical {
        return None;
    }
    get_u64(raw, 16).ok()
}

/// The block map stored in a validated checkpoint image, every entry
/// unmapped or one of the log's `slots` data slots: a checksum-valid
/// checkpoint can still name a slot the log does not have.
pub(crate) fn checkpoint_map(raw: &[u8], logical: u64, slots: u64) -> FsResult<Vec<u32>> {
    let map: Vec<u32> = usize::try_from(logical)
        .ok()
        .and_then(|n| get_u32s(raw, CKPT_HEAD, n).ok())
        .ok_or(FsError::Invalid("checkpoint shorter than its map"))?
        .collect();
    if map.iter().any(|&s| s != NONE && s as u64 >= slots) {
        return Err(FsError::Invalid("checkpoint slot beyond the log"));
    }
    Ok(map)
}

/// Map a global data-slot number to its segment and slot index.
#[inline]
pub(crate) fn slot_to_seg(slot: u64) -> (u32, u32) {
    ((slot / SEG_DATA) as u32, (slot % SEG_DATA) as u32)
}

/// Map (segment, slot index) to the global slot number.
#[inline]
pub(crate) fn seg_to_slot(seg: u32, idx: u32) -> u64 {
    seg as u64 * SEG_DATA + idx as u64
}

/// Device block holding a data slot.
#[inline]
pub fn slot_device_block(slot: u64) -> u64 {
    let (seg, idx) = slot_to_seg(slot);
    seg as u64 * SEG_BLOCKS + 1 + idx as u64
}

/// Device block holding a segment's summary.
#[inline]
pub(crate) fn summary_block(seg: u32) -> u64 {
    seg as u64 * SEG_BLOCKS
}

#[cfg(test)]
mod tests {
    use super::*;

    const BS: usize = 4096;

    fn sample() -> Summary {
        let mut s = Summary::empty();
        s.owners[0] = 5;
        s.owners[126] = 99;
        s.fill = 2;
        s.seq = 77;
        s.data_csum = 0xDEAD_BEEF_F00D;
        s
    }

    fn encode(s: &Summary) -> Vec<u8> {
        // Dirty on purpose: `encode_into` must overwrite the whole block.
        let mut block = vec![0xA5u8; BS];
        s.encode_into(&mut block);
        block
    }

    #[test]
    fn summary_roundtrip() {
        let s = sample();
        let img = encode(&s);
        assert_eq!(Summary::decode(&img).unwrap(), s);
        assert!(img[HEAD_BYTES + 8..].iter().all(|&b| b == 0));
    }

    #[test]
    fn bad_summary_rejected() {
        assert!(Summary::decode(&vec![0u8; BS]).is_err());
        assert!(Summary::decode(&[0u8; 10]).is_err());
        // A fill beyond the segment is refused even under a valid seal.
        let mut s = Summary::empty();
        s.fill = SEG_DATA as u32 + 1;
        assert!(Summary::decode(&encode(&s)).is_err());
    }

    #[test]
    fn summary_header_rejects_every_single_bit_flip() {
        let img = encode(&sample());
        for bit in 0..(HEAD_BYTES + 8) * 8 {
            let mut torn = img.clone();
            torn[bit / 8] ^= 1 << (bit % 8);
            assert!(Summary::decode(&torn).is_err(), "bit {bit} went unnoticed");
        }
    }

    #[test]
    fn checkpoint_rejects_every_single_bit_flip() {
        let map: Vec<u32> = (0..254u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
        let logical = map.len() as u64;
        let mut raw = vec![0xA5u8; BS];
        encode_checkpoint(&mut raw, 41, &map);
        assert_eq!(validate_checkpoint(&raw, logical), Some(41));
        assert_eq!(checkpoint_map(&raw, logical, u64::MAX), Ok(map));
        assert_eq!(
            validate_checkpoint(&raw, logical + 1),
            None,
            "other geometry"
        );
        for bit in 0..raw.len() * 8 {
            let mut torn = raw.clone();
            torn[bit / 8] ^= 1 << (bit % 8);
            assert_eq!(validate_checkpoint(&torn, logical), None, "bit {bit}");
        }
    }

    /// The word the shared seal stores for one fixed checkpoint. It moved
    /// (from 0x22FDB2F2) when the checkpoint's own folded digest of the
    /// bytes after the seal gave way to the record seal, which also covers
    /// the magic; the summary's 64-bit header digest is the one it was.
    #[test]
    fn checkpoint_seal_word_is_pinned() {
        let map: Vec<u32> = (0..254u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
        let mut raw = vec![0xA5u8; BS];
        encode_checkpoint(&mut raw, 41, &map);
        let stored = get_u32(&raw, CKPT_SEAL).unwrap();
        assert_eq!(
            stored, 0x8229_622D,
            "checkpoint seal word moved: {stored:#010x}"
        );
        let head = get_u64(&encode(&sample()), HEAD_BYTES).unwrap();
        assert_eq!(
            head, 0x4FBE_36E2_8A88_7BA9,
            "summary header digest moved: {head:#018x}"
        );
    }

    /// The three LLD decoders parse whatever a crash, a torn write or a
    /// damaged image left on the media: whatever they are handed, each
    /// returns an error or a value and never panics.
    mod decoders {
        use super::*;
        use rand::rngs::StdRng;
        use rand::{Rng, RngCore, SeedableRng};

        fn random_bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
            let mut buf = vec![0u8; len];
            rng.fill_bytes(&mut buf);
            buf
        }

        /// Seal a summary header the way `encode_into` does.
        fn reseal_summary(block: &mut [u8]) {
            put_u64(block, HEAD_BYTES, digest(&block[..HEAD_BYTES]));
        }

        /// Seal a checkpoint image the way `encode_checkpoint` does.
        fn reseal_checkpoint(raw: &mut [u8]) {
            put_u32(raw, CKPT_SEAL, 0);
            seal(raw, CKPT_SEAL);
        }

        /// Does a map of `logical` entries fit behind the header?
        fn map_fits(raw: &[u8], logical: u64) -> bool {
            raw.len() >= CKPT_HEAD && logical <= ((raw.len() - CKPT_HEAD) / 4) as u64
        }

        /// What `checkpoint_map` must answer, derived independently.
        fn want_map(raw: &[u8], logical: u64, slots: u64) -> Option<Vec<u32>> {
            if !map_fits(raw, logical) {
                return None;
            }
            let map: Vec<u32> = (0..logical as usize)
                .map(|i| u32::from_le_bytes(raw[CKPT_HEAD + 4 * i..][..4].try_into().unwrap()))
                .collect();
            map.iter()
                .all(|&s| s == NONE || (s as u64) < slots)
                .then_some(map)
        }

        #[test]
        fn random_bytes_of_every_length_are_refused() {
            let mut rng = StdRng::seed_from_u64(0x15E6);
            for len in 0..=4200 {
                let bytes = random_bytes(&mut rng, len);
                assert!(Summary::decode(&bytes).is_err(), "len {len}");
                for logical in [0, 1, len.saturating_sub(CKPT_HEAD) as u64 / 4, u64::MAX] {
                    assert_eq!(validate_checkpoint(&bytes, logical), None, "len {len}");
                    for slots in [0, 1 << 20, u64::MAX] {
                        let got = checkpoint_map(&bytes, logical, slots).ok();
                        assert_eq!(got, want_map(&bytes, logical, slots), "len {len}");
                    }
                }
            }
        }

        #[test]
        fn truncated_valid_images_are_refused() {
            let mut s = Summary::empty();
            s.fill = 3;
            s.owners[..3].copy_from_slice(&[4, NONE, 9]);
            let mut summary = vec![0u8; BS];
            s.encode_into(&mut summary);
            for len in 0..BS {
                // The seal covers the header only; zeros follow it.
                let got = Summary::decode(&summary[..len]);
                assert_eq!(
                    got.ok(),
                    (len >= HEAD_BYTES + 8).then(|| s.clone()),
                    "len {len}"
                );
            }

            let map: Vec<u32> = (0..300u32)
                .map(|i| if i % 3 == 0 { NONE } else { i })
                .collect();
            let logical = map.len() as u64;
            let mut ckpt = vec![0u8; BS];
            encode_checkpoint(&mut ckpt, 5, &map);
            assert_eq!(validate_checkpoint(&ckpt, logical), Some(5));
            for len in 0..BS {
                let mut cut = ckpt[..len].to_vec();
                assert_eq!(validate_checkpoint(&cut, logical), None, "len {len}");
                // Resealed at its new length, a truncated checkpoint holds
                // iff its map still fits.
                if len >= CKPT_HEAD {
                    reseal_checkpoint(&mut cut);
                    let fits = map_fits(&cut, logical);
                    assert_eq!(
                        validate_checkpoint(&cut, logical).is_some(),
                        fits,
                        "len {len}"
                    );
                }
                let got = checkpoint_map(&cut, logical, 300).ok();
                assert_eq!(
                    got,
                    map_fits(&cut, logical).then(|| map.clone()),
                    "len {len}"
                );
            }
        }

        #[test]
        fn random_images_behind_a_valid_header_never_panic() {
            let mut rng = StdRng::seed_from_u64(0x4EAD);
            for round in 0..3000 {
                // Summary: random owners and fill, half the time in range.
                let mut block = random_bytes(&mut rng, BS);
                block[0..4].copy_from_slice(&SUMMARY_MAGIC.to_le_bytes());
                if round % 2 == 0 {
                    let fill = rng.gen_range(0..=SEG_DATA as u32 + 1);
                    block[4..8].copy_from_slice(&fill.to_le_bytes());
                }
                assert!(Summary::decode(&block).is_err(), "unsealed, round {round}");
                reseal_summary(&mut block);
                let fill = u32::from_le_bytes(block[4..8].try_into().unwrap());
                let got = Summary::decode(&block);
                assert_eq!(got.is_ok(), fill <= SEG_DATA as u32, "round {round}");

                // Checkpoint: random length, a random claimed map size, half
                // the time one that fits, and random slot bounds.
                let len = rng.gen_range(CKPT_HEAD..=4200);
                let mut raw = random_bytes(&mut rng, len);
                raw[0..4].copy_from_slice(&CKPT_MAGIC.to_le_bytes());
                let logical = if round % 2 == 0 {
                    rng.gen_range(0..=((len - CKPT_HEAD) / 4) as u64)
                } else {
                    rng.gen()
                };
                raw[8..16].copy_from_slice(&logical.to_le_bytes());
                assert_eq!(validate_checkpoint(&raw, logical), None, "round {round}");
                reseal_checkpoint(&mut raw);
                let fits = map_fits(&raw, logical);
                assert_eq!(
                    validate_checkpoint(&raw, logical).is_some(),
                    fits,
                    "round {round}"
                );
                let slots = if rng.gen() {
                    u64::MAX
                } else {
                    rng.gen_range(0..1u64 << 24)
                };
                let got = checkpoint_map(&raw, logical, slots).ok();
                assert_eq!(got, want_map(&raw, logical, slots), "round {round}");
            }
        }
    }

    #[test]
    fn slot_addressing_roundtrip() {
        for slot in [0u64, 1, 126, 127, 128, 1000] {
            let (seg, idx) = slot_to_seg(slot);
            assert_eq!(seg_to_slot(seg, idx), slot);
        }
        assert_eq!(slot_device_block(0), 1, "slot 0 skips the summary");
        assert_eq!(slot_device_block(127), 129, "second segment starts at 128");
        assert_eq!(summary_block(1), 128);
    }
}
