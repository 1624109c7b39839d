//! The three VLD record decoders — map sector, checkpoint slot, tail
//! record — parse whatever a crash, a torn write or a damaged image left on
//! the media. Whatever they are handed, each returns `None` or a value and
//! never panics, and nothing is sized by an on-disk count before the count
//! is checked against the record. The words their seals store are pinned.

use disksim::codec::{get_u16, get_u32, seal};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use vlog_core::checkpoint::CKPT_MAGIC;
use vlog_core::mapsector::{MAP_MAGIC, MAP_VERSION, PIECE_BYTES};
use vlog_core::tail::TAIL_MAGIC;
use vlog_core::{
    Checkpoint, MapFlags, MapSector, PieceLoc, TailRecord, TxnInfo, PIECE_ENTRIES, UNMAPPED,
};

/// Offsets of each record's seal field.
const MAP_SUM: usize = 68;
const CKPT_SUM: usize = 12;
const TAIL_SUM: usize = 32;
/// A checkpoint's header, and the bytes each directory entry takes.
const CKPT_HEAD: usize = 32;
const CKPT_ENTRY: usize = 32;

/// Seal `record` at `field` the way the encoders do.
fn reseal(record: &mut [u8], field: usize) {
    record[field..field + 4].fill(0);
    seal(record, field);
}

/// Stamp magic and version (`u16` 1 unless given) at the front.
fn stamp(record: &mut [u8], magic: u32, version: u16) {
    record[0..4].copy_from_slice(&magic.to_le_bytes());
    record[4..6].copy_from_slice(&version.to_le_bytes());
}

fn random_bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
    let mut buf = vec![0u8; len];
    rng.fill_bytes(&mut buf);
    buf
}

/// Which of the three decoders accept `bytes`.
fn accepted(bytes: &[u8]) -> [bool; 3] {
    [
        MapSector::decode(bytes).is_some(),
        Checkpoint::decode(bytes).is_some(),
        TailRecord::decode(bytes).is_some(),
    ]
}

/// The checkpoint decoder must accept a sealed slot exactly when the
/// directory it claims fits in it.
fn entries_fit(slot: &[u8]) -> bool {
    let n = get_u32(slot, 8).unwrap() as u64;
    CKPT_HEAD as u64 + n * CKPT_ENTRY as u64 <= slot.len() as u64
}

fn valid_images() -> [(Vec<u8>, usize); 3] {
    let map = MapSector {
        seq: 42,
        piece: 7,
        flags: MapFlags::TXN_COMMIT,
        prev: Some((1234, 41)),
        bypass: None,
        txn: Some(TxnInfo {
            id: 9,
            index: 2,
            total: 3,
        }),
        entries: vec![1, 2, UNMAPPED, 4],
    };
    let loc = |lba| PieceLoc {
        lba,
        seq: lba / 8,
        prev: Some((lba + 8, 1)),
    };
    let ckpt = Checkpoint {
        seq: 99,
        pieces: vec![Some(loc(800)), None, Some(loc(1600))],
    };
    let tail = TailRecord {
        root: Some((777, 42)),
        next_seq: 43,
    };
    [
        (map.encode().unwrap(), MAP_SUM),
        (ckpt.encode(8), CKPT_SUM),
        (tail.encode().to_vec(), TAIL_SUM),
    ]
}

#[test]
fn random_bytes_of_every_length_are_refused() {
    let mut rng = StdRng::seed_from_u64(0xDEC0);
    for len in 0..=4200 {
        let bytes = random_bytes(&mut rng, len);
        assert_eq!(accepted(&bytes), [false; 3], "len {len}");
    }
}

#[test]
fn truncated_valid_images_are_refused() {
    for (kind, (image, field)) in valid_images().into_iter().enumerate() {
        assert!(accepted(&image)[kind], "kind {kind} must decode whole");
        for len in 0..image.len() {
            assert_eq!(accepted(&image[..len]), [false; 3], "kind {kind} len {len}");
            // Resealed at its new length, a truncated checkpoint still
            // decodes iff its directory fits; the others need whole sectors.
            if len >= field + 4 {
                let mut cut = image[..len].to_vec();
                reseal(&mut cut, field);
                let want = kind == 1 && entries_fit(&cut);
                assert_eq!(accepted(&cut)[kind], want, "kind {kind} resealed len {len}");
            }
        }
    }
}

#[test]
fn random_images_behind_a_valid_header_never_panic() {
    let mut rng = StdRng::seed_from_u64(0x4EAD);
    for round in 0..3000 {
        // Map sector: random header fields and entry count.
        let mut map = random_bytes(&mut rng, PIECE_BYTES);
        stamp(&mut map, MAP_MAGIC, MAP_VERSION);
        assert_eq!(accepted(&map), [false; 3], "unsealed map, round {round}");
        reseal(&mut map, MAP_SUM);
        let n = get_u16(&map, 20).unwrap() as usize;
        let got = MapSector::decode(&map);
        assert_eq!(got.is_some(), n <= PIECE_ENTRIES, "map round {round}");
        if let Some(m) = got {
            assert_eq!(m.entries.len(), n);
        }

        // Checkpoint slot: random length and a random directory size,
        // half the time a small one so the entry loop runs.
        let len = rng.gen_range(CKPT_HEAD..=4200);
        let mut ckpt = random_bytes(&mut rng, len);
        stamp(&mut ckpt, CKPT_MAGIC, 1);
        if round % 2 == 0 {
            let n = rng.gen_range(0..=(len / CKPT_ENTRY) as u32);
            ckpt[8..12].copy_from_slice(&n.to_le_bytes());
        }
        assert_eq!(accepted(&ckpt), [false; 3], "unsealed ckpt, round {round}");
        reseal(&mut ckpt, CKPT_SUM);
        let got = Checkpoint::decode(&ckpt);
        assert_eq!(got.is_some(), entries_fit(&ckpt), "ckpt round {round}");

        // Tail record: every sealed image with the right magic decodes.
        let mut tail = random_bytes(&mut rng, PIECE_BYTES);
        stamp(&mut tail, TAIL_MAGIC, 1);
        assert_eq!(accepted(&tail), [false; 3], "unsealed tail, round {round}");
        reseal(&mut tail, TAIL_SUM);
        assert!(TailRecord::decode(&tail).is_some(), "tail round {round}");
    }
}

/// A sealed checkpoint claiming `u32::MAX` directory entries is refused
/// before anything is sized by the claim.
#[test]
fn checkpoint_claiming_u32_max_entries_is_refused() {
    for len in [CKPT_HEAD, 512, 4096, 64 * 1024] {
        let mut slot = vec![0u8; len];
        stamp(&mut slot, CKPT_MAGIC, 1);
        slot[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        reseal(&mut slot, CKPT_SUM);
        assert_eq!(Checkpoint::decode(&slot), None, "len {len}");
    }
}

/// The stored words of one fixed record of each sealed kind, recorded
/// when the seal became the folded digest (the PR 27 row of
/// `results/perf_history.jsonl` lists them beside the words of the
/// checksum it replaced: `vlstat trend results/perf_history.jsonl 27`);
/// each still decodes, and is rejected after any single-bit flip.
#[test]
fn stored_checksums_are_pinned() {
    fn check(image: &[u8], field: usize, pinned: u32, decodes: impl Fn(&[u8]) -> bool) {
        let stored = get_u32(image, field).unwrap();
        assert_eq!(stored, pinned, "stored checksum word moved: {stored:#010x}");
        assert!(decodes(image));
        let mut flipped = image.to_vec();
        for bit in 0..image.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(!decodes(&flipped), "bit {bit} flip accepted");
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }

    let map = MapSector {
        seq: 42,
        piece: 7,
        flags: MapFlags::TXN_COMMIT,
        prev: Some((1234, 41)),
        bypass: Some((99, 17)),
        txn: Some(TxnInfo {
            id: 9,
            index: 2,
            total: 3,
        }),
        entries: vec![1, 2, UNMAPPED, 4],
    };
    check(&map.encode().unwrap(), 68, 0x21F6_80B0, |b| {
        MapSector::decode(b).is_some()
    });

    let ckpt = Checkpoint {
        seq: 99,
        pieces: vec![
            Some(PieceLoc {
                lba: 800,
                seq: 42,
                prev: Some((640, 41)),
            }),
            None,
            Some(PieceLoc {
                lba: 1600,
                seq: 77,
                prev: None,
            }),
        ],
    };
    check(&ckpt.encode(1), 12, 0xD1E2_DA3A, |b| {
        Checkpoint::decode(b).is_some()
    });

    let tail = TailRecord {
        root: Some((777, 42)),
        next_seq: 43,
    };
    check(&tail.encode(), 32, 0xB962_4912, |b| {
        TailRecord::decode(b).is_some()
    });
}
