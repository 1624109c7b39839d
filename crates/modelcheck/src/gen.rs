//! Deterministic seeded workload generation.
//!
//! An episode is a [`TraceSpec`]: a weighted op sequence over a small fixed
//! name pool, plus at most one seeded power cut. Everything is derived from
//! a single `u64` seed through split `McRng` streams, so a failure report
//! that prints the seed is a complete reproducer.
//!
//! The generator keeps a mirror of which names exist so it can bias toward
//! valid operations, but it deliberately emits some invalid ones (create of
//! an existing name, delete of a missing one, rename onto a taken name) —
//! error-path parity with the model is part of the contract under test.

use std::fmt;

use crate::rng::McRng;

/// Number of distinct file names an episode may use. Small enough that the
/// post-crash state scan can enumerate the whole namespace, large enough
/// for interesting rename/delete interleavings.
pub(crate) const NAME_POOL: u8 = 16;

/// The `idx`-th pool name.
pub fn name(idx: u8) -> String {
    format!("mc{idx:02}")
}

/// Offsets stay below this, so files stay far from both the inode pointer
/// limit and the volume's capacity (no spurious `NoSpace`/`TooLarge`
/// divergences — capacity behaviour differs legitimately across stacks).
pub(crate) const MAX_OFFSET: u64 = 128 * 1024;
/// Write lengths stay below this.
pub(crate) const MAX_WRITE: u64 = 32 * 1024;

/// One step of an episode. `name` fields index the pool ([`name`]); write
/// payloads are reproduced from `(tag, offset, len)` via [`crate::rng::fill`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum McOp {
    /// Create the file (may legitimately fail with `Exists`).
    Create {
        /// Pool index of the target name.
        name: u8,
    },
    /// Open and write `len` deterministic bytes at `offset`.
    Write {
        /// Pool index of the target name.
        name: u8,
        /// Byte offset of the write.
        offset: u32,
        /// Length in bytes.
        len: u32,
        /// Payload tag (see [`crate::rng::fill`]).
        tag: u64,
        /// Write data through (`set_sync_writes`) rather than delayed.
        sync: bool,
    },
    /// Open and write `len` bytes at the current end of file.
    Append {
        /// Pool index of the target name.
        name: u8,
        /// Length in bytes.
        len: u32,
        /// Payload tag.
        tag: u64,
    },
    /// Open and read `len` bytes at `offset`, comparing against the model.
    Read {
        /// Pool index of the target name.
        name: u8,
        /// Byte offset of the read.
        offset: u32,
        /// Length in bytes.
        len: u32,
    },
    /// Delete the file (may legitimately fail with `NotFound`).
    Delete {
        /// Pool index of the target name.
        name: u8,
    },
    /// Rename `from` to `to` (either side may make this an error case).
    Rename {
        /// Pool index of the source name.
        from: u8,
        /// Pool index of the destination name.
        to: u8,
    },
    /// Flush everything; advances the durability floor on success.
    Sync,
    /// Grant idle time — lets the LFS cleaner and VLD compactor run.
    Idle {
        /// Nanoseconds of idle wall-clock granted.
        ns: u64,
    },
    /// Power the stack down without ceremony and remount through recovery.
    CrashRemount,
}

/// A seeded power cut, in device-write ops counted from the end of format
/// (the executor offsets it past the deterministic format write count).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cut {
    /// The 1-based post-format device write op the cut fires on.
    pub(crate) at_op: u64,
    /// Sectors of that write that reach the media (0 = clean cut before
    /// it, 8 = the whole 4 KiB block lands, then the power dies).
    pub survivors: u32,
}

/// A complete episode specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpec {
    /// The op sequence.
    pub ops: Vec<McOp>,
    /// At most one seeded power cut.
    pub cut: Option<Cut>,
}

impl fmt::Display for TraceSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.cut {
            Some(c) => writeln!(
                f,
                "  cut: torn power cut at post-format write {} ({}/8 sectors land)",
                c.at_op, c.survivors
            )?,
            None => writeln!(f, "  cut: none")?,
        }
        for (i, op) in self.ops.iter().enumerate() {
            writeln!(f, "  {i:3}: {op:?}")?;
        }
        Ok(())
    }
}

/// Generate the episode for `seed`: `len` weighted ops and (half the time)
/// one power cut. Pure function of its arguments.
pub fn generate(seed: u64, len: usize) -> TraceSpec {
    let mut root = McRng::new(seed);
    let mut r = root.split(1);
    let mut cut_rng = root.split(2);

    let mut present = [false; NAME_POOL as usize];
    let mut ops = Vec::with_capacity(len);
    for _ in 0..len {
        let roll = r.below(100);
        let op = if roll < 14 {
            let n = pick(&mut r, &present, false);
            present[n as usize] = true;
            McOp::Create { name: n }
        } else if roll < 36 {
            McOp::Write {
                name: pick(&mut r, &present, true),
                offset: gen_offset(&mut r),
                len: gen_len(&mut r),
                tag: r.next_u64(),
                sync: false,
            }
        } else if roll < 46 {
            McOp::Append {
                name: pick(&mut r, &present, true),
                len: gen_len(&mut r),
                tag: r.next_u64(),
            }
        } else if roll < 66 {
            McOp::Read {
                name: pick(&mut r, &present, true),
                offset: gen_offset(&mut r),
                len: gen_len(&mut r),
            }
        } else if roll < 74 {
            let n = pick(&mut r, &present, true);
            present[n as usize] = false;
            McOp::Delete { name: n }
        } else if roll < 80 {
            let from = pick(&mut r, &present, true);
            let to = pick(&mut r, &present, false);
            if present[from as usize] && !present[to as usize] && from != to {
                present[from as usize] = false;
                present[to as usize] = true;
            }
            McOp::Rename { from, to }
        } else if roll < 89 {
            McOp::Sync
        } else if roll < 94 {
            McOp::Idle {
                ns: (1 + r.below(50)) * 10_000_000,
            }
        } else {
            McOp::CrashRemount
        };
        ops.push(op);
    }

    let cut = if cut_rng.chance(50) {
        Some(Cut {
            at_op: 1 + cut_rng.below(400),
            survivors: cut_rng.below(9) as u32,
        })
    } else {
        None
    };
    TraceSpec { ops, cut }
}

/// The fixed op scripts whose every cut point [`crate::sweep_cut_points`]
/// visits. Each `Sync` is a durability frontier (mkfs's own sync is the
/// first); payload tags are per file, so a file's bytes are a function of
/// their offset whichever write put them there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Script {
    /// Three files made durable across one sync, then volatile churn (a
    /// delayed-write file, a synchronous overwrite, a create-write-delete
    /// cycle) across a second, then trailing writes no sync covers.
    SmallMixed,
    /// `rounds` rounds over eight names: create, write (synchronous in even
    /// rounds), a second overlapping write in odd ones, a sync every third,
    /// and delete + recreate once the names wrap.
    Churn(usize),
}

impl Script {
    /// The script as ops.
    pub fn ops(self) -> Vec<McOp> {
        let write = |name: u8, offset: u32, len: u32, sync: bool| McOp::Write {
            name,
            offset,
            len,
            tag: name.into(),
            sync,
        };
        let create = |name| McOp::Create { name };
        match self {
            Script::SmallMixed => {
                let [alpha, beta, gamma, delta, temp, late] = [0, 1, 2, 3, 4, 5];
                vec![
                    create(alpha),
                    write(alpha, 0, 8192, true),
                    create(beta),
                    write(beta, 0, 4096, false),
                    write(beta, 4096, 4096, false),
                    create(gamma),
                    write(gamma, 0, 2048, true),
                    McOp::Sync, // alpha, beta, gamma durable
                    create(delta),
                    write(delta, 0, 12288, false),
                    write(gamma, 2048, 4096, true),
                    create(temp),
                    write(temp, 0, 4096, false),
                    McOp::Delete { name: temp },
                    McOp::Sync, // delta, new gamma durable; temp durably gone
                    create(late),
                    write(late, 0, 4096, false),
                ]
            }
            Script::Churn(rounds) => {
                let mut ops = Vec::new();
                for r in 0..rounds {
                    let n = (r % 8) as u8;
                    if r >= 8 {
                        ops.push(McOp::Delete { name: n });
                    }
                    ops.push(create(n));
                    ops.push(write(n, 0, 4096 * (1 + r as u32 % 3), r % 2 == 0));
                    if r % 2 == 1 {
                        ops.push(write(n, 2048, 4096, false));
                    }
                    if r % 3 == 2 {
                        ops.push(McOp::Sync);
                    }
                }
                ops.push(McOp::Sync);
                ops
            }
        }
    }
}

/// Pick a name, biased (85 %) toward ones whose mirror presence matches
/// `want_present`; the rest of the time any name, so invalid ops occur.
fn pick(r: &mut McRng, present: &[bool; NAME_POOL as usize], want_present: bool) -> u8 {
    if !r.chance(15) {
        let candidates: Vec<u8> = (0..NAME_POOL)
            .filter(|&i| present[i as usize] == want_present)
            .collect();
        if !candidates.is_empty() {
            return candidates[r.below(candidates.len() as u64) as usize];
        }
    }
    r.below(NAME_POOL as u64) as u8
}

fn gen_offset(r: &mut McRng) -> u32 {
    let raw = r.below(MAX_OFFSET) as u32;
    if r.chance(60) {
        raw & !4095 // block-aligned most of the time
    } else {
        raw
    }
}

fn gen_len(r: &mut McRng) -> u32 {
    (1 + r.below(MAX_WRITE)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_a_pure_function_of_the_seed() {
        let a = generate(0xFEED, 64);
        let b = generate(0xFEED, 64);
        assert_eq!(a, b);
        assert_ne!(a, generate(0xFEEE, 64));
        assert_eq!(a.ops.len(), 64);
    }

    #[test]
    fn episodes_cover_the_op_space() {
        // Across a few seeds every op kind should appear.
        let mut seen = [false; 9];
        for seed in 0..20u64 {
            for op in generate(seed, 64).ops {
                let k = match op {
                    McOp::Create { .. } => 0,
                    McOp::Write { .. } => 1,
                    McOp::Append { .. } => 2,
                    McOp::Read { .. } => 3,
                    McOp::Delete { .. } => 4,
                    McOp::Rename { .. } => 5,
                    McOp::Sync => 6,
                    McOp::Idle { .. } => 7,
                    McOp::CrashRemount => 8,
                };
                seen[k] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "op kinds seen: {seen:?}");
    }

    #[test]
    fn bounds_hold() {
        for seed in 0..50u64 {
            for op in generate(seed, 64).ops {
                match op {
                    McOp::Write { offset, len, .. } | McOp::Read { offset, len, .. } => {
                        assert!((offset as u64) < MAX_OFFSET);
                        assert!(1 <= len && len as u64 <= MAX_WRITE);
                    }
                    McOp::Append { len, .. } => assert!(len as u64 <= MAX_WRITE),
                    _ => {}
                }
            }
        }
    }
}
