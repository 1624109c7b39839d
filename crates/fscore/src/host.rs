//! The host CPU cost model — the "other" bar of the paper's Figure 9.
//!
//! The paper times real syscalls on a 50 MHz SPARCstation-10 and a 167 MHz
//! UltraSPARC-170; the host contribution shows up as the "other" component
//! of per-write latency, and shrinking it (by upgrading the host) is what
//! widens the VLD's advantage from 5.1× to 9.9× in Table 2. Here the host
//! is modelled as a fixed CPU cost per file-system call plus a per-block
//! processing cost, scaled by clock ratio between the two machines.
//!
//! The absolute values are calibrated so the simulated Figure 9 breakdown
//! resembles the paper's: roughly half a millisecond of host time per 4 KB
//! synchronous write on the SPARCstation-10.

use disksim::SimClock;

/// A host machine's CPU cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HostModel {
    /// Machine name for reports.
    pub name: &'static str,
    /// CPU nanoseconds per file-system call (syscall entry, name lookup,
    /// buffer management, driver dispatch).
    pub per_call_ns: u64,
    /// CPU nanoseconds per 4 KB block moved (copying, checksums).
    pub per_block_ns: u64,
}

impl HostModel {
    /// The 50 MHz SPARCstation-10 of the paper.
    pub fn sparcstation_10() -> Self {
        Self {
            name: "SPARCstation-10",
            per_call_ns: 150_000,
            per_block_ns: 150_000,
        }
    }

    /// The 167 MHz UltraSPARC-170 — same costs scaled by the 50/167 clock
    /// ratio (the paper notes it "can easily cut the latency in half" and
    /// more).
    pub fn ultrasparc_170() -> Self {
        let s = Self::sparcstation_10();
        let scale = |ns: u64| ns * 50 / 167;
        Self {
            name: "UltraSPARC-170",
            per_call_ns: scale(s.per_call_ns),
            per_block_ns: scale(s.per_block_ns),
        }
    }

    /// An idealised infinitely fast host (for isolating device behaviour).
    pub const fn instant() -> Self {
        Self {
            name: "instant",
            per_call_ns: 0,
            per_block_ns: 0,
        }
    }

    /// Total host cost of one call moving `blocks` blocks.
    #[inline]
    pub fn call_cost_ns(&self, blocks: u64) -> u64 {
        self.per_call_ns + blocks * self.per_block_ns
    }

    /// Charge one call against the simulation clock and return the cost.
    #[inline]
    pub fn charge(&self, clock: &SimClock, blocks: u64) -> u64 {
        let c = self.call_cost_ns(blocks);
        clock.advance(c);
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ultra_is_faster_by_clock_ratio() {
        let s = HostModel::sparcstation_10();
        let u = HostModel::ultrasparc_170();
        assert!(u.per_call_ns * 3 <= s.per_call_ns);
        assert!(u.per_call_ns * 4 > s.per_call_ns);
    }

    #[test]
    fn charge_advances_clock() {
        let c = SimClock::new();
        let h = HostModel::sparcstation_10();
        let cost = h.charge(&c, 1);
        assert_eq!(c.now(), cost);
        assert_eq!(cost, h.per_call_ns + h.per_block_ns);
    }

    #[test]
    fn instant_host_is_free() {
        let c = SimClock::new();
        HostModel::instant().charge(&c, 10);
        assert_eq!(c.now(), 0);
    }
}
