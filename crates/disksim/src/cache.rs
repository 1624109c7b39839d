//! The drive's track read-ahead buffer.
//!
//! The Dartmouth model the paper ported keeps, while reading, "only the
//! sectors from the beginning of the current request through the current
//! read-ahead point and discards the data whose addresses are lower than
//! that of the current request" — sensible when physical addresses of
//! sequential data increase monotonically, but wrong for a VLD, where
//! logical-to-physical translation scrambles the order. The paper's fix is
//! to "aggressively prefetch the entire track as soon as the head reaches
//! the target track and not discard data until it is delivered".
//!
//! [`TrackCache`] models both behaviours:
//!
//! * [`CachePolicy::Conservative`] — after a media read of sectors
//!   `[s, s+c)` the buffer holds `[s, end-of-track)`; a later request below
//!   `s` on the same track misses.
//! * [`CachePolicy::AggressiveTrack`] — the whole track is buffered and
//!   retained until the head moves to a different track for a *write* (reads
//!   of other tracks replace the buffer, but a buffered track survives
//!   re-reads in any order).
//!
//! Writes invalidate any buffered copy of the written track (the simulated
//! drive does not write-cache; the paper's systems rely on writes reaching
//! the platter).

/// Read-ahead buffer management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachePolicy {
    /// The stock Dartmouth behaviour (good for monotonic physical reads).
    Conservative,
    /// The paper's VLD modification: buffer and retain the whole track.
    AggressiveTrack,
}

/// State of the single-track read-ahead buffer.
#[derive(Debug, Clone)]
pub(crate) struct TrackCache {
    policy: CachePolicy,
    /// The (cylinder, track) currently buffered, if any.
    loc: Option<(u32, u32)>,
    /// First buffered sector (inclusive).
    lo: u32,
    /// One past the last buffered sector.
    hi: u32,
    hits: u64,
    misses: u64,
}

impl TrackCache {
    /// Create an empty buffer with the given policy.
    pub(crate) fn new(policy: CachePolicy) -> Self {
        Self {
            policy,
            loc: None,
            lo: 0,
            hi: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The active policy.
    pub(crate) fn policy(&self) -> CachePolicy {
        self.policy
    }

    /// Change the policy, dropping any buffered data.
    pub(crate) fn set_policy(&mut self, policy: CachePolicy) {
        self.policy = policy;
        self.invalidate_all();
    }

    /// (hits, misses) counters for diagnostics.
    pub(crate) fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Would a read of `[sector, sector+count)` on (cyl, track) be served
    /// from the buffer? Records a hit/miss in the counters.
    pub(crate) fn lookup(&mut self, cyl: u32, track: u32, sector: u32, count: u32) -> bool {
        let hit = self.loc == Some((cyl, track)) && sector >= self.lo && sector + count <= self.hi;
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    /// Record that the media was read at `[sector, sector+count)` on
    /// (cyl, track) of a track holding `sectors_per_track` sectors, and
    /// update the buffer per the policy.
    pub(crate) fn on_media_read(
        &mut self,
        cyl: u32,
        track: u32,
        sector: u32,
        _count: u32,
        sectors_per_track: u32,
    ) {
        match self.policy {
            CachePolicy::Conservative => {
                // Buffer from the request start through the end of the track;
                // anything below the request start is discarded.
                self.loc = Some((cyl, track));
                self.lo = sector;
                self.hi = sectors_per_track;
            }
            CachePolicy::AggressiveTrack => {
                // Prefetch the whole track on arrival.
                self.loc = Some((cyl, track));
                self.lo = 0;
                self.hi = sectors_per_track;
            }
        }
    }

    /// A write landed on (cyl, track): drop any buffered copy of it.
    pub(crate) fn on_write(&mut self, cyl: u32, track: u32) {
        if self.loc == Some((cyl, track)) {
            self.invalidate_all();
        }
    }

    /// Drop everything.
    pub(crate) fn invalidate_all(&mut self) {
        self.loc = None;
        self.lo = 0;
        self.hi = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservative_discards_below_request() {
        let mut c = TrackCache::new(CachePolicy::Conservative);
        c.on_media_read(1, 2, 16, 8, 64);
        // Ahead of the request start: buffered through end of track.
        assert!(c.lookup(1, 2, 16, 8));
        assert!(c.lookup(1, 2, 40, 24));
        // Below the request start: discarded.
        assert!(!c.lookup(1, 2, 8, 8));
        // Different track: miss.
        assert!(!c.lookup(1, 3, 16, 8));
    }

    #[test]
    fn aggressive_buffers_whole_track() {
        let mut c = TrackCache::new(CachePolicy::AggressiveTrack);
        c.on_media_read(0, 0, 32, 8, 64);
        assert!(
            c.lookup(0, 0, 0, 8),
            "sectors below the request stay buffered"
        );
        assert!(c.lookup(0, 0, 56, 8));
        assert!(!c.lookup(0, 0, 60, 8), "range crossing track end misses");
    }

    #[test]
    fn write_invalidates_only_that_track() {
        let mut c = TrackCache::new(CachePolicy::AggressiveTrack);
        c.on_media_read(0, 0, 0, 8, 64);
        c.on_write(0, 1); // other track — no effect
        assert!(c.lookup(0, 0, 0, 8));
        c.on_write(0, 0);
        assert!(!c.lookup(0, 0, 0, 8));
    }

    #[test]
    fn counters_track_hits_and_misses() {
        let mut c = TrackCache::new(CachePolicy::AggressiveTrack);
        assert!(!c.lookup(0, 0, 0, 1));
        c.on_media_read(0, 0, 0, 1, 8);
        assert!(c.lookup(0, 0, 3, 1));
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn set_policy_invalidates() {
        let mut c = TrackCache::new(CachePolicy::AggressiveTrack);
        c.on_media_read(0, 0, 0, 8, 64);
        c.set_policy(CachePolicy::Conservative);
        assert!(!c.lookup(0, 0, 0, 8));
    }
}
