//! The shared virtual clock.
//!
//! Every timed component of the simulation (disk, file system, benchmark
//! harness) holds a handle to one [`SimClock`]. Time only moves when a
//! component explicitly advances it, which makes runs fully deterministic
//! and lets the harness measure "elapsed" time without ever sleeping —
//! the same trick the paper's kernel ramdisk played in its fast mode.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide count of clock advances.
///
/// Every timed simulation event — a disk access, an idle wait, a host
/// compute delay — moves some [`SimClock`] forward exactly once, and only
/// [`SimClock::advance`] and [`SimClock::advance_to`] write this counter,
/// so it counts the events this process actually simulated: a system
/// restored from a snapshot adds nothing for the work that built it. The
/// benchmark harness reads it to report simulated-events-per-second
/// throughput alongside wall-clock time.
static EVENTS: AtomicU64 = AtomicU64::new(0);

/// Total clock advances across all clocks ever created in this process.
pub fn events() -> u64 {
    EVENTS.load(Ordering::Relaxed)
}

/// A shared, monotonically increasing virtual clock in nanoseconds.
///
/// Cloning a `SimClock` yields another handle to the *same* clock; this is
/// how the disk, the virtual log, the file system and the benchmark driver
/// all observe a single notion of simulated time.
///
/// ```
/// use disksim::SimClock;
/// let clock = SimClock::new();
/// let disk_view = clock.clone();
/// clock.advance(1_000);
/// assert_eq!(disk_view.now(), 1_000);
/// ```
#[derive(Clone, Debug, Default)]
pub struct SimClock {
    now_ns: Rc<Cell<u64>>,
    /// Advances made through *this* clock (all handles share the cell),
    /// counting those of the system a snapshot restored it from. Unlike
    /// the global [`events`] counter this is race-free per system.
    local_events: Rc<Cell<u64>>,
}

impl SimClock {
    /// Create a new clock starting at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Recreate a clock captured by a snapshot: time and per-clock event
    /// count are restored as-is, and the restoration itself does **not**
    /// count as a simulation event.
    pub(crate) fn restore(now_ns: u64, local_events: u64) -> Self {
        Self {
            now_ns: Rc::new(Cell::new(now_ns)),
            local_events: Rc::new(Cell::new(local_events)),
        }
    }

    /// Current simulated time in nanoseconds since the start of the run.
    #[inline]
    pub fn now(&self) -> u64 {
        self.now_ns.get()
    }

    /// Advances made through this clock (and its clones) so far.
    #[inline]
    pub fn local_events(&self) -> u64 {
        self.local_events.get()
    }

    /// Advance the clock by `delta_ns` nanoseconds and return the new time.
    #[inline]
    pub fn advance(&self, delta_ns: u64) -> u64 {
        EVENTS.fetch_add(1, Ordering::Relaxed);
        self.local_events.set(self.local_events.get() + 1);
        let t = self.now_ns.get() + delta_ns;
        self.now_ns.set(t);
        t
    }

    /// Move the clock forward to an absolute time.
    ///
    /// A no-op if `target_ns` is in the past; the clock never runs backwards.
    #[inline]
    pub fn advance_to(&self, target_ns: u64) {
        if target_ns > self.now_ns.get() {
            EVENTS.fetch_add(1, Ordering::Relaxed);
            self.local_events.set(self.local_events.get() + 1);
            self.now_ns.set(target_ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        assert_eq!(SimClock::new().now(), 0);
    }

    #[test]
    fn advance_accumulates() {
        let c = SimClock::new();
        c.advance(10);
        c.advance(32);
        assert_eq!(c.now(), 42);
    }

    #[test]
    fn clones_share_time() {
        let a = SimClock::new();
        let b = a.clone();
        a.advance(100);
        assert_eq!(b.now(), 100);
        b.advance(1);
        assert_eq!(a.now(), 101);
    }

    #[test]
    fn advance_to_never_goes_backwards() {
        let c = SimClock::new();
        c.advance(500);
        c.advance_to(300);
        assert_eq!(c.now(), 500);
        c.advance_to(700);
        assert_eq!(c.now(), 700);
    }
}
