//! Per-request service-time accounting.
//!
//! The paper's Figure 9 decomposes small-write latency into four parts:
//! SCSI command overhead, the time to *locate* the target sectors (seek +
//! head switch + rotation), the media *transfer* time, and "other" (host
//! processing). [`ServiceTime`] carries the device-side components for a
//! single request; the host components are added by the file-system layer.

use std::iter::Sum;
use std::ops::{Add, AddAssign};

/// Breakdown of the simulated time one disk request consumed.
///
/// All fields are in nanoseconds. `total()` is what the caller's clock was
/// advanced by.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceTime {
    /// Controller/SCSI command processing (the paper's *o*).
    pub overhead_ns: u64,
    /// Arm movement between cylinders.
    pub seek_ns: u64,
    /// Head-select/settle when switching tracks inside a cylinder.
    pub head_switch_ns: u64,
    /// Rotational delay waiting for the target sector.
    pub rotation_ns: u64,
    /// Media transfer (or buffer transfer on a cache hit).
    pub transfer_ns: u64,
}

impl ServiceTime {
    /// A zero-cost service time (e.g. a fully cache-absorbed request).
    pub const ZERO: ServiceTime = ServiceTime {
        overhead_ns: 0,
        seek_ns: 0,
        head_switch_ns: 0,
        rotation_ns: 0,
        transfer_ns: 0,
    };

    /// The paper's "locate sectors" component: seek + head switch + rotation.
    #[inline]
    pub fn locate_ns(&self) -> u64 {
        self.seek_ns + self.head_switch_ns + self.rotation_ns
    }

    /// Total simulated time consumed by the request.
    #[inline]
    pub fn total_ns(&self) -> u64 {
        self.overhead_ns + self.locate_ns() + self.transfer_ns
    }

    /// Total in milliseconds, for reporting.
    #[inline]
    pub fn total_ms(&self) -> f64 {
        crate::ns_to_ms(self.total_ns())
    }
}

impl Add for ServiceTime {
    type Output = ServiceTime;
    fn add(self, rhs: ServiceTime) -> ServiceTime {
        ServiceTime {
            overhead_ns: self.overhead_ns + rhs.overhead_ns,
            seek_ns: self.seek_ns + rhs.seek_ns,
            head_switch_ns: self.head_switch_ns + rhs.head_switch_ns,
            rotation_ns: self.rotation_ns + rhs.rotation_ns,
            transfer_ns: self.transfer_ns + rhs.transfer_ns,
        }
    }
}

impl AddAssign for ServiceTime {
    fn add_assign(&mut self, rhs: ServiceTime) {
        *self = *self + rhs;
    }
}

impl Sum for ServiceTime {
    fn sum<I: Iterator<Item = ServiceTime>>(iter: I) -> ServiceTime {
        iter.fold(ServiceTime::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ServiceTime {
        ServiceTime {
            overhead_ns: 1,
            seek_ns: 2,
            head_switch_ns: 3,
            rotation_ns: 4,
            transfer_ns: 5,
        }
    }

    #[test]
    fn totals_add_up() {
        let t = sample();
        assert_eq!(t.locate_ns(), 9);
        assert_eq!(t.total_ns(), 15);
    }

    #[test]
    fn addition_is_componentwise() {
        let t = sample() + sample();
        assert_eq!(t.overhead_ns, 2);
        assert_eq!(t.transfer_ns, 10);
        assert_eq!(t.total_ns(), 30);
    }

    #[test]
    fn sum_over_iterator() {
        let s: ServiceTime = (0..4).map(|_| sample()).sum();
        assert_eq!(s.total_ns(), 60);
    }
}
