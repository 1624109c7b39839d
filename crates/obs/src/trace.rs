//! The event tracer: a bounded ring of per-operation records.
//!
//! One [`TraceEvent`] is emitted per completed disk operation, carrying the
//! virtual-clock completion time, the physical location touched, and the
//! full service-time decomposition (overhead / seek / head switch /
//! rotation / transfer — the paper's Figure 9 categories). Because the
//! simulation is deterministic, two identical runs produce byte-identical
//! JSONL dumps; the determinism tests rely on this.
//!
//! The ring is bounded: when full, the *oldest* event is dropped and a
//! counter records the loss, so a trace can never grow without bound and a
//! truncated trace is detectable rather than silent.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::rc::Rc;

/// What kind of operation an event describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A media/buffer read command.
    Read,
    /// A media write command.
    Write,
    /// A bare head movement (no transfer).
    Seek,
    /// An injected fault (from the fault-injection layer).
    Fault,
}

impl OpKind {
    /// Stable lowercase name used in the JSONL dump.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            OpKind::Read => "read",
            OpKind::Write => "write",
            OpKind::Seek => "seek",
            OpKind::Fault => "fault",
        }
    }
}

/// One completed operation.
///
/// All times are nanoseconds of simulated time. The five component fields
/// sum (with `overhead_ns`) to exactly the time the operation consumed, so
/// summing them across a complete trace reproduces the disk's cumulative
/// busy time — the invariant the breakdown tests assert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual-clock time at which the operation completed.
    pub at_ns: u64,
    /// Operation kind.
    pub kind: OpKind,
    /// Index into the tracer's label table ([`Tracer::set_scope`]).
    pub scope: u16,
    /// Id of the causal span the operation was attributed to (0 when no
    /// span was open — see [`crate::span::Spans`]).
    pub span: u32,
    /// First logical sector addressed (0 for bare seeks).
    pub lba: u64,
    /// Sectors transferred (0 for bare seeks).
    pub sectors: u32,
    /// Cylinder of the first run serviced.
    pub cyl: u32,
    /// Track of the first run serviced.
    pub track: u32,
    /// Starting sector (within the track) of the first run.
    pub sector: u32,
    /// Cylinder distance the arm travelled from its previous position.
    pub seek_cyls: u32,
    /// Command/controller overhead component.
    pub overhead_ns: u64,
    /// Arm-movement component.
    pub seek_ns: u64,
    /// Head-select/settle component.
    pub head_switch_ns: u64,
    /// Rotational-delay component.
    pub rotation_ns: u64,
    /// Media/buffer transfer component.
    pub transfer_ns: u64,
}

impl TraceEvent {
    /// Total simulated time the operation consumed.
    pub fn total_ns(&self) -> u64 {
        self.overhead_ns + self.seek_ns + self.head_switch_ns + self.rotation_ns + self.transfer_ns
    }

    /// One JSONL line (no trailing newline). Keys are fixed and ASCII, so
    /// no escaping machinery is needed; `scope` is resolved to its label.
    fn to_json_line(self, labels: &[String]) -> String {
        let scope = labels
            .get(self.scope as usize)
            .map(String::as_str)
            .unwrap_or("");
        let mut s = String::with_capacity(192);
        let _ = write!(
            s,
            "{{\"at\":{},\"kind\":\"{}\",\"scope\":\"{}\",\"span\":{},\"lba\":{},\"sectors\":{},\
             \"cyl\":{},\"track\":{},\"sector\":{},\"seek_cyls\":{},\
             \"overhead_ns\":{},\"seek_ns\":{},\"head_switch_ns\":{},\
             \"rotation_ns\":{},\"transfer_ns\":{}}}",
            self.at_ns,
            self.kind.as_str(),
            scope,
            self.span,
            self.lba,
            self.sectors,
            self.cyl,
            self.track,
            self.sector,
            self.seek_cyls,
            self.overhead_ns,
            self.seek_ns,
            self.head_switch_ns,
            self.rotation_ns,
            self.transfer_ns,
        );
        s
    }
}

#[derive(Debug)]
struct Ring {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
    /// Scope label table; `TraceEvent::scope` indexes into it.
    labels: Vec<String>,
    /// Scope stamped onto events recorded from now on.
    current: u16,
}

/// A cheap cloneable handle to a bounded trace ring.
///
/// Producers (the simulated disk, the fault layer) hold an
/// `Option<Tracer>`; consumers (the bench harness, `vlstat`) keep a clone
/// and drain or dump it after the workload. Handles share one ring, so a
/// scope set by the harness applies to events recorded by the disk.
#[derive(Debug, Clone)]
pub struct Tracer {
    inner: Rc<RefCell<Ring>>,
}

impl Tracer {
    /// A tracer whose ring holds at most `capacity` events (oldest dropped
    /// first). Capacity 0 is clamped to 1.
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            inner: Rc::new(RefCell::new(Ring {
                events: VecDeque::with_capacity(capacity.min(1 << 16)),
                capacity,
                dropped: 0,
                labels: vec![String::new()],
                current: 0,
            })),
        }
    }

    /// Set the scope label stamped onto subsequently recorded events.
    /// Labels are interned: setting the same name twice reuses its index.
    pub fn set_scope(&self, name: &str) {
        let mut r = self.inner.borrow_mut();
        let idx = match r.labels.iter().position(|l| l == name) {
            Some(i) => i,
            None => {
                r.labels.push(name.to_string());
                r.labels.len() - 1
            }
        };
        r.current = idx.min(u16::MAX as usize) as u16;
    }

    /// Record one event, stamping it with the current scope. Drops the
    /// oldest event (and counts the drop) when the ring is full.
    pub fn record(&self, mut ev: TraceEvent) {
        let mut r = self.inner.borrow_mut();
        ev.scope = r.current;
        if r.events.len() >= r.capacity {
            r.events.pop_front();
            r.dropped += 1;
        }
        r.events.push_back(ev);
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.inner.borrow().events.len()
    }

    /// Is the ring empty?
    pub fn is_empty(&self) -> bool {
        self.inner.borrow().events.is_empty()
    }

    /// Events dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.borrow().dropped
    }

    /// Snapshot of the held events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner.borrow().events.iter().copied().collect()
    }

    /// Resolve a scope index back to its label ("" if unknown).
    pub fn label(&self, scope: u16) -> String {
        self.inner
            .borrow()
            .labels
            .get(scope as usize)
            .cloned()
            .unwrap_or_default()
    }

    /// Serialise the whole ring as JSONL (one event per line, oldest
    /// first, trailing newline after each line).
    pub fn dump_jsonl(&self) -> String {
        let r = self.inner.borrow();
        let mut out = String::with_capacity(r.events.len() * 192);
        for ev in &r.events {
            out.push_str(&ev.to_json_line(&r.labels));
            out.push('\n');
        }
        out
    }

    /// Sum of each component across all held events, in the order
    /// (overhead, seek, head switch, rotation, transfer). Summing a
    /// complete trace reproduces the disk's cumulative busy breakdown.
    pub fn component_sums(&self) -> (u64, u64, u64, u64, u64) {
        let r = self.inner.borrow();
        let mut t = (0u64, 0u64, 0u64, 0u64, 0u64);
        for ev in &r.events {
            t.0 += ev.overhead_ns;
            t.1 += ev.seek_ns;
            t.2 += ev.head_switch_ns;
            t.3 += ev.rotation_ns;
            t.4 += ev.transfer_ns;
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: u64) -> TraceEvent {
        TraceEvent {
            at_ns: at,
            kind: OpKind::Write,
            scope: 0,
            span: 0,
            lba: 8,
            sectors: 8,
            cyl: 1,
            track: 2,
            sector: 3,
            seek_cyls: 1,
            overhead_ns: 10,
            seek_ns: 20,
            head_switch_ns: 0,
            rotation_ns: 30,
            transfer_ns: 40,
        }
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let t = Tracer::with_capacity(2);
        t.record(ev(1));
        t.record(ev(2));
        t.record(ev(3));
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 1);
        assert_eq!(t.events()[0].at_ns, 2);
    }

    #[test]
    fn scopes_intern_and_stamp() {
        let t = Tracer::with_capacity(8);
        t.record(ev(1));
        t.set_scope("phase-a");
        t.record(ev(2));
        t.set_scope("phase-b");
        t.record(ev(3));
        t.set_scope("phase-a");
        t.record(ev(4));
        let evs = t.events();
        assert_eq!(evs[0].scope, 0);
        assert_eq!(evs[1].scope, 1);
        assert_eq!(evs[2].scope, 2);
        assert_eq!(evs[3].scope, 1, "re-set scope reuses its index");
        assert_eq!(t.label(1), "phase-a");
    }

    #[test]
    fn jsonl_lines_are_wellformed_and_deterministic() {
        let make = || {
            let t = Tracer::with_capacity(4);
            t.set_scope("s");
            t.record(ev(5));
            t.dump_jsonl()
        };
        let a = make();
        let b = make();
        assert_eq!(a, b, "identical traces must serialise identically");
        assert!(a.starts_with("{\"at\":5,\"kind\":\"write\",\"scope\":\"s\""));
        assert!(a.ends_with("}\n"));
        assert_eq!(a.matches('{').count(), a.matches('}').count());
    }

    #[test]
    fn component_sums_add_up() {
        let t = Tracer::with_capacity(8);
        t.record(ev(1));
        t.record(ev(2));
        let (o, s, h, r, x) = t.component_sums();
        assert_eq!((o, s, h, r, x), (20, 40, 0, 60, 80));
        assert_eq!(t.events()[0].total_ns(), 100);
    }
}
