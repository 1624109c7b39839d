//! Causal spans: attributing disk time to the operation that caused it.
//!
//! A [`SpanRecord`] is one node of a causal forest: it carries a stable id,
//! its parent's id (0 for roots), a [`SpanKind`], a static label, and
//! virtual-clock open/close stamps. Layers open a span on entry to an
//! interesting region (an FS op, a cache write-back, a compaction pass, a
//! recovery scan) and close it on exit; while a span is open, every disk
//! command the simulator services is attributed to the *innermost* open
//! span — its busy nanoseconds accrue to that span's `disk_ns` and the
//! matching [`TraceEvent`](crate::TraceEvent) is stamped with the span id.
//!
//! The handle follows the same enabled/disabled discipline as
//! [`Metrics`](crate::Metrics): a disabled [`Spans`] (the default) turns
//! every call into a no-op after one branch, so instrumented paths cost
//! nothing in ordinary runs and the simulation's event count is unchanged.
//!
//! Ids are assigned sequentially in open order and stamps come from the
//! virtual clock, so a span table of a deterministic run is itself
//! deterministic — byte-identical dumps across runs and thread widths.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

/// What caused the disk activity a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    /// A file-system operation entry point (create, write, read, ...).
    FsOp,
    /// Cache write-back: eviction or an explicit flush/sync sweep.
    CacheFlush,
    /// Log machinery appending state (map commit, checkpoint, segment
    /// flush).
    LogAppend,
    /// Background cleaning/compaction work.
    Compaction,
    /// Mount-time recovery (checkpoint load, scan, audit).
    Recovery,
    /// A single disk command (the leaves of the forest; implicit — the
    /// simulator stamps events rather than opening a span per command).
    DiskCmd,
}

/// Every kind, in stable rollup order.
pub const ALL_KINDS: [SpanKind; 6] = [
    SpanKind::FsOp,
    SpanKind::CacheFlush,
    SpanKind::LogAppend,
    SpanKind::Compaction,
    SpanKind::Recovery,
    SpanKind::DiskCmd,
];

impl SpanKind {
    /// Stable lowercase name used in dumps and metric keys.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            SpanKind::FsOp => "fs_op",
            SpanKind::CacheFlush => "cache_flush",
            SpanKind::LogAppend => "log_append",
            SpanKind::Compaction => "compaction",
            SpanKind::Recovery => "recovery",
            SpanKind::DiskCmd => "disk_cmd",
        }
    }

    /// Metric counter accumulating disk busy time attributed to this kind.
    pub fn disk_ns_counter(self) -> &'static str {
        match self {
            SpanKind::FsOp => "span.fs_op.disk_ns",
            SpanKind::CacheFlush => "span.cache_flush.disk_ns",
            SpanKind::LogAppend => "span.log_append.disk_ns",
            SpanKind::Compaction => "span.compaction.disk_ns",
            SpanKind::Recovery => "span.recovery.disk_ns",
            SpanKind::DiskCmd => "span.disk_cmd.disk_ns",
        }
    }

    /// Metric counter for the number of disk commands attributed to this
    /// kind.
    pub fn disk_cmds_counter(self) -> &'static str {
        match self {
            SpanKind::FsOp => "span.fs_op.disk_cmds",
            SpanKind::CacheFlush => "span.cache_flush.disk_cmds",
            SpanKind::LogAppend => "span.log_append.disk_cmds",
            SpanKind::Compaction => "span.compaction.disk_cmds",
            SpanKind::Recovery => "span.recovery.disk_cmds",
            SpanKind::DiskCmd => "span.disk_cmd.disk_cmds",
        }
    }

    /// Is disk time of this kind *background* work — service the paper's
    /// cleaning-tax argument counts against eager writing rather than as
    /// foreground latency? Compaction is the cleaning tax proper; recovery
    /// is likewise off the foreground path.
    pub fn is_background(self) -> bool {
        matches!(self, SpanKind::Compaction | SpanKind::Recovery)
    }
}

/// Metric counter for disk busy time serviced while *no* span was open.
///
/// Keeping the remainder explicit makes the per-kind counters a partition:
/// their sum plus this counter equals the disk's cumulative busy time
/// exactly — the invariant the attribution tests assert.
pub const UNATTRIBUTED_DISK_NS: &str = "span.unattributed.disk_ns";
/// Metric counter for disk commands serviced while no span was open.
pub const UNATTRIBUTED_DISK_CMDS: &str = "span.unattributed.disk_cmds";
/// Gauge: cleaning tax in parts-per-million — background attributed disk
/// ns (compaction + recovery) scaled by 1e6 over foreground disk ns
/// (everything else, including unattributed).
pub const CLEANING_TAX_PPM: &str = "span.cleaning_tax_ppm";

/// One node of the causal forest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Stable id (1-based; 0 is reserved for "no span").
    pub id: u32,
    /// Parent span id (0 for roots).
    pub parent: u32,
    /// What caused the activity under this span.
    pub kind: SpanKind,
    /// Static label naming the code site ("ufs.write", "vld.compact", ...).
    pub label: &'static str,
    /// Virtual-clock time the span was opened.
    pub open_ns: u64,
    /// Virtual-clock time the span was closed (meaningless until
    /// `closed`).
    pub close_ns: u64,
    /// Disk busy nanoseconds attributed directly to this span (innermost
    /// attribution; children's time is *not* included).
    pub disk_ns: u64,
    /// Disk commands attributed directly to this span.
    pub disk_cmds: u64,
    /// Has the span been closed? A crash (power cut) can leave spans open.
    pub closed: bool,
}

impl SpanRecord {
    /// Wall time the span covered (0 while still open).
    pub fn wall_ns(&self) -> u64 {
        if self.closed {
            self.close_ns.saturating_sub(self.open_ns)
        } else {
            0
        }
    }

    /// One JSONL line (no trailing newline). The `"parent"` key marks span
    /// records apart from trace-event lines in a mixed dump.
    fn json_line(&self) -> String {
        let mut s = String::with_capacity(160);
        let _ = write!(
            s,
            "{{\"span\":{},\"parent\":{},\"kind\":\"{}\",\"label\":\"{}\",\
             \"open_ns\":{},\"close_ns\":",
            self.id,
            self.parent,
            self.kind.as_str(),
            self.label,
            self.open_ns,
        );
        if self.closed {
            let _ = write!(s, "{}", self.close_ns);
        } else {
            s.push_str("null");
        }
        let _ = write!(
            s,
            ",\"disk_ns\":{},\"disk_cmds\":{}}}",
            self.disk_ns, self.disk_cmds
        );
        s
    }
}

#[derive(Debug)]
struct Table {
    records: Vec<SpanRecord>,
    /// Open spans, outermost first; the top is the attribution target.
    stack: Vec<u32>,
    /// Maximum records retained; further opens are counted, not stored.
    limit: usize,
    /// Spans not recorded because the table was full.
    dropped: u64,
    /// Disk busy time serviced while no span was open.
    unattributed_ns: u64,
}

/// A cheap cloneable handle to a causal-span table, or a no-op.
///
/// `Spans::default()` is disabled: every call returns after one branch.
/// [`Spans::enabled`] creates a live shared table; clones of an enabled
/// handle all feed the same table, so a span opened by the file system is
/// the attribution target for commands recorded by the disk below it.
#[derive(Debug, Clone, Default)]
pub struct Spans {
    inner: Option<Rc<RefCell<Table>>>,
}

/// Default bound on retained span records.
const DEFAULT_LIMIT: usize = 1 << 20;

impl Spans {
    /// A disabled handle: every call is a no-op.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A live handle with the default record limit.
    pub fn enabled() -> Self {
        Self::enabled_with_limit(DEFAULT_LIMIT)
    }

    /// A live handle retaining at most `limit` span records (clamped to at
    /// least 1). Opens past the limit still nest correctly for attribution
    /// purposes of *outer* spans but are not recorded; a counter reports
    /// the loss.
    pub fn enabled_with_limit(limit: usize) -> Self {
        Self {
            inner: Some(Rc::new(RefCell::new(Table {
                records: Vec::new(),
                stack: Vec::new(),
                limit: limit.max(1),
                dropped: 0,
                unattributed_ns: 0,
            }))),
        }
    }

    /// Does this handle record anything?
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Open a span under the currently innermost open span. Returns the
    /// new span's id, or 0 when disabled (or dropped at the limit) — 0 is
    /// always safe to pass to [`Spans::close`].
    pub fn open(&self, kind: SpanKind, label: &'static str, now_ns: u64) -> u32 {
        let Some(r) = &self.inner else { return 0 };
        let mut t = r.borrow_mut();
        if t.records.len() >= t.limit {
            t.dropped += 1;
            return 0;
        }
        let id = (t.records.len() + 1) as u32;
        let parent = t.stack.last().copied().unwrap_or(0);
        t.records.push(SpanRecord {
            id,
            parent,
            kind,
            label,
            open_ns: now_ns,
            close_ns: 0,
            disk_ns: 0,
            disk_cmds: 0,
            closed: false,
        });
        t.stack.push(id);
        id
    }

    /// Close a span by id. Tolerant: id 0, unknown ids and already-closed
    /// spans are ignored, and any spans opened under `id` and still open
    /// (abandoned by an early return or a crash) are closed with the same
    /// stamp so the stack stays consistent.
    pub fn close(&self, id: u32, now_ns: u64) {
        if id == 0 {
            return;
        }
        let Some(r) = &self.inner else { return };
        let mut t = r.borrow_mut();
        let Some(pos) = t.stack.iter().rposition(|&s| s == id) else {
            return;
        };
        while t.stack.len() > pos {
            let sid = t.stack.pop().expect("stack is non-empty above pos");
            let rec = &mut t.records[sid as usize - 1];
            rec.close_ns = now_ns;
            rec.closed = true;
        }
    }

    /// Close every open span with the given stamp. Used when a crash
    /// dismantles a stack mid-operation, so recovery spans on the remounted
    /// stack do not nest under a dead op.
    pub fn close_all(&self, now_ns: u64) {
        let Some(r) = &self.inner else { return };
        let mut t = r.borrow_mut();
        while let Some(sid) = t.stack.pop() {
            let rec = &mut t.records[sid as usize - 1];
            rec.close_ns = now_ns;
            rec.closed = true;
        }
    }

    /// Attribute one disk command's busy time to the innermost open span.
    /// Returns the span id to stamp onto the trace event and the kind of
    /// the owning span (`None` when no span is open — the time accrues to
    /// the unattributed remainder — or when disabled).
    pub fn attribute(&self, busy_ns: u64) -> (u32, Option<SpanKind>) {
        let Some(r) = &self.inner else {
            return (0, None);
        };
        let mut t = r.borrow_mut();
        match t.stack.last().copied() {
            Some(sid) => {
                let rec = &mut t.records[sid as usize - 1];
                rec.disk_ns += busy_ns;
                rec.disk_cmds += 1;
                (sid, Some(rec.kind))
            }
            None => {
                t.unattributed_ns += busy_ns;
                (0, None)
            }
        }
    }

    /// Number of span records held.
    pub fn len(&self) -> usize {
        self.inner.as_ref().map_or(0, |r| r.borrow().records.len())
    }

    /// Is the table empty (or disabled)?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spans dropped because the table hit its limit.
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |r| r.borrow().dropped)
    }

    /// Snapshot of all span records, id order.
    pub fn records(&self) -> Vec<SpanRecord> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |r| r.borrow().records.clone())
    }

    /// Disk busy time serviced while no span was open.
    pub fn unattributed_ns(&self) -> u64 {
        self.inner.as_ref().map_or(0, |r| r.borrow().unattributed_ns)
    }

    /// Directly attributed disk ns per kind, in [`ALL_KINDS`] order.
    pub(crate) fn kind_sums_ns(&self) -> [u64; 6] {
        let mut sums = [0u64; 6];
        let Some(r) = &self.inner else { return sums };
        for rec in &r.borrow().records {
            let i = ALL_KINDS
                .iter()
                .position(|k| *k == rec.kind)
                .expect("every kind is in ALL_KINDS");
            sums[i] += rec.disk_ns;
        }
        sums
    }

    /// Total disk ns attributed to any span plus the unattributed
    /// remainder — equals the disk's cumulative busy time when every
    /// command was recorded through [`Spans::attribute`].
    pub fn total_ns(&self) -> u64 {
        self.kind_sums_ns().iter().sum::<u64>() + self.unattributed_ns()
    }

    /// Disk ns that is *background* work: attributed to a span whose
    /// ancestor chain (itself included) contains a background kind
    /// ([`SpanKind::is_background`]). Subtree inheritance matters — a map
    /// append performed on behalf of a compaction pass is cleaning tax even
    /// though its own kind is `LogAppend`.
    pub fn background_ns(&self) -> u64 {
        let Some(r) = &self.inner else { return 0 };
        let t = r.borrow();
        // Parents always open before children, so parent ids are smaller
        // than child ids and one forward pass settles inheritance.
        let mut bg = vec![false; t.records.len()];
        let mut sum = 0u64;
        for (i, rec) in t.records.iter().enumerate() {
            let inherited = rec.parent != 0 && bg[rec.parent as usize - 1];
            bg[i] = inherited || rec.kind.is_background();
            if bg[i] {
                sum += rec.disk_ns;
            }
        }
        sum
    }

    /// Disk ns that is foreground work (everything not
    /// [`Spans::background_ns`], including the unattributed remainder).
    pub fn foreground_ns(&self) -> u64 {
        self.total_ns() - self.background_ns()
    }

    /// Serialise the span table as JSONL, id order, one record per line
    /// (each line carries a `"parent"` key, distinguishing it from trace
    /// events in a mixed dump).
    pub fn dump_jsonl(&self) -> String {
        let Some(r) = &self.inner else {
            return String::new();
        };
        let t = r.borrow();
        let mut out = String::with_capacity(t.records.len() * 160);
        for rec in &t.records {
            out.push_str(&rec.json_line());
            out.push('\n');
        }
        out
    }
}

/// A bounded black box for failure harnesses: the last N disk events of a
/// stack plus the full span table, dumped together when a divergence or a
/// crash-invariant failure is found so the report shows the causal disk
/// history that led to it.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    /// The event ring (bounded; oldest events are dropped first).
    pub tracer: crate::Tracer,
    /// The span table the events are stamped against.
    pub spans: Spans,
}

impl FlightRecorder {
    /// A recorder keeping the most recent `events` disk events.
    pub fn with_capacity(events: usize) -> Self {
        Self {
            tracer: crate::Tracer::with_capacity(events),
            spans: Spans::enabled(),
        }
    }

    /// Dump span records then events as one JSONL document. Span lines
    /// carry a `"parent"` key; event lines carry an `"at"` key.
    pub fn dump(&self) -> String {
        let mut out = self.spans.dump_jsonl();
        out.push_str(&self.tracer.dump_jsonl());
        out
    }
}

#[cfg(test)]
impl Spans {
    /// Id of the innermost open span (0 if none or disabled).
    pub(crate) fn current(&self) -> u32 {
        self.inner
            .as_ref()
            .and_then(|r| r.borrow().stack.last().copied())
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_noop() {
        let s = Spans::disabled();
        assert!(!s.is_enabled());
        assert_eq!(s.open(SpanKind::FsOp, "x", 1), 0);
        s.close(0, 2);
        s.close_all(3);
        assert_eq!(s.attribute(100), (0, None));
        assert_eq!(s.current(), 0);
        assert_eq!(s.total_ns(), 0);
        assert!(s.records().is_empty());
        assert!(s.dump_jsonl().is_empty());
    }

    #[test]
    fn nesting_and_attribution() {
        let s = Spans::enabled();
        let a = s.open(SpanKind::FsOp, "ufs.write", 10);
        assert_eq!(a, 1);
        s.attribute(100); // goes to a
        let b = s.open(SpanKind::CacheFlush, "ufs.evict", 20);
        assert_eq!(b, 2);
        assert_eq!(s.current(), b);
        s.attribute(50); // goes to b (innermost)
        s.close(b, 30);
        s.attribute(7); // back to a
        s.close(a, 40);
        s.attribute(1); // no span open -> unattributed
        let recs = s.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].parent, 0);
        assert_eq!(recs[1].parent, a);
        assert_eq!(recs[0].disk_ns, 107);
        assert_eq!(recs[1].disk_ns, 50);
        assert_eq!(recs[0].wall_ns(), 30);
        assert_eq!(recs[1].wall_ns(), 10);
        assert_eq!(s.unattributed_ns(), 1);
        assert_eq!(s.total_ns(), 158);
        let sums = s.kind_sums_ns();
        assert_eq!(sums[0], 107); // FsOp
        assert_eq!(sums[1], 50); // CacheFlush
    }

    #[test]
    fn close_is_tolerant_and_closes_abandoned_children() {
        let s = Spans::enabled();
        let a = s.open(SpanKind::FsOp, "a", 1);
        let b = s.open(SpanKind::LogAppend, "b", 2);
        // Closing the outer span also closes the abandoned inner one.
        s.close(a, 9);
        let recs = s.records();
        assert!(recs[0].closed && recs[1].closed);
        assert_eq!(recs[1].close_ns, 9);
        // Double close and unknown ids are no-ops.
        s.close(a, 99);
        s.close(b, 99);
        s.close(77, 99);
        assert_eq!(s.records()[0].close_ns, 9);
        assert_eq!(s.current(), 0);
    }

    #[test]
    fn background_rollup_inherits_down_the_tree() {
        let s = Spans::enabled();
        let op = s.open(SpanKind::FsOp, "op", 1);
        s.attribute(100); // foreground
        let la = s.open(SpanKind::LogAppend, "map", 2);
        s.attribute(10); // foreground (log append on behalf of an op)
        s.close(la, 3);
        s.close(op, 4);
        let c = s.open(SpanKind::Compaction, "clean", 5);
        s.attribute(200); // background
        let la2 = s.open(SpanKind::LogAppend, "map", 6);
        s.attribute(20); // background by inheritance
        s.close(la2, 7);
        s.close(c, 8);
        s.attribute(1); // unattributed -> foreground
        assert_eq!(s.background_ns(), 220);
        assert_eq!(s.foreground_ns(), 111);
        assert_eq!(s.total_ns(), 331);
    }

    #[test]
    fn close_all_sweeps_open_spans() {
        let s = Spans::enabled();
        s.open(SpanKind::FsOp, "a", 1);
        s.open(SpanKind::Compaction, "b", 2);
        s.close_all(5);
        assert_eq!(s.current(), 0);
        assert!(s.records().iter().all(|r| r.closed && r.close_ns == 5));
    }

    #[test]
    fn limit_drops_and_counts() {
        let s = Spans::enabled_with_limit(1);
        let a = s.open(SpanKind::FsOp, "a", 1);
        let b = s.open(SpanKind::FsOp, "b", 2);
        assert_eq!(a, 1);
        assert_eq!(b, 0, "over-limit span is dropped");
        assert_eq!(s.dropped(), 1);
        // Attribution falls through to the recorded outer span.
        s.attribute(10);
        assert_eq!(s.records()[0].disk_ns, 10);
        s.close(b, 3); // no-op
        s.close(a, 4);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn jsonl_shape_and_determinism() {
        let make = || {
            let s = Spans::enabled();
            let a = s.open(SpanKind::FsOp, "ufs.write", 10);
            let b = s.open(SpanKind::LogAppend, "vlog.map_append", 12);
            s.attribute(40);
            s.close(b, 20);
            s.close(a, 25);
            s.open(SpanKind::Compaction, "vld.compact", 30); // left open
            s.dump_jsonl()
        };
        let a = make();
        assert_eq!(a, make(), "identical span tables serialise identically");
        let lines: Vec<&str> = a.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"span\":1,\"parent\":0,\"kind\":\"fs_op\""));
        assert!(lines[1].contains("\"parent\":1"));
        assert!(lines[1].contains("\"disk_ns\":40"));
        assert!(lines[2].contains("\"close_ns\":null"));
        for l in &lines {
            assert_eq!(l.matches('{').count(), l.matches('}').count());
        }
    }

    #[test]
    fn kind_names_are_distinct() {
        let names: std::collections::BTreeSet<_> = ALL_KINDS.iter().map(|k| k.as_str()).collect();
        assert_eq!(names.len(), ALL_KINDS.len());
        for k in ALL_KINDS {
            assert!(k.disk_ns_counter().contains(k.as_str()));
            assert!(k.disk_cmds_counter().contains(k.as_str()));
        }
        assert!(SpanKind::Compaction.is_background());
        assert!(SpanKind::Recovery.is_background());
        assert!(!SpanKind::FsOp.is_background());
    }

    #[test]
    fn flight_recorder_bounds_events() {
        let fr = FlightRecorder::with_capacity(2);
        let sp = fr.spans.open(SpanKind::FsOp, "op", 1);
        for at in 1..=4u64 {
            fr.tracer.record(crate::TraceEvent {
                at_ns: at,
                kind: crate::OpKind::Write,
                scope: 0,
                span: sp,
                lba: 0,
                sectors: 8,
                cyl: 0,
                track: 0,
                sector: 0,
                seek_cyls: 0,
                overhead_ns: 1,
                seek_ns: 0,
                head_switch_ns: 0,
                rotation_ns: 0,
                transfer_ns: 0,
            });
        }
        fr.spans.close(sp, 5);
        assert_eq!(fr.tracer.len(), 2, "ring keeps only the most recent events");
        let d = fr.dump();
        assert!(d.lines().next().unwrap().contains("\"parent\":0"));
        assert!(d.contains("\"span\":1"));
    }
}
