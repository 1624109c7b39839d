//! Boundary tracing from outside the program: host-time spans around every
//! call into a layer, recorded by the benchmark's own shims.
//!
//! A [`Probe`] is what a workload is generic over. [`Off`] (the timed
//! binary) compiles to nothing: devices are boxed as they are and the
//! `obs` handles stay disabled. [`On`] (the traced binary) interposes a
//! [`TimedDevice`] at every device boundary, hands out enabled
//! `obs::Metrics` / `obs::Spans` registries, and records a span per
//! `FileSystem` call through [`Probe::enter`] / [`Probe::exit`].
//!
//! A span is `{id, parent, op_id, layer, call, start_ns, end_ns}`. A
//! layer's *self time* is its span's duration minus the interval its child
//! spans cover; with one thread children never overlap, so the covered
//! interval is the sum of their durations and the self times of all
//! layers under one FS call add up to that call's duration exactly.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

use disksim::{BlockDevice, DeviceSnapshot, DiskStats, Metrics, ServiceTime, SimClock, Spans};

/// The layers a boundary span can belong to — the crates a call enters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The file layer (`ufs`), buffer cache (`fscore.cache`) and host model:
    /// everything between a `FileSystem` call and the device below.
    Ufs,
    /// The log-structured logical disk (`lfs.lld`).
    Lld,
    /// The virtual-log disk (`core.vld`: allocator, free map, log append,
    /// compactor — and the `disksim` mechanics beneath, which cannot be
    /// split from outside).
    Vld,
    /// The update-in-place disk (`disksim.regular`).
    Regular,
}

/// Number of [`Layer`] variants.
pub const LAYERS: usize = 4;

impl Layer {
    /// Every layer, top of the stack first.
    pub const ALL: [Layer; LAYERS] = [Layer::Ufs, Layer::Lld, Layer::Vld, Layer::Regular];

    /// The metric prefix of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Ufs => "ufs",
            Layer::Lld => "lfs.lld",
            Layer::Vld => "core.vld",
            Layer::Regular => "disksim.regular",
        }
    }
}

/// One recorded boundary span (host nanoseconds since the tracer's epoch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRec {
    /// 1-based id, in open order.
    pub id: u32,
    /// Id of the span that caused this one (0 for an FS call).
    pub parent: u32,
    /// The FS call (1-based, in issue order) all spans under it share.
    pub op_id: u64,
    /// Layer entered.
    pub layer: Layer,
    /// Method called at the boundary.
    pub call: &'static str,
    /// Host time the call was entered.
    pub start_ns: u64,
    /// Host time the call returned.
    pub end_ns: u64,
}

/// Accumulated time of one layer, split by whether the FS call at the root
/// was `idle` (background machinery) or anything else (foreground).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Spans recorded for the layer.
    pub calls: u64,
    /// Duration of foreground spans.
    pub fg_ns: u64,
    /// Self time of foreground spans.
    pub fg_self_ns: u64,
    /// Duration of spans under an `idle` FS call.
    pub idle_ns: u64,
    /// Self time of spans under an `idle` FS call.
    pub idle_self_ns: u64,
}

impl LayerTotals {
    /// Self time, foreground and idle together.
    pub fn self_ns(&self) -> u64 {
        self.fg_self_ns + self.idle_self_ns
    }
}

/// Per-(layer, call) totals, for the trace summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallTotals {
    /// Spans recorded.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of self times.
    pub self_ns: u64,
}

/// Everything one traced iteration accumulated.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// FS calls (root spans) seen.
    pub ops: u64,
    /// Sum of the FS-call span durations.
    pub root_ns: u64,
    /// Totals per layer, indexed like [`Layer::ALL`].
    pub layers: [LayerTotals; LAYERS],
    /// Device calls issued directly by each layer (indexed by the
    /// *calling* layer): `[Ufs]` is file layer → top device, `[Lld]` is
    /// LLD → raw device.
    pub calls_from: [u64; LAYERS],
    /// Totals per (layer, call).
    pub by_call: BTreeMap<(Layer, &'static str), CallTotals>,
}

struct Frame {
    id: u32,
    layer: Layer,
    call: &'static str,
    start_ns: u64,
    /// Time covered by already-closed child spans.
    child_ns: u64,
}

struct State {
    stack: Vec<Frame>,
    next_id: u32,
    root_is_idle: bool,
    sum: TraceSummary,
    raw: Vec<SpanRec>,
    /// Raw spans are kept for ops up to this id.
    raw_ops: u64,
}

/// Raw spans are written out for the first this-many ops of a workload.
pub const RAW_SPAN_OPS: u64 = 2_000;

/// A cheap cloneable handle to the span recorder shared by the FS-call
/// wrapper and every [`TimedDevice`] of a run.
#[derive(Clone)]
pub struct Tracer {
    /// Host time 0 of every span this recorder stamps.
    epoch: Instant,
    state: Rc<RefCell<State>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A fresh recorder whose epoch is now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            state: Rc::new(RefCell::new(State {
                stack: Vec::with_capacity(8),
                next_id: 1,
                root_is_idle: false,
                sum: TraceSummary::default(),
                raw: Vec::new(),
                raw_ops: RAW_SPAN_OPS,
            })),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Enter `layer` through `call` now.
    pub fn enter(&self, layer: Layer, call: &'static str) {
        let now = self.now_ns();
        self.enter_at(layer, call, now);
    }

    /// Leave the innermost open span now.
    pub fn exit(&self) {
        let now = self.now_ns();
        self.exit_at(now);
    }

    /// [`Tracer::enter`] at an explicit host time (tests drive this with
    /// synthetic clocks).
    pub fn enter_at(&self, layer: Layer, call: &'static str, now_ns: u64) {
        let mut s = self.state.borrow_mut();
        if s.stack.is_empty() {
            s.sum.ops += 1;
            s.root_is_idle = call == "idle";
        }
        let id = s.next_id;
        s.next_id += 1;
        s.stack.push(Frame {
            id,
            layer,
            call,
            start_ns: now_ns,
            child_ns: 0,
        });
    }

    /// [`Tracer::exit`] at an explicit host time.
    pub fn exit_at(&self, now_ns: u64) {
        let mut s = self.state.borrow_mut();
        let f = s.stack.pop().expect("exit without a matching enter");
        let dur = now_ns.saturating_sub(f.start_ns);
        let own = self_time(dur, f.child_ns);
        let idle = s.root_is_idle;
        let parent = match s.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                Some((p.id, p.layer))
            }
            None => None,
        };
        let t = &mut s.sum.layers[f.layer as usize];
        t.calls += 1;
        if idle {
            t.idle_ns += dur;
            t.idle_self_ns += own;
        } else {
            t.fg_ns += dur;
            t.fg_self_ns += own;
        }
        let c = s.sum.by_call.entry((f.layer, f.call)).or_default();
        c.count += 1;
        c.total_ns += dur;
        c.self_ns += own;
        match parent {
            Some((_, layer)) => s.sum.calls_from[layer as usize] += 1,
            None => s.sum.root_ns += dur,
        }
        if s.sum.ops <= s.raw_ops {
            let op_id = s.sum.ops;
            s.raw.push(SpanRec {
                id: f.id,
                parent: parent.map_or(0, |(id, _)| id),
                op_id,
                layer: f.layer,
                call: f.call,
                start_ns: f.start_ns,
                end_ns: now_ns,
            });
        }
    }

    /// Forget everything recorded so far (between the warm-up and the
    /// traced iteration). Must be called with no span open.
    pub fn reset(&self) {
        let mut s = self.state.borrow_mut();
        assert!(s.stack.is_empty(), "reset inside an open span");
        s.sum = TraceSummary::default();
        s.raw.clear();
        s.next_id = 1;
    }

    /// Totals accumulated since the last [`Tracer::reset`].
    pub fn summary(&self) -> TraceSummary {
        self.state.borrow().sum.clone()
    }

    /// The retained raw spans (first [`RAW_SPAN_OPS`] ops), close order.
    pub fn raw_spans(&self) -> Vec<SpanRec> {
        self.state.borrow().raw.clone()
    }

    /// The retained raw spans as JSONL, one span per line.
    pub fn dump_jsonl(&self) -> String {
        let s = self.state.borrow();
        let mut out = String::with_capacity(s.raw.len() * 120);
        for r in &s.raw {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op_id\":{},\"layer\":\"{}\",\"call\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                r.id, r.parent, r.op_id, r.layer.name(), r.call, r.start_ns, r.end_ns
            );
        }
        out
    }
}

/// Self time of a span: its duration minus the interval its children
/// cover (never negative, even if a coarse clock made a child look longer
/// than its parent).
pub fn self_time(duration_ns: u64, children_ns: u64) -> u64 {
    duration_ns.saturating_sub(children_ns)
}

/// What a workload is generic over: tracing compiled out ([`Off`]) or
/// recorded at every boundary ([`On`]).
pub trait Probe: Clone {
    /// Does this probe record anything?
    const TRACED: bool;
    /// Box `dev` for the stack, interposing a timing shim when tracing.
    fn wrap<D: BlockDevice + 'static>(&self, layer: Layer, dev: D) -> Box<dyn BlockDevice>;
    /// A `FileSystem` call (or other boundary call) begins.
    fn enter(&self, layer: Layer, call: &'static str);
    /// The innermost open call returned.
    fn exit(&self);
    /// The metrics registry layers attach to (disabled when not tracing).
    fn metrics(&self) -> Metrics;
    /// The causal-span registry raw disks attach to (disabled when not
    /// tracing).
    fn spans(&self) -> Spans;
}

/// Tracing off: the timed runs. Every method is empty or the identity.
#[derive(Debug, Clone, Copy, Default)]
pub struct Off;

impl Probe for Off {
    const TRACED: bool = false;

    #[inline]
    fn wrap<D: BlockDevice + 'static>(&self, _layer: Layer, dev: D) -> Box<dyn BlockDevice> {
        Box::new(dev)
    }

    #[inline]
    fn enter(&self, _layer: Layer, _call: &'static str) {}

    #[inline]
    fn exit(&self) {}

    fn metrics(&self) -> Metrics {
        Metrics::disabled()
    }

    fn spans(&self) -> Spans {
        Spans::disabled()
    }
}

/// Tracing on: host spans at every boundary plus live `obs` registries.
#[derive(Clone)]
pub struct On {
    /// The boundary-span recorder.
    pub tracer: Tracer,
    /// Registry the layers' own counters and gauges land in.
    pub metrics: Metrics,
    /// Registry attributing simulated disk time to its cause.
    pub spans: Spans,
}

/// Span records the `obs::Spans` table may hold before it starts dropping:
/// enough for the warm-up plus one traced iteration of the largest
/// workload (a dropped span would make the cleaning-tax rollup partial,
/// so the traced run fails if any is dropped).
const OBS_SPAN_LIMIT: usize = 1 << 22;

impl Default for On {
    fn default() -> Self {
        Self::new()
    }
}

impl On {
    /// Fresh recorder and registries.
    pub fn new() -> Self {
        On {
            tracer: Tracer::new(),
            metrics: Metrics::enabled(),
            spans: Spans::enabled_with_limit(OBS_SPAN_LIMIT),
        }
    }
}

impl Probe for On {
    const TRACED: bool = true;

    fn wrap<D: BlockDevice + 'static>(&self, layer: Layer, dev: D) -> Box<dyn BlockDevice> {
        Box::new(TimedDevice::new(dev, layer, self.tracer.clone()))
    }

    fn enter(&self, layer: Layer, call: &'static str) {
        self.tracer.enter(layer, call);
    }

    fn exit(&self) {
        self.tracer.exit();
    }

    fn metrics(&self) -> Metrics {
        self.metrics.clone()
    }

    fn spans(&self) -> Spans {
        self.spans.clone()
    }
}

/// A timing shim around a block device: records a span per data-moving,
/// `trim`, `idle` and `flush` call and is otherwise invisible.
///
/// Every trait method is forwarded — including the ones with defaults:
/// `read_blocks` / `write_blocks` (the default degrades to one command per
/// block and would change simulated time), the downcast hooks (`into_any`,
/// `self_any`, `inner_device` answer *as the inner device*, so
/// `probe_device` / `downcast_device` see straight through the shim),
/// `spans` and `snapshot`. The transparency tests hold this to bit-identity.
pub struct TimedDevice<D> {
    inner: D,
    layer: Layer,
    tracer: Tracer,
}

impl<D: BlockDevice> TimedDevice<D> {
    /// Wrap `inner`, recording its spans under `layer`.
    pub fn new(inner: D, layer: Layer, tracer: Tracer) -> Self {
        Self {
            inner,
            layer,
            tracer,
        }
    }

    #[inline]
    fn timed<R>(&mut self, call: &'static str, f: impl FnOnce(&mut D) -> R) -> R {
        self.tracer.enter(self.layer, call);
        let r = f(&mut self.inner);
        self.tracer.exit();
        r
    }
}

impl<D: BlockDevice + 'static> BlockDevice for TimedDevice<D> {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn clock(&self) -> SimClock {
        self.inner.clock()
    }

    fn read_block(&mut self, block: u64, buf: &mut [u8]) -> disksim::Result<ServiceTime> {
        self.timed("read_block", |d| d.read_block(block, buf))
    }

    fn write_block(&mut self, block: u64, buf: &[u8]) -> disksim::Result<ServiceTime> {
        self.timed("write_block", |d| d.write_block(block, buf))
    }

    fn read_blocks(&mut self, start: u64, buf: &mut [u8]) -> disksim::Result<ServiceTime> {
        self.timed("read_blocks", |d| d.read_blocks(start, buf))
    }

    fn write_blocks(&mut self, start: u64, buf: &[u8]) -> disksim::Result<ServiceTime> {
        self.timed("write_blocks", |d| d.write_blocks(start, buf))
    }

    fn trim(&mut self, block: u64) -> disksim::Result<()> {
        self.timed("trim", |d| d.trim(block))
    }

    fn idle(&mut self, budget_ns: u64) -> u64 {
        self.timed("idle", |d| d.idle(budget_ns))
    }

    fn flush(&mut self) -> disksim::Result<ServiceTime> {
        self.timed("flush", |d| d.flush())
    }

    fn disk_stats(&self) -> DiskStats {
        self.inner.disk_stats()
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        Box::new(self.inner).into_any()
    }

    fn self_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.self_any()
    }

    fn inner_device(&self) -> Option<&dyn BlockDevice> {
        self.inner.inner_device()
    }

    fn spans(&self) -> Spans {
        self.inner.spans()
    }

    fn snapshot(&self) -> Option<Box<dyn DeviceSnapshot>> {
        self.inner.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        assert_eq!(self_time(100, 30), 70);
        assert_eq!(self_time(100, 100), 0);
        assert_eq!(self_time(10, 11), 0, "never negative");
    }

    /// ufs.write [0,100] → lld.write_block [10,70] → vld.write_blocks
    /// [20,50]; then ufs.idle [100,400] → vld.idle [150,350].
    fn sample() -> Tracer {
        let t = Tracer::new();
        t.enter_at(Layer::Ufs, "write", 0);
        t.enter_at(Layer::Lld, "write_block", 10);
        t.enter_at(Layer::Vld, "write_blocks", 20);
        t.exit_at(50);
        t.exit_at(70);
        t.exit_at(100);
        t.enter_at(Layer::Ufs, "idle", 100);
        t.enter_at(Layer::Vld, "idle", 150);
        t.exit_at(350);
        t.exit_at(400);
        t
    }

    #[test]
    fn layer_self_times_partition_the_root_spans() {
        let s = sample().summary();
        assert_eq!(s.ops, 2);
        assert_eq!(s.root_ns, 400);
        let ufs = s.layers[Layer::Ufs as usize];
        let lld = s.layers[Layer::Lld as usize];
        let vld = s.layers[Layer::Vld as usize];
        assert_eq!((ufs.fg_ns, ufs.fg_self_ns), (100, 40));
        assert_eq!((ufs.idle_ns, ufs.idle_self_ns), (300, 100));
        assert_eq!((lld.fg_ns, lld.fg_self_ns), (60, 30));
        assert_eq!((vld.fg_ns, vld.fg_self_ns), (30, 30));
        assert_eq!((vld.idle_ns, vld.idle_self_ns), (200, 200));
        let total: u64 = s.layers.iter().map(LayerTotals::self_ns).sum();
        assert_eq!(total, s.root_ns, "self times add up to the FS-call spans");
        // Who called whom: one device call from the file layer per op, one
        // from the LLD.
        assert_eq!(s.calls_from[Layer::Ufs as usize], 2);
        assert_eq!(s.calls_from[Layer::Lld as usize], 1);
        assert_eq!(s.by_call[&(Layer::Vld, "idle")].total_ns, 200);
    }

    #[test]
    fn raw_spans_link_parents_and_share_the_op_id() {
        let t = sample();
        let raw = t.raw_spans();
        assert_eq!(raw.len(), 5);
        // Close order: innermost first.
        let vld = raw[0];
        let lld = raw[1];
        let ufs = raw[2];
        assert_eq!((vld.layer, vld.parent), (Layer::Vld, lld.id));
        assert_eq!((lld.layer, lld.parent), (Layer::Lld, ufs.id));
        assert_eq!(ufs.parent, 0);
        assert!(raw[..3].iter().all(|r| r.op_id == 1));
        assert!(raw[3..].iter().all(|r| r.op_id == 2));
        let dump = t.dump_jsonl();
        assert_eq!(dump.lines().count(), 5);
        assert!(dump.contains("\"layer\":\"core.vld\",\"call\":\"idle\""));
    }

    #[test]
    fn reset_forgets_totals_and_spans() {
        let t = sample();
        t.reset();
        let s = t.summary();
        assert_eq!((s.ops, s.root_ns), (0, 0));
        assert!(t.raw_spans().is_empty());
    }
}
