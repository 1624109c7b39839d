//! The traced run: one iteration with a shim at every layer boundary and
//! the `obs` registries attached, turned into the per-layer metrics.
//!
//! Sources, all outside the program: (a) the boundary spans of
//! [`crate::trace`]; (b) the layers' public statistics and the
//! `obs::Metrics` / `obs::Spans` registries; (c) the direct-drive probes of
//! [`crate::probes`]; (d) the counting allocator.

use disksim::{probe_device, DiskStats, SpanKind, SpanRecord};
use lfs::{CleanerStats, LogDisk};
use vlog_core::{CompactStats, Vld, VlogStats};

use crate::alloc_count;
use crate::driver::stats_delta;
use crate::figures;
use crate::metrics::{Values, PER_LAYER};
use crate::probes;
use crate::run::{self, Outcome};
use crate::trace::{Layer, Off, On, TraceSummary};
use crate::workloads::{FsBench, Shape, Workload};

/// Cumulative readings of every public statistic the per-layer metrics are
/// differences of.
#[derive(Default)]
struct LayerMark {
    disk: DiskStats,
    vlog: VlogStats,
    compact: CompactStats,
    cleaner: CleanerStats,
    cache_hits: i64,
    cache_misses: i64,
    fast_path: u64,
    greedy_fallback: u64,
    /// Records in the `obs::Spans` table, and simulated disk time serviced
    /// with no span open.
    span_records: usize,
    unattributed_ns: u64,
}

fn layer_mark(b: &mut FsBench<On>, p: &On) -> LayerMark {
    let mut m = LayerMark {
        disk: run::disk_total(b),
        ..LayerMark::default()
    };
    for sys in &mut b.systems {
        // Re-attaching refreshes the cache gauges from this stack's cache.
        sys.fs.set_metrics(p.metrics.clone());
        m.cache_hits += p.metrics.gauge_value("ufs.cache_hits").unwrap_or(0);
        m.cache_misses += p.metrics.gauge_value("ufs.cache_misses").unwrap_or(0);
        if let Some(vld) = probe_device::<Vld>(sys.fs.device()) {
            let (v, c) = (vld.vlog().stats(), vld.compactor().stats());
            m.vlog.map_writes += v.map_writes;
            m.vlog.checkpoints += v.checkpoints;
            m.compact.blocks_moved += c.blocks_moved;
            m.compact.tracks_emptied += c.tracks_emptied;
        }
        if let Some(lld) = probe_device::<LogDisk>(sys.fs.device()) {
            let c = lld.cleaner_stats();
            m.cleaner.segments_cleaned += c.segments_cleaned;
            m.cleaner.blocks_copied += c.blocks_copied;
            m.cleaner.on_demand += c.on_demand;
            m.cleaner.during_idle += c.during_idle;
        }
    }
    m.fast_path = p.metrics.counter_value("alloc.fast_path");
    m.greedy_fallback = p.metrics.counter_value("alloc.greedy_fallback");
    m.span_records = p.spans.len();
    m.unattributed_ns = p.spans.unattributed_ns();
    m
}

/// Simulated disk time of a window of `obs` span records, by cause. Kinds
/// say *what* (FS op, cache write-back, log append, compaction); label
/// prefixes say *whose* (`vld.` / `vlog.` = `vlog-core`, `lld.` = the LLD),
/// so the `core.*` figures stay 0 on stacks without a VLD.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct SimAttribution {
    /// Directly under an FS-op span.
    pub fs_op_ns: u64,
    /// Under a cache eviction / flush / idle write-back span.
    pub cache_flush_ns: u64,
    /// Under a VLD map-append or checkpoint span.
    pub vld_append_ns: u64,
    /// Directly under a VLD compaction span.
    pub vld_compact_ns: u64,
    /// In the subtree of a VLD compaction span: the compactor's reads and
    /// writes *and* the map appends they caused — the VLD's cleaning tax.
    pub vld_background_ns: u64,
    /// In the subtree of any background span (compaction, LLD cleaning,
    /// recovery).
    pub background_ns: u64,
    /// All attributed time in the window.
    pub total_ns: u64,
}

/// Attribute the records opened since `first_id` (1-based). Parents open
/// before their children, so one forward pass settles inheritance.
pub fn attribute(records: &[SpanRecord], first_id: u32) -> SimAttribution {
    let mut a = SimAttribution::default();
    let window = &records[(first_id as usize - 1).min(records.len())..];
    let inherited =
        |flags: &[bool], parent: u32| parent >= first_id && flags[(parent - first_id) as usize];
    let (mut bg, mut vld_bg) = (vec![false; window.len()], vec![false; window.len()]);
    for (i, r) in window.iter().enumerate() {
        let vld = r.label.starts_with("vld.") || r.label.starts_with("vlog.");
        bg[i] = r.kind.is_background() || inherited(&bg, r.parent);
        vld_bg[i] = (vld && r.kind == SpanKind::Compaction) || inherited(&vld_bg, r.parent);
        a.total_ns += r.disk_ns;
        if bg[i] {
            a.background_ns += r.disk_ns;
        }
        if vld_bg[i] {
            a.vld_background_ns += r.disk_ns;
        }
        match r.kind {
            SpanKind::FsOp => a.fs_op_ns += r.disk_ns,
            SpanKind::CacheFlush => a.cache_flush_ns += r.disk_ns,
            SpanKind::LogAppend if vld => a.vld_append_ns += r.disk_ns,
            SpanKind::Compaction if vld => a.vld_compact_ns += r.disk_ns,
            _ => {}
        }
    }
    a
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Per-layer metrics from the boundary spans (source a).
fn put_spans(v: &mut Values, s: &TraceSummary, ops: u64) {
    let per_op = |ns: u64| ns as f64 / ops.max(1) as f64;
    let [ufs, lld, vld, reg] = s.layers;
    v.insert("ufs.self_ns_per_op", per_op(ufs.self_ns()));
    v.insert(
        "ufs.dev_calls_per_op",
        per_op(s.calls_from[Layer::Ufs as usize]),
    );
    v.insert("lfs.lld.self_ns_per_op", per_op(lld.fg_self_ns));
    v.insert("lfs.lld.idle_self_ns_per_op", per_op(lld.idle_self_ns));
    v.insert(
        "lfs.lld.dev_calls_per_op",
        per_op(s.calls_from[Layer::Lld as usize]),
    );
    v.insert("core.vld.ns_per_op", per_op(vld.fg_ns));
    v.insert("core.vld.idle_ns_per_op", per_op(vld.idle_ns));
    v.insert("core.vld.calls_per_op", per_op(vld.calls));
    v.insert("disksim.regular.ns_per_op", per_op(reg.fg_ns + reg.idle_ns));
    v.insert("disksim.regular.calls_per_op", per_op(reg.calls));
}

/// Per-layer metrics from the layers' public statistics and the `obs`
/// registries (source b).
fn put_stats(v: &mut Values, a: &LayerMark, b: &LayerMark, sim: &SimAttribution, ops: u64) {
    let ops_f = ops.max(1) as f64;
    let per_op = |x: u64| x as f64 / ops_f;
    let per_kop = |x: u64| x as f64 * 1e3 / ops_f;
    let sim_ms = |ns: u64| ns as f64 / 1e6 / ops_f;
    v.insert("ufs.sim_fs_op_ms_per_op", sim_ms(sim.fs_op_ns));
    v.insert(
        "fscore.cache.sim_flush_ms_per_op",
        sim_ms(sim.cache_flush_ns),
    );
    v.insert("core.log.sim_append_ms_per_op", sim_ms(sim.vld_append_ns));
    v.insert("core.compact.sim_ms_per_op", sim_ms(sim.vld_compact_ns));
    let foreground = sim.total_ns + (b.unattributed_ns - a.unattributed_ns) - sim.background_ns;
    v.insert(
        "core.vld.cleaning_tax_pct",
        100.0 * ratio(sim.vld_background_ns, foreground),
    );
    let (hits, misses) = (b.cache_hits - a.cache_hits, b.cache_misses - a.cache_misses);
    v.insert(
        "fscore.cache.hit_pct",
        100.0 * ratio(hits as u64, (hits + misses) as u64),
    );
    let on_demand = b.cleaner.on_demand - a.cleaner.on_demand;
    let during_idle = b.cleaner.during_idle - a.cleaner.during_idle;
    v.insert(
        "lfs.lld.blocks_copied_per_op",
        per_op(b.cleaner.blocks_copied - a.cleaner.blocks_copied),
    );
    v.insert(
        "lfs.lld.segments_cleaned_per_kop",
        per_kop(b.cleaner.segments_cleaned - a.cleaner.segments_cleaned),
    );
    v.insert(
        "lfs.lld.clean_on_demand_share",
        ratio(on_demand, on_demand + during_idle),
    );
    v.insert(
        "core.log.map_writes_per_op",
        per_op(b.vlog.map_writes - a.vlog.map_writes),
    );
    v.insert(
        "core.log.checkpoints_per_kop",
        per_kop(b.vlog.checkpoints - a.vlog.checkpoints),
    );
    let (fast, slow) = (
        b.fast_path - a.fast_path,
        b.greedy_fallback - a.greedy_fallback,
    );
    v.insert("core.alloc.fast_path_share", ratio(fast, fast + slow));
    v.insert(
        "core.compact.blocks_moved_per_op",
        per_op(b.compact.blocks_moved - a.compact.blocks_moved),
    );
    v.insert(
        "core.compact.tracks_emptied_per_kop",
        per_kop(b.compact.tracks_emptied - a.compact.tracks_emptied),
    );
    let d = stats_delta(b.disk, a.disk);
    v.insert("disksim.cmds_per_op", per_op(d.reads + d.writes));
    v.insert("disksim.sectors_written_per_op", per_op(d.sectors_written));
    v.insert("disksim.sectors_read_per_op", per_op(d.sectors_read));
    v.insert("disksim.sim_overhead_ms_per_op", sim_ms(d.busy.overhead_ns));
    v.insert("disksim.sim_seek_ms_per_op", sim_ms(d.busy.seek_ns));
    v.insert(
        "disksim.sim_headswitch_ms_per_op",
        sim_ms(d.busy.head_switch_ns),
    );
    v.insert("disksim.sim_rotation_ms_per_op", sim_ms(d.busy.rotation_ns));
    v.insert("disksim.sim_transfer_ms_per_op", sim_ms(d.busy.transfer_ns));
}

/// The share of the FS-call span total each layer's self time makes up,
/// and the per-(layer, call) totals, as note lines — what the trace says
/// before anyone optimises.
fn share_notes(notes: &mut Vec<String>, s: &TraceSummary) {
    let total = s.root_ns.max(1) as f64;
    for (layer, t) in Layer::ALL.iter().zip(s.layers) {
        if t.calls > 0 {
            notes.push(format!(
                "trace: {:<16} self {:5.1} % of FS-call time (foreground {:5.1} %, inside idle {:5.1} %), {} calls",
                layer.name(),
                100.0 * t.self_ns() as f64 / total,
                100.0 * t.fg_self_ns as f64 / total,
                100.0 * t.idle_self_ns as f64 / total,
                t.calls
            ));
        }
    }
    for ((layer, call), c) in &s.by_call {
        notes.push(format!(
            "trace: {:<16} {:<12} {:>8} calls  total {:>10.3} ms  self {:>10.3} ms",
            layer.name(),
            call,
            c.count,
            c.total_ns as f64 / 1e6,
            c.self_ns as f64 / 1e6
        ));
    }
}

/// The traced run of a file-system workload. Two passes over the same
/// set-up, warm-up and first iteration: one with tracing off (its wall is
/// the base of `obs.overhead_pct` and `disksim.host_ns_per_event`, its
/// allocations are the program's own), one with every shim and registry
/// on. Their simulated metrics must agree exactly.
fn fs_traced(w: Workload, shape: Shape, seed: u64) -> Outcome {
    let mut out = Outcome::new(&PER_LAYER);

    // Pass 1: tracing off.
    let Some(mut plain) = run::fs_setups(shape, seed, &Off, 1, &mut out) else {
        return out;
    };
    let events0 = disksim::clock::events();
    let allocs0 = alloc_count::counts();
    let (plain_wall, plain_sim) = run::one_iteration(&mut plain.bench, &mut out, |_| {});
    let allocs1 = alloc_count::counts();
    let events = disksim::clock::events() - events0;
    drop(plain);

    // Pass 2: shims, Metrics, Spans on.
    let probe = On::new();
    let Some(run::Ready { mut bench, .. }) = run::fs_setups(shape, seed, &probe, 1, &mut out)
    else {
        return out;
    };
    let mut mark0 = LayerMark::default();
    let (traced_wall, traced_sim) = run::one_iteration(&mut bench, &mut out, |b| {
        mark0 = layer_mark(b, &probe);
        probe.tracer.reset();
    });
    let summary = probe.tracer.summary();
    let mark1 = layer_mark(&mut bench, &probe);
    let sim = attribute(&probe.spans.records(), mark0.span_records as u32 + 1);
    let ops = traced_sim.ops;

    let v = &mut out.values;
    put_spans(v, &summary, ops);
    put_stats(v, &mark0, &mark1, &sim, ops);
    v.insert("disksim.events_per_op", events as f64 / ops.max(1) as f64);
    v.insert(
        "disksim.host_ns_per_event",
        plain_wall * 1e9 / events.max(1) as f64,
    );
    v.insert(
        "host.allocs_per_op",
        (allocs1.0 - allocs0.0) as f64 / ops.max(1) as f64,
    );
    v.insert(
        "host.alloc_bytes_per_op",
        (allocs1.1 - allocs0.1) as f64 / ops.max(1) as f64,
    );
    v.insert("obs.overhead_pct", 100.0 * (traced_wall / plain_wall - 1.0));
    share_notes(&mut out.notes, &summary);

    // The trace accounts for its time, and looking did not change the
    // simulation.
    let self_sum: u64 = summary.layers.iter().map(|t| t.self_ns()).sum();
    let gap = (self_sum as f64 - summary.root_ns as f64).abs() / summary.root_ns.max(1) as f64;
    out.check(gap <= 0.01, || {
        format!(
            "layer self times miss the FS-call total by {:.2} %",
            gap * 100.0
        )
    });
    out.check(traced_sim == plain_sim, || {
        format!("traced simulated metrics {traced_sim:?} differ from untraced {plain_sim:?}")
    });
    out.check(probe.spans.dropped() == 0, || {
        format!(
            "{} obs spans dropped: the attribution is partial",
            probe.spans.dropped()
        )
    });
    out.notes.push(format!(
        "traced iteration: {ops} ops, wall {traced_wall:.4} s traced vs {plain_wall:.4} s untraced; simulated metrics identical"
    ));

    // Direct-drive probes on the end state (source c), then the trace file
    // and the same output checks as the timed run.
    probes::run(&mut bench, &mut out);
    let trace_file = format!("trace-{}.jsonl", w.name());
    if let Err(e) = crate::report::write_out_file(&trace_file, &probe.tracer.dump_jsonl()) {
        out.check(false, || format!("{trace_file}: {e}"));
    }
    run::verify(bench, &probe, &mut out);
    out
}

/// The traced run of `mc_sweep`: the sweep is a black box, so its layer
/// metrics are its own tallies plus the host-side counters.
fn mc_traced() -> Outcome {
    let mut out = Outcome::new(&PER_LAYER);
    run::sweep();
    let events0 = disksim::clock::events();
    let allocs0 = alloc_count::counts();
    let t = run::sweep();
    let allocs1 = alloc_count::counts();
    let events = disksim::clock::events() - events0;
    run::absorb_sweep(&mut out, &t, true);
    let (eps, ops) = (t.episodes.max(1) as f64, t.ops.max(1) as f64);
    let v = &mut out.values;
    v.insert("modelcheck.ms_per_episode", t.wall_s * 1e3 / eps);
    v.insert("modelcheck.crashes_per_episode", t.crashes as f64 / eps);
    v.insert("modelcheck.cuts_fired_share", t.cuts as f64 / eps);
    v.insert("disksim.events_per_op", events as f64 / ops);
    v.insert(
        "disksim.host_ns_per_event",
        t.wall_s * 1e9 / events.max(1) as f64,
    );
    v.insert("host.allocs_per_op", (allocs1.0 - allocs0.0) as f64 / ops);
    v.insert(
        "host.alloc_bytes_per_op",
        (allocs1.1 - allocs0.1) as f64 / ops,
    );
    out
}

/// The traced run of any workload: every per-layer metric (0 where the
/// layer is not part of the workload).
pub fn traced(w: Workload, seed: u64) -> Outcome {
    match w.shape() {
        Some(shape) => fs_traced(w, shape, seed),
        None if w == Workload::McSweep => mc_traced(),
        None => figures::traced(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u32, parent: u32, kind: SpanKind, label: &'static str, disk_ns: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            kind,
            label,
            open_ns: 0,
            close_ns: 0,
            disk_ns,
            disk_cmds: 1,
            closed: true,
        }
    }

    #[test]
    fn attribution_follows_kind_label_and_subtree() {
        let records = [
            // Before the window: ignored, even as a parent.
            rec(1, 0, SpanKind::Compaction, "vld.compact", 1_000),
            // ufs.write → vld map append.
            rec(2, 0, SpanKind::FsOp, "ufs.write", 10),
            rec(3, 2, SpanKind::LogAppend, "vlog.map_append", 20),
            // VLD compaction and the append it caused.
            rec(4, 0, SpanKind::Compaction, "vld.compact", 100),
            rec(5, 4, SpanKind::LogAppend, "vlog.map_append", 40),
            // LLD cleaning and segment flush: background, but not the VLD's.
            rec(6, 0, SpanKind::Compaction, "lld.clean", 200),
            rec(7, 6, SpanKind::LogAppend, "lld.seg_flush", 400),
            rec(8, 1, SpanKind::CacheFlush, "ufs.evict", 5),
        ];
        let a = attribute(&records, 2);
        assert_eq!(a.fs_op_ns, 10);
        assert_eq!(a.cache_flush_ns, 5);
        assert_eq!(a.vld_append_ns, 60);
        assert_eq!(a.vld_compact_ns, 100);
        assert_eq!(a.vld_background_ns, 140);
        assert_eq!(a.background_ns, 740);
        assert_eq!(a.total_ns, 775);
        assert_eq!(attribute(&records, 9), SimAttribution::default());
    }
}
