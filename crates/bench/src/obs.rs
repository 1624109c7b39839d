//! The observability exhibit: a traced random-update workload.
//!
//! Runs the Figure 9 workload (random synchronous 4 KB updates at 80 %
//! utilisation) on UFS/Regular and UFS/VLD with the event tracer and the
//! metrics registry attached, then exports:
//!
//! * a JSONL trace (one line per disk operation, with the full service-time
//!   decomposition and a scope label naming the workload phase), and
//! * a metrics JSON document containing each stack's registry snapshot plus
//!   a `trace_check` block recording the disk's cumulative busy time next
//!   to the trace's component sums — the two must agree exactly.
//!
//! The exhibit writes only to files and returns a report string (printed to
//! stderr by `all_figures`), so benchmark stdout stays byte-identical
//! whether or not tracing is enabled.

use std::fmt::Write as _;

use crate::workload::{make_file, random_updates, rng, BLOCK};
use disksim::{Metrics, ServiceTime, Spans, Tracer};
use fscore::{FileSystem, FsResult, HostModel};
use modelcheck::stack::{DevKind, DiskKind, FsKind, Obs, StackSpec};
use ufs::Ufs;

/// Ring capacity for exhibit traces: large enough that a quick run never
/// drops an event (drops would break the busy-sum invariant check).
const RING: usize = 1 << 20;

/// Everything captured from one traced stack run.
pub(crate) struct StackObs {
    /// Stack label ("ufs-regular" / "ufs-vld"); also the scope prefix.
    pub(crate) label: &'static str,
    /// The trace ring, complete (no drops) for exhibit-sized runs.
    pub(crate) tracer: Tracer,
    /// The stack's metrics registry.
    pub(crate) metrics: Metrics,
    /// The causal-span table shared with the disk at the bottom of the stack.
    pub(crate) spans: Spans,
    /// Disk busy breakdown of the run. The handles are attached before the
    /// first timed command (creating a device only pokes the media), so
    /// this is also what accumulated while the tracer was attached.
    pub(crate) busy_delta: ServiceTime,
}

impl StackObs {
    /// Busy nanoseconds accumulated while traced (sum of all components).
    pub(crate) fn busy_ns(&self) -> u64 {
        let b = self.busy_delta;
        b.overhead_ns + b.seek_ns + b.head_switch_ns + b.rotation_ns + b.transfer_ns
    }

    /// Total nanoseconds across every traced event's components.
    pub(crate) fn trace_sum_ns(&self) -> u64 {
        let (o, s, h, r, x) = self.tracer.component_sums();
        o + s + h + r + x
    }

    /// Total span-attributed disk time plus the explicit unattributed
    /// remainder — must equal [`StackObs::busy_ns`] exactly.
    pub(crate) fn attr_ns(&self) -> u64 {
        self.spans.total_ns() + self.spans.unattributed_ns()
    }

    /// Cleaning tax in parts per million: background (compaction/recovery
    /// subtree) disk time over foreground disk time.
    pub(crate) fn cleaning_tax_ppm(&self) -> u64 {
        self.spans
            .background_ns()
            .saturating_mul(1_000_000)
            .checked_div(self.spans.foreground_ns())
            .unwrap_or(0)
    }
}

/// Run the traced Figure 9 workload on one stack.
pub(crate) fn trace_stack(dev: DevKind, updates: u64) -> FsResult<StackObs> {
    stack_run(dev, updates, true).map(|(obs, _)| obs)
}

/// Shared body of [`trace_stack`]: the workload is identical either way;
/// `observed` only controls whether the tracer/metrics/spans are attached
/// to the device (the overhead test compares the two runs, down to the
/// stack they leave behind, to prove observability does not perturb the
/// simulation).
fn stack_run(dev: DevKind, updates: u64, observed: bool) -> FsResult<(StackObs, Ufs)> {
    let label = match dev {
        DevKind::Regular => "ufs-regular",
        DevKind::Vld => "ufs-vld",
    };
    let tracer = Tracer::with_capacity(RING);
    let obs = if observed {
        Obs {
            tracer: Some(tracer.clone()),
            metrics: Metrics::enabled(),
            spans: Spans::enabled(),
        }
    } else {
        Obs::default()
    };
    // As in Figure 9: the VLD is measured right after a compactor run, so
    // provision an empty-track pool covering the window.
    let spec = StackSpec {
        vld_target_empty_tracks: Some(40),
        ..StackSpec::paper(FsKind::Ufs, dev, DiskKind::Hp, HostModel::sparcstation_10())
    };
    let mut fs = spec.build(None, &obs)?;
    let Obs { metrics, spans, .. } = obs;

    let scope = |phase: &str| format!("{label}/{phase}");
    tracer.set_scope(&scope("setup"));
    let usable = fs.free_blocks();
    let file_blocks = (usable as f64 * 0.8) as u64;
    let f = make_file(&mut fs, "target", file_blocks * BLOCK as u64)?;
    fs.set_sync_writes(true);
    let mut r = rng(0xF19);
    fs.idle(20_000_000_000);
    random_updates(&mut fs, f, file_blocks, updates / 4, &mut r)?;
    let mut done = 0u64;
    while done < updates {
        // Idle grants replenish the compactor pool; their disk activity is
        // traced under its own scope so vlstat can separate it out.
        tracer.set_scope(&scope("idle"));
        fs.idle(30_000_000_000);
        tracer.set_scope(&scope("measured"));
        let chunk = 50.min(updates - done);
        random_updates(&mut fs, f, file_blocks, chunk, &mut r)?;
        done += chunk;
    }
    let stats = fs.device().disk_stats();
    if spans.is_enabled() && metrics.is_enabled() {
        // Cleaning tax (paper Table 2 / Figure 8 territory): the ratio of
        // background (compaction/recovery subtree) to foreground disk time.
        let bg = spans.background_ns();
        let fg = spans.foreground_ns();
        let ppm = bg.saturating_mul(1_000_000).checked_div(fg).unwrap_or(0);
        metrics.gauge(disksim::span::CLEANING_TAX_PPM, ppm as i64);
        metrics.gauge("span.background_ns", bg as i64);
        metrics.gauge("span.foreground_ns", fg as i64);
    }
    let obs = StackObs {
        label,
        tracer,
        metrics,
        spans,
        busy_delta: stats.busy,
    };
    Ok((obs, fs))
}

/// Per-scope component sums over a trace, for the report's decomposition.
fn scope_sums(obs: &StackObs, phase: &str) -> (u64, ServiceTime) {
    let want = format!("{}/{phase}", obs.label);
    let mut n = 0u64;
    let mut t = ServiceTime::ZERO;
    for ev in obs.tracer.events() {
        if obs.tracer.label(ev.scope) == want {
            n += 1;
            t += ServiceTime {
                overhead_ns: ev.overhead_ns,
                seek_ns: ev.seek_ns,
                head_switch_ns: ev.head_switch_ns,
                rotation_ns: ev.rotation_ns,
                transfer_ns: ev.transfer_ns,
            };
        }
    }
    (n, t)
}

/// Run both stacks, write the requested artifacts, and return the report.
///
/// `trace_path` receives the concatenated JSONL trace of both stacks;
/// `metrics_path` receives a JSON document with each stack's metrics and
/// the `trace_check` invariant block. The report string is intended for
/// stderr; nothing is printed to stdout. A file that cannot be written is
/// an error naming its path.
pub fn run(
    updates: u64,
    trace_path: Option<&str>,
    metrics_path: Option<&str>,
) -> Result<String, String> {
    let write = |path: &str, text: String| {
        std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
    };
    let stacks: Vec<StackObs> = [DevKind::Regular, DevKind::Vld]
        .into_iter()
        .map(|dev| trace_stack(dev, updates).unwrap_or_else(|e| panic!("obs/{dev:?}: {e}")))
        .collect();

    if let Some(path) = trace_path {
        let mut dump = String::new();
        for s in &stacks {
            // Span lines (keyed by "parent") precede the stack's event lines
            // (keyed by "at"); `vlstat` tells them apart by key, and detects
            // stack boundaries by span ids restarting from 1.
            dump.push_str(&s.spans.dump_jsonl());
            dump.push_str(&s.tracer.dump_jsonl());
        }
        write(path, dump)?;
    }
    if let Some(path) = metrics_path {
        let mut doc = String::from("{\n");
        for s in &stacks {
            let _ = writeln!(doc, "\"{}\": {},", s.label, s.metrics.to_json().trim_end());
        }
        doc.push_str("\"trace_check\": {\n");
        let checks: Vec<String> = stacks
            .iter()
            .map(|s| {
                format!(
                    "\"{}\": {{\"attr_ns\": {}, \"busy_ns\": {}, \"cleaning_tax_ppm\": {}, \"dropped\": {}, \"events\": {}, \"span_dropped\": {}, \"spans\": {}, \"trace_sum_ns\": {}, \"unattributed_ns\": {}}}",
                    s.label,
                    s.attr_ns(),
                    s.busy_ns(),
                    s.cleaning_tax_ppm(),
                    s.tracer.dropped(),
                    s.tracer.len(),
                    s.spans.dropped(),
                    s.spans.len(),
                    s.trace_sum_ns(),
                    s.spans.unattributed_ns(),
                )
            })
            .collect();
        doc.push_str(&checks.join(",\n"));
        doc.push_str("\n}\n}\n");
        write(path, doc)?;
    }

    let mut rep = String::from("# observability exhibit (random 4 KB sync updates, HP97560)\n");
    for s in &stacks {
        let ok = s.busy_ns() == s.trace_sum_ns()
            && s.attr_ns() == s.busy_ns()
            && s.tracer.dropped() == 0
            && s.spans.dropped() == 0;
        let _ = writeln!(
            rep,
            "#   {:<12} {:>7} events, {:>6} spans, busy {} ns, trace sum {} ns, attributed {} ns, cleaning tax {} ppm — {}",
            s.label,
            s.tracer.len(),
            s.spans.len(),
            s.busy_ns(),
            s.trace_sum_ns(),
            s.attr_ns(),
            s.cleaning_tax_ppm(),
            if ok { "exact match" } else { "MISMATCH" },
        );
        let (n, t) = scope_sums(s, "measured");
        if n > 0 {
            let ms = |x: u64| x as f64 / n as f64 / 1e6;
            let _ = writeln!(
                rep,
                "#     measured ops/update: SCSI {:.3} ms, seek {:.3} ms, switch {:.3} ms, rotation {:.3} ms, transfer {:.3} ms",
                ms(t.overhead_ns),
                ms(t.seek_ns),
                ms(t.head_switch_ns),
                ms(t.rotation_ns),
                ms(t.transfer_ns),
            );
        }
    }
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tentpole invariant: with nothing dropped, the trace's component
    /// sums reproduce the disk's cumulative busy breakdown exactly — for
    /// both the regular disk and the VLD (whose cache-hit reads and bare
    /// seeks must also be traced for the sums to close).
    #[test]
    fn trace_components_sum_to_disk_busy() {
        for dev in [DevKind::Regular, DevKind::Vld] {
            let obs = trace_stack(dev, 60).unwrap();
            assert_eq!(obs.tracer.dropped(), 0, "{dev:?}: ring too small");
            assert!(!obs.tracer.is_empty(), "{dev:?}: no events traced");
            let (o, s, h, r, x) = obs.tracer.component_sums();
            let b = obs.busy_delta;
            assert_eq!(o, b.overhead_ns, "{dev:?}: overhead");
            assert_eq!(s, b.seek_ns, "{dev:?}: seek");
            assert_eq!(h, b.head_switch_ns, "{dev:?}: head switch");
            assert_eq!(r, b.rotation_ns, "{dev:?}: rotation");
            assert_eq!(x, b.transfer_ns, "{dev:?}: transfer");
        }
    }

    /// The simulation is deterministic, so two identical runs must produce
    /// byte-identical JSONL traces and identical metrics JSON.
    #[test]
    fn traces_are_deterministic() {
        let a = trace_stack(DevKind::Vld, 40).unwrap();
        let b = trace_stack(DevKind::Vld, 40).unwrap();
        assert_eq!(a.tracer.dump_jsonl(), b.tracer.dump_jsonl());
        assert_eq!(a.spans.dump_jsonl(), b.spans.dump_jsonl());
        assert_eq!(a.metrics.to_json(), b.metrics.to_json());
    }

    /// Span-annotated output is identical whether the per-stack runs execute
    /// on a 1-wide or a 4-wide worker pool (`VLFS_THREADS` widths): the span
    /// table, trace and metrics are all per-stack state stamped from the
    /// stack's own virtual clock, so pool scheduling cannot leak in.
    #[test]
    fn span_traces_identical_across_pool_widths() {
        let dumps = |width: usize| -> Vec<(String, String, String)> {
            disksim::par::pmap_in(width, vec![DevKind::Regular, DevKind::Vld], |dev| {
                let o = trace_stack(dev, 40).unwrap();
                (o.spans.dump_jsonl(), o.tracer.dump_jsonl(), o.metrics.to_json())
            })
        };
        assert_eq!(dumps(1), dumps(4));
    }

    /// The span forest closes over the busy-sum invariant:
    ///
    /// * every span's own attributed disk time plus its descendants' is
    ///   bounded by its wall time (disk busy cannot exceed the causal
    ///   window it is attributed to),
    /// * attributed + unattributed disk time equals the disk's cumulative
    ///   busy delta exactly, and
    /// * the per-kind metrics counters partition the same total.
    #[test]
    fn span_tree_attribution_partitions_busy_sum() {
        for dev in [DevKind::Regular, DevKind::Vld] {
            let obs = trace_stack(dev, 60).unwrap();
            assert_eq!(obs.spans.dropped(), 0, "{dev:?}: span table overflow");
            let recs = obs.spans.records();
            assert!(!recs.is_empty(), "{dev:?}: no spans recorded");
            // Ids are sequential from 1 and a parent always precedes its
            // children, so one reverse pass accumulates subtree sums.
            let mut subtree = vec![0u64; recs.len() + 1];
            for r in recs.iter().rev() {
                subtree[r.id as usize] += r.disk_ns;
                if r.parent != 0 {
                    let s = subtree[r.id as usize];
                    subtree[r.parent as usize] += s;
                }
            }
            for r in &recs {
                assert!(r.closed, "{dev:?}: span {} ({}) left open", r.id, r.label);
                assert!(
                    subtree[r.id as usize] <= r.wall_ns(),
                    "{dev:?}: span {} ({}) attributed {} ns > wall {} ns",
                    r.id,
                    r.label,
                    subtree[r.id as usize],
                    r.wall_ns()
                );
            }
            assert_eq!(obs.attr_ns(), obs.busy_ns(), "{dev:?}: attribution total");
            let mut counter_sum =
                obs.metrics.counter_value(disksim::span::UNATTRIBUTED_DISK_NS);
            for kind in disksim::span::ALL_KINDS {
                counter_sum += obs.metrics.counter_value(kind.disk_ns_counter());
            }
            assert_eq!(counter_sum, obs.busy_ns(), "{dev:?}: per-kind counters");
            if dev == DevKind::Vld {
                assert!(
                    obs.spans.background_ns() > 0,
                    "VLD run saw no compaction/recovery time"
                );
                assert!(
                    obs.metrics.gauge_value(disksim::span::CLEANING_TAX_PPM).is_some(),
                    "cleaning-tax gauge missing"
                );
            }
        }
    }

    /// Observability must not perturb the simulation: the same workload with
    /// nothing attached reaches the same virtual end time with the same disk
    /// command count and busy breakdown, and records nothing. (The process-
    /// wide sim-event counter is shared across concurrently running tests,
    /// so this asserts the per-stack equivalents; the CI bench-smoke job
    /// checks the global counter on a single-threaded run.)
    #[test]
    fn disabled_observability_is_inert() {
        for dev in [DevKind::Regular, DevKind::Vld] {
            let (on, on_fs) = stack_run(dev, 40, true).unwrap();
            let (off, off_fs) = stack_run(dev, 40, false).unwrap();
            let end = |fs: &Ufs| fs.clock().now();
            assert_eq!(end(&on_fs), end(&off_fs), "{dev:?}: end time");
            let cmds = |fs: &Ufs| {
                let s = fs.device().disk_stats();
                s.reads + s.writes
            };
            assert_eq!(cmds(&on_fs), cmds(&off_fs), "{dev:?}: command count");
            assert_eq!(on.busy_ns(), off.busy_ns(), "{dev:?}: busy time");
            assert!(off.tracer.is_empty(), "{dev:?}: untraced run has events");
            assert!(off.spans.is_empty(), "{dev:?}: untraced run has spans");
            assert!(!off.spans.is_enabled() && !off.metrics.is_enabled());
        }
    }

    /// The metrics registry actually fills: the VLD run must touch the
    /// vlog, allocator, compactor, disk and UFS cache families.
    #[test]
    fn vld_metrics_cover_all_families() {
        let obs = trace_stack(DevKind::Vld, 60).unwrap();
        let snap = obs.metrics.snapshot();
        for key in ["disk.writes", "alloc.fast_path", "vlog.map_writes"] {
            assert!(
                obs.metrics.counter_value(key) > 0,
                "counter {key} not recorded: {:?}",
                snap.counters.keys().collect::<Vec<_>>()
            );
        }
        assert!(snap.gauges.contains_key("ufs.cache_hits"), "ufs gauges");
        assert!(snap.gauges.contains_key("vlog.depth"), "vlog gauges");
        assert!(
            obs.metrics.histogram("disk.seek_cyls").is_some(),
            "seek-distance histogram"
        );
    }

    /// A requested artifact that cannot be written is an error naming its
    /// path, not a line on stderr. (No file can be made under a file.)
    #[test]
    fn unwritable_artifact_is_an_error() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml/trace.jsonl");
        let err = run(40, Some(path), None).expect_err("the trace cannot be written");
        assert!(err.contains(path), "{err}");
    }
}
