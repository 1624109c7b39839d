//! The benchmark's metric names, units and directions — the one list
//! `BENCHMARK.json`, the result lines and the README all follow (a test
//! holds `BENCHMARK.json` to it).
//!
//! Units say which clock a time is on: `s`, `ms`, `us`, `ns` are **host**
//! time (what the simulator costs to run); `sim_ms` is **simulated** time
//! (what the modelled disk and file system would take).

use std::collections::BTreeMap;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's declaration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only; 0 for per-layer metrics, which are never gated).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound,
    }
}

const fn low(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: 0.0,
    }
}

const fn high(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: 0.0,
    }
}

/// The seven end-to-end metrics, reported by every timed run.
pub const END_TO_END: [MetricDef; 7] = [
    e2e("wall_s", "s", 0.20),
    e2e("setup_s", "s", 0.25),
    e2e("peak_rss_mib", "MiB", 0.05),
    e2e("sim_ms_per_op", "sim_ms", 0.04),
    e2e("sim_p50_op_ms", "sim_ms", 0.05),
    e2e("sim_p999_op_ms", "sim_ms", 0.05),
    e2e("write_amp", "ratio", 0.01),
];

/// Figure sections whose host time the traced `figures_quick` run breaks
/// out (`bench.<section>.host_ms`, `bench.<section>.ns_per_event`).
pub const BENCH_SECTIONS: [&str; 7] = [
    "fig6",
    "fig7",
    "fig8",
    "table2",
    "fig10",
    "fig11",
    "vlfs_preview",
];

/// The per-layer metrics, reported by every traced run (0 where a layer is
/// not part of the workload — itself a prediction: `core.vld.calls_per_op`
/// must read 0 on the workloads that bypass the VLD).
pub const PER_LAYER: [MetricDef; 67] = [
    // ufs + fscore.cache: the file layer, buffer cache and host model.
    low("ufs.self_ns_per_op", "ns"),
    low("ufs.dev_calls_per_op", "count"),
    low("ufs.sim_fs_op_ms_per_op", "sim_ms"),
    low("fscore.cache.sim_flush_ms_per_op", "sim_ms"),
    high("fscore.cache.hit_pct", "%"),
    low("ufs.fsck_host_ms", "ms"),
    low("ufs.snapshot_ms", "ms"),
    low("ufs.fork_us", "us"),
    // lfs.lld: segment writes and the greedy cleaner.
    low("lfs.lld.self_ns_per_op", "ns"),
    low("lfs.lld.idle_self_ns_per_op", "ns"),
    low("lfs.lld.dev_calls_per_op", "count"),
    low("lfs.lld.blocks_copied_per_op", "count"),
    low("lfs.lld.segments_cleaned_per_kop", "count"),
    low("lfs.lld.clean_on_demand_share", "ratio"),
    low("lfs.lld.mount_host_ms", "ms"),
    low("lfs.lld.mount_sim_ms", "sim_ms"),
    // core.*: the virtual-log disk.
    low("core.vld.ns_per_op", "ns"),
    low("core.vld.idle_ns_per_op", "ns"),
    low("core.vld.calls_per_op", "count"),
    low("core.vld.cleaning_tax_pct", "%"),
    low("core.log.map_writes_per_op", "count"),
    low("core.log.checkpoints_per_kop", "count"),
    low("core.log.sim_append_ms_per_op", "sim_ms"),
    high("core.alloc.fast_path_share", "ratio"),
    low("core.alloc.find_block_ns", "ns"),
    low("core.compact.blocks_moved_per_op", "count"),
    low("core.compact.tracks_emptied_per_kop", "count"),
    low("core.compact.sim_ms_per_op", "sim_ms"),
    low("core.recovery.tail_host_ms", "ms"),
    low("core.recovery.tail_sim_ms", "sim_ms"),
    low("core.recovery.scan_host_ms", "ms"),
    low("core.recovery.scan_sim_ms", "sim_ms"),
    // disksim: the regular disk's boundary, the drive's own statistics,
    // the clock, and copy-on-write forks.
    low("disksim.regular.ns_per_op", "ns"),
    low("disksim.regular.calls_per_op", "count"),
    low("disksim.cmds_per_op", "count"),
    low("disksim.sectors_written_per_op", "count"),
    low("disksim.sectors_read_per_op", "count"),
    low("disksim.sim_overhead_ms_per_op", "sim_ms"),
    low("disksim.sim_seek_ms_per_op", "sim_ms"),
    low("disksim.sim_headswitch_ms_per_op", "sim_ms"),
    low("disksim.sim_rotation_ms_per_op", "sim_ms"),
    low("disksim.sim_transfer_ms_per_op", "sim_ms"),
    low("disksim.events_per_op", "count"),
    low("disksim.host_ns_per_event", "ns"),
    low("disksim.cow_first_write_us", "us"),
    // bench: the figure driver, per section of the quick suite.
    low("bench.fig6.host_ms", "ms"),
    low("bench.fig6.ns_per_event", "ns"),
    low("bench.fig7.host_ms", "ms"),
    low("bench.fig7.ns_per_event", "ns"),
    low("bench.fig8.host_ms", "ms"),
    low("bench.fig8.ns_per_event", "ns"),
    low("bench.table2.host_ms", "ms"),
    low("bench.table2.ns_per_event", "ns"),
    low("bench.fig10.host_ms", "ms"),
    low("bench.fig10.ns_per_event", "ns"),
    low("bench.fig11.host_ms", "ms"),
    low("bench.fig11.ns_per_event", "ns"),
    low("bench.vlfs_preview.host_ms", "ms"),
    low("bench.vlfs_preview.ns_per_event", "ns"),
    high("bench.par.speedup_x", "x"),
    low("bench.table2_err_pct", "%"),
    // modelcheck: the crash-checking sweep.
    low("modelcheck.ms_per_episode", "ms"),
    low("modelcheck.crashes_per_episode", "count"),
    low("modelcheck.cuts_fired_share", "ratio"),
    // host: deterministic cost proxies from the counting allocator.
    low("host.allocs_per_op", "count"),
    low("host.alloc_bytes_per_op", "B"),
    // obs: the cost of looking.
    low("obs.overhead_pct", "%"),
];

/// Measured values keyed by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// A value map with every metric of `defs` present and 0.
pub fn zeroed(defs: &[MetricDef]) -> Values {
    defs.iter().map(|d| (d.name, 0.0)).collect()
}

/// Look a metric up by name in either list.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(d.name), "{} declared twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for s in BENCH_SECTIONS {
            assert!(find(&format!("bench.{s}.host_ms")).is_some());
            assert!(find(&format!("bench.{s}.ns_per_event")).is_some());
        }
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert!(
            END_TO_END.iter().all(|d| d.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }

    /// `BENCHMARK.json` declares exactly the metrics and workloads the code
    /// reports, with the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let j = Json::parse(&text).expect("valid JSON");
        let check = |key: &str, defs: &[MetricDef], bounded: bool| {
            let arr = j
                .get(key)
                .and_then(Json::arr)
                .unwrap_or_else(|| panic!("{key} missing"));
            assert_eq!(arr.len(), defs.len(), "{key} count");
            for (m, d) in arr.iter().zip(defs) {
                assert_eq!(m.get("name").and_then(Json::str), Some(d.name));
                assert_eq!(
                    m.get("unit").and_then(Json::str),
                    Some(d.unit),
                    "{}",
                    d.name
                );
                assert_eq!(
                    m.get("better").and_then(Json::str),
                    Some(d.better.as_str()),
                    "{}",
                    d.name
                );
                if bounded {
                    assert_eq!(
                        m.get("bound").and_then(Json::num),
                        Some(d.bound),
                        "{}",
                        d.name
                    );
                } else {
                    assert!(m.get("bound").is_none(), "{} is not gated", d.name);
                }
            }
        };
        check("end_to_end", &END_TO_END, true);
        check("per_layer", &PER_LAYER, false);
        let wl = j.get("workloads").and_then(Json::arr).expect("workloads");
        let names: Vec<_> = wl
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::str))
            .collect();
        let ours: Vec<_> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names, ours);
        assert!(wl.iter().all(|w| w
            .get("why")
            .and_then(Json::str)
            .is_some_and(|s| s.len() <= 200)));
        assert_eq!(
            j.get("run_seconds").and_then(Json::num),
            Some(crate::workloads::RUN_SECONDS as f64)
        );
    }
}
