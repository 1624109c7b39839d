//! Self-timing for the benchmark harness.
//!
//! Every `all_figures` section is timed in wall-clock terms, and the
//! process-wide simulated-event counter ([`disksim::clock::events`]) is
//! sampled around each section, giving a simulated-events-per-second
//! throughput figure for the simulator itself. The report goes to stderr
//! (stdout carries the figures and must stay byte-identical across
//! sequential and parallel runs) and, on request, to a JSON file, whose
//! per-section `sim_events` CI compares with recorded counts.

use std::fmt::Write as _;
use std::time::Instant;

/// Timing for one named section of a benchmark run.
#[derive(Debug, Clone)]
pub(crate) struct Section {
    /// Section name (e.g. "fig10").
    pub(crate) name: String,
    /// Wall-clock milliseconds spent in the section.
    pub(crate) wall_ms: f64,
    /// Simulated events (clock advances) executed during the section.
    pub(crate) sim_events: u64,
}

/// Accumulates per-section timings for one benchmark process.
#[derive(Debug)]
pub struct Recorder {
    /// Run mode label ("quick" / "full").
    pub(crate) mode: String,
    /// Worker threads the parallel harness was allowed.
    pub(crate) threads: usize,
    started: Instant,
    events_at_start: u64,
    sections: Vec<Section>,
}

impl Recorder {
    /// Start recording a run.
    pub fn new(mode: &str, threads: usize) -> Self {
        Self {
            mode: mode.to_string(),
            threads,
            started: Instant::now(),
            events_at_start: disksim::clock::events(),
            sections: Vec::new(),
        }
    }

    /// Run `f`, recording its wall time and simulated-event delta under
    /// `name`, and pass its output through.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let ev0 = disksim::clock::events();
        let t0 = Instant::now();
        let out = f();
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        self.sections.push(Section {
            name: name.to_string(),
            wall_ms,
            sim_events: disksim::clock::events() - ev0,
        });
        out
    }

    /// Total wall-clock milliseconds since the recorder was created.
    pub(crate) fn total_wall_ms(&self) -> f64 {
        self.started.elapsed().as_secs_f64() * 1e3
    }

    /// Total simulated events since the recorder was created.
    pub(crate) fn total_events(&self) -> u64 {
        disksim::clock::events() - self.events_at_start
    }

    /// Human-readable report for stderr.
    pub fn report(&self) -> String {
        let mut s = String::new();
        let total_ms = self.total_wall_ms();
        let events = self.total_events();
        let _ = writeln!(
            s,
            "# timing ({} mode, {} thread{}):",
            self.mode,
            self.threads,
            if self.threads == 1 { "" } else { "s" }
        );
        for sec in &self.sections {
            let _ = writeln!(
                s,
                "#   {:<14} {:>9.1} ms  {:>12} events",
                sec.name, sec.wall_ms, sec.sim_events
            );
        }
        let _ = writeln!(
            s,
            "#   {:<14} {:>9.1} ms  {:>12} events  ({:.2} M events/s)",
            "total",
            total_ms,
            events,
            events as f64 / (total_ms / 1e3) / 1e6
        );
        s
    }

    /// JSON object describing this run (no trailing newline). Hand-rolled:
    /// the workspace builds offline, so no serde — the schema is flat
    /// enough that escaping section names (always ASCII identifiers here)
    /// is not required.
    pub fn to_json(&self) -> String {
        let total_ms = self.total_wall_ms();
        let events = self.total_events();
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"mode\":\"{}\",\"threads\":{},\"wall_ms\":{:.1},\"sim_events\":{},\"events_per_sec\":{:.0},\"sections\":[",
            self.mode,
            self.threads,
            total_ms,
            events,
            events as f64 / (total_ms / 1e3)
        );
        for (i, sec) in self.sections.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"wall_ms\":{:.1},\"sim_events\":{}}}",
                sec.name, sec.wall_ms, sec.sim_events
            );
        }
        s.push_str("]}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_sections_and_passes_output_through() {
        let mut r = Recorder::new("quick", 2);
        let v = r.time("alpha", || {
            let c = disksim::SimClock::new();
            c.advance(10);
            c.advance(10);
            42u32
        });
        assert_eq!(v, 42);
        assert_eq!(r.sections.len(), 1);
        assert_eq!(r.sections[0].name, "alpha");
        assert!(r.sections[0].sim_events >= 2);
        assert!(r.total_wall_ms() >= r.sections[0].wall_ms);
    }

    #[test]
    fn json_is_minimally_wellformed() {
        let mut r = Recorder::new("full", 8);
        r.time("fig1", || ());
        let j = r.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"mode\":\"full\""));
        assert!(j.contains("\"name\":\"fig1\""));
        assert_eq!(
            j.matches('{').count(),
            j.matches('}').count(),
            "balanced braces"
        );
    }
}
