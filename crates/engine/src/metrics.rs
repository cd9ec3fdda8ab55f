//! Throughput measurement following the paper's protocol (§5): warmup
//! iterations first (the paper warms the JVM JIT; we warm caches and
//! allocators), then repeated measured runs whose throughputs are averaged.

use std::time::Instant;

use rumor_core::PlanGraph;
use rumor_types::{Result, SourceId, Timestamp, Tuple};

use crate::exec::{CountingSink, ExecutablePlan};

/// How events are fed through the compiled plan during measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedMode {
    /// One [`ExecutablePlan::push`] call (and full drain) per event.
    PerEvent,
    /// One [`ExecutablePlan::push_batch`] call over the whole input.
    Batched,
}

/// One prepared input event.
#[derive(Debug, Clone)]
pub struct InputEvent {
    /// Which source the tuple arrives on.
    pub source: SourceId,
    /// The tuple (timestamps must be globally non-decreasing).
    pub tuple: Tuple,
}

impl InputEvent {
    /// Convenience constructor.
    pub fn new(source: SourceId, tuple: Tuple) -> Self {
        InputEvent { source, tuple }
    }

    /// The event timestamp.
    pub fn ts(&self) -> Timestamp {
        self.tuple.ts
    }
}

/// Result of a measured run.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Input events per second, averaged across the measured runs (the
    /// paper's throughput metric).
    pub events_per_sec: f64,
    /// Input events per second of the best measured run. On a shared or
    /// cgroup-limited measurement host, load bursts only ever *slow* a
    /// run down, so the best run is the robust estimate of what the
    /// engine can actually sustain.
    pub best_events_per_sec: f64,
    /// Input events per run.
    pub events_in: u64,
    /// Total query results produced per run.
    pub results_out: u64,
    /// Number of measured repetitions.
    pub runs: usize,
}

/// Measurement protocol configuration.
#[derive(Debug, Clone)]
pub struct Protocol {
    /// Warmup passes over the input before measuring.
    pub warmup_runs: usize,
    /// Measured repetitions (averaged).
    pub measured_runs: usize,
}

impl Default for Protocol {
    fn default() -> Self {
        // The paper uses a few warmup iterations and ten measured runs; we
        // default lower so full figure sweeps stay tractable, and the
        // harness raises it per experiment.
        Protocol {
            warmup_runs: 1,
            measured_runs: 3,
        }
    }
}

/// Runs the protocol: each run compiles a fresh executable plan (operator
/// state must not leak across runs) and streams all events through it.
pub fn measure(
    plan: &PlanGraph,
    events: &[InputEvent],
    protocol: &Protocol,
) -> Result<Measurement> {
    measure_mode(plan, events, protocol, FeedMode::PerEvent)
}

/// [`measure`], but feeding each run through one
/// [`ExecutablePlan::push_batch`] call.
pub fn measure_batched(
    plan: &PlanGraph,
    events: &[InputEvent],
    protocol: &Protocol,
) -> Result<Measurement> {
    measure_mode(plan, events, protocol, FeedMode::Batched)
}

/// The shared measurement loop behind [`measure`] and [`measure_batched`].
pub fn measure_mode(
    plan: &PlanGraph,
    events: &[InputEvent],
    protocol: &Protocol,
    mode: FeedMode,
) -> Result<Measurement> {
    // The batched entry point takes `(source, tuple)` pairs; prepare them
    // once, outside the timed region (tuple payloads are refcounted, so
    // this clone does not copy values).
    let batch: Vec<(SourceId, Tuple)> = match mode {
        FeedMode::Batched => events
            .iter()
            .map(|ev| (ev.source, ev.tuple.clone()))
            .collect(),
        FeedMode::PerEvent => Vec::new(),
    };
    // Plan compilation stays outside the timed region, matching the
    // paper's protocol (only event processing is measured).
    let run_once = |sink: &mut CountingSink| -> Result<f64> {
        let mut exec = ExecutablePlan::new(plan)?;
        let start = Instant::now();
        match mode {
            FeedMode::PerEvent => {
                for ev in events {
                    exec.push(ev.source, ev.tuple.clone(), sink)?;
                }
            }
            FeedMode::Batched => exec.push_batch(&batch, sink)?,
        }
        Ok(start.elapsed().as_secs_f64().max(1e-9))
    };
    let mut results_out = 0u64;
    for _ in 0..protocol.warmup_runs {
        let mut sink = CountingSink::default();
        run_once(&mut sink)?;
    }
    let mut total_rate = 0.0;
    let mut best_rate = 0.0f64;
    let runs = protocol.measured_runs.max(1);
    for _ in 0..runs {
        let mut sink = CountingSink::default();
        let elapsed = run_once(&mut sink)?;
        let rate = events.len() as f64 / elapsed;
        total_rate += rate;
        best_rate = best_rate.max(rate);
        results_out = sink.total;
    }
    Ok(Measurement {
        events_per_sec: total_rate / runs as f64,
        best_events_per_sec: best_rate,
        events_in: events.len() as u64,
        results_out,
        runs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rumor_core::LogicalPlan;
    use rumor_expr::Predicate;
    use rumor_types::Schema;

    #[test]
    fn measure_reports_rates_and_counts() {
        let mut plan = PlanGraph::new();
        let s = plan.add_source("S", Schema::ints(1), None).unwrap();
        plan.add_query(&LogicalPlan::source("S").select(Predicate::attr_eq_const(0, 0i64)))
            .unwrap();
        let events: Vec<InputEvent> = (0..100)
            .map(|ts| InputEvent::new(s, Tuple::ints(ts, &[(ts % 2) as i64])))
            .collect();
        let m = measure(&plan, &events, &Protocol::default()).unwrap();
        assert_eq!(m.events_in, 100);
        assert_eq!(m.results_out, 50);
        assert!(m.events_per_sec > 0.0);
        assert_eq!(m.runs, 3);
    }
}
