//! `paper_mix`: the paper's Figure 9 workload on the default embedded
//! session.
//!
//! 1000 Workload 1 queries `σθ1(S) ;θ2∧θ3 T` at the Table 3 defaults
//! plus 16 Workload 2 queries `S ;θ1∧θ2 T` (keyed AI-indexed state),
//! fed the interleaved §5.1 S/T stream through `push_batch` in fixed
//! arrival chunks, with every subscription drained after each chunk.
//! One session serves every round; each round replays the same input
//! with timestamps shifted past the previous round's windows, so the
//! adaptive dispatch gate settles in the warm-up round as it would in a
//! long-lived session. Neither the server
//! nor the optimizer runs in the timed window, so this is the control on
//! which server and optimizer changes should show no change.
//!
//! The reference check covers the dispatch mode the gate settles on.
//! Batched dispatch of the shared sequence m-op is known to lose
//! `σ(S) ; T` results whose S event came in an earlier `push_batch`
//! call, so every run prints `exec.sequence_batch_call_frac`, and a
//! mismatch names it: a run where the gate moved sequences to batches
//! fails on that defect, not on the change under test.

use std::time::Instant;

use rumor_core::{LogicalPlan, OptimizerConfig};
use rumor_engine::{EventRuntime, Rumor, Session, Subscription};
use rumor_types::{QueryId, Result, Schema, SourceId, Tuple};
use rumor_workloads::synth::{st_events, StTag};
use rumor_workloads::{workload1, workload2, Params};

use crate::check::{nonempty_share, total_results, wrong_results, Consumer, Digest, OpsTotals};
use crate::measure::{median, peak_rss_mib};
use crate::rounds::{RoundClock, Rounds};
use crate::trace::Tracer;
use crate::{registry, Args, Metric, Report};

/// Input events per round (§5.1: "at least 100000" tuples).
pub const EVENTS: usize = 100_000;
/// Events per `push_batch` call.
pub const CHUNK: usize = 1_000;
/// Set-ups per run (about 0.1 s each); `setup_s` is their median.
const SETUPS: usize = 7;
/// Workload 2 sequence queries added to Workload 1's 1000.
const W2_QUERIES: usize = 16;
/// Timestamps between one round's input and the next: twice the Table 3
/// window domain, so no result spans two rounds.
const ROUND_GAP: u64 = 2_000;

const S: SourceId = SourceId(0);
const T: SourceId = SourceId(1);

/// Everything a run feeds the engine, generated from the seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    pub queries: Vec<LogicalPlan>,
    pub events: Vec<(SourceId, Tuple)>,
}

pub fn inputs(seed: u64, events: usize) -> Inputs {
    let params = Params {
        seed,
        num_tuples: events,
        ..Params::default()
    };
    let mut queries: Vec<LogicalPlan> = workload1::generate(&params)
        .into_iter()
        .map(|q| q.plan)
        .collect();
    queries.extend(
        workload2::generate_seq(&params.clone().with_queries(W2_QUERIES))
            .into_iter()
            .map(|q| q.plan),
    );
    let events = st_events(&params)
        .into_iter()
        .map(|e| (if e.tag == StTag::S { S } else { T }, e.tuple))
        .collect();
    Inputs { queries, events }
}

fn engine(config: OptimizerConfig, inputs: &Inputs) -> Result<(Rumor, Vec<QueryId>)> {
    let mut engine = Rumor::new(config);
    let s = engine.add_source("S", Schema::ints(10), None)?;
    let t = engine.add_source("T", Schema::ints(10), None)?;
    assert_eq!(
        (s, t),
        (S, T),
        "inputs are generated against these source ids"
    );
    let ids = inputs
        .queries
        .iter()
        .map(|q| engine.register(q))
        .collect::<Result<Vec<_>>>()?;
    Ok((engine, ids))
}

fn subscribe_all(session: &mut Session, ids: &[QueryId]) -> Vec<Subscription> {
    ids.iter().map(|&q| session.subscribe(q)).collect()
}

/// The reference: the same queries on an unshared plan
/// (`OptimizerConfig::unoptimized()`), fed one event at a time.
pub fn reference(inputs: &Inputs) -> Result<Vec<Digest>> {
    let (mut engine, ids) = engine(OptimizerConfig::unoptimized(), inputs)?;
    engine.optimize()?;
    let mut session = engine.session().build()?;
    let mut subs = subscribe_all(&mut session, &ids);
    let mut off = Tracer::new(Instant::now());
    let mut out = Consumer::new(Instant::now(), ids.len(), 0, CHUNK);
    for chunk in inputs.events.chunks(CHUNK) {
        out.chunk_pushed(Instant::now());
        for (src, t) in chunk {
            session.push(*src, t.clone())?;
        }
        for (q, sub) in subs.iter_mut().enumerate() {
            out.drain(q, sub, &mut off, 0);
        }
    }
    session.finish()?;
    for (q, sub) in subs.iter_mut().enumerate() {
        out.drain(q, sub, &mut off, 0);
    }
    Ok(out.digests)
}

pub fn run(args: &Args, origin: Instant) -> Result<Report> {
    let inputs = inputs(args.seed, EVENTS);
    let expected = reference(&inputs)?;
    let expected_results = total_results(&expected);
    let mut problems = Vec::new();
    let floor = registry::workload("paper_mix")
        .expect("registered")
        .nonempty_floor;
    let share = nonempty_share(&expected);
    if share < floor {
        problems.push(format!(
            "only {share:.3} of queries produce a result in the reference (floor {floor})"
        ));
    }

    let mut setup_s = Vec::new();
    let mut optimize_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let (mut engine, ids) = engine(OptimizerConfig::default(), &inputs)?;
        let t_opt = Instant::now();
        engine.optimize()?;
        optimize_s.push(t_opt.elapsed().as_secs_f64());
        let mut session = engine.session().build()?;
        let subs = subscribe_all(&mut session, &ids);
        setup_s.push(t0.elapsed().as_secs_f64());
        built = Some((engine, session, subs));
    }
    let (engine, mut session, mut subs) = built.expect("at least one set-up");

    let mut tr = Tracer::new(origin);
    let mut rounds = Rounds::new(args);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut drains, mut useful, mut results, mut drain_ns) = (0, 0, 0, 0);
    let mut push_ns = 0u64;
    let mut ops = OpsTotals::default();
    let mut round = 0u64;
    while let Some(traced) = rounds.next() {
        let base = round * (EVENTS as u64 + ROUND_GAP);
        let events: Vec<(SourceId, Tuple)> = inputs
            .events
            .iter()
            .map(|(src, t)| {
                let mut t = t.clone();
                t.ts += base;
                (*src, t)
            })
            .collect();
        let mut out = Consumer::new(origin, subs.len(), base, CHUNK);
        let before = traced.then(|| session.stats()).transpose()?;
        tr.set_enabled(traced);
        let clock = RoundClock::start()?;
        for (c, chunk) in events.chunks(CHUNK).enumerate() {
            let c = c as u64;
            out.chunk_pushed(Instant::now());
            tr.enter("session.push_batch", c);
            session.push_batch(chunk)?;
            push_ns += tr.exit();
            for (q, sub) in subs.iter_mut().enumerate() {
                out.drain(q, sub, &mut tr, c);
            }
        }
        let measured = clock.finish(
            Instant::now(),
            EVENTS as u64,
            std::mem::take(&mut out.latency),
        )?;
        tr.set_enabled(false);
        if let Some(before) = before {
            ops.absorb(&OpsTotals::from_snapshot(&session.stats()?.diff(&before)));
            drains += out.drains;
            useful += out.useful_drains;
            results += out.results;
            drain_ns += out.drain_ns;
        }
        attempted += (EVENTS / CHUNK) as u64 + out.drains + expected_results;
        let wrong = wrong_results(&expected, &out.digests);
        if wrong > 0 {
            failed += wrong;
            let ops = OpsTotals::from_snapshot(&session.stats()?);
            problems.push(format!(
                "round {round}: {wrong} results differ from the unshared reference (sequence m-op calls batched so far: {} of {})",
                ops.sequence_batch_calls,
                ops.sequence_batch_calls + ops.sequence_event_calls
            ));
        }
        rounds.record(traced, measured);
        round += 1;
    }
    let sequence_batch = OpsTotals::from_snapshot(&session.stats()?).sequence_batch_frac();
    tr.set_enabled(args.trace);
    tr.enter("session.finish", 0);
    session.finish()?;
    let finish_ns = tr.exit();
    tr.set_enabled(false);

    let mut metrics = rounds.metrics();
    metrics.push(Metric::new("setup_s", median(&setup_s), "s").with_samples(SETUPS as u64));
    metrics.push(Metric::new("peak_rss_mb", peak_rss_mib()?, "MiB"));
    metrics
        .push(Metric::new("core.optimize_s", median(&optimize_s), "s").with_samples(SETUPS as u64));
    metrics.push(Metric::new(
        "core.plan_mops",
        engine.plan().mop_count() as f64,
        "count",
    ));
    if let Some(frac) = sequence_batch {
        metrics.push(Metric::new("exec.sequence_batch_call_frac", frac, "ratio"));
    }
    if args.trace {
        let events = rounds.traced_events().max(1) as f64;
        metrics.push(Metric::new(
            "session.push_batch_us_per_event",
            push_ns as f64 / 1e3 / events,
            "us",
        ));
        metrics.extend(Consumer::drain_metrics(drains, useful, results, drain_ns));
        metrics.push(Metric::new(
            "session.finish_us",
            finish_ns as f64 / 1e3,
            "us",
        ));
        metrics.extend(ops.metrics());
    }
    Ok(Report {
        attempted,
        failed,
        problems,
        metrics,
        tracer: tr,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_digests_other_seed_other_inputs() {
        let a = inputs(11, 2_000);
        assert_eq!(a, inputs(11, 2_000));
        let b = inputs(12, 2_000);
        assert_ne!(a.events, b.events);
        assert_ne!(format!("{:?}", a.queries), format!("{:?}", b.queries));
        let small = |i: &Inputs| Inputs {
            queries: i.queries[..40]
                .iter()
                .chain(&i.queries[1000..])
                .cloned()
                .collect(),
            events: i.events.clone(),
        };
        let d = reference(&small(&a)).unwrap();
        assert_eq!(d, reference(&small(&a)).unwrap());
        assert!(total_results(&d) > 0, "the reference is not vacuous");
    }
}
