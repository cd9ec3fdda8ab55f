//! `live_churn`: plan writes beside event reads on the streaming pool.
//!
//! 1024 resident Zipf selections run on a 2-worker streaming session.
//! Between fixed event chunks the benchmark registers a new query (a
//! selection with a second, Zipf-drawn conjunct) through
//! `Rumor::execute`, `update_plan` and `subscribe`, and drops the query
//! registered [`LAG`] chunks earlier through `remove_query_named` and
//! `update_plan`. A round ends with every churn query dropped again, so
//! each round starts from the same plan; the session lives on and each
//! round's timestamps continue where the last one ended.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rumor_core::OptimizerConfig;
use rumor_engine::{EventRuntime, Rumor, Session, Subscription};
use rumor_types::{Result, SourceId, Tuple};
use rumor_workloads::Zipf;

use crate::check::{nonempty_share, total_results, wrong_results, Consumer, Digest, OpsTotals};
use crate::measure::{median, peak_rss_mib, Samples};
use crate::rounds::{RoundClock, Rounds};
use crate::trace::Tracer;
use crate::{registry, Args, Metric, Report};

pub const RESIDENT: usize = 1024;
/// Set-ups per run (about 10 ms each); `setup_s` is their median.
const SETUPS: usize = 15;
/// Events per chunk; churn happens between chunks.
pub const CHUNK: usize = 4_000;
/// Chunks per round. Many chunks give many churn queries per round, so
/// one seed's draws do not decide the run's cost.
pub const CHUNKS: usize = 16;
/// A churn query lives for this many chunks.
pub const LAG: usize = 4;
/// Churn queries registered (and dropped) per round.
pub const CHURN: usize = CHUNKS - LAG;
const EVENTS: usize = CHUNK * CHUNKS;
const WORKERS: usize = 2;
const DOMAIN: usize = 64;
const ZIPF_S: f64 = 1.1;
const SRC: SourceId = SourceId(0);

#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// Constant `k` of resident query `r<i>`: `a = k`.
    pub resident: Vec<i64>,
    /// `(k1, k2)` of churn query `j`: `a = k1 AND b = k2`.
    pub churn: Vec<(i64, i64)>,
    /// One round's events, timestamps from 0.
    pub events: Vec<Tuple>,
}

pub fn inputs(seed: u64, chunk: usize) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x11FE_C4A7);
    let zipf = Zipf::new(DOMAIN, ZIPF_S);
    let resident = (0..RESIDENT)
        .map(|_| zipf.sample_constant(&mut rng))
        .collect();
    let churn = (0..CHURN)
        .map(|_| {
            (
                zipf.sample_constant(&mut rng),
                zipf.sample_constant(&mut rng),
            )
        })
        .collect();
    let events = (0..(chunk * CHUNKS) as u64)
        .map(|ts| {
            let a = rng.gen_range(0..DOMAIN as i64);
            let b = rng.gen_range(0..DOMAIN as i64);
            Tuple::ints(ts, &[a, b, rng.gen_range(0..1_000_000)])
        })
        .collect();
    Inputs {
        resident,
        churn,
        events,
    }
}

/// The engine, live session and resident subscriptions one run keeps.
struct Live {
    engine: Rumor,
    session: Session,
    resident: Vec<Subscription>,
}

fn build(config: OptimizerConfig, workers: Option<usize>, inputs: &Inputs) -> Result<Live> {
    let mut engine = Rumor::new(config);
    let mut script = String::from("CREATE STREAM lc (a INT, b INT, c INT);\n");
    for (i, k) in inputs.resident.iter().enumerate() {
        script.push_str(&format!("QUERY r{i} AS SELECT * FROM lc WHERE a = {k};\n"));
    }
    let ids = engine.execute(&script)?;
    assert_eq!(
        engine.source_id("lc"),
        Some(SRC),
        "inputs are generated against this source id"
    );
    engine.optimize()?;
    let builder = engine.session();
    let mut session = match workers {
        Some(n) => builder.workers(n).build()?,
        None => builder.build()?,
    };
    let resident = ids.iter().map(|&q| session.subscribe(q)).collect();
    Ok(Live {
        engine,
        session,
        resident,
    })
}

/// Per-call timings one round collects.
#[derive(Default)]
struct Timings {
    register: Samples,
    mops_added: Vec<f64>,
    push_ns: u64,
    /// Set to read the m-op counters after the last chunk's flush.
    read_ops: bool,
    ops: OpsTotals,
}

/// Runs one round of the churn script: chunks through `push_batch` and
/// `flush` (or one `push` per event for the reference), then churn.
fn churn_round(
    live: &mut Live,
    inputs: &Inputs,
    round: usize,
    per_event: bool,
    tr: &mut Tracer,
    out: &mut Consumer,
    timings: &mut Timings,
) -> Result<()> {
    let base = (round * inputs.events.len()) as u64;
    let chunk_len = inputs.events.len() / CHUNKS;
    let events: Vec<(SourceId, Tuple)> = inputs
        .events
        .iter()
        .map(|t| {
            let mut t = t.clone();
            t.ts += base;
            (SRC, t)
        })
        .collect();
    let mut churn: Vec<Option<Subscription>> = (0..CHURN).map(|_| None).collect();
    for (c, chunk) in events.chunks(chunk_len).enumerate() {
        let cu = c as u64;
        out.chunk_pushed(Instant::now());
        if per_event {
            for (src, t) in chunk {
                live.session.push(*src, t.clone())?;
            }
        } else {
            tr.enter("session.push_batch", cu);
            live.session.push_batch(chunk)?;
            timings.push_ns += tr.exit();
            tr.enter("session.flush", cu);
            live.session.flush()?;
            tr.exit();
        }
        for (q, sub) in live.resident.iter_mut().enumerate() {
            out.drain(q, sub, tr, cu);
        }
        for (j, sub) in churn.iter_mut().enumerate() {
            if let Some(sub) = sub {
                out.drain(RESIDENT + j, sub, tr, cu);
            }
        }
        if timings.read_ops && c == CHUNKS - 1 {
            // A registration that re-integrates an m-op restarts its
            // counters, so they cover only the events since then: the
            // source-fed select m-op's count is that interval's input.
            let snap = live.session.stats()?;
            timings.ops = OpsTotals::from_snapshot(&snap);
            timings.ops.events_in = snap.ops.iter().map(|o| o.events_in).max().unwrap_or(0);
        }
        if c >= LAG {
            let j = c - LAG;
            tr.enter("core.remove_query_named", cu);
            live.engine.remove_query_named(&format!("c{round}_{j}"))?;
            tr.exit();
            tr.enter("shard.update_plan", cu);
            live.session.update_plan(live.engine.plan())?;
            tr.exit();
            churn[j] = None;
        }
        if c < CHURN {
            let (k1, k2) = inputs.churn[c];
            let t0 = Instant::now();
            let before = live.engine.plan().mop_count();
            tr.enter("core.execute", cu);
            let ids = live.engine.execute(&format!(
                "QUERY c{round}_{c} AS SELECT * FROM lc WHERE a = {k1} AND b = {k2};"
            ))?;
            tr.exit();
            tr.enter("shard.update_plan", cu);
            live.session.update_plan(live.engine.plan())?;
            tr.exit();
            tr.enter("session.subscribe", cu);
            churn[c] = Some(live.session.subscribe(ids[0]));
            tr.exit();
            timings.register.add(t0.elapsed().as_nanos() as u64);
            timings
                .mops_added
                .push(live.engine.plan().mop_count() as f64 - before as f64);
        }
    }
    Ok(())
}

/// The reference: the same churn script replayed on an unshared plan in
/// a single-threaded session, one event at a time.
pub fn reference(inputs: &Inputs) -> Result<Vec<Digest>> {
    let mut live = build(OptimizerConfig::unoptimized(), None, inputs)?;
    let mut out = Consumer::new(
        Instant::now(),
        RESIDENT + CHURN,
        0,
        inputs.events.len() / CHUNKS,
    );
    let mut off = Tracer::new(Instant::now());
    churn_round(
        &mut live,
        inputs,
        0,
        true,
        &mut off,
        &mut out,
        &mut Timings::default(),
    )?;
    live.session.finish()?;
    Ok(out.digests)
}

pub fn run(args: &Args, origin: Instant) -> Result<Report> {
    let inputs = inputs(args.seed, CHUNK);
    let expected = reference(&inputs)?;
    let expected_results = total_results(&expected);
    let mut problems = Vec::new();
    let floor = registry::workload("live_churn")
        .expect("registered")
        .nonempty_floor;
    let share = nonempty_share(&expected);
    if share < floor {
        problems.push(format!(
            "only {share:.3} of queries produce a result in the reference (floor {floor})"
        ));
    }

    let mut setup_s = Vec::new();
    let mut live: Option<Live> = None;
    for _ in 0..SETUPS {
        if let Some(mut old) = live.take() {
            old.session.finish()?;
        }
        let t0 = Instant::now();
        live = Some(build(OptimizerConfig::default(), Some(WORKERS), &inputs)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut live = live.expect("at least one set-up");
    let plan_mops = live.engine.plan().mop_count();

    let mut tr = Tracer::new(origin);
    let mut rounds = Rounds::new(args);
    let mut register = Samples::default();
    let mut traced_timings = Timings::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut drains, mut useful, mut results, mut drain_ns) = (0, 0, 0, 0);
    let mut round = 0;
    while let Some(traced) = rounds.next() {
        let mut out = Consumer::new(origin, RESIDENT + CHURN, (round * EVENTS) as u64, CHUNK);
        let mut timings = Timings {
            read_ops: traced,
            ..Timings::default()
        };
        tr.set_enabled(traced);
        let clock = RoundClock::start()?;
        churn_round(
            &mut live,
            &inputs,
            round,
            false,
            &mut tr,
            &mut out,
            &mut timings,
        )?;
        let measured = clock.finish(
            Instant::now(),
            EVENTS as u64,
            std::mem::take(&mut out.latency),
        )?;
        tr.set_enabled(false);
        if traced {
            drains += out.drains;
            useful += out.useful_drains;
            results += out.results;
            drain_ns += out.drain_ns;
            traced_timings.push_ns += timings.push_ns;
            traced_timings.ops.absorb(&timings.ops);
            traced_timings.mops_added.extend(timings.mops_added);
        } else if rounds.measuring() {
            register.absorb(&timings.register);
        }
        // Per chunk: push_batch, flush, and a drain per subscription;
        // per churn query: execute, update_plan, subscribe, remove,
        // update_plan.
        attempted += (2 * CHUNKS + 5 * CHURN) as u64 + out.drains + expected_results;
        let wrong = wrong_results(&expected, &out.digests);
        if wrong > 0 {
            failed += wrong;
            problems.push(format!(
                "round {round}: {wrong} results differ from the unshared replay"
            ));
        }
        rounds.record(traced, measured);
        round += 1;
    }
    let stats = live.session.stats()?;
    live.session.finish()?;

    let mut metrics = rounds.metrics();
    metrics.push(Metric::new("setup_s", median(&setup_s), "s").with_samples(SETUPS as u64));
    metrics.push(Metric::new("peak_rss_mb", peak_rss_mib()?, "MiB"));
    let us = |ns: Option<u64>| ns.map_or(f64::NAN, |v| v as f64 / 1e3);
    let n = register.count();
    metrics
        .push(Metric::new("register_p50_us", us(register.percentile(0.5)), "us").with_samples(n));
    metrics
        .push(Metric::new("register_p90_us", us(register.percentile(0.9)), "us").with_samples(n));
    metrics.push(Metric::new("core.plan_mops", plan_mops as f64, "count"));
    if args.trace {
        let events = rounds.traced_events().max(1) as f64;
        metrics.push(Metric::new(
            "session.push_batch_us_per_event",
            traced_timings.push_ns as f64 / 1e3 / events,
            "us",
        ));
        metrics.extend(Consumer::drain_metrics(drains, useful, results, drain_ns));
        let mut execute = tr.totals("core.execute").durations;
        let mut remove = tr.totals("core.remove_query_named").durations;
        let mut update = tr.totals("shard.update_plan").durations;
        metrics.extend([
            Metric::new("core.execute_us_p50", us(execute.percentile(0.5)), "us")
                .with_samples(execute.count()),
            Metric::new("core.execute_us_p90", us(execute.percentile(0.9)), "us")
                .with_samples(execute.count()),
            Metric::new("core.remove_us_p50", us(remove.percentile(0.5)), "us")
                .with_samples(remove.count()),
            Metric::new(
                "core.mops_added_per_register",
                traced_timings.mops_added.iter().sum::<f64>()
                    / traced_timings.mops_added.len().max(1) as f64,
                "count",
            ),
            Metric::new("shard.update_plan_us_p50", us(update.percentile(0.5)), "us")
                .with_samples(update.count()),
            Metric::new("shard.update_plan_us_p90", us(update.percentile(0.9)), "us")
                .with_samples(update.count()),
            Metric::new(
                "shard.queue_depth_hwm",
                stats
                    .runtime
                    .queue_depth_hwm
                    .iter()
                    .copied()
                    .max()
                    .unwrap_or(0) as f64,
                "count",
            ),
            Metric::new(
                "shard.blocking_sends",
                stats.runtime.blocking_sends as f64,
                "count",
            ),
        ]);
        metrics.extend(traced_timings.ops.metrics());
    }
    problems.dedup();
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
        let a = inputs(5, 50);
        assert_eq!(a, inputs(5, 50));
        assert_ne!(a, inputs(6, 50));
        let d = reference(&a).unwrap();
        assert_eq!(d, reference(&a).unwrap());
        assert!(total_results(&d) > 0, "the reference is not vacuous");
    }

    #[test]
    fn pool_matches_the_unshared_replay() {
        let a = inputs(5, 50);
        let expected = reference(&a).unwrap();
        let mut live = build(OptimizerConfig::default(), Some(WORKERS), &a).unwrap();
        let mut tr = Tracer::new(Instant::now());
        for round in 0..2 {
            let mut out = Consumer::new(
                Instant::now(),
                RESIDENT + CHURN,
                (round * a.events.len()) as u64,
                50,
            );
            churn_round(
                &mut live,
                &a,
                round,
                false,
                &mut tr,
                &mut out,
                &mut Timings::default(),
            )
            .unwrap();
            assert_eq!(wrong_results(&expected, &out.digests), 0, "round {round}");
        }
        live.session.finish().unwrap();
    }
}
