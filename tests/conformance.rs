//! Differential cross-engine conformance harness.
//!
//! The load-bearing invariant of the whole optimizer/runtime stack (as in
//! the multi-query-optimization literature: the shared plan must be a
//! drop-in replacement for naive per-query execution) is that **every
//! engine configuration produces identical results**. Since PR 5 every
//! engine is constructed the same way — `Rumor::session()` with a
//! [`SessionConfig`] — and driven the same way — the [`EventRuntime`]
//! trait — so the whole mode matrix is literally a table of configs run
//! through ONE generic driver:
//!
//! * **modes** — the single-threaded session fed per-event and batched,
//!   one-shot sharded sessions (several worker counts), and streaming
//!   sessions (worker counts × batch sizes × feed styles, including the
//!   zero-copy shared batch and chunked feeds with flush barriers);
//! * **workloads** — every partitioning verdict (stateless, keyed,
//!   pinned, pinned-with-stateless-siblings) plus edge inputs (empty,
//!   single event, timestamp ties);
//! * **oracle** — results are canonicalized to a `(timestamp, query,
//!   rendered tuple)`-sorted vector, a total order, so every mode must
//!   match the per-event reference *byte for byte*.
//!
//! **Subscription conformance** rides inside the same matrix run: every
//! mode subscribes to half the queries, and (a) each subscription's
//! contents must be byte-identical to the oracle restricted to its query,
//! (b) the subscribed queries must never leak into `collect_all`, and
//! (c) subscriptions plus catch-all together must reproduce the full
//! reference. The churn suite applies the same discipline across live
//! query add/remove.
//!
//! A generator-driven propcheck runs random query mixes and event streams
//! through the same matrix, and a lifecycle propcheck exercises the
//! streaming session's `push`/`push_batch`/`flush` interleavings (batch
//! sizes 0 and 1, tied timestamps included) against one-shot batching.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;

use rumor::{
    AggFunc, AggSpec, EventRuntime, IterSpec, LogicalPlan, OptimizerConfig, PinScope, Predicate,
    QueryId, Rumor, Schema, SessionConfig, SourceRoute, StreamingConfig, Subscription, Tuple,
    Verdict,
};
use rumor_expr::{CmpOp, Expr, NamedExpr, SchemaMap};
use rumor_types::SourceId;

/// Canonical result form: `(ts, query, rendered tuple)`, fully sorted — a
/// total order, so two modes agree iff their canonical vectors are
/// byte-identical.
fn canonical(results: &[(QueryId, Tuple)]) -> Vec<(u64, u32, String)> {
    let mut v: Vec<(u64, u32, String)> = results
        .iter()
        .map(|(q, t)| (t.ts, q.0, t.to_string()))
        .collect();
    v.sort();
    v
}

/// How a mode feeds its session through the [`EventRuntime`] trait.
#[derive(Debug, Clone, Copy)]
enum Feed {
    /// One `push` call per event.
    PerEvent,
    /// The whole input in one `push_batch` call.
    Batch,
    /// The whole input as one refcounted `push_batch_shared` batch.
    SharedBatch,
    /// Small `push_batch` chunks with a `flush` barrier after each.
    ChunkedFlush(usize),
}

/// One engine mode of the conformance matrix: a session config plus a
/// feed style. This *is* the whole per-mode plumbing now — everything
/// else is the one generic driver below.
#[derive(Debug, Clone)]
struct ModeSpec {
    name: &'static str,
    cfg: SessionConfig,
    feed: Feed,
}

fn one_shot(n: usize) -> SessionConfig {
    SessionConfig {
        workers: Some(n),
        one_shot: true,
        streaming: None,
    }
}

fn streaming(n: usize, batch_size: usize) -> SessionConfig {
    SessionConfig {
        workers: Some(n),
        one_shot: false,
        streaming: Some(StreamingConfig {
            batch_size,
            queue_depth: 2,
        }),
    }
}

/// The full matrix every workload must survive. `per_event` first: it is
/// the reference everything else is compared against.
fn modes() -> Vec<ModeSpec> {
    vec![
        ModeSpec {
            name: "per_event",
            cfg: SessionConfig::default(),
            feed: Feed::PerEvent,
        },
        ModeSpec {
            name: "push_batch",
            cfg: SessionConfig::default(),
            feed: Feed::Batch,
        },
        ModeSpec {
            name: "one_shot/n1",
            cfg: one_shot(1),
            feed: Feed::Batch,
        },
        ModeSpec {
            name: "one_shot/n2",
            cfg: one_shot(2),
            feed: Feed::Batch,
        },
        ModeSpec {
            name: "one_shot/n4",
            cfg: one_shot(4),
            feed: Feed::Batch,
        },
        ModeSpec {
            name: "one_shot/n7",
            cfg: one_shot(7),
            feed: Feed::Batch,
        },
        ModeSpec {
            name: "streaming/n2/b1",
            cfg: streaming(2, 1),
            feed: Feed::Batch,
        },
        ModeSpec {
            name: "streaming/n4/b64",
            cfg: streaming(4, 64),
            feed: Feed::Batch,
        },
        ModeSpec {
            name: "streaming_shared/n3/b16",
            cfg: streaming(3, 16),
            feed: Feed::SharedBatch,
        },
        ModeSpec {
            name: "streaming_chunked/n3",
            cfg: SessionConfig {
                workers: Some(3),
                one_shot: false,
                streaming: None,
            },
            feed: Feed::ChunkedFlush(17),
        },
    ]
}

/// Feeds a prepared input through any [`EventRuntime`] and finishes it.
fn drive<R: EventRuntime>(rt: &mut R, events: &[(SourceId, Tuple)], feed: Feed) {
    match feed {
        Feed::PerEvent => {
            for (src, t) in events {
                rt.push(*src, t.clone()).unwrap();
            }
        }
        Feed::Batch => rt.push_batch(events).unwrap(),
        Feed::SharedBatch => rt.push_batch_shared(Arc::new(events.to_vec())).unwrap(),
        Feed::ChunkedFlush(chunk) => {
            for c in events.chunks(chunk.max(1)) {
                rt.push_batch(c).unwrap();
                rt.flush().unwrap();
            }
        }
    }
    rt.finish().unwrap();
}

/// Everything one mode run observes: per-subscription results, the
/// catch-all leftovers, and the post-finish stats snapshot.
struct ModeOutcome {
    subs: Vec<(QueryId, Vec<Tuple>)>,
    leftovers: Vec<(QueryId, Tuple)>,
    stats: rumor::StatsSnapshot,
}

impl ModeOutcome {
    /// Subscription and catch-all results combined (what a monolithic
    /// sink would have seen).
    fn combined(&self) -> Vec<(QueryId, Tuple)> {
        let mut all = self.leftovers.clone();
        for (q, tuples) in &self.subs {
            all.extend(tuples.iter().map(|t| (*q, t.clone())));
        }
        all
    }
}

/// THE generic driver: builds one session from the config, subscribes to
/// the given queries, feeds the input through the [`EventRuntime`] trait,
/// and reports what each subscriber and the catch-all saw.
fn run_mode(
    engine: &Rumor,
    cfg: &SessionConfig,
    feed: Feed,
    events: &[(SourceId, Tuple)],
    subscribe: &[QueryId],
) -> ModeOutcome {
    let mut session = engine.session().config(cfg.clone()).build().unwrap();
    let mut subs: Vec<Subscription> = subscribe.iter().map(|&q| session.subscribe(q)).collect();
    drive(&mut session, events, feed);
    let stats = session.stats().unwrap();
    ModeOutcome {
        subs: subs.iter_mut().map(|s| (s.query(), s.drain())).collect(),
        leftovers: session.collect_all(),
        stats,
    }
}

/// Per-query result sequences in arrival order — the stricter contract
/// the single-threaded feeds carry on top of the canonical multiset:
/// `push_batch` promises results *identical to per-event order*, not
/// merely the same multiset.
fn per_query_ordered(results: &[(QueryId, Tuple)]) -> Vec<(u32, Vec<String>)> {
    let mut by_query: std::collections::BTreeMap<u32, Vec<String>> = Default::default();
    for (q, t) in results {
        by_query.entry(q.0).or_default().push(t.to_string());
    }
    by_query.into_iter().collect()
}

/// Asserts every mode of the matrix reproduces the per-event reference
/// byte for byte on the given workload — with half the queries observed
/// through subscriptions: each subscription must match the oracle
/// restricted to its query, subscribed queries must not leak into the
/// catch-all, and the union must equal the reference. Additionally pins
/// the `push_batch` per-query order contract. Returns the canonical
/// per-event reference.
fn assert_conformance(
    name: &str,
    engine: &Rumor,
    queries: &[QueryId],
    events: &[(SourceId, Tuple)],
) -> Vec<(u64, u32, String)> {
    let table = modes();
    let reference_run = run_mode(engine, &table[0].cfg, table[0].feed, events, &[]);
    let reference = canonical(&reference_run.leftovers);
    // The oracle per query, for the subscription checks.
    let ref_of = |q: QueryId| -> Vec<(u64, u32, String)> {
        reference
            .iter()
            .filter(|(_, qi, _)| *qi == q.0)
            .cloned()
            .collect()
    };
    // Every other query index gets a subscriber; the rest stays on the
    // catch-all path, so both delivery paths are checked in one run.
    let subscribed: Vec<QueryId> = queries.iter().copied().step_by(2).collect();
    // The snapshot shape (op ids and query rows) must be identical on
    // every engine — same plan, same introspection surface.
    let ref_shape: (Vec<_>, Vec<_>) = (
        reference_run.stats.ops.iter().map(|o| o.mop).collect(),
        reference_run
            .stats
            .queries
            .iter()
            .map(|r| r.query)
            .collect(),
    );
    for mode in &table[1..] {
        let out = run_mode(engine, &mode.cfg, mode.feed, events, &subscribed);
        assert_eq!(
            canonical(&out.combined()),
            reference,
            "workload `{name}` diverged under {} ({} events)",
            mode.name,
            events.len()
        );
        // Stats invariants, every mode: the snapshot accounts for exactly
        // the fed events, per-query delivery counts equal the oracle's
        // result counts, and the shape matches the reference engine.
        assert_eq!(
            out.stats.events_in,
            events.len() as u64,
            "workload `{name}`: stats events_in diverged under {}",
            mode.name
        );
        if rumor::STATS_COMPILED {
            for row in &out.stats.queries {
                let want = reference
                    .iter()
                    .filter(|(_, qi, _)| *qi == row.query.0)
                    .count() as u64;
                assert_eq!(
                    row.emitted, want,
                    "workload `{name}`: emitted count for {} diverged under {}",
                    row.query, mode.name
                );
                // Latency histogram invariants: samples only come from
                // delivered tuples (sampled delivery batches, so at most
                // one per tuple), percentile lower bounds ordered and
                // capped by the observed maximum — on every engine.
                assert!(
                    row.latency.count() <= row.emitted,
                    "workload `{name}`: more latency samples than delivered \
                     tuples for {} under {}",
                    row.query,
                    mode.name
                );
                if row.latency.count() > 0 {
                    let (p50, p90, p99, max) = (
                        row.latency.p50(),
                        row.latency.p90(),
                        row.latency.p99(),
                        row.latency.max(),
                    );
                    assert!(
                        p50 <= p90 && p90 <= p99 && p99 <= max,
                        "workload `{name}`: latency percentiles disordered for {} \
                         under {}: p50={p50} p90={p90} p99={p99} max={max}",
                        row.query,
                        mode.name
                    );
                }
            }
        }
        // Flush-barrier latency records unconditionally (control-plane,
        // rare): after `finish` every engine must have at least one
        // ordered barrier sample, stats-off builds included.
        let flush = &out.stats.runtime.flush;
        assert!(
            flush.count() >= 1,
            "workload `{name}`: no flush-barrier latency sample under {}",
            mode.name
        );
        assert!(
            flush.p50() <= flush.p99() && flush.p99() <= flush.max(),
            "workload `{name}`: flush-barrier percentiles disordered under {}",
            mode.name
        );
        let shape: (Vec<_>, Vec<_>) = (
            out.stats.ops.iter().map(|o| o.mop).collect(),
            out.stats.queries.iter().map(|r| r.query).collect(),
        );
        assert_eq!(
            shape, ref_shape,
            "workload `{name}`: snapshot shape diverged under {}",
            mode.name
        );
        for (q, tuples) in &out.subs {
            let got: Vec<(u64, u32, String)> = {
                let pairs: Vec<(QueryId, Tuple)> = tuples.iter().map(|t| (*q, t.clone())).collect();
                canonical(&pairs)
            };
            assert_eq!(
                got,
                ref_of(*q),
                "workload `{name}`: subscription for {q} diverged from the oracle under {}",
                mode.name
            );
        }
        assert!(
            out.leftovers.iter().all(|(q, _)| !subscribed.contains(q)),
            "workload `{name}`: subscribed queries leaked into collect_all under {}",
            mode.name
        );
    }
    assert_push_batch_order(name, engine, events);
    reference
}

/// The documented `push_batch` order contract, uncanonicalized: per-query
/// result sequences of the batched single-threaded session must equal the
/// per-event session's exactly.
fn assert_push_batch_order(name: &str, engine: &Rumor, events: &[(SourceId, Tuple)]) {
    let cfg = SessionConfig::default();
    let want = run_mode(engine, &cfg, Feed::PerEvent, events, &[]);
    let got = run_mode(engine, &cfg, Feed::Batch, events, &[]);
    assert_eq!(
        per_query_ordered(&got.leftovers),
        per_query_ordered(&want.leftovers),
        "workload `{name}`: push_batch broke per-query result order"
    );
}

// ----------------------------------------------------------------------
// The deterministic workload table.
// ----------------------------------------------------------------------

/// Standard source layout: every workload builder registers the same four
/// 3-int sources so event generators can be shared.
fn sources(engine: &mut Rumor) -> Vec<SourceId> {
    ["S", "T", "U", "A"]
        .iter()
        .map(|n| engine.add_source(n, Schema::ints(3), None).unwrap())
        .collect()
}

fn optimized(queries: &[LogicalPlan]) -> (Rumor, Vec<SourceId>, Vec<QueryId>) {
    optimized_with(OptimizerConfig::default(), queries)
}

fn optimized_with(
    config: OptimizerConfig,
    queries: &[LogicalPlan],
) -> (Rumor, Vec<SourceId>, Vec<QueryId>) {
    let mut engine = Rumor::new(config);
    let srcs = sources(&mut engine);
    let qids: Vec<QueryId> = queries
        .iter()
        .map(|q| engine.register(q).unwrap())
        .collect();
    engine.optimize().unwrap();
    engine.plan().validate().unwrap();
    (engine, srcs, qids)
}

/// The three value columns of the `i`-th generated event. They come from
/// a multiplicative hash of `i`, not from `i` itself: the source is picked
/// by `i % 4`, so a column equal to `i % 4` would be constant per source
/// and leave equi-keyed queries across sources without a single match.
fn columns(i: u64) -> [i64; 3] {
    let h = i.wrapping_mul(2654435761) >> 7;
    [(h % 4) as i64, ((h / 4) % 3) as i64, ((h / 12) % 5) as i64]
}

/// Deterministic interleaved input over all four sources, strictly
/// increasing timestamps.
fn interleaved(srcs: &[SourceId], n: u64) -> Vec<(SourceId, Tuple)> {
    (0..n)
        .map(|ts| {
            let src = srcs[(ts % srcs.len() as u64) as usize];
            (src, Tuple::ints(ts, &columns(ts)))
        })
        .collect()
}

/// Same interleave but every timestamp occurs twice (ties on every pair).
fn tied(srcs: &[SourceId], n: u64) -> Vec<(SourceId, Tuple)> {
    (0..n)
        .map(|i| {
            let src = srcs[(i % srcs.len() as u64) as usize];
            (src, Tuple::ints(i / 2, &columns(i)))
        })
        .collect()
}

fn equi_seq(window: u64) -> LogicalPlan {
    LogicalPlan::source("S")
        .select(Predicate::attr_eq_const(1, 1i64))
        .followed_by(
            LogicalPlan::source("T"),
            rumor::SeqSpec {
                predicate: Predicate::cmp(CmpOp::Eq, Expr::col(0), Expr::rcol(0)),
                window,
            },
        )
}

fn unkeyed_seq(window: u64) -> LogicalPlan {
    LogicalPlan::source("S").followed_by(
        LogicalPlan::source("T"),
        rumor::SeqSpec {
            predicate: Predicate::cmp(CmpOp::Lt, Expr::col(2), Expr::rcol(2)),
            window,
        },
    )
}

fn keyed_iterate(window: u64) -> LogicalPlan {
    LogicalPlan::source("S")
        .select(Predicate::attr_eq_const(1, 0i64))
        .iterate(
            LogicalPlan::source("T"),
            IterSpec {
                filter: Predicate::cmp(CmpOp::Ne, Expr::col(0), Expr::rcol(0)),
                rebind: Predicate::and(vec![
                    Predicate::cmp(CmpOp::Eq, Expr::col(0), Expr::rcol(0)),
                    Predicate::cmp(CmpOp::Gt, Expr::rcol(1), Expr::col(1)),
                ]),
                rebind_map: SchemaMap::new(vec![
                    NamedExpr::new("a0", Expr::col(0)),
                    NamedExpr::new("a1", Expr::rcol(1)),
                    NamedExpr::new("a2", Expr::col(2)),
                ]),
                window,
            },
        )
}

fn aggregate(group_by: Vec<usize>, window: u64) -> LogicalPlan {
    LogicalPlan::source("A").aggregate(AggSpec {
        func: AggFunc::Sum,
        input: Expr::col(2),
        group_by,
        window,
    })
}

/// One named workload: an optimized engine, its query ids, and the
/// prepared input.
type Workload = (&'static str, Rumor, Vec<QueryId>, Vec<(SourceId, Tuple)>);

/// The deterministic workload table: every partitioning verdict, the
/// pinned-split shape, a mixed plan, and edge inputs.
fn workload_table() -> Vec<Workload> {
    let mut table = Vec::new();

    let (engine, srcs, qids) = optimized(&[
        LogicalPlan::source("U").select(Predicate::attr_eq_const(0, 1i64)),
        LogicalPlan::source("U").select(Predicate::attr_eq_const(0, 2i64)),
        LogicalPlan::source("U").select(Predicate::attr_eq_const(1, 0i64)),
    ]);
    let events = interleaved(&srcs, 160);
    table.push(("shared_selects", engine, qids, events));

    let (engine, srcs, qids) = optimized(&[
        LogicalPlan::source("U")
            .select(Predicate::attr_eq_const(0, 1i64))
            .project(SchemaMap::new(vec![NamedExpr::new(
                "x",
                Expr::col(1).mul(Expr::lit(3i64)),
            )])),
        LogicalPlan::source("U")
            .select(Predicate::attr_eq_const(0, 1i64))
            .select(Predicate::attr_eq_const(1, 1i64)),
    ]);
    let events = interleaved(&srcs, 160);
    table.push(("select_project_chain", engine, qids, events));

    let (engine, srcs, qids) = optimized(&[equi_seq(12), equi_seq(25)]);
    let events = interleaved(&srcs, 200);
    table.push(("keyed_sequences", engine, qids, events));

    let (engine, srcs, qids) = optimized(&[keyed_iterate(18)]);
    let events = interleaved(&srcs, 160);
    table.push(("keyed_iterate", engine, qids, events));

    let (engine, srcs, qids) = optimized(&[aggregate(vec![0], 9), aggregate(vec![0, 1], 14)]);
    let events = interleaved(&srcs, 160);
    table.push(("grouped_aggregates", engine, qids, events));

    let (engine, srcs, qids) = optimized(&[aggregate(Vec::new(), 11)]);
    let events = interleaved(&srcs, 120);
    table.push(("ungrouped_aggregate_pinned", engine, qids, events));

    let (engine, srcs, qids) = optimized(&[unkeyed_seq(10)]);
    let events = interleaved(&srcs, 160);
    table.push(("unkeyed_sequence_pinned", engine, qids, events));

    // The pinned-split shape: a pinned stateful subgraph plus stateless
    // sibling queries (and a direct source tap) on the same source.
    let (engine, srcs, qids) = optimized(&[
        unkeyed_seq(10),
        LogicalPlan::source("S").select(Predicate::attr_eq_const(0, 1i64)),
        LogicalPlan::source("S"),
    ]);
    let events = interleaved(&srcs, 160);
    table.push(("pinned_split_mixed", engine, qids, events));

    // The keyed-split shape: a keyed stateful cone plus stateless sibling
    // queries (and a direct source tap) on the same source — S hashes its
    // stateful leg while the stateless subgraph round-robins
    // (`SourceRoute::KeySplit`).
    let (engine, srcs, qids) = optimized(&[
        equi_seq(14),
        LogicalPlan::source("S").select(Predicate::attr_eq_const(0, 1i64)),
        LogicalPlan::source("S"),
    ]);
    let events = interleaved(&srcs, 200);
    table.push(("keyed_split_mixed", engine, qids, events));

    // All verdicts in one plan.
    let (engine, srcs, qids) = optimized(&[
        LogicalPlan::source("U").select(Predicate::attr_eq_const(0, 1i64)),
        equi_seq(15),
        unkeyed_seq(8),
        aggregate(vec![0], 10),
    ]);
    let events = interleaved(&srcs, 240);
    table.push(("all_verdicts_mixed", engine, qids, events));

    // Equal timestamps on events of different sources: every mode must
    // keep the per-event tie order (routing, batching, worker merges).
    let (engine, srcs, qids) = optimized(&[equi_seq(12), aggregate(vec![0], 7)]);
    let events = tied(&srcs, 200);
    table.push(("timestamp_ties", engine, qids, events));

    let (engine, _, qids) = optimized(&[equi_seq(10), LogicalPlan::source("U")]);
    table.push(("empty_input", engine, qids, Vec::new()));

    let (engine, srcs, qids) = optimized(&[LogicalPlan::source("U"), equi_seq(10)]);
    let events = vec![(srcs[2], Tuple::ints(0, &[1, 1, 1]))];
    table.push(("single_event", engine, qids, events));

    table
}

#[test]
fn conformance_matrix_all_workloads_all_modes() {
    for (name, engine, qids, events) in workload_table() {
        let reference = assert_conformance(name, &engine, &qids, &events);
        if matches!(name, "empty_input" | "single_event") {
            continue;
        }
        // A query with no reference results agrees with any engine that
        // also produces none, so its case could never fail.
        for q in &qids {
            assert!(
                reference.iter().any(|(_, qi, _)| *qi == q.0),
                "workload `{name}`: {q} produced no results in the per-event reference"
            );
        }
    }
}

/// Both optimizer modes through every engine mode: the cost-based sharing
/// search must produce byte-identical per-query results to the greedy
/// plan on every workload family — while never ending with more m-ops.
/// The `overlapping_aggs` family is the shape where the plans genuinely
/// differ (greedy locks the large aggregate family out of its channel
/// merge), so the equivalence there is the non-trivial acceptance bar.
#[test]
fn cost_based_search_conforms_across_modes() {
    let overlap_agg = |input_col: usize, pred: i64| {
        LogicalPlan::source("U")
            .select(Predicate::attr_eq_const(0, pred))
            .aggregate(AggSpec {
                func: AggFunc::Sum,
                input: Expr::col(input_col),
                group_by: vec![],
                window: 8,
            })
    };
    let families: Vec<(&str, Vec<LogicalPlan>, u64)> = vec![
        (
            "shared_selects",
            vec![
                LogicalPlan::source("U").select(Predicate::attr_eq_const(0, 1i64)),
                LogicalPlan::source("U").select(Predicate::attr_eq_const(0, 2i64)),
                LogicalPlan::source("U").select(Predicate::attr_eq_const(1, 0i64)),
            ],
            160,
        ),
        (
            "overlapping_aggs",
            (0..2i64)
                .map(|c| overlap_agg(1, c))
                .chain((0..3i64).map(|c| overlap_agg(2, c)))
                .collect(),
            160,
        ),
        (
            "mixed_stateful",
            vec![
                LogicalPlan::source("U").select(Predicate::attr_eq_const(0, 1i64)),
                equi_seq(15),
                aggregate(vec![0], 10),
            ],
            200,
        ),
        ("tied_ts", vec![equi_seq(12), aggregate(vec![0], 7)], 200),
    ];
    for (name, queries, n) in families {
        let (greedy, srcs, _) = optimized(&queries);
        let (cost, _, qids) = optimized_with(OptimizerConfig::cost_based(), &queries);
        assert!(
            cost.plan().mop_count() <= greedy.plan().mop_count(),
            "{name}: cost-based {} m-ops vs greedy {}",
            cost.plan().mop_count(),
            greedy.plan().mop_count()
        );
        let events = if name == "tied_ts" {
            tied(&srcs, n)
        } else {
            interleaved(&srcs, n)
        };
        // Greedy per-event reference vs cost-based per-event run: the two
        // optimizer modes must agree byte for byte...
        let cfg = SessionConfig::default();
        let greedy_ref =
            canonical(&run_mode(&greedy, &cfg, Feed::PerEvent, &events, &[]).leftovers);
        let cost_ref = canonical(&run_mode(&cost, &cfg, Feed::PerEvent, &events, &[]).leftovers);
        assert_eq!(
            cost_ref, greedy_ref,
            "{name}: optimizer modes disagree on per-event results"
        );
        // ...and the cost-based plan must conform across the whole engine
        // matrix, subscriptions included.
        assert_conformance(name, &cost, &qids, &events);
    }
    // The strict-improvement case: at the overlapping-family shape the
    // search must beat greedy outright, not merely tie.
    let queries: Vec<LogicalPlan> = (0..2i64)
        .map(|c| overlap_agg(1, c))
        .chain((0..3i64).map(|c| overlap_agg(2, c)))
        .collect();
    let (greedy, _, _) = optimized(&queries);
    let (cost, _, _) = optimized_with(OptimizerConfig::cost_based(), &queries);
    assert!(
        cost.plan().mop_count() < greedy.plan().mop_count(),
        "cost-based must strictly beat greedy here: {} vs {}",
        cost.plan().mop_count(),
        greedy.plan().mop_count()
    );
}

/// The split verdict itself is part of the contract: the mixed pinned
/// workload must report a stateful-subgraph pin and still produce
/// identical results at every worker count — observed through the
/// session's scheme accessor.
#[test]
fn pinned_split_reports_subgraph_verdict_and_conforms() {
    let (engine, srcs, _) = optimized(&[
        unkeyed_seq(10),
        LogicalPlan::source("S").select(Predicate::attr_eq_const(0, 1i64)),
    ]);
    let events = interleaved(&srcs, 200);
    let reference = canonical(
        &run_mode(
            &engine,
            &SessionConfig::default(),
            Feed::PerEvent,
            &events,
            &[],
        )
        .leftovers,
    );
    for n in [1usize, 2, 4, 7] {
        for cfg in [one_shot(n), streaming(n, 13)] {
            let mut session = engine.session().config(cfg.clone()).build().unwrap();
            {
                let scheme = session.scheme().expect("parallel sessions expose a scheme");
                let pinned: Vec<_> = scheme
                    .components()
                    .iter()
                    .filter(|c| c.verdict == Verdict::Pinned)
                    .collect();
                assert_eq!(pinned.len(), 1);
                assert_eq!(pinned[0].pin_scope, Some(PinScope::StatefulSubgraph));
                assert_eq!(*scheme.route(srcs[0]), SourceRoute::PinnedSplit);
                assert_eq!(*scheme.route(srcs[1]), SourceRoute::Pinned);
            }
            drive(&mut session, &events, Feed::Batch);
            assert_eq!(session.events_in(), events.len() as u64);
            assert_eq!(
                canonical(&session.collect_all()),
                reference,
                "{cfg:?} n={n}"
            );
        }
    }
}

/// The keyed counterpart of the pinned-split contract: a keyed stateful
/// cone with a stateless sibling on the same source must report
/// [`SourceRoute::KeySplit`] (stateful leg hashed, stateless leg
/// round-robin) and stay byte-identical to the per-event oracle at every
/// worker count, on the one-shot, streaming, and zero-copy shared-batch
/// paths alike.
#[test]
fn keyed_split_reports_cone_route_and_conforms() {
    // The sequence consumes S *directly* (no shared prefilter select —
    // the optimizer would fuse it with the sibling select into one m-op
    // inside the stateful cone, hiding the free part).
    let keyed_bare = LogicalPlan::source("S").followed_by(
        LogicalPlan::source("T"),
        rumor::SeqSpec {
            predicate: Predicate::cmp(CmpOp::Eq, Expr::col(0), Expr::rcol(0)),
            window: 14,
        },
    );
    let (engine, srcs, _) = optimized(&[
        keyed_bare,
        LogicalPlan::source("S").select(Predicate::attr_eq_const(0, 1i64)),
    ]);
    let events = interleaved(&srcs, 200);
    let reference = canonical(
        &run_mode(
            &engine,
            &SessionConfig::default(),
            Feed::PerEvent,
            &events,
            &[],
        )
        .leftovers,
    );
    for n in [1usize, 2, 4, 7] {
        for (cfg, feed) in [
            (one_shot(n), Feed::Batch),
            (streaming(n, 13), Feed::Batch),
            (streaming(n, 16), Feed::SharedBatch),
        ] {
            let mut session = engine.session().config(cfg.clone()).build().unwrap();
            {
                let scheme = session.scheme().expect("parallel sessions expose a scheme");
                let keyed: Vec<_> = scheme
                    .components()
                    .iter()
                    .filter(|c| c.verdict == Verdict::Keyed)
                    .collect();
                assert_eq!(keyed.len(), 1);
                assert_eq!(*scheme.route(srcs[0]), SourceRoute::KeySplit(vec![0]));
                assert_eq!(*scheme.route(srcs[1]), SourceRoute::Key(vec![0]));
            }
            drive(&mut session, &events, feed);
            assert_eq!(session.events_in(), events.len() as u64);
            assert_eq!(
                canonical(&session.collect_all()),
                reference,
                "{cfg:?} n={n} {feed:?}"
            );
        }
    }
}

/// The mixed plan's scheme exposes the verdict spectrum at once and the
/// routes follow it.
#[test]
fn mixed_plan_scheme_has_all_three_verdicts() {
    let (engine, srcs, _) = optimized(&[
        LogicalPlan::source("U").select(Predicate::attr_eq_const(0, 1i64)),
        equi_seq(10),
        aggregate(Vec::new(), 10),
    ]);
    let session = engine.session().workers(4).one_shot().build().unwrap();
    let scheme = session.scheme().unwrap();
    assert_eq!(scheme.count(Verdict::Stateless), 1);
    assert_eq!(scheme.count(Verdict::Keyed), 1);
    assert_eq!(scheme.count(Verdict::Pinned), 1);
    assert_eq!(*scheme.route(srcs[2]), SourceRoute::RoundRobin); // U
    assert_eq!(*scheme.route(srcs[0]), SourceRoute::Key(vec![0])); // S
    assert_eq!(*scheme.route(srcs[1]), SourceRoute::Key(vec![0])); // T
    assert_eq!(*scheme.route(srcs[3]), SourceRoute::Pinned); // A: ungrouped agg
    for c in scheme.components() {
        match c.verdict {
            Verdict::Pinned => assert_eq!(c.pin_scope, Some(PinScope::WholeComponent)),
            _ => assert_eq!(c.pin_scope, None),
        }
    }
    assert!(scheme.is_parallelizable());
}

// ----------------------------------------------------------------------
// Generator-driven oracle: random query mixes and event streams through
// the same matrix.
// ----------------------------------------------------------------------

fn any_query() -> impl Strategy<Value = LogicalPlan> {
    let sel = (0usize..3, 0i64..4)
        .prop_map(|(a, c)| LogicalPlan::source("U").select(Predicate::attr_eq_const(a, c)));
    let proj = (0i64..4, 1i64..4).prop_map(|(c, k)| {
        LogicalPlan::source("U")
            .select(Predicate::attr_eq_const(0, c))
            .project(SchemaMap::new(vec![NamedExpr::new(
                "x",
                Expr::col(1).mul(Expr::lit(k)),
            )]))
    });
    let seq = (1u64..25).prop_map(equi_seq);
    let mu = (1u64..20).prop_map(keyed_iterate);
    let pinned = (1u64..15).prop_map(unkeyed_seq);
    let agg = (
        prop_oneof![Just(vec![0usize]), Just(vec![0usize, 1]), Just(Vec::new())],
        1u64..20,
    )
        .prop_map(|(g, w)| aggregate(g, w));
    prop_oneof![sel, proj, seq, mu, pinned, agg]
}

/// Raw events: source selector, advance-timestamp flag (false ⇒ tie), and
/// attribute values.
fn events_strategy() -> impl Strategy<Value = Vec<(usize, bool, Vec<i64>)>> {
    prop::collection::vec(
        (0usize..4, any::<bool>(), prop::collection::vec(0i64..4, 3)),
        0..120,
    )
}

fn to_events(raw: &[(usize, bool, Vec<i64>)], srcs: &[SourceId]) -> Vec<(SourceId, Tuple)> {
    let mut ts = 0u64;
    raw.iter()
        .map(|(which, advance, vals)| {
            if *advance {
                ts += 1;
            }
            (srcs[*which % srcs.len()], Tuple::ints(ts, vals))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random workloads through the full mode matrix: every mode must be
    /// byte-identical to the per-event reference (subscriptions included —
    /// the shared assert covers them).
    #[test]
    fn random_workloads_conform_across_all_modes(
        queries in prop::collection::vec(any_query(), 1..7),
        raw in events_strategy(),
    ) {
        let (engine, srcs, qids) = optimized(&queries);
        let events = to_events(&raw, &srcs);
        assert_conformance("random", &engine, &qids, &events);
    }

    /// Keyed stateful workloads (sequence, iterate, grouped aggregate)
    /// under random inputs heavy with timestamp ties and interleaved keys.
    /// Pins (a) the single-threaded contract — `push_batch` per-query
    /// result order identical to per-event, which a stateful plan meets by
    /// feeding every event per-event — and (b) the keyed zero-copy
    /// shared-batch delivery against the same reference.
    #[test]
    fn keyed_sub_batching_matches_per_event_under_ties(
        raw in events_strategy(),
        window in 1u64..25,
    ) {
        let (engine, srcs, _) = optimized(&[
            equi_seq(window),
            keyed_iterate(window),
            aggregate(vec![0], window),
        ]);
        let events = to_events(&raw, &srcs);
        assert_push_batch_order("keyed_ties", &engine, &events);
        let want = canonical(
            &run_mode(&engine, &SessionConfig::default(), Feed::PerEvent, &events, &[]).leftovers,
        );
        let got = canonical(
            &run_mode(&engine, &streaming(3, 8), Feed::SharedBatch, &events, &[]).leftovers,
        );
        prop_assert_eq!(got, want, "keyed shared-batch diverged under ties");
    }
}

// ----------------------------------------------------------------------
// Dynamic query lifecycle: churn scripts (add → push → add → push →
// remove → push) against a fresh-compile oracle, across engine modes.
//
// The oracle leans on the load-bearing invariant the rest of this file
// pins (the shared plan is a drop-in replacement for naive per-query
// execution): a query's results are independent of which other queries
// share the plan. So the reference for each query that ever lived is a
// *fresh* engine compiled with that query alone, replaying exactly the
// events pushed during the query's lifetime — byte-identical or bust.
// Queries whose operators the deltas never touch must match over their
// whole life (stateful operators keep matching across unrelated churn);
// added queries must see exactly their post-birth events; removed ones
// must stop at their death.
//
// Every life with an even index is observed through a Subscription taken
// at its birth (live add included) — the subscription-under-churn
// conformance case: subscribed lifetimes must match the oracle exactly,
// and never leak into collect_all.
// ----------------------------------------------------------------------

/// One step of a churn script.
#[derive(Debug, Clone)]
enum ChurnStep {
    /// Integrate a new query into the live plan (hot-swap follows).
    Add(LogicalPlan),
    /// Remove the `i`-th query (in overall registration order).
    Remove(usize),
    /// Push the next `k` events from the prepared log.
    Push(usize),
}

/// Engine modes the churn scripts run under: session configs plus the
/// feed style, like everywhere else in this harness.
fn churn_modes() -> Vec<ModeSpec> {
    vec![
        ModeSpec {
            name: "per_event",
            cfg: SessionConfig::default(),
            feed: Feed::PerEvent,
        },
        ModeSpec {
            name: "push_batch",
            cfg: SessionConfig::default(),
            feed: Feed::Batch,
        },
        ModeSpec {
            name: "one_shot/n2",
            cfg: one_shot(2),
            feed: Feed::Batch,
        },
        ModeSpec {
            name: "one_shot/n4",
            cfg: one_shot(4),
            feed: Feed::Batch,
        },
        ModeSpec {
            name: "streaming/n3/b5",
            cfg: streaming(3, 5),
            feed: Feed::Batch,
        },
        ModeSpec {
            name: "streaming/n2/b64",
            cfg: streaming(2, 64),
            feed: Feed::Batch,
        },
    ]
}

/// One query's life under a churn run: its logical plan, id, and the
/// event-log window during which it was registered.
#[derive(Debug, Clone)]
struct QueryLife {
    plan: LogicalPlan,
    qid: QueryId,
    birth: usize,
    death: Option<usize>,
}

struct ChurnOutcome {
    lives: Vec<QueryLife>,
    results: Vec<(QueryId, Tuple)>,
    fed: usize,
}

/// Drains every subscription and the catch-all into the accumulated
/// result log, checking the routing invariant on the way: a subscribed
/// query's results must never appear in `collect_all`.
fn gather(
    session: &mut rumor::Session,
    subs: &mut HashMap<QueryId, Subscription>,
    collected: &mut Vec<(QueryId, Tuple)>,
) {
    for (q, sub) in subs.iter_mut() {
        collected.extend(sub.drain().into_iter().map(|t| (*q, t)));
    }
    let rest = session.collect_all();
    assert!(
        rest.iter().all(|(q, _)| !subs.contains_key(q)),
        "subscribed queries leaked into collect_all"
    );
    collected.extend(rest);
}

/// Runs a churn script under one engine mode through the session API.
/// When `stepwise` is true (the per-event mode), every step is followed
/// by a flush + full oracle check of every query's results so far.
fn run_churn(
    name: &str,
    mode: &ModeSpec,
    initial: &[LogicalPlan],
    steps: &[ChurnStep],
    events: &[(SourceId, Tuple)],
    stepwise: bool,
) -> ChurnOutcome {
    let mut engine = Rumor::new(OptimizerConfig::default());
    sources(&mut engine);
    let mut lives: Vec<QueryLife> = Vec::new();
    for q in initial {
        let qid = engine.register(q).unwrap();
        lives.push(QueryLife {
            plan: q.clone(),
            qid,
            birth: 0,
            death: None,
        });
    }
    engine.optimize().unwrap();
    engine.plan().validate().unwrap();

    let mut session = engine.session().config(mode.cfg.clone()).build().unwrap();
    // Even-index lives get a subscriber from birth.
    let mut subs: HashMap<QueryId, Subscription> = HashMap::new();
    for (i, life) in lives.iter().enumerate() {
        if i % 2 == 0 {
            subs.insert(life.qid, session.subscribe(life.qid));
        }
    }
    let mut collected: Vec<(QueryId, Tuple)> = Vec::new();
    let mut fed = 0usize;
    for step in steps {
        match step {
            ChurnStep::Push(k) => {
                let hi = (fed + k).min(events.len());
                match mode.feed {
                    Feed::PerEvent => {
                        for (src, t) in &events[fed..hi] {
                            session.push(*src, t.clone()).unwrap();
                        }
                    }
                    _ => session.push_batch(&events[fed..hi]).unwrap(),
                }
                fed = hi;
            }
            ChurnStep::Add(q) => {
                let integration = engine.add_query(q).unwrap();
                engine.plan().validate().unwrap();
                session.update_plan(engine.plan()).unwrap();
                if lives.len().is_multiple_of(2) {
                    subs.insert(integration.query, session.subscribe(integration.query));
                }
                lives.push(QueryLife {
                    plan: q.clone(),
                    qid: integration.query,
                    birth: fed,
                    death: None,
                });
            }
            ChurnStep::Remove(i) => {
                let qid = lives[*i].qid;
                engine.remove_query(qid).unwrap();
                engine.plan().validate().unwrap();
                session.update_plan(engine.plan()).unwrap();
                lives[*i].death = Some(fed);
            }
        }
        if stepwise {
            session.flush().unwrap();
            gather(&mut session, &mut subs, &mut collected);
            assert_churn_oracle(
                name,
                &format!("{} (step-wise)", mode.name),
                &lives,
                &collected,
                fed,
                events,
            );
        }
    }
    session.finish().unwrap();
    gather(&mut session, &mut subs, &mut collected);
    ChurnOutcome {
        lives,
        results: collected,
        fed,
    }
}

/// Byte-identical check of every query's lifetime results against its
/// fresh-compile oracle (itself a single-threaded session over a fresh
/// engine holding that query alone).
fn assert_churn_oracle(
    name: &str,
    mode: &str,
    lives: &[QueryLife],
    results: &[(QueryId, Tuple)],
    fed: usize,
    events: &[(SourceId, Tuple)],
) {
    for life in lives {
        let mut fresh = Rumor::new(OptimizerConfig::default());
        sources(&mut fresh);
        let oracle_q = fresh.register(&life.plan).unwrap();
        fresh.optimize().unwrap();
        let mut oracle = fresh.session().build().unwrap();
        let hi = life.death.unwrap_or(fed).min(fed);
        for (src, t) in &events[life.birth.min(hi)..hi] {
            oracle.push(*src, t.clone()).unwrap();
        }
        oracle.finish().unwrap();
        let mut want: Vec<(u64, String)> = oracle
            .collect_all()
            .iter()
            .filter(|(q, _)| *q == oracle_q)
            .map(|(_, t)| (t.ts, t.to_string()))
            .collect();
        want.sort();
        let mut got: Vec<(u64, String)> = results
            .iter()
            .filter(|(q, _)| *q == life.qid)
            .map(|(_, t)| (t.ts, t.to_string()))
            .collect();
        got.sort();
        assert_eq!(
            got, want,
            "churn `{name}`: query {} (born {}, died {:?}) diverged from its \
             fresh-compile oracle under {mode}",
            life.qid, life.birth, life.death
        );
    }
}

/// The deterministic churn scripts: each is (initial queries, steps).
/// Scripts only use lifecycle transitions the hot-swap protocol supports
/// (no re-routing of live stateful state — `update_plan` refuses those).
fn churn_scripts() -> Vec<(&'static str, Vec<LogicalPlan>, Vec<ChurnStep>)> {
    use ChurnStep::*;
    vec![
        (
            // Stateless churn around live stateful state: the keyed
            // sequence and the grouped aggregate must keep matching
            // across every add/remove.
            "stateless_churn_over_stateful",
            vec![equi_seq(30), aggregate(vec![0], 12)],
            vec![
                Push(40),
                Add(LogicalPlan::source("U").select(Predicate::attr_eq_const(0, 1i64))),
                Push(40),
                Add(LogicalPlan::source("S").select(Predicate::attr_eq_const(1, 2i64))),
                Push(40),
                Remove(2),
                Push(40),
                Remove(3),
                Add(LogicalPlan::source("U").select(Predicate::attr_eq_const(2, 3i64))),
                Push(40),
            ],
        ),
        (
            // A stateful query arriving on (and later leaving) a
            // previously stateless component: stateless → keyed → back.
            "stateful_add_then_remove",
            vec![LogicalPlan::source("S").select(Predicate::attr_eq_const(0, 2i64))],
            vec![
                Push(40),
                Add(equi_seq(15)),
                Push(60),
                Add(LogicalPlan::source("T").select(Predicate::attr_eq_const(1, 1i64))),
                Push(40),
                Remove(1),
                Push(40),
            ],
        ),
        (
            // Churn around a *pinned* component: the unkeyed sequence
            // stays on worker 0 while stateless siblings come and go
            // (Pinned ↔ PinnedSplit flips).
            "churn_around_pinned",
            vec![unkeyed_seq(12)],
            vec![
                Push(40),
                Add(LogicalPlan::source("S").select(Predicate::attr_eq_const(0, 1i64))),
                Push(40),
                Add(LogicalPlan::source("S")),
                Push(30),
                Remove(1),
                Push(30),
                Remove(2),
                Push(30),
            ],
        ),
        (
            // Duplicate-query churn: the added select is CSE-identical to
            // a resident one (their output streams alias), then leaves.
            "cse_alias_churn",
            vec![LogicalPlan::source("U").select(Predicate::attr_eq_const(0, 1i64))],
            vec![
                Push(30),
                Add(LogicalPlan::source("U").select(Predicate::attr_eq_const(0, 1i64))),
                Push(40),
                Remove(1),
                Push(40),
            ],
        ),
        (
            // Stateful arrival + churn on an independent component while
            // an iterate holds state.
            "iterate_resident_churn",
            vec![keyed_iterate(20)],
            vec![
                Push(50),
                Add(LogicalPlan::source("A").select(Predicate::attr_eq_const(2, 0i64))),
                Push(50),
                Add(aggregate(vec![0, 1], 9)),
                Push(40),
                Remove(1),
                Push(40),
            ],
        ),
    ]
}

#[test]
fn churn_scripts_conform_to_fresh_compile_oracle_across_modes() {
    for (name, initial, steps) in churn_scripts() {
        let mut probe = Rumor::new(OptimizerConfig::default());
        let srcs = sources(&mut probe);
        let events = interleaved(&srcs, 260);
        for mode in churn_modes() {
            let stepwise = matches!(mode.feed, Feed::PerEvent) && mode.cfg.workers.is_none();
            let outcome = run_churn(name, &mode, &initial, &steps, &events, stepwise);
            assert_churn_oracle(
                name,
                mode.name,
                &outcome.lives,
                &outcome.results,
                outcome.fed,
                &events,
            );
        }
    }
}

/// Churn steps as generated data: pushes interleaved with adds/removes of
/// stateless queries while a keyed sequence holds state throughout.
#[derive(Debug, Clone)]
enum RandomChurnStep {
    Push(usize),
    AddSelect(usize, i64),
    RemoveOldest,
}

fn random_churn_strategy() -> impl Strategy<Value = Vec<RandomChurnStep>> {
    prop::collection::vec(
        prop_oneof![
            (0usize..25).prop_map(RandomChurnStep::Push),
            (0usize..3, 0i64..4).prop_map(|(a, c)| RandomChurnStep::AddSelect(a, c)),
            Just(RandomChurnStep::RemoveOldest),
        ],
        1..20,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random interleavings of pushes with query add/remove: the
    /// streaming session (hot-swapped, never restarted) must match the
    /// single-threaded per-event session run through the same lifecycle,
    /// and both must match the fresh-compile oracle per query.
    #[test]
    fn random_churn_interleavings_conform(
        raw_steps in random_churn_strategy(),
        raw in events_strategy(),
        batch_size in 1usize..8,
        n in 1usize..4,
    ) {
        let mut probe = Rumor::new(OptimizerConfig::default());
        let srcs = sources(&mut probe);
        let events = to_events(&raw, &srcs);
        let initial = vec![equi_seq(14), LogicalPlan::source("A").select(Predicate::attr_eq_const(1, 1i64))];
        // Materialize the generated steps into a concrete script,
        // resolving RemoveOldest against the add history.
        let mut steps: Vec<ChurnStep> = Vec::new();
        let mut added: Vec<usize> = Vec::new(); // indices into `lives` order
        let mut next_index = initial.len();
        for s in &raw_steps {
            match s {
                RandomChurnStep::Push(k) => steps.push(ChurnStep::Push(*k)),
                RandomChurnStep::AddSelect(a, c) => {
                    steps.push(ChurnStep::Add(
                        LogicalPlan::source("U").select(Predicate::attr_eq_const(*a, *c)),
                    ));
                    added.push(next_index);
                    next_index += 1;
                }
                RandomChurnStep::RemoveOldest => {
                    if !added.is_empty() {
                        steps.push(ChurnStep::Remove(added.remove(0)));
                    }
                }
            }
        }
        steps.push(ChurnStep::Push(events.len()));

        let per_event = ModeSpec {
            name: "per_event",
            cfg: SessionConfig::default(),
            feed: Feed::PerEvent,
        };
        let reference = run_churn("random", &per_event, &initial, &steps, &events, false);
        assert_churn_oracle(
            "random",
            "per_event",
            &reference.lives,
            &reference.results,
            reference.fed,
            &events,
        );
        let candidate_mode = ModeSpec {
            name: "streaming",
            cfg: streaming(n, batch_size),
            feed: Feed::Batch,
        };
        let candidate = run_churn("random", &candidate_mode, &initial, &steps, &events, false);
        prop_assert_eq!(
            canonical(&candidate.results),
            canonical(&reference.results),
            "streaming churn (n={}, batch_size={}) diverged from per-event",
            n,
            batch_size
        );
    }
}

// ----------------------------------------------------------------------
// Streaming lifecycle: interleaved push / push_batch / flush sequences
// must match one-shot batching, whatever the batch boundaries.
// ----------------------------------------------------------------------

/// One step of a streaming session: feed `k` events by single `push`es,
/// feed `k` events as one `push_batch` slice (possibly empty), or insert a
/// `flush` barrier.
#[derive(Debug, Clone)]
enum Step {
    Push(usize),
    Batch(usize),
    Flush,
}

fn steps_strategy() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        prop_oneof![
            (0usize..5).prop_map(Step::Push),
            (0usize..9).prop_map(Step::Batch),
            Just(Step::Flush),
        ],
        1..30,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Streaming lifecycle oracle: any interleaving of push / push_batch
    /// (sizes 0 and 1 included) / flush, over inputs with timestamp ties,
    /// equals the one-shot batch result — for stateless, keyed, and
    /// pinned-split workloads alike.
    #[test]
    fn streaming_lifecycle_matches_one_shot(
        steps in steps_strategy(),
        raw in events_strategy(),
        batch_size in 1usize..8,
        n in 1usize..5,
    ) {
        let (engine, srcs, _) = optimized(&[
            LogicalPlan::source("U").select(Predicate::attr_eq_const(0, 1i64)),
            equi_seq(12),
            unkeyed_seq(7),
            LogicalPlan::source("S").select(Predicate::attr_eq_const(1, 2i64)),
        ]);
        let events = to_events(&raw, &srcs);

        let mut session = engine
            .session()
            .config(streaming(n, batch_size))
            .build()
            .unwrap();
        let mut fed = 0usize;
        for step in &steps {
            match step {
                Step::Push(k) => {
                    for (src, t) in events.iter().skip(fed).take(*k) {
                        session.push(*src, t.clone()).unwrap();
                    }
                    fed = (fed + k).min(events.len());
                }
                Step::Batch(k) => {
                    let hi = (fed + k).min(events.len());
                    session.push_batch(&events[fed..hi]).unwrap();
                    fed = hi;
                }
                Step::Flush => session.flush().unwrap(),
            }
        }
        session.push_batch(&events[fed..]).unwrap();
        session.flush().unwrap();
        prop_assert_eq!(session.events_in(), events.len() as u64);
        session.finish().unwrap();
        let got = canonical(&session.collect_all());

        let want = canonical(
            &run_mode(&engine, &SessionConfig::default(), Feed::PerEvent, &events, &[]).leftovers,
        );
        prop_assert_eq!(got, want, "lifecycle (batch_size={}, n={}) diverged", batch_size, n);
    }
}

// ---------------------------------------------------------------------------
// Server loopback conformance: `rumor_server::Client` vs the embedded oracle
// ---------------------------------------------------------------------------
//
// The network front door must be a drop-in replacement for the embedded
// session, with the same per-query fresh-compile oracle discipline the
// churn suite uses: for every query registered over the wire, the results
// the client receives must be byte-identical to a fresh single-threaded
// engine holding that query alone, fed exactly the events pushed during
// the query's lifetime.

use rumor_server::{Client, Server, ServerConfig};

const LOOPBACK_STREAMS: &str =
    "CREATE STREAM ls (a INT, b INT, c INT);\nCREATE STREAM lt (a INT, b INT, c INT);";

fn loopback_server() -> Server {
    let mut engine = Rumor::new(OptimizerConfig::default());
    engine.execute(LOOPBACK_STREAMS).unwrap();
    Server::spawn(engine, ServerConfig::default()).unwrap()
}

/// Canonical per-query form for wire-delivered results: `(ts, rendered)`,
/// sorted — the same total order `canonical` uses, minus the query id
/// (client and oracle ids differ by construction).
fn canonical_tuples(tuples: &[Tuple]) -> Vec<(u64, String)> {
    let mut v: Vec<(u64, String)> = tuples.iter().map(|t| (t.ts, t.to_string())).collect();
    v.sort();
    v
}

/// Fresh-compile oracle for one script-registered query: a fresh engine
/// holding it alone, fed `events` per-event on the single-threaded
/// session (the reference engine of the whole conformance matrix).
fn loopback_oracle(body: &str, events: &[(&str, Tuple)]) -> Vec<(u64, String)> {
    let mut fresh = Rumor::new(OptimizerConfig::default());
    fresh.execute(LOOPBACK_STREAMS).unwrap();
    let qids = fresh.execute(&format!("QUERY oracle AS {body};")).unwrap();
    assert_eq!(qids.len(), 1);
    fresh.optimize().unwrap();
    let mut session = fresh.session().build().unwrap();
    for (src_name, t) in events {
        let src = fresh.source_id(src_name).unwrap();
        session.push(src, t.clone()).unwrap();
    }
    session.finish().unwrap();
    let tuples: Vec<Tuple> = session
        .collect_all()
        .into_iter()
        .filter(|(q, _)| *q == qids[0])
        .map(|(_, t)| t)
        .collect();
    canonical_tuples(&tuples)
}

/// Interleaved two-stream input with patterned attributes, mirroring the
/// embedded matrix's `interleaved` builder.
fn loopback_events(n: u64) -> Vec<(&'static str, Tuple)> {
    (0..n)
        .map(|i| {
            let name = if i % 3 == 0 { "lt" } else { "ls" };
            (
                name,
                Tuple::ints(i, &[(i % 5) as i64, (i % 97) as i64, i as i64]),
            )
        })
        .collect()
}

/// The representative workload bodies: stateless selections, a computed
/// projection, a keyed windowed aggregate, a window join, and a Cayuga
/// sequence pattern — one per partitioning flavour of the main matrix.
fn loopback_bodies() -> Vec<(&'static str, &'static str)> {
    vec![
        ("sel_eq", "SELECT * FROM ls WHERE a = 1"),
        ("sel_gt", "SELECT * FROM ls WHERE b > 40"),
        ("project", "SELECT a, b * 2 AS dbl FROM ls"),
        (
            "agg",
            "SELECT a, SUM(b) AS total FROM ls [RANGE 5] GROUP BY a",
        ),
        ("join", "SELECT * FROM ls JOIN lt ON ls.a = lt.a WITHIN 50"),
        (
            "pattern",
            "PATTERN ls AS x THEN lt AS y WHERE x.a = y.a WITHIN 50",
        ),
    ]
}

#[test]
fn server_loopback_matches_embedded_oracle_across_workloads() {
    let server = loopback_server();
    let bodies = loopback_bodies();

    // Two tenants register the *same* query texts: distinct QueryIds on
    // the wire, shared m-ops in the plan — the paper's cross-tenant
    // sharing, exercised over TCP.
    let mut c0 = Client::connect(server.addr()).unwrap();
    let mut c1 = Client::connect(server.addr()).unwrap();
    for (name, body) in &bodies {
        c0.register(name, body).unwrap();
    }
    for (name, body) in &bodies {
        c1.register(name, body).unwrap();
    }

    let events = loopback_events(400);
    for chunk in events.chunks(64) {
        for (src_name, t) in chunk {
            let src = c0.source(src_name).unwrap();
            c0.push(src, t.clone()).unwrap();
        }
        // Barrier on the feeder, then on the passive tenant, so both
        // have every result of the chunk buffered locally.
        c0.flush().unwrap();
        c1.flush().unwrap();
    }

    for (name, body) in &bodies {
        let want = loopback_oracle(body, &events);
        assert!(
            !want.is_empty(),
            "workload `{name}` produced nothing — not a representative test"
        );
        for (label, client) in [("c0", &mut c0), ("c1", &mut c1)] {
            let got = canonical_tuples(&client.drain(name));
            assert_eq!(
                got, want,
                "workload `{name}`: {label} results over the wire diverged \
                 from the embedded fresh-compile oracle"
            );
        }
    }

    // Sharing must be visible across tenants: both clients' identical
    // selections share m-ops, so the explain fan-out mentions multiple
    // queries on shared nodes.
    let explain = c0.explain().unwrap();
    assert!(
        explain.contains("q"),
        "explain over the wire should render the shared plan: {explain}"
    );
    c0.bye().unwrap();
    c1.bye().unwrap();
    server.shutdown().unwrap();
}

#[test]
fn server_loopback_churn_script_matches_oracle() {
    let server = loopback_server();
    let mut c0 = Client::connect(server.addr()).unwrap();
    let mut c1 = Client::connect(server.addr()).unwrap();
    let events = loopback_events(400);
    let src_of = |c: &Client, name: &str| c.source(name).unwrap();

    let feed = |c: &mut Client, evs: &[(&str, Tuple)]| {
        for (src_name, t) in evs {
            let src = src_of(c, src_name);
            c.push(src, t.clone()).unwrap();
        }
        c.flush().unwrap();
    };

    // add → push → add → push → drop → push → add → push, with flush
    // barriers so both clients hold their deliveries at each step.
    c0.register("sel", "SELECT * FROM ls WHERE a = 1").unwrap();
    feed(&mut c0, &events[0..100]);
    c1.flush().unwrap();

    c1.register(
        "agg",
        "SELECT a, SUM(b) AS total FROM ls [RANGE 5] GROUP BY a",
    )
    .unwrap();
    feed(&mut c0, &events[100..200]);
    c1.flush().unwrap();

    c0.drop_query("sel").unwrap();
    feed(&mut c0, &events[200..300]);
    c1.flush().unwrap();

    c1.register("late", "SELECT * FROM lt WHERE a = 0").unwrap();
    feed(&mut c0, &events[300..400]);
    c1.flush().unwrap();

    // Each query against its lifetime slice of the event stream.
    assert_eq!(
        canonical_tuples(&c0.drain("sel")),
        loopback_oracle("SELECT * FROM ls WHERE a = 1", &events[0..200]),
        "churn: dropped query kept or lost results"
    );
    assert_eq!(
        canonical_tuples(&c1.drain("agg")),
        loopback_oracle(
            "SELECT a, SUM(b) AS total FROM ls [RANGE 5] GROUP BY a",
            &events[100..400]
        ),
        "churn: live-added aggregate diverged"
    );
    assert_eq!(
        canonical_tuples(&c1.drain("late")),
        loopback_oracle("SELECT * FROM lt WHERE a = 0", &events[300..400]),
        "churn: late registration diverged"
    );
    c0.bye().unwrap();
    c1.bye().unwrap();
    server.shutdown().unwrap();
}

#[test]
fn server_loopback_killed_client_leaves_others_unaffected() {
    let server = loopback_server();
    let mut survivor = Client::connect(server.addr()).unwrap();
    survivor
        .register("sel", "SELECT * FROM ls WHERE a = 2")
        .unwrap();
    survivor
        .register(
            "agg",
            "SELECT a, SUM(c) AS total FROM ls [RANGE 10] GROUP BY a",
        )
        .unwrap();

    let mut victim = Client::connect(server.addr()).unwrap();
    victim
        .register("v0", "SELECT * FROM ls WHERE a = 2")
        .unwrap();
    victim
        .register("v1", "SELECT * FROM lt WHERE b > 10")
        .unwrap();

    let events = loopback_events(300);
    for (src_name, t) in &events[0..150] {
        let src = survivor.source(src_name).unwrap();
        survivor.push(src, t.clone()).unwrap();
    }
    survivor.flush().unwrap();

    // Kill the victim mid-stream: socket dropped, no BYE. The server
    // notices the disconnect, removes its queries from the shared plan,
    // and keeps serving.
    drop(victim);

    for (src_name, t) in &events[150..300] {
        let src = survivor.source(src_name).unwrap();
        survivor.push(src, t.clone()).unwrap();
    }
    survivor.flush().unwrap();

    assert_eq!(
        canonical_tuples(&survivor.drain("sel")),
        loopback_oracle("SELECT * FROM ls WHERE a = 2", &events),
        "survivor selection diverged after a co-tenant was killed"
    );
    assert_eq!(
        canonical_tuples(&survivor.drain("agg")),
        loopback_oracle(
            "SELECT a, SUM(c) AS total FROM ls [RANGE 10] GROUP BY a",
            &events
        ),
        "survivor aggregate diverged after a co-tenant was killed"
    );
    survivor.bye().unwrap();
    server.shutdown().unwrap();
}

#[test]
fn server_loopback_graceful_drain_is_lossless() {
    let server = loopback_server();
    let mut client = Client::connect(server.addr()).unwrap();
    client
        .register("all_ls", "SELECT * FROM ls WHERE c > -1")
        .unwrap();
    let events = loopback_events(120);
    for (src_name, t) in &events {
        let src = client.source(src_name).unwrap();
        client.push(src, t.clone()).unwrap();
    }
    // No flush: everything rides on the shutdown drain.
    server.shutdown().unwrap();
    client.wait_server_close().unwrap();
    assert!(client.server_closed(), "GOODBYE must terminate the drain");
    assert_eq!(
        canonical_tuples(&client.drain("all_ls")),
        loopback_oracle("SELECT * FROM ls WHERE c > -1", &events),
        "graceful drain lost buffered results"
    );
    assert_eq!(client.shed(), 0, "drain must not shed");
}
