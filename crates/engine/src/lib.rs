//! # rumor-engine
//!
//! The RUMOR runtime: registers continuous queries (as logical plans or
//! query-language scripts), runs the rule-based multi-query optimizer, and
//! executes the resulting shared plan over pushed stream tuples.
//!
//! ## One execution API
//!
//! Every engine speaks the same lifecycle — the [`EventRuntime`] trait
//! (`push` / `push_batch` / `push_batch_shared` / `flush` / `finish` /
//! `update_plan`) — and is constructed through one builder:
//! [`Rumor::session`]. The builder chain picks the engine; results come
//! back through per-query [`Subscription`]s or the [`Session::collect_all`]
//! catch-all:
//!
//! * `session().build()?` — [`LocalRuntime`], the single-threaded push
//!   engine. Fully stateless plans batch at channel-run granularity
//!   ([`ExecutablePlan::is_batch_safe`]); a plan with any stateful m-op
//!   runs every event through timestamp-ordered per-event delivery
//!   ([`ExecutablePlan::push_batch`]).
//! * `session().workers(n).build()?` — [`StreamingShardedRuntime`], the
//!   persistent worker pool: long-lived workers behind bounded queues
//!   with backpressure, fed by the static partition router
//!   (`rumor_core::partition`): round-robin for stateless components,
//!   hashed on consistent keys for key-partitionable ones, worker 0 for
//!   pinned stateful subgraphs (stateless siblings still round-robin).
//! * `session().workers(n).one_shot().build()?` — [`ShardedRuntime`],
//!   the same router with scoped threads spawned per batch call; for
//!   inputs already in memory as a few large slices.
//!
//! Per-worker sinks fold deterministically at every delivery barrier
//! ([`MergeSink`]); all engines produce identical per-query results (the
//! differential conformance harness pins this byte-for-byte). Sharding
//! pays off when there are physical cores to spare and per-event work is
//! nontrivial; on a single core it measures the routing overhead (see
//! `BENCH_throughput.json` and the [`SessionBuilder`] docs).
//!
//! ## Dynamic query lifecycle
//!
//! The query set may churn while runtimes are live — no rebuild, no lost
//! state:
//!
//! * [`Rumor::add_query`] (and `QUERY`/`SELECT`/`PATTERN` statements in
//!   [`Rumor::execute`] after [`Rumor::optimize`]) merges a new query into
//!   the already-optimized shared plan via
//!   [`rumor_core::Optimizer::integrate`]: the m-rule catalogue runs
//!   scoped to the new operators, returning a
//!   [`rumor_core::RewriteTrace`] for the integration and a
//!   [`rumor_core::PlanDelta`] describing exactly which m-ops were added,
//!   removed, or rewired.
//! * [`Rumor::remove_query`] (and `DROP QUERY name;`) retires a query,
//!   pruning operators and channels nothing else references and
//!   un-splitting stateless shared m-ops left serving one member.
//! * Runtimes hot-swap from the delta via [`EventRuntime::update_plan`]:
//!   [`ExecutablePlan::apply_delta`] carries every untouched operator's
//!   instance — windows, sequence instance indexes, aggregate buckets —
//!   across the swap (state moves by m-op id; only new or rewired
//!   operators start cold), and both shard engines implement the *epoch
//!   protocol*: quiesce at a flush barrier, install the patched plan on
//!   every worker, re-derive the routing scheme incrementally, resume —
//!   the pool never restarts.
//!
//! When incremental integration cannot reach the fully shared plan (a
//! merge would restructure a stateful m-op holding live state, or
//! re-encode a channel feeding one), it declines that merge and records
//! why in [`rumor_core::RewriteTrace::notes`]; re-optimizing from scratch
//! on a fresh engine reclaims the missed sharing. Similarly,
//! `update_plan` refuses a swap that would re-route tuples away from live
//! stateful state (for example a keyed component becoming pinned): that
//! transition needs a fresh pool.
//!
//! ```
//! use rumor_engine::{EventRuntime, Rumor};
//! use rumor_core::OptimizerConfig;
//! use rumor_types::Tuple;
//!
//! let mut rumor = Rumor::new(OptimizerConfig::default());
//! rumor
//!     .execute(
//!         "CREATE STREAM s (a0 INT, a1 INT);
//!          QUERY q0 AS SELECT * FROM s WHERE a0 = 1;
//!          QUERY q1 AS SELECT * FROM s WHERE a0 = 2;",
//!     )
//!     .unwrap();
//! let trace = rumor.optimize().unwrap();
//! assert_eq!(trace.count("s_sigma"), 1); // both selections share one index
//!
//! let mut session = rumor.session().build().unwrap();
//! let mut q0 = session.subscribe_named("q0").unwrap();
//! let s = rumor.source_id("s").unwrap();
//! for ts in 0..4u64 {
//!     session.push(s, Tuple::ints(ts, &[ts as i64 % 3, 0])).unwrap();
//! }
//! session.finish().unwrap();
//! assert_eq!(q0.drain().len(), 1); // a0=1 at ts 1, routed to q0's owner
//! assert_eq!(session.collect_all().len(), 1); // unsubscribed q1: a0=2 at ts 2
//! ```

#![warn(missing_docs)]

pub mod exec;
pub mod metrics;
pub mod session;
pub mod shard;
pub mod stats;

pub use exec::{CollectingSink, ConeScope, CountingSink, DiscardSink, ExecutablePlan, QuerySink};
pub use metrics::{
    measure, measure_batched, measure_mode, FeedMode, InputEvent, Measurement, Protocol,
};
pub use session::{
    EventRuntime, LocalRuntime, Session, SessionBuilder, SessionConfig, Subscription,
};
pub use shard::{MergeSink, ShardedRuntime, StreamingConfig, StreamingShardedRuntime};
pub use stats::{
    trace_clock_nanos, trace_json_lines, CollectingMeterSink, ExecStatsReport, FileMeterSink,
    Histogram, Meter, MeterSink, OpStats, QuerySharing, QueryStats, RuntimeStats, SharedOpRef,
    StatsSnapshot, StderrMeterSink, TraceEvent, TraceRing, STATS_COMPILED, TIME_SAMPLE_EVERY,
};

use std::collections::HashMap;

use rumor_core::{
    Integration, LogicalPlan, Optimizer, OptimizerConfig, PlanDelta, PlanGraph, RewriteTrace,
    SelectivityModel,
};
use rumor_lang::{parse_script, LoweredStatement, Lowerer};
use rumor_types::{QueryId, Result, RumorError, Schema, SourceId};

/// The top-level engine facade.
pub struct Rumor {
    plan: PlanGraph,
    lowerer: Lowerer,
    config: OptimizerConfig,
    query_names: HashMap<String, QueryId>,
    optimized: bool,
    selectivity: SelectivityModel,
}

impl Rumor {
    /// Creates an engine with the given optimizer configuration.
    pub fn new(config: OptimizerConfig) -> Self {
        Rumor {
            plan: PlanGraph::new(),
            lowerer: Lowerer::new(),
            config,
            query_names: HashMap::new(),
            optimized: false,
            selectivity: SelectivityModel::default(),
        }
    }

    /// Calibrates the optimizer's cost model with measured per-m-op
    /// selectivities. Every subsequent [`Rumor::optimize`] /
    /// [`Rumor::add_query`] / [`Rumor::execute`] call scores candidate
    /// rewrites against this model (relevant under
    /// [`rumor_core::SearchStrategy::CostBased`] and for the
    /// refused-merge ranking in [`RewriteTrace::notes`]; the greedy
    /// search ignores it). See [`Rumor::calibrate_from_stats`] for the
    /// usual source.
    pub fn calibrate(&mut self, model: SelectivityModel) {
        self.selectivity = model;
    }

    /// [`Rumor::calibrate`] from a live session's measured stats — the
    /// stats → selectivity feedback loop: run a representative window,
    /// take [`Session::stats`], feed it back, and re-optimize (or let
    /// subsequent integrations use it).
    pub fn calibrate_from_stats(&mut self, stats: &StatsSnapshot) {
        self.calibrate(stats.selectivity_model());
    }

    /// The optimizer every plan-mutating path uses: configured rules plus
    /// the current selectivity calibration.
    fn optimizer(&self) -> Optimizer {
        Optimizer::new(self.config.clone()).with_selectivity(self.selectivity.clone())
    }

    /// Registers a source stream programmatically.
    pub fn add_source(
        &mut self,
        name: &str,
        schema: Schema,
        sharable_label: Option<String>,
    ) -> Result<SourceId> {
        let id = self.plan.add_source(name, schema.clone(), sharable_label)?;
        self.lowerer.add_source(name, schema);
        Ok(id)
    }

    /// Registers a *channel source* (see
    /// [`rumor_core::PlanGraph::add_source_group`]): `k` union-compatible
    /// streams pre-encoded into one channel, fed with
    /// [`Session::push_channel`]. The member streams are named
    /// `{name}.{i}` and usable from logical plans like any stream.
    pub fn add_source_group(&mut self, name: &str, schema: Schema, k: usize) -> Result<SourceId> {
        self.plan.add_source_group(name, schema, k)
    }

    /// Registers a logical query programmatically. Before
    /// [`Rumor::optimize`] this builds the naive chain for the coming
    /// batch optimization; afterwards it delegates to [`Rumor::add_query`]
    /// (incremental integration into the live shared plan).
    pub fn register(&mut self, plan: &LogicalPlan) -> Result<QueryId> {
        Ok(self.add_query(plan)?.query)
    }

    /// Adds one query to the engine — at any point in its life.
    ///
    /// Before [`Rumor::optimize`] the query simply joins the batch to be
    /// optimized. *After* it (including while compiled runtimes exist),
    /// the query is merged into the already-optimized shared plan by
    /// [`rumor_core::Optimizer::integrate`]: the m-rule catalogue runs
    /// scoped to the new query's operators, and the returned
    /// [`Integration`] carries the [`RewriteTrace`] of that scoped run
    /// (including any declined stateful merges in its `notes`) plus the
    /// [`PlanDelta`] describing what changed. Hand the *plan* to a live
    /// session's [`EventRuntime::update_plan`] for the hot swap —
    /// runtimes track what they have installed and diff against it
    /// themselves. If a runtime refuses the swap (it would re-route live
    /// stateful state), remove the offending query and update again; the
    /// runtime keeps refusing until the plan it is offered is
    /// installable.
    pub fn add_query(&mut self, plan: &LogicalPlan) -> Result<Integration> {
        if !self.optimized {
            // No runtime can exist yet, so the delta needs no context
            // diffing (a full snapshot per registration would make bulk
            // setup quadratic): registering only ever appends m-ops and
            // one query tap.
            let first_new = self.plan.mop_slots();
            let query = self.plan.add_query(plan)?;
            let mut delta = PlanDelta {
                added: (first_new..self.plan.mop_slots())
                    .map(rumor_types::MopId::from_index)
                    .collect(),
                ..PlanDelta::default()
            };
            if let Some(out) = self.plan.query_output(query) {
                if let rumor_core::Producer::Source(src) = self.plan.stream(out).producer {
                    delta.retapped.push(src);
                }
            }
            return Ok(Integration {
                query,
                trace: RewriteTrace::default(),
                delta,
            });
        }
        let optimizer = self.optimizer();
        optimizer.integrate(&mut self.plan, plan)
    }

    /// Retires a query (see [`rumor_core::PlanGraph::remove_query`]):
    /// its output tap is dropped, operators and channels no other query
    /// references are pruned, and stateless shared m-ops left serving one
    /// member un-split back to plain operators. The returned [`PlanDelta`]
    /// hot-swaps live runtimes exactly as with [`Rumor::add_query`].
    pub fn remove_query(&mut self, query: QueryId) -> Result<PlanDelta> {
        let delta = self.plan.remove_query(query)?;
        self.query_names.retain(|_, &mut q| q != query);
        Ok(delta)
    }

    /// [`Rumor::remove_query`] by registered name (`QUERY name AS ...`).
    pub fn remove_query_named(&mut self, name: &str) -> Result<PlanDelta> {
        let query = self
            .query_id(name)
            .ok_or_else(|| RumorError::unknown(format!("query `{name}`")))?;
        self.remove_query(query)
    }

    /// Executes a script of `CREATE STREAM` / `DEFINE` / query /
    /// `DROP QUERY` statements, returning the ids of registered queries in
    /// statement order.
    ///
    /// Valid at any point in the engine's life: after [`Rumor::optimize`]
    /// (including while compiled runtimes exist) `QUERY`/`SELECT`/
    /// `PATTERN` statements integrate incrementally into the live shared
    /// plan and `DROP QUERY` retires named queries — see
    /// [`Rumor::execute_live`] for the variant that also returns the
    /// combined [`PlanDelta`] runtimes need to hot-swap.
    /// Scripts are **transactional**: every statement applies to a
    /// scratch copy of the engine state, committed only when the whole
    /// script succeeds. A failing statement mid-script therefore cannot
    /// leave earlier integrations half-applied — which matters for live
    /// engines, where a lost [`PlanDelta`] would permanently desync
    /// already-running runtimes.
    pub fn execute(&mut self, script: &str) -> Result<Vec<QueryId>> {
        let statements = parse_script(script)?;
        let mut plan = self.plan.clone();
        let mut lowerer = self.lowerer.clone();
        let mut query_names = self.query_names.clone();
        let mut registered = Vec::new();
        for stmt in &statements {
            match lowerer.lower(stmt)? {
                LoweredStatement::CreateStream {
                    name,
                    schema,
                    sharable_label,
                } => {
                    plan.add_source(name, schema, sharable_label)?;
                }
                LoweredStatement::Defined { .. } => {}
                LoweredStatement::Register {
                    name, plan: query, ..
                } => {
                    let q = if self.optimized {
                        self.optimizer().integrate(&mut plan, &query)?.query
                    } else {
                        plan.add_query(&query)?
                    };
                    if let Some(n) = name {
                        query_names.insert(n, q);
                    }
                    registered.push(q);
                }
                LoweredStatement::DropQuery { name } => {
                    let q = query_names
                        .remove(&name)
                        .ok_or_else(|| RumorError::unknown(format!("query `{name}`")))?;
                    plan.remove_query(q)?;
                }
            }
        }
        self.plan = plan;
        self.lowerer = lowerer;
        self.query_names = query_names;
        Ok(registered)
    }

    /// [`Rumor::execute`] for a *live* engine: additionally returns the
    /// combined [`PlanDelta`] across every statement of the script —
    /// useful for inspecting what changed before handing the plan to a
    /// running runtime's `update_plan`/`apply_delta`.
    pub fn execute_live(&mut self, script: &str) -> Result<(Vec<QueryId>, PlanDelta)> {
        let before = self.plan.snapshot();
        let registered = self.execute(script)?;
        Ok((registered, before.delta(&self.plan)))
    }

    /// Runs the rule-based optimizer over the registered queries, using
    /// the configured [`rumor_core::SearchStrategy`] and the current
    /// selectivity calibration (see [`Rumor::calibrate`]).
    pub fn optimize(&mut self) -> Result<RewriteTrace> {
        let optimizer = self.optimizer();
        let trace = optimizer.optimize(&mut self.plan)?;
        self.optimized = true;
        Ok(trace)
    }

    /// The current (possibly optimized) plan.
    pub fn plan(&self) -> &PlanGraph {
        &self.plan
    }

    /// Source id by name.
    pub fn source_id(&self, name: &str) -> Option<SourceId> {
        self.plan.source_by_name(name).map(|s| s.id)
    }

    /// Query id by registered name (`QUERY name AS ...`).
    pub fn query_id(&self, name: &str) -> Option<QueryId> {
        self.query_names.get(name).copied()
    }

    /// Opens a [`SessionBuilder`] over the current plan — the one way to
    /// construct an execution runtime. The plan is used as-is: call
    /// [`Rumor::optimize`] first to get the shared plan. The builder
    /// chain picks the engine (single-threaded when
    /// [`SessionBuilder::workers`] is omitted; see the builder docs for
    /// guidance on choosing); the resulting [`Session`] speaks the
    /// [`EventRuntime`] lifecycle and routes results to per-query
    /// [`Subscription`]s.
    ///
    /// ```
    /// use rumor_engine::{EventRuntime, Rumor};
    /// use rumor_core::OptimizerConfig;
    /// use rumor_types::Tuple;
    ///
    /// let mut rumor = Rumor::new(OptimizerConfig::default());
    /// rumor
    ///     .execute(
    ///         "CREATE STREAM s (a0 INT, a1 INT);
    ///          QUERY q0 AS SELECT * FROM s WHERE a0 = 1;
    ///          QUERY q1 AS SELECT * FROM s WHERE a0 = 2;",
    ///     )
    ///     .unwrap();
    /// rumor.optimize().unwrap();
    /// // A 4-worker streaming session; `q1`'s owner subscribes.
    /// let mut session = rumor.session().workers(4).build().unwrap();
    /// let mut q1 = session.subscribe_named("q1").unwrap();
    /// let s = rumor.source_id("s").unwrap();
    /// let events: Vec<_> = (0..8u64)
    ///     .map(|ts| (s, Tuple::ints(ts, &[ts as i64 % 3, 0])))
    ///     .collect();
    /// session.push_batch(&events).unwrap();
    /// session.finish().unwrap();
    /// assert_eq!(q1.drain().len(), 2); // a0=2 at ts 2,5 — q1's results only
    /// assert_eq!(session.collect_all().len(), 3); // q0: a0=1 at ts 1,4,7
    /// ```
    pub fn session(&self) -> SessionBuilder<'_> {
        SessionBuilder::new(&self.plan, self.query_names.clone())
    }

    /// Renders the current plan as text (diagnostics).
    pub fn render_plan(&self) -> String {
        rumor_core::render::render_text(&self.plan)
    }

    /// Estimated cost profile of the current plan under the current
    /// selectivity calibration (see [`rumor_core::cost`]): useful for
    /// comparing the effect of different optimizer configurations on the
    /// same query set. Errors if the plan has no topological order.
    pub fn plan_cost(&self) -> Result<rumor_core::PlanCost> {
        rumor_core::estimate_cost_with(&self.plan, &self.selectivity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rumor_types::Tuple;

    #[test]
    fn script_end_to_end_with_optimizer() {
        let mut rumor = Rumor::new(OptimizerConfig::default());
        let queries = rumor
            .execute(
                "CREATE STREAM cpu (pid INT, load INT);
                 QUERY a AS SELECT * FROM cpu WHERE pid = 1;
                 QUERY b AS SELECT * FROM cpu WHERE pid = 2;
                 QUERY c AS SELECT * FROM cpu WHERE pid = 1;",
            )
            .unwrap();
        assert_eq!(queries.len(), 3);
        let trace = rumor.optimize().unwrap();
        assert_eq!(trace.count("s_sigma"), 1);
        assert_eq!(rumor.plan().mop_count(), 1);

        let mut session = rumor.session().build().unwrap();
        // Per-query delivery: a's owner subscribes; b and c go unclaimed.
        let mut sub_a = session.subscribe_named("a").unwrap();
        let cpu = rumor.source_id("cpu").unwrap();
        for ts in 0..6u64 {
            session
                .push(cpu, Tuple::ints(ts, &[(ts % 3) as i64, 0]))
                .unwrap();
        }
        session.finish().unwrap();
        let b = rumor.query_id("b").unwrap();
        let c = rumor.query_id("c").unwrap();
        let a_results = sub_a.drain();
        assert_eq!(a_results.len(), 2);
        let rest = session.collect_all();
        assert_eq!(rest.iter().filter(|(q, _)| *q == b).count(), 2);
        // Identical queries a and c were CSE-merged but both still report.
        let c_results: Vec<&Tuple> = rest
            .iter()
            .filter(|(q, _)| *q == c)
            .map(|(_, t)| t)
            .collect();
        assert_eq!(c_results, a_results.iter().collect::<Vec<_>>());
    }

    #[test]
    fn plan_cost_drops_after_optimize() {
        let mut rumor = Rumor::new(OptimizerConfig::default());
        rumor
            .execute(
                "CREATE STREAM s (a INT);
                 SELECT * FROM s WHERE a = 1;
                 SELECT * FROM s WHERE a = 2;
                 SELECT * FROM s WHERE a = 3;",
            )
            .unwrap();
        let before = rumor.plan_cost().unwrap();
        rumor.optimize().unwrap();
        let after = rumor.plan_cost().unwrap();
        assert!(after.evals_per_tuple < before.evals_per_tuple);
        assert_eq!(after.members, before.members);
        assert!(after.score() < before.score());
    }

    #[test]
    fn stats_calibrate_feedback_loop() {
        // Run a window, measure per-m-op selectivities, feed them back:
        // the calibrated cost estimate must reflect the measured rates.
        let mut rumor = Rumor::new(OptimizerConfig::cost_based());
        rumor
            .execute(
                "CREATE STREAM s (a INT, b INT);
                 DEFINE hot AS SELECT * FROM s WHERE a = 1;
                 QUERY q0 AS SELECT a, SUM(b) AS total FROM hot [RANGE 5] GROUP BY a;",
            )
            .unwrap();
        rumor.optimize().unwrap();
        let mut session = rumor.session().build().unwrap();
        let s = rumor.source_id("s").unwrap();
        // Every event has a = 1: the selection passes everything, so its
        // measured selectivity (1.0) is far above the 0.1 eq-const
        // default, and the aggregate behind it is busier than assumed.
        for ts in 0..10u64 {
            session.push(s, Tuple::ints(ts, &[1, 2])).unwrap();
        }
        session.finish().unwrap();
        let stats = session.stats().unwrap();
        if !crate::stats::STATS_COMPILED {
            // Without measured counters there is nothing to feed back:
            // the model stays uncalibrated and calibration is a no-op.
            assert!(!stats.selectivity_model().is_calibrated());
            return;
        }
        assert!(stats.selectivity_model().is_calibrated());
        let uncalibrated = rumor.plan_cost().unwrap();
        rumor.calibrate_from_stats(&stats);
        let calibrated = rumor.plan_cost().unwrap();
        // The per-tuple work profile ignores rates, but the weighted work
        // must rise: the aggregate's input rate is measured at 1.0 per
        // source event instead of the assumed 0.1.
        assert_eq!(calibrated.evals_per_tuple, uncalibrated.evals_per_tuple);
        assert!(
            calibrated.work > uncalibrated.work,
            "calibrated {calibrated:?} vs {uncalibrated:?}"
        );
    }

    #[test]
    fn register_after_optimize_integrates_incrementally() {
        let mut rumor = Rumor::new(OptimizerConfig::default());
        rumor
            .execute("CREATE STREAM s (a INT); QUERY q0 AS SELECT * FROM s WHERE a = 1;")
            .unwrap();
        rumor.optimize().unwrap();
        // Post-optimize registration goes through the incremental path:
        // the new selection joins the live shared plan.
        let before = rumor.plan().mop_count();
        let qs = rumor
            .execute("QUERY q1 AS SELECT * FROM s WHERE a = 2;")
            .unwrap();
        assert_eq!(qs.len(), 1);
        assert_eq!(rumor.plan().mop_count(), before, "selection merged in");
        assert_eq!(rumor.query_id("q1"), Some(qs[0]));
        // And DROP QUERY retires it again.
        rumor.execute("DROP QUERY q1;").unwrap();
        assert_eq!(rumor.query_id("q1"), None);
        assert!(rumor.execute("DROP QUERY q1;").is_err(), "already dropped");
        rumor.plan().validate().unwrap();
    }

    #[test]
    fn execute_live_reports_combined_delta() {
        let mut rumor = Rumor::new(OptimizerConfig::default());
        rumor
            .execute("CREATE STREAM s (a INT); QUERY q0 AS SELECT * FROM s WHERE a = 1;")
            .unwrap();
        rumor.optimize().unwrap();
        let (qs, delta) = rumor
            .execute_live("QUERY q1 AS SELECT * FROM s WHERE a = 2; DROP QUERY q0;")
            .unwrap();
        assert_eq!(qs.len(), 1);
        assert!(!delta.is_empty());
        // The mutated plan is exactly what a live session hot-swaps onto.
        let mut session = rumor.session().build().unwrap();
        session.update_plan(rumor.plan()).unwrap();
    }

    #[test]
    fn hybrid_script_query1() {
        // Query 1 of §4.1 end to end: smoothing aggregate + µ pattern +
        // stopping condition.
        let mut rumor = Rumor::new(OptimizerConfig::default());
        rumor
            .execute(
                "CREATE STREAM cpu (pid INT, load INT);
                 DEFINE smoothed AS
                   SELECT pid, AVG(load) AS load FROM cpu [RANGE 5] GROUP BY pid;
                 DEFINE ramp AS
                   PATTERN smoothed AS x WHERE x.load < 20.0
                   THEN ITERATE smoothed AS y
                   FILTER x.pid != y.pid
                   REBIND x.pid = y.pid AND y.load > x.load
                   SET load = y.load
                   WITHIN 100;
                 QUERY alerts AS SELECT * FROM ramp WHERE load > 90.0;",
            )
            .unwrap();
        rumor.optimize().unwrap();
        let mut session = rumor.session().build().unwrap();
        let mut alerts = session.subscribe_named("alerts").unwrap();
        let cpu = rumor.source_id("cpu").unwrap();
        // Process 7 ramps from 10 upward in steps of 20; process 8 stays flat.
        let mut ts = 0u64;
        for step in 0..10i64 {
            session
                .push(cpu, Tuple::ints(ts, &[7, 10 + step * 20]))
                .unwrap();
            ts += 1;
            session.push(cpu, Tuple::ints(ts, &[8, 50])).unwrap();
            ts += 1;
        }
        session.finish().unwrap();
        let got = alerts.drain();
        assert!(!got.is_empty(), "ramping process must trigger the alert");
        // Every alert is for process 7 with smoothed load > 90.
        for t in got {
            assert_eq!(t.value(0), Some(&rumor_types::Value::Int(7)));
            assert!(t.value(1).unwrap().as_float().unwrap() > 90.0);
        }
    }
}
