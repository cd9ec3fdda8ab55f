//! The push-based executor.
//!
//! The engine mirrors the paper's prototype: a single-threaded, push-based
//! interpreter that feeds externally-arriving tuples (in global timestamp
//! order) through the optimized m-op DAG. M-ops are "the basic scheduling
//! and execution units in the engine" (§2.1); routing between them is by
//! channel.

use std::collections::{HashMap, VecDeque};
use std::time::Instant;

use rumor_core::{ChannelTuple, Emit, MopContext, MultiOp, PartitionKeys, PlanGraph};
use rumor_ops::instantiate;
use rumor_types::{
    ChannelId, Membership, MopId, PortId, QueryId, Result, RumorError, SourceId, Tuple,
};

use crate::stats::{ExecStatsReport, OpCounters, OpStats, TIME_SAMPLE_EVERY};

/// Receives query results during execution.
pub trait QuerySink {
    /// Called once per (query, result tuple).
    fn on_result(&mut self, query: QueryId, tuple: &Tuple);

    /// Whether the sink needs the per-query [`QuerySink::on_result`] calls.
    /// Counting sinks return `false` and receive [`QuerySink::on_batch`]
    /// instead, letting the engine deliver one *channel tuple* shared by
    /// many queries in O(1) — the channel delivery granularity the paper's
    /// throughput numbers assume (one output event per channel tuple, not
    /// one per query).
    fn wants_tuples(&self) -> bool {
        true
    }

    /// Batch notification: `n` query results materialized by one channel
    /// tuple. Only called when [`QuerySink::wants_tuples`] is `false`.
    fn on_batch(&mut self, n: u64, _tuple: &Tuple) {
        let _ = n;
    }
}

/// Discards results (throughput measurements).
#[derive(Debug, Default)]
pub struct DiscardSink;

impl QuerySink for DiscardSink {
    fn on_result(&mut self, _query: QueryId, _tuple: &Tuple) {}

    fn wants_tuples(&self) -> bool {
        false
    }
}

/// Counts results per query.
///
/// Query ids are dense plan indices, so the per-query counters live in a
/// plain `Vec` indexed by [`QueryId`] — this sink sits on the result hot
/// path of every throughput run, and the previous `HashMap` paid a hash
/// per result.
#[derive(Debug, Default)]
pub struct CountingSink {
    counts: Vec<u64>,
    /// Total results across queries.
    pub total: u64,
}

impl CountingSink {
    /// Result count for one query.
    pub fn count(&self, query: QueryId) -> u64 {
        self.counts.get(query.index()).copied().unwrap_or(0)
    }

    /// Folds another counting sink into this one (sharded workers each own
    /// a sink; the runtime merges them at drain time).
    pub fn merge(&mut self, other: CountingSink) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (i, c) in other.counts.into_iter().enumerate() {
            self.counts[i] += c;
        }
        self.total += other.total;
    }
}

impl QuerySink for CountingSink {
    fn on_result(&mut self, query: QueryId, _tuple: &Tuple) {
        let i = query.index();
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
        self.total += 1;
    }

    fn wants_tuples(&self) -> bool {
        false
    }

    fn on_batch(&mut self, n: u64, _tuple: &Tuple) {
        self.total += n;
    }
}

/// Collects `(query, tuple)` pairs — integration tests compare these.
#[derive(Debug, Default)]
pub struct CollectingSink {
    /// Results in arrival order.
    pub results: Vec<(QueryId, Tuple)>,
}

impl CollectingSink {
    /// The results of one query, in order.
    pub fn of(&self, query: QueryId) -> Vec<&Tuple> {
        self.results
            .iter()
            .filter(|(q, _)| *q == query)
            .map(|(_, t)| t)
            .collect()
    }

    /// Folds another collecting sink into this one, re-establishing a
    /// deterministic global order (by timestamp, then query id — the order
    /// is independent of how results were distributed across sharded
    /// workers; the sort is stable, so same-key results keep their
    /// per-worker arrival order, worker 0 first). Repeated folds stay
    /// cheap: the stable sort is adaptive, and after the first fold each
    /// call merges two already-sorted runs in near-linear time.
    pub fn merge(&mut self, other: CollectingSink) {
        self.results.extend(other.results);
        self.results.sort_by_key(|(q, t)| (t.ts, *q));
    }
}

impl QuerySink for CollectingSink {
    fn on_result(&mut self, query: QueryId, tuple: &Tuple) {
        self.results.push((query, tuple.clone()));
    }
}

/// Source events per internal drain wave of
/// [`ExecutablePlan::push_batch`]: large enough to amortize routing and
/// dispatch over long channel runs, small enough that a wave's level
/// buffers stay in cache.
const BATCH_CHUNK: usize = 1024;

/// An emitted event waiting to be routed.
type Pending = VecDeque<(ChannelId, ChannelTuple)>;

struct QueueEmit<'a> {
    pending: &'a mut Pending,
}

impl Emit for QueueEmit<'_> {
    fn emit(&mut self, channel: ChannelId, tuple: Tuple, membership: Membership) {
        self.pending
            .push_back((channel, ChannelTuple::new(tuple, membership)));
    }
}

/// One side of the batched drain's double buffer: parallel channel/tuple
/// vectors, so a run of same-channel events forms a contiguous
/// `&[ChannelTuple]` slice for [`rumor_core::MultiOp::process_batch`].
#[derive(Debug, Default)]
struct EventBuf {
    chans: Vec<ChannelId>,
    tuples: Vec<ChannelTuple>,
}

impl EventBuf {
    fn push(&mut self, channel: ChannelId, tuple: ChannelTuple) {
        self.chans.push(channel);
        self.tuples.push(tuple);
    }

    fn clear(&mut self) {
        self.chans.clear();
        self.tuples.clear();
    }

    fn is_empty(&self) -> bool {
        self.chans.is_empty()
    }
}

/// Emit adapter appending into the *next* level's [`EventBuf`].
struct BufEmit<'a> {
    buf: &'a mut EventBuf,
}

impl Emit for BufEmit<'_> {
    fn emit(&mut self, channel: ChannelId, tuple: Tuple, membership: Membership) {
        self.buf.push(channel, ChannelTuple::new(tuple, membership));
    }
}

/// Which subgraph of the plan a scoped push addresses.
///
/// Partition-parallel runtimes use scoped pushes to implement
/// [`rumor_core::SourceRoute::PinnedSplit`]: a pinned component's source
/// tuple is delivered twice — its *stateful cone* (every source consumer
/// from which a stateful m-op is reachable) on worker 0, its stateless
/// sibling subgraph on a round-robin worker. One [`ConeScope::Stateful`]
/// push plus one [`ConeScope::Stateless`] push of the same tuple produce,
/// together, exactly the results of one full [`ExecutablePlan::push`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConeScope {
    /// The whole plan — identical to [`ExecutablePlan::push`].
    Full,
    /// Only source-channel consumers inside the stateful cone; the source
    /// channel's own query taps are *not* delivered (the stateless leg
    /// owns them). Derived events process normally.
    Stateful,
    /// Only source-channel consumers outside the stateful cone, plus the
    /// source channel's query taps.
    Stateless,
}

/// The compiled, executable form of a plan.
pub struct ExecutablePlan {
    ops: Vec<Box<dyn rumor_core::MultiOp>>,
    /// Parallel to `ops`: the plan node each op implements (diagnostics).
    op_ids: Vec<MopId>,
    /// Parallel to `ops`: each op's resolved compile context. Hot swap
    /// ([`ExecutablePlan::apply_delta`]) carries an instance — and its
    /// state — across a plan change exactly when the rebuilt context
    /// compares equal to this one.
    op_ctxs: Vec<MopContext>,
    /// Parallel to `ops`: per-op dispatch counters for the introspection
    /// layer (see [`crate::stats`]). Carried across hot swaps for
    /// surviving op ids, like `events_in`.
    op_counters: Vec<OpCounters>,
    /// channel index → (exec index, port) consumers, in topological order.
    consumers: Vec<Vec<(usize, PortId)>>,
    /// source index → source-channel consumers inside the stateful cone
    /// (ops from which a stateful m-op is reachable) — the
    /// [`ConeScope::Stateful`] root set.
    stateful_root: Vec<Vec<(usize, PortId)>>,
    /// source index → source-channel consumers outside the stateful cone —
    /// the [`ConeScope::Stateless`] root set.
    free_root: Vec<Vec<(usize, PortId)>>,
    /// channel index → [(position, queries listening on that stream)].
    query_taps: Vec<Vec<(usize, Vec<QueryId>)>>,
    /// channel index → (positions-with-queries mask, queries per position if
    /// uniform) — the O(1) batch-delivery fast path for counting sinks.
    tap_masks: Vec<Option<(Membership, Option<u64>)>>,
    /// source index → its base stream's channel.
    source_channels: Vec<ChannelId>,
    pending: Pending,
    /// Every compiled op is stateless, so [`ExecutablePlan::push_batch`]
    /// may run the channel-batched drain (see [`rumor_core::MultiOp::is_stateless`]).
    batch_safe: bool,
    /// Double buffers of the batched drain, reused across calls.
    cur: EventBuf,
    nxt: EventBuf,
    /// Total tuples pushed.
    pub events_in: u64,
    /// One wall-time sampling decision per source event, cached at the
    /// push entry points (every [`crate::stats::TIME_SAMPLE_EVERY`]th
    /// event). The per-event dispatch sites test this flag instead of
    /// re-deriving the stride from each m-op's counters, so an unsampled
    /// event pays one register test per dispatch and no clock reads.
    /// Always `false` under `stats-off`.
    sample_this: bool,
}

impl ExecutablePlan {
    /// Compiles a plan: instantiates every m-op and builds routing tables.
    pub fn new(plan: &PlanGraph) -> Result<Self> {
        let order = plan.topo_order()?;
        let mut ops = Vec::with_capacity(order.len());
        let mut op_ctxs = Vec::with_capacity(order.len());
        for &id in &order {
            let ctx = MopContext::build(plan, id)?;
            ops.push(instantiate(&ctx)?);
            op_ctxs.push(ctx);
        }
        Ok(Self::assemble(plan, order, op_ctxs, ops))
    }

    /// Hot-swaps this compiled plan for `plan` without losing operator
    /// state: every m-op whose resolved context is unchanged keeps its
    /// existing instance — windows, sequence/iteration instance indexes,
    /// aggregate buckets and all — while added or rewired m-ops compile
    /// cold and retired ones are dropped. Routing tables, the batch-safety
    /// flag, and the stateful-cone split are rebuilt from scratch for the
    /// new plan. `events_in` carries over.
    ///
    /// Call between pushes only (the engine fully drains every push
    /// entry point before returning, so there is never buffered work to
    /// lose). Compiled per-query results are unaffected for queries whose
    /// operator chain the [`rumor_core::PlanDelta`] does not touch. On
    /// error the engine is left exactly as it was (everything fallible
    /// runs before any state moves).
    pub fn apply_delta(&mut self, plan: &PlanGraph) -> Result<()> {
        debug_assert!(self.pending.is_empty() && self.cur.is_empty());
        // Phase 1 — fallible, `self` untouched: resolve the new plan's
        // contexts and compile cold instances for every op that cannot
        // carry over.
        let order = plan.topo_order()?;
        let old_index: HashMap<MopId, usize> = self
            .op_ids
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i))
            .collect();
        let mut op_ctxs = Vec::with_capacity(order.len());
        let mut cold: HashMap<MopId, Box<dyn MultiOp>> = HashMap::new();
        for &id in &order {
            let ctx = MopContext::build(plan, id)?;
            let reusable = old_index.get(&id).is_some_and(|&i| self.op_ctxs[i] == ctx);
            if !reusable {
                cold.insert(id, instantiate(&ctx)?);
            }
            op_ctxs.push(ctx);
        }
        // Phase 2 — infallible: move the reusable instances out of the
        // old engine and assemble the new one around them.
        let mut survivors: HashMap<MopId, Box<dyn MultiOp>> = self
            .op_ids
            .iter()
            .copied()
            .zip(std::mem::take(&mut self.ops))
            .collect();
        let ops: Vec<Box<dyn MultiOp>> = order
            .iter()
            .map(|id| match cold.remove(id) {
                Some(op) => op,
                None => survivors.remove(id).expect("reusable instance present"),
            })
            .collect();
        let mut fresh = Self::assemble(plan, order, op_ctxs, ops);
        fresh.events_in = self.events_in;
        // Stats counters are cumulative for the engine's life: surviving
        // ops keep theirs (cold-compiled replacements start at zero).
        for (i, id) in fresh.op_ids.iter().enumerate() {
            if let Some(&j) = old_index.get(id) {
                fresh.op_counters[i] = self.op_counters[j];
            }
        }
        *self = fresh;
        Ok(())
    }

    /// Builds the routing tables, batch-safety flag, and cone split around
    /// compiled operators (`ops`/`op_ctxs` parallel to the topological
    /// `order`). Infallible: callers finish all fallible work first so
    /// hot swaps cannot leave an engine half-built.
    fn assemble(
        plan: &PlanGraph,
        order: Vec<MopId>,
        op_ctxs: Vec<MopContext>,
        ops: Vec<Box<dyn MultiOp>>,
    ) -> Self {
        let exec_index: HashMap<MopId, usize> =
            order.iter().enumerate().map(|(i, &id)| (id, i)).collect();

        // Channel consumer lists: an m-op consumes channel `c` on port `p`
        // iff its node lists `c` at that port.
        let mut consumers: Vec<Vec<(usize, PortId)>> = vec![Vec::new(); plan.channel_slots()];
        for &id in &order {
            let node = plan.mop(id);
            for (p, &ch) in node.inputs.iter().enumerate() {
                consumers[ch.index()].push((exec_index[&id], PortId(p as u8)));
            }
        }
        for list in &mut consumers {
            list.sort_by_key(|&(idx, port)| (idx, port));
            list.dedup();
        }

        // Query taps: (channel, position) → queries.
        let mut query_taps: Vec<Vec<(usize, Vec<QueryId>)>> =
            vec![Vec::new(); plan.channel_slots()];
        for &(q, stream) in plan.query_outputs() {
            let ch = plan.channel_of(stream);
            let pos = plan.position_in_channel(stream);
            let taps = &mut query_taps[ch.index()];
            match taps.iter_mut().find(|(p, _)| *p == pos) {
                Some((_, qs)) => qs.push(q),
                None => taps.push((pos, vec![q])),
            }
        }

        let source_channels: Vec<ChannelId> = plan
            .sources()
            .iter()
            .map(|s| plan.channel_of(s.stream))
            .collect();

        // Stateful cone (for scoped pushes, see [`ConeScope`]): an op is in
        // the cone when it reports stateful partition keys or any op
        // consuming one of its output channels is. Uses the same
        // introspection (`partition_keys`) as the partitioning analysis so
        // the engine's cone always matches the analysis' split decision.
        let in_stateful_cone = {
            let stateless_key: Vec<bool> = ops
                .iter()
                .map(|op| matches!(op.partition_keys(), PartitionKeys::Stateless))
                .collect();
            let mut op_outputs: Vec<Vec<ChannelId>> = vec![Vec::new(); ops.len()];
            for &id in &order {
                let node = plan.mop(id);
                for m in &node.members {
                    op_outputs[exec_index[&id]].push(plan.channel_of(m.output));
                }
            }
            let mut in_cone = vec![false; ops.len()];
            // Exec indices are topological, so a reverse scan sees every
            // consumer before its producer.
            for idx in (0..ops.len()).rev() {
                let mut cone = !stateless_key[idx];
                if !cone {
                    'downstream: for &ch in &op_outputs[idx] {
                        for &(cidx, _) in &consumers[ch.index()] {
                            if in_cone[cidx] {
                                cone = true;
                                break 'downstream;
                            }
                        }
                    }
                }
                in_cone[idx] = cone;
            }
            in_cone
        };
        let mut stateful_root: Vec<Vec<(usize, PortId)>> = vec![Vec::new(); source_channels.len()];
        let mut free_root: Vec<Vec<(usize, PortId)>> = vec![Vec::new(); source_channels.len()];
        for (si, &ch) in source_channels.iter().enumerate() {
            for &(idx, port) in &consumers[ch.index()] {
                if in_stateful_cone[idx] {
                    stateful_root[si].push((idx, port));
                } else {
                    free_root[si].push((idx, port));
                }
            }
        }

        let tap_masks = query_taps
            .iter()
            .map(|taps| {
                if taps.is_empty() {
                    return None;
                }
                let mask = Membership::from_indices(taps.iter().map(|(p, _)| *p));
                let first = taps[0].1.len() as u64;
                let uniform = taps
                    .iter()
                    .all(|(_, qs)| qs.len() as u64 == first)
                    .then_some(first);
                Some((mask, uniform))
            })
            .collect();

        let batch_safe = ops.iter().all(|op| op.is_stateless());

        ExecutablePlan {
            op_counters: vec![OpCounters::default(); ops.len()],
            ops,
            op_ids: order,
            op_ctxs,
            consumers,
            stateful_root,
            free_root,
            query_taps,
            tap_masks,
            source_channels,
            pending: VecDeque::new(),
            batch_safe,
            cur: EventBuf::default(),
            nxt: EventBuf::default(),
            events_in: 0,
            sample_this: false,
        }
    }

    /// Number of compiled m-ops.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Names of the compiled implementations in topological order.
    pub fn op_names(&self) -> Vec<(MopId, &'static str)> {
        self.op_ids
            .iter()
            .zip(&self.ops)
            .map(|(&id, op)| (id, op.name()))
            .collect()
    }

    /// Pushes one channel tuple on a channel source (Workload 3's input
    /// shape): the membership says which of the source's streams the tuple
    /// belongs to.
    pub fn push_channel(
        &mut self,
        source: SourceId,
        tuple: Tuple,
        membership: Membership,
        sink: &mut dyn QuerySink,
    ) -> Result<()> {
        let channel = *self
            .source_channels
            .get(source.index())
            .ok_or_else(|| RumorError::exec(format!("unknown source {source}")))?;
        self.events_in += 1;
        self.tick_sample();
        self.pending
            .push_back((channel, ChannelTuple::new(tuple, membership)));
        self.drain(sink);
        Ok(())
    }

    /// Refreshes the cached per-event sampling decision — call right
    /// after `events_in` advances at a push entry point.
    #[inline(always)]
    fn tick_sample(&mut self) {
        if crate::stats::STATS_COMPILED {
            self.sample_this = self.events_in & (TIME_SAMPLE_EVERY - 1) == 0;
        }
    }

    /// A clock read for the current dispatch iff the current event is
    /// sampled (see the `sample_this` field). Pair with
    /// [`OpCounters::record_time`].
    #[inline(always)]
    fn sample_clock(&self) -> Option<Instant> {
        if crate::stats::STATS_COMPILED && self.sample_this {
            return Some(Instant::now());
        }
        None
    }

    fn drain(&mut self, sink: &mut dyn QuerySink) {
        let detailed = sink.wants_tuples();
        while let Some((ch, ct)) = self.pending.pop_front() {
            // Query taps first: results are observable even when further
            // operators also consume the stream.
            if detailed {
                for (pos, queries) in &self.query_taps[ch.index()] {
                    if ct.belongs_to(*pos) {
                        for &q in queries {
                            sink.on_result(q, &ct.tuple);
                        }
                    }
                }
            } else if let Some((mask, uniform)) = &self.tap_masks[ch.index()] {
                // Channel-granularity delivery: one intersection instead of
                // a per-query fan-out.
                let hits = ct.membership.intersect(mask);
                if !hits.is_empty() {
                    let n = match uniform {
                        Some(per_pos) => hits.len() as u64 * per_pos,
                        None => self.query_taps[ch.index()]
                            .iter()
                            .filter(|(p, _)| hits.contains(*p))
                            .map(|(_, qs)| qs.len() as u64)
                            .sum(),
                    };
                    sink.on_batch(n, &ct.tuple);
                }
            }
            for &(idx, port) in &self.consumers[ch.index()] {
                let before = self.pending.len();
                let t0 = self.sample_clock();
                let mut emit = QueueEmit {
                    pending: &mut self.pending,
                };
                self.ops[idx].process(port, &ct, &mut emit);
                self.op_counters[idx].record_event((self.pending.len() - before) as u64);
                self.op_counters[idx].record_time(t0, 1);
            }
        }
    }

    /// Pushes one source tuple through the plan, draining all downstream
    /// work before returning. Tuples must arrive in global timestamp order.
    pub fn push(&mut self, source: SourceId, tuple: Tuple, sink: &mut dyn QuerySink) -> Result<()> {
        let channel = *self
            .source_channels
            .get(source.index())
            .ok_or_else(|| RumorError::exec(format!("unknown source {source}")))?;
        self.events_in += 1;
        self.tick_sample();
        self.pending.push_back((channel, ChannelTuple::solo(tuple)));
        self.drain(sink);
        Ok(())
    }

    /// Pushes one source tuple restricted to one subgraph of the plan (see
    /// [`ConeScope`]). `Full` is identical to [`ExecutablePlan::push`];
    /// `Stateful` processes only source consumers inside the stateful cone
    /// (no source-channel taps); `Stateless` delivers the source channel's
    /// taps and processes only consumers outside the cone. Either scoped
    /// delivery fully drains its derived cascade before returning, and the
    /// pair of scoped deliveries reproduces one full push exactly.
    pub fn push_cone(
        &mut self,
        source: SourceId,
        tuple: Tuple,
        scope: ConeScope,
        sink: &mut dyn QuerySink,
    ) -> Result<()> {
        let channel = *self
            .source_channels
            .get(source.index())
            .ok_or_else(|| RumorError::exec(format!("unknown source {source}")))?;
        self.events_in += 1;
        self.tick_sample();
        let ct = ChannelTuple::solo(tuple);
        match scope {
            ConeScope::Full => {
                self.pending.push_back((channel, ct));
            }
            ConeScope::Stateful => {
                for &(idx, port) in &self.stateful_root[source.index()] {
                    let before = self.pending.len();
                    let t0 = self.sample_clock();
                    let mut emit = QueueEmit {
                        pending: &mut self.pending,
                    };
                    self.ops[idx].process(port, &ct, &mut emit);
                    self.op_counters[idx].record_event((self.pending.len() - before) as u64);
                    self.op_counters[idx].record_time(t0, 1);
                }
            }
            ConeScope::Stateless => {
                let detailed = sink.wants_tuples();
                self.deliver_taps(channel, std::slice::from_ref(&ct), detailed, sink);
                for &(idx, port) in &self.free_root[source.index()] {
                    let before = self.pending.len();
                    let t0 = self.sample_clock();
                    let mut emit = QueueEmit {
                        pending: &mut self.pending,
                    };
                    self.ops[idx].process(port, &ct, &mut emit);
                    self.op_counters[idx].record_event((self.pending.len() - before) as u64);
                    self.op_counters[idx].record_time(t0, 1);
                }
            }
        }
        self.drain(sink);
        Ok(())
    }

    /// Whether this plan qualifies for the channel-batched fast path (all
    /// compiled m-ops are stateless).
    pub fn is_batch_safe(&self) -> bool {
        self.batch_safe
    }

    /// Per-m-op partitioning key reports (see
    /// [`rumor_core::MultiOp::partition_keys`]), the physical input to
    /// [`rumor_core::partition::analyze`].
    pub fn partition_reports(&self) -> Vec<(MopId, PartitionKeys)> {
        self.op_ids
            .iter()
            .zip(&self.ops)
            .map(|(&id, op)| (id, op.partition_keys()))
            .collect()
    }

    /// A point-in-time introspection report for this executor: per-op
    /// dispatch counters (cumulative since construction, hot swaps
    /// included) plus sampled state-size gauges. Partition-parallel
    /// runtimes fold one report per worker with [`ExecStatsReport::absorb`].
    pub fn stats_report(&self) -> ExecStatsReport {
        let ops = self
            .op_ids
            .iter()
            .zip(&self.ops)
            .zip(&self.op_counters)
            .map(|((&mop, op), c)| OpStats {
                mop,
                name: op.name().to_string(),
                events_in: c.events_in,
                events_out: c.events_out,
                batch_calls: c.batch_calls,
                event_calls: c.event_calls,
                state_size: op.state_size() as u64,
                sampled_nanos: c.sampled_nanos,
                sampled_calls: c.sampled_calls,
                sampled_events: c.sampled_events,
            })
            .collect();
        ExecStatsReport { ops }
    }

    /// Pushes a timestamp-ordered slice of source events through the plan.
    ///
    /// Per-query results are identical to pushing the events one at a time
    /// with [`ExecutablePlan::push`], and the dispatch follows one static
    /// rule. On fully stateless plans (see
    /// [`ExecutablePlan::is_batch_safe`]) events are routed at *run*
    /// granularity: consecutive same-channel events form one
    /// [`rumor_core::MultiOp::process_batch`] call per consumer, amortizing
    /// routing, dispatch, and queue bookkeeping over the run. A plan with
    /// any stateful m-op feeds every event through
    /// [`ExecutablePlan::push`], in order: stateful m-ops must see events
    /// in global timestamp order to give the per-query answers of the
    /// operators they replace, and per-event delivery is the order the
    /// conformance oracle runs.
    pub fn push_batch(
        &mut self,
        events: &[(SourceId, Tuple)],
        sink: &mut dyn QuerySink,
    ) -> Result<()> {
        if !self.batch_safe {
            for (source, tuple) in events {
                self.push(*source, tuple.clone(), sink)?;
            }
            return Ok(());
        }
        // Drain in bounded chunks so the level buffers stay cache-resident:
        // one wave over the whole input would materialize every derived
        // level in full, trading the per-event queue overhead for memory
        // traffic.
        for chunk in events.chunks(BATCH_CHUNK) {
            self.run_chunk_batched(chunk.iter(), sink)?;
        }
        Ok(())
    }

    /// [`ExecutablePlan::push_batch`] over a *selection* of `events`:
    /// processes `events[i]` for each `i` in `indices`, in order. This is
    /// the worker-side half of shared-batch delivery — partition-parallel
    /// runtimes ship one shared event slice plus a per-worker index list
    /// instead of materializing per-worker event runs, and each worker
    /// feeds its selection by the same rule as a contiguous batch.
    pub fn push_batch_indexed(
        &mut self,
        events: &[(SourceId, Tuple)],
        indices: &[u32],
        sink: &mut dyn QuerySink,
    ) -> Result<()> {
        if !self.batch_safe {
            for &i in indices {
                let (source, tuple) = &events[i as usize];
                self.push(*source, tuple.clone(), sink)?;
            }
            return Ok(());
        }
        for chunk in indices.chunks(BATCH_CHUNK) {
            self.run_chunk_batched(chunk.iter().map(|&i| &events[i as usize]), sink)?;
        }
        Ok(())
    }

    /// Stages one chunk and runs the batched drain. On an unknown source,
    /// matches `push`: the valid prefix is fully processed (drained,
    /// counted) before the error — no staged events may leak into a later
    /// call.
    fn run_chunk_batched<'a, I>(&mut self, chunk: I, sink: &mut dyn QuerySink) -> Result<()>
    where
        I: Iterator<Item = &'a (SourceId, Tuple)>,
    {
        let mut bad_source = None;
        for (source, tuple) in chunk {
            match self.source_channels.get(source.index()) {
                Some(&channel) => {
                    self.cur.push(channel, ChannelTuple::solo(tuple.clone()));
                    self.events_in += 1;
                }
                None => {
                    bad_source = Some(*source);
                    break;
                }
            }
        }
        self.tick_sample();
        self.drain_batched(sink);
        if let Some(source) = bad_source {
            return Err(RumorError::exec(format!("unknown source {source}")));
        }
        Ok(())
    }

    /// Level-order batched drain of a fully stateless plan: consumes the
    /// whole current buffer (runs of consecutive same-channel events feed
    /// each consumer through one `process_batch` call), with all emissions
    /// collected into the next buffer; then the buffers swap. Per-channel
    /// event order is preserved, which is all stateless consumers and
    /// query delivery observe.
    fn drain_batched(&mut self, sink: &mut dyn QuerySink) {
        let detailed = sink.wants_tuples();
        while !self.cur.is_empty() {
            // Split the borrow: the ops read `cur` while emitting into
            // `nxt` through the adapter.
            let cur = std::mem::take(&mut self.cur);
            let mut i = 0;
            while i < cur.chans.len() {
                let ch = cur.chans[i];
                let mut j = i + 1;
                while j < cur.chans.len() && cur.chans[j] == ch {
                    j += 1;
                }
                let run = &cur.tuples[i..j];
                self.deliver_taps(ch, run, detailed, sink);
                for &(idx, port) in &self.consumers[ch.index()] {
                    let before = self.nxt.chans.len();
                    let t0 = self.op_counters[idx].sample_start();
                    let mut emit = BufEmit { buf: &mut self.nxt };
                    self.ops[idx].process_batch(port, run, &mut emit);
                    self.op_counters[idx]
                        .record_batch(run.len() as u64, (self.nxt.chans.len() - before) as u64);
                    self.op_counters[idx].record_time(t0, run.len() as u64);
                }
                i = j;
            }
            // Recycle the consumed buffer's allocation, then promote the
            // freshly emitted level.
            self.cur = cur;
            self.cur.clear();
            std::mem::swap(&mut self.cur, &mut self.nxt);
        }
    }

    /// Query-tap delivery for one run (identical per-query ordering to the
    /// per-event drain).
    fn deliver_taps(
        &self,
        ch: ChannelId,
        run: &[ChannelTuple],
        detailed: bool,
        sink: &mut dyn QuerySink,
    ) {
        if detailed {
            let taps = &self.query_taps[ch.index()];
            if taps.is_empty() {
                return;
            }
            for ct in run {
                for (pos, queries) in taps {
                    if ct.belongs_to(*pos) {
                        for &q in queries {
                            sink.on_result(q, &ct.tuple);
                        }
                    }
                }
            }
        } else if let Some((mask, uniform)) = &self.tap_masks[ch.index()] {
            for ct in run {
                let hits = ct.membership.intersect(mask);
                if !hits.is_empty() {
                    let n = match uniform {
                        Some(per_pos) => hits.len() as u64 * per_pos,
                        None => self.query_taps[ch.index()]
                            .iter()
                            .filter(|(p, _)| hits.contains(*p))
                            .map(|(_, qs)| qs.len() as u64)
                            .sum(),
                    };
                    sink.on_batch(n, &ct.tuple);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rumor_core::{LogicalPlan, Optimizer, OptimizerConfig, SeqSpec};
    use rumor_expr::{CmpOp, Expr, Predicate};
    use rumor_types::Schema;

    fn feed_interleaved(
        exec: &mut ExecutablePlan,
        s: SourceId,
        t: SourceId,
        n: u64,
        sink: &mut impl QuerySink,
    ) {
        // S gets even timestamps, T odd — the paper's §5.1 interleaving.
        for ts in 0..n {
            let src = if ts % 2 == 0 { s } else { t };
            exec.push(src, Tuple::ints(ts, &[(ts % 5) as i64, ts as i64]), sink)
                .unwrap();
        }
    }

    #[test]
    fn selection_query_end_to_end() {
        let mut plan = PlanGraph::new();
        let s = plan.add_source("S", Schema::ints(2), None).unwrap();
        let q = plan
            .add_query(&LogicalPlan::source("S").select(Predicate::attr_eq_const(0, 3i64)))
            .unwrap();
        let mut exec = ExecutablePlan::new(&plan).unwrap();
        let mut sink = CollectingSink::default();
        for ts in 0..10u64 {
            exec.push(s, Tuple::ints(ts, &[(ts % 5) as i64, 0]), &mut sink)
                .unwrap();
        }
        // a0 == 3 at ts 3 and 8.
        let got = sink.of(q);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].ts, 3);
        assert_eq!(got[1].ts, 8);
        assert_eq!(exec.events_in, 10);
    }

    #[test]
    fn optimized_and_naive_plans_agree() {
        // Two identical queries + one different; the optimized plan must
        // produce exactly the same per-query results.
        let build = || {
            let mut plan = PlanGraph::new();
            plan.add_source("S", Schema::ints(2), None).unwrap();
            plan.add_source("T", Schema::ints(2), None).unwrap();
            let mk = |c: i64| {
                LogicalPlan::source("S")
                    .select(Predicate::attr_eq_const(0, c))
                    .followed_by(
                        LogicalPlan::source("T"),
                        SeqSpec {
                            predicate: Predicate::cmp(CmpOp::Eq, Expr::col(1), Expr::rcol(1)),
                            window: 6,
                        },
                    )
            };
            let qs: Vec<QueryId> = (0..3)
                .map(|i| plan.add_query(&mk(i % 2)).unwrap())
                .collect();
            (plan, qs)
        };

        let (naive_plan, qs) = build();
        let (mut opt_plan, qs2) = build();
        assert_eq!(qs, qs2);
        Optimizer::new(OptimizerConfig::default())
            .optimize(&mut opt_plan)
            .unwrap();
        assert!(opt_plan.mop_count() < naive_plan.mop_count());

        let run = |plan: &PlanGraph| {
            let mut exec = ExecutablePlan::new(plan).unwrap();
            let mut sink = CollectingSink::default();
            let s = plan.source_by_name("S").unwrap().id;
            let t = plan.source_by_name("T").unwrap().id;
            feed_interleaved(&mut exec, s, t, 60, &mut sink);
            let mut per_query: Vec<Vec<String>> = Vec::new();
            for &q in &qs {
                let mut v: Vec<String> = sink.of(q).iter().map(|t| t.to_string()).collect();
                v.sort();
                per_query.push(v);
            }
            per_query
        };
        assert_eq!(run(&naive_plan), run(&opt_plan));
    }

    #[test]
    fn counting_sink_counts() {
        let mut sink = CountingSink::default();
        sink.on_result(QueryId(0), &Tuple::ints(0, &[1]));
        sink.on_result(QueryId(0), &Tuple::ints(1, &[1]));
        sink.on_result(QueryId(1), &Tuple::ints(1, &[1]));
        assert_eq!(sink.count(QueryId(0)), 2);
        assert_eq!(sink.count(QueryId(1)), 1);
        assert_eq!(sink.count(QueryId(9)), 0);
        assert_eq!(sink.total, 3);
    }

    #[test]
    fn push_batch_matches_push_on_stateless_plan() {
        // Shared selections: stateless, so the run-batched drain engages.
        let build = || {
            let mut plan = PlanGraph::new();
            plan.add_source("S", Schema::ints(2), None).unwrap();
            let qs: Vec<QueryId> = (0..6)
                .map(|c| {
                    plan.add_query(
                        &LogicalPlan::source("S").select(Predicate::attr_eq_const(0, c % 4)),
                    )
                    .unwrap()
                })
                .collect();
            Optimizer::new(OptimizerConfig::default())
                .optimize(&mut plan)
                .unwrap();
            (plan, qs)
        };
        let (plan, qs) = build();
        let s = plan.source_by_name("S").unwrap().id;
        let events: Vec<(SourceId, Tuple)> = (0..200u64)
            .map(|ts| (s, Tuple::ints(ts, &[(ts % 7) as i64, ts as i64])))
            .collect();

        let mut exec_a = ExecutablePlan::new(&plan).unwrap();
        assert!(exec_a.is_batch_safe());
        let mut a = CollectingSink::default();
        for (src, t) in &events {
            exec_a.push(*src, t.clone(), &mut a).unwrap();
        }

        let mut exec_b = ExecutablePlan::new(&plan).unwrap();
        let mut b = CollectingSink::default();
        exec_b.push_batch(&events, &mut b).unwrap();

        assert_eq!(exec_a.events_in, exec_b.events_in);
        for &q in &qs {
            assert_eq!(a.of(q), b.of(q), "query {q} diverged under push_batch");
        }

        // Counting delivery agrees too.
        let mut exec_c = ExecutablePlan::new(&plan).unwrap();
        let mut c = CountingSink::default();
        exec_c.push_batch(&events, &mut c).unwrap();
        assert_eq!(c.total, a.results.len() as u64);
    }

    #[test]
    fn push_batch_falls_back_on_stateful_plan() {
        // A sequence query makes the plan stateful: push_batch must feed
        // every event through push and match it exactly.
        let build = || {
            let mut plan = PlanGraph::new();
            plan.add_source("S", Schema::ints(2), None).unwrap();
            plan.add_source("T", Schema::ints(2), None).unwrap();
            let q = plan
                .add_query(
                    &LogicalPlan::source("S")
                        .select(Predicate::attr_eq_const(0, 1i64))
                        .followed_by(
                            LogicalPlan::source("T"),
                            SeqSpec {
                                predicate: Predicate::cmp(CmpOp::Eq, Expr::col(1), Expr::rcol(1)),
                                window: 8,
                            },
                        ),
                )
                .unwrap();
            Optimizer::new(OptimizerConfig::default())
                .optimize(&mut plan)
                .unwrap();
            (plan, q)
        };
        let (plan, q) = build();
        let s = plan.source_by_name("S").unwrap().id;
        let t = plan.source_by_name("T").unwrap().id;
        let events: Vec<(SourceId, Tuple)> = (0..120u64)
            .map(|ts| {
                let src = if ts % 2 == 0 { s } else { t };
                (
                    src,
                    Tuple::ints(ts, &[(ts % 3) as i64, ((ts / 2) % 4) as i64]),
                )
            })
            .collect();

        let mut exec_a = ExecutablePlan::new(&plan).unwrap();
        assert!(!exec_a.is_batch_safe());
        let mut a = CollectingSink::default();
        for (src, tu) in &events {
            exec_a.push(*src, tu.clone(), &mut a).unwrap();
        }
        let mut exec_b = ExecutablePlan::new(&plan).unwrap();
        let mut b = CollectingSink::default();
        exec_b.push_batch(&events, &mut b).unwrap();
        assert!(!a.of(q).is_empty(), "workload must produce matches");
        assert_eq!(a.of(q), b.of(q));
    }

    #[test]
    fn push_batch_equal_timestamps_take_per_event_fallback_and_match_push() {
        // All-tied input on a stateful plan must match push exactly,
        // including per-query result order.
        let build = || {
            let mut plan = PlanGraph::new();
            plan.add_source("S", Schema::ints(2), None).unwrap();
            plan.add_source("T", Schema::ints(2), None).unwrap();
            let q = plan
                .add_query(
                    &LogicalPlan::source("S")
                        .select(Predicate::attr_eq_const(0, 1i64))
                        .followed_by(
                            LogicalPlan::source("T"),
                            SeqSpec {
                                predicate: Predicate::cmp(CmpOp::Eq, Expr::col(1), Expr::rcol(1)),
                                window: 9,
                            },
                        ),
                )
                .unwrap();
            Optimizer::new(OptimizerConfig::default())
                .optimize(&mut plan)
                .unwrap();
            (plan, q)
        };
        let (plan, q) = build();
        let s = plan.source_by_name("S").unwrap().id;
        let t = plan.source_by_name("T").unwrap().id;
        // Every timestamp occurs twice (once per source): all-tied input.
        let events: Vec<(SourceId, Tuple)> = (0..160u64)
            .map(|i| {
                let src = if i % 2 == 0 { s } else { t };
                (
                    src,
                    Tuple::ints(i / 2, &[(i % 3) as i64, ((i / 2) % 4) as i64]),
                )
            })
            .collect();

        let mut exec_a = ExecutablePlan::new(&plan).unwrap();
        let mut a = CollectingSink::default();
        for (src, tu) in &events {
            exec_a.push(*src, tu.clone(), &mut a).unwrap();
        }
        let mut exec_b = ExecutablePlan::new(&plan).unwrap();
        let mut b = CollectingSink::default();
        exec_b.push_batch(&events, &mut b).unwrap();
        assert!(!a.of(q).is_empty(), "workload must produce matches");
        assert_eq!(a.of(q), b.of(q));
        assert_eq!(exec_a.events_in, exec_b.events_in);
    }

    #[test]
    fn scoped_cone_pair_reproduces_full_push() {
        // A pinned stateful subgraph (unkeyed sequence) plus stateless
        // sibling queries on the same source: pushing each tuple once per
        // cone scope must reproduce the full push exactly — every source
        // consumer processed once, source-channel taps delivered once (by
        // the stateless leg).
        let mut plan = PlanGraph::new();
        let s = plan.add_source("S", Schema::ints(2), None).unwrap();
        let t = plan.add_source("T", Schema::ints(2), None).unwrap();
        let q_seq = plan
            .add_query(&LogicalPlan::source("S").followed_by(
                LogicalPlan::source("T"),
                SeqSpec {
                    predicate: Predicate::cmp(CmpOp::Lt, Expr::col(1), Expr::rcol(1)),
                    window: 10,
                },
            ))
            .unwrap();
        let q_sel = plan
            .add_query(&LogicalPlan::source("S").select(Predicate::attr_eq_const(0, 1i64)))
            .unwrap();
        // A query tapping the source stream directly (no operator at all):
        // its results are source-channel taps, owned by the stateless leg.
        let q_tap = plan.add_query(&LogicalPlan::source("S")).unwrap();

        let events: Vec<(SourceId, Tuple)> = (0..60u64)
            .map(|ts| {
                let src = if ts % 2 == 0 { s } else { t };
                (src, Tuple::ints(ts, &[(ts % 3) as i64, (ts % 7) as i64]))
            })
            .collect();

        let mut full = ExecutablePlan::new(&plan).unwrap();
        let mut want = CollectingSink::default();
        for (src, tu) in &events {
            full.push(*src, tu.clone(), &mut want).unwrap();
        }

        let mut scoped = ExecutablePlan::new(&plan).unwrap();
        let mut got = CollectingSink::default();
        for (src, tu) in &events {
            scoped
                .push_cone(*src, tu.clone(), ConeScope::Stateless, &mut got)
                .unwrap();
            scoped
                .push_cone(*src, tu.clone(), ConeScope::Stateful, &mut got)
                .unwrap();
        }

        assert!(!want.of(q_seq).is_empty());
        assert!(!want.of(q_sel).is_empty());
        assert!(!want.of(q_tap).is_empty());
        for q in [q_seq, q_sel, q_tap] {
            assert_eq!(
                got.of(q),
                want.of(q),
                "query {q} diverged under scoped pushes"
            );
        }
        // ConeScope::Full is push() verbatim.
        let mut full2 = ExecutablePlan::new(&plan).unwrap();
        let mut full2_sink = CollectingSink::default();
        for (src, tu) in &events {
            full2
                .push_cone(*src, tu.clone(), ConeScope::Full, &mut full2_sink)
                .unwrap();
        }
        assert_eq!(full2_sink.results, want.results);
    }

    #[test]
    fn apply_delta_preserves_untouched_stateful_state() {
        // A windowed sequence query must keep matching across an
        // unrelated add and remove: its compiled operator instance (and
        // the AI-index state inside it) survives both hot swaps.
        let mut plan = PlanGraph::new();
        let s = plan.add_source("S", Schema::ints(2), None).unwrap();
        let t = plan.add_source("T", Schema::ints(2), None).unwrap();
        let seq_query = LogicalPlan::source("S")
            .select(Predicate::attr_eq_const(0, 1i64))
            .followed_by(
                LogicalPlan::source("T"),
                SeqSpec {
                    predicate: Predicate::cmp(CmpOp::Eq, Expr::col(1), Expr::rcol(1)),
                    window: 40,
                },
            );
        let q_seq = plan.add_query(&seq_query).unwrap();
        let q_sel = plan
            .add_query(&LogicalPlan::source("S").select(Predicate::attr_eq_const(0, 2i64)))
            .unwrap();
        let optimizer = Optimizer::new(OptimizerConfig::default());
        optimizer.optimize(&mut plan).unwrap();
        let original = plan.clone();

        let events: Vec<(SourceId, Tuple)> = (0..150u64)
            .map(|ts| {
                let src = if ts % 2 == 0 { s } else { t };
                (
                    src,
                    Tuple::ints(ts, &[(ts % 3) as i64, ((ts / 2) % 4) as i64]),
                )
            })
            .collect();

        let mut exec = ExecutablePlan::new(&plan).unwrap();
        let mut live = CollectingSink::default();
        for (src, tu) in &events[..50] {
            exec.push(*src, tu.clone(), &mut live).unwrap();
        }
        // Unrelated add: a new selection integrates into the live plan.
        let added = optimizer
            .integrate(
                &mut plan,
                &LogicalPlan::source("S").select(Predicate::attr_eq_const(1, 3i64)),
            )
            .unwrap();
        exec.apply_delta(&plan).unwrap();
        for (src, tu) in &events[50..100] {
            exec.push(*src, tu.clone(), &mut live).unwrap();
        }
        // ...and unrelated remove.
        plan.remove_query(added.query).unwrap();
        exec.apply_delta(&plan).unwrap();
        for (src, tu) in &events[100..] {
            exec.push(*src, tu.clone(), &mut live).unwrap();
        }

        // Oracle: the original plan fed the whole history in one life.
        let mut oracle_exec = ExecutablePlan::new(&original).unwrap();
        let mut oracle = CollectingSink::default();
        for (src, tu) in &events {
            oracle_exec.push(*src, tu.clone(), &mut oracle).unwrap();
        }
        assert!(!oracle.of(q_seq).is_empty(), "sequence must match");
        // The sequence query's results span both swap boundaries: pairs
        // whose S-instance arrived before a swap and whose T-event arrived
        // after it only exist if the operator state survived.
        assert!(
            oracle
                .of(q_seq)
                .iter()
                .any(|tu| (50..100).contains(&tu.ts) || tu.ts >= 100),
            "window must span the swaps for the test to mean anything"
        );
        assert_eq!(live.of(q_seq), oracle.of(q_seq));
        assert_eq!(live.of(q_sel), oracle.of(q_sel));
        // The added query saw exactly its lifetime's events.
        let added_results: Vec<&Tuple> = live.of(added.query);
        assert!(added_results.iter().all(|tu| tu.ts >= 50 && tu.ts < 100));
        assert!(!added_results.is_empty());
    }

    #[test]
    fn unknown_source_rejected() {
        let mut plan = PlanGraph::new();
        plan.add_source("S", Schema::ints(1), None).unwrap();
        let mut exec = ExecutablePlan::new(&plan).unwrap();
        let mut sink = DiscardSink;
        assert!(exec
            .push(SourceId(9), Tuple::ints(0, &[1]), &mut sink)
            .is_err());
    }

    #[test]
    fn push_batch_unknown_source_processes_valid_prefix_and_leaks_nothing() {
        let mut plan = PlanGraph::new();
        let s = plan.add_source("S", Schema::ints(1), None).unwrap();
        let q = plan
            .add_query(&LogicalPlan::source("S").select(Predicate::True))
            .unwrap();
        let mut exec = ExecutablePlan::new(&plan).unwrap();
        assert!(exec.is_batch_safe());
        let mut sink = CollectingSink::default();
        let events = vec![
            (s, Tuple::ints(0, &[1])),
            (SourceId(9), Tuple::ints(1, &[2])),
            (s, Tuple::ints(2, &[3])),
        ];
        assert!(exec.push_batch(&events, &mut sink).is_err());
        // The valid prefix was fully processed (matching `push` semantics)...
        assert_eq!(sink.of(q).len(), 1);
        assert_eq!(exec.events_in, 1);
        // ...and nothing from the failed call leaks into the next one.
        let mut sink2 = CollectingSink::default();
        exec.push_batch(&[(s, Tuple::ints(3, &[4]))], &mut sink2)
            .unwrap();
        assert_eq!(sink2.of(q).len(), 1);
        assert_eq!(sink2.of(q)[0].ts, 3);
        assert_eq!(exec.events_in, 2);
    }

    #[test]
    fn stats_report_tracks_per_event_dispatch() {
        let mut plan = PlanGraph::new();
        let s = plan.add_source("S", Schema::ints(1), None).unwrap();
        plan.add_query(&LogicalPlan::source("S").select(Predicate::attr_eq_const(0, 0i64)))
            .unwrap();
        let mut exec = ExecutablePlan::new(&plan).unwrap();
        let mut sink = CountingSink::default();
        for ts in 0..10u64 {
            exec.push(s, Tuple::ints(ts, &[(ts % 2) as i64]), &mut sink)
                .unwrap();
        }
        let report = exec.stats_report();
        assert_eq!(report.ops.len(), 1);
        if crate::stats::STATS_COMPILED {
            let op = &report.ops[0];
            assert_eq!(op.events_in, 10);
            assert_eq!(op.event_calls, 10);
            assert_eq!(op.events_out, 5, "half the tuples pass a0 = 0");
            assert_eq!(op.batch_calls, 0);
            assert!((op.selectivity() - 0.5).abs() < 1e-9);
        }
    }

    #[test]
    fn stats_report_tracks_batched_dispatch_and_state() {
        // A sequence keeps state the report samples, and makes the plan
        // stateful, so push_batch dispatches it per event only.
        let mut plan = PlanGraph::new();
        let s = plan.add_source("S", Schema::ints(2), None).unwrap();
        let t = plan.add_source("T", Schema::ints(2), None).unwrap();
        plan.add_query(&LogicalPlan::source("S").followed_by(
            LogicalPlan::source("T"),
            SeqSpec {
                predicate: Predicate::cmp(CmpOp::Eq, Expr::col(0), Expr::rcol(0)),
                window: 100,
            },
        ))
        .unwrap();
        let mut exec = ExecutablePlan::new(&plan).unwrap();
        let mut sink = CountingSink::default();
        let events: Vec<(SourceId, Tuple)> = (0..20u64)
            .map(|ts| {
                let src = if ts % 2 == 0 { s } else { t };
                (src, Tuple::ints(ts, &[(ts % 3) as i64, ts as i64]))
            })
            .collect();
        exec.push_batch(&events, &mut sink).unwrap();
        let report = exec.stats_report();
        if crate::stats::STATS_COMPILED {
            let total_in: u64 = report.ops.iter().map(|o| o.events_in).sum();
            assert!(total_in >= 20, "every event reaches at least one op");
            let seq = report
                .ops
                .iter()
                .find(|o| o.state_size > 0)
                .expect("the sequence op holds live instances");
            assert!(seq.events_in > 0);
            assert_eq!(seq.batch_calls, 0);
            assert_eq!(seq.event_calls, seq.events_in);
        }
    }

    #[test]
    fn stats_counters_survive_hot_swap() {
        let mut plan = PlanGraph::new();
        let s = plan.add_source("S", Schema::ints(1), None).unwrap();
        plan.add_query(&LogicalPlan::source("S").select(Predicate::attr_eq_const(0, 0i64)))
            .unwrap();
        let mut exec = ExecutablePlan::new(&plan).unwrap();
        let mut sink = CountingSink::default();
        for ts in 0..6u64 {
            exec.push(s, Tuple::ints(ts, &[0i64]), &mut sink).unwrap();
        }
        let before = exec.stats_report();
        // Add a second query: the surviving select keeps its counters.
        plan.add_query(&LogicalPlan::source("S").select(Predicate::attr_eq_const(0, 1i64)))
            .unwrap();
        exec.apply_delta(&plan).unwrap();
        let after = exec.stats_report();
        if crate::stats::STATS_COMPILED {
            let surviving = after
                .ops
                .iter()
                .find(|o| o.mop == before.ops[0].mop)
                .expect("original op survives the swap");
            assert_eq!(surviving.events_in, before.ops[0].events_in);
        }
        assert_eq!(exec.events_in, 6);
    }
}
