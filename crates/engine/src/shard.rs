//! The partition-parallel shared-plan runtime.
//!
//! [`ShardedRuntime`] clones a compiled plan across `n` workers and routes
//! every pushed source tuple to exactly one of them, following the static
//! [`PartitionScheme`] computed by `rumor-core`'s partitioning analysis
//! from the compiled m-ops' key reports
//! ([`rumor_core::MultiOp::partition_keys`]):
//!
//! * tuples of **stateless** components round-robin across workers (any
//!   distribution preserves per-query result multisets);
//! * tuples of **key-partitionable** components hash on the component's
//!   per-source key attributes, so every pair of tuples that can meet in
//!   stateful operator state (join/sequence/iterate partners, aggregate
//!   group members) lands on the same worker;
//! * tuples of **pinned** components all go to worker 0.
//!
//! Each worker owns a full [`ExecutablePlan`] clone plus its own sink;
//! [`ShardedRuntime::push_batch`] partitions the input slice, runs the
//! workers on scoped threads, and [`ShardedRuntime::finish`] folds the
//! per-worker sinks into one deterministic result ([`MergeSink`]).
//!
//! Within one worker the routed sub-stream preserves global timestamp
//! order (routing never reorders), so each clone sees a valid input and
//! per-query results across workers form exactly the multiset the
//! single-threaded engine produces. For fully pinned plans the runtime
//! degenerates to the single-threaded engine on worker 0.

use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crossbeam_channel::{bounded, Receiver, Sender};

use rumor_core::{
    analyze_partitioning, reanalyze_partitioning, MopContext, PartitionKeys, PartitionScheme,
    PlanDelta, PlanGraph, PlanSnapshot, SourceRoute, Verdict,
};
use rumor_types::{MopId, Result, RumorError, SourceId, Tuple};

use crate::exec::{
    CollectingSink, ConeScope, CountingSink, DiscardSink, ExecutablePlan, QuerySink,
};
use crate::session::EventRuntime;
use crate::stats::{ExecStatsReport, TraceEvent, TraceRing};

/// A sink sharded workers can each own privately and fold deterministically
/// at drain time.
pub trait MergeSink: QuerySink + Send {
    /// Folds `other` into `self`. Implementations must be associative and
    /// produce an order that does not depend on how results were
    /// distributed across workers (e.g. [`CollectingSink`] re-sorts by
    /// timestamp, then query id).
    fn merge(&mut self, other: Self)
    where
        Self: Sized;

    /// Called exactly once after every worker sink has been folded in —
    /// including the single-worker case, where [`MergeSink::merge`] never
    /// runs. Implementations whose canonical order is established by
    /// merging (again, [`CollectingSink`]) normalize here so `n = 1`
    /// results obey the same contract as `n > 1`.
    fn finalize(&mut self) {}
}

impl MergeSink for CountingSink {
    fn merge(&mut self, other: Self) {
        CountingSink::merge(self, other);
    }
}

impl MergeSink for CollectingSink {
    fn merge(&mut self, other: Self) {
        CollectingSink::merge(self, other);
    }

    fn finalize(&mut self) {
        // A single worker's results arrive in engine order (the batched
        // drain of a stateless plan delivers level by level, run by run),
        // not in the merged contract order.
        self.results.sort_by_key(|(q, t)| (t.ts, *q));
    }
}

impl MergeSink for DiscardSink {
    fn merge(&mut self, _other: Self) {}
}

struct Worker<S> {
    exec: ExecutablePlan,
    sink: S,
}

/// One routed delivery: where a tuple goes and how much of the plan it
/// addresses there ([`ConeScope::Full`] for every route except the two
/// legs of a split route).
enum Routed {
    One(usize),
    /// Split delivery: the stateful cone runs on `stateful` (worker 0 for
    /// [`SourceRoute::PinnedSplit`], the hashed worker for
    /// [`SourceRoute::KeySplit`]); the stateless sibling subgraph
    /// round-robins to `free`.
    Split {
        free: usize,
        stateful: usize,
    },
}

/// The single routing step shared by both shard runtimes: resolves one
/// source tuple against the scheme, advancing the source's round-robin
/// cursor (split routes advance it for their stateless leg). Any change
/// to routing semantics lands in both runtimes at once — the conformance
/// harness depends on them splitting input identically.
fn route_event(
    scheme: &PartitionScheme,
    rr_cursors: &mut [usize],
    n: usize,
    source: SourceId,
    tuple: &Tuple,
) -> Result<Routed> {
    let cursor = rr_cursors
        .get_mut(source.index())
        .ok_or_else(|| RumorError::exec(format!("unknown source {source}")))?;
    if matches!(
        scheme.route(source),
        SourceRoute::PinnedSplit | SourceRoute::KeySplit(_)
    ) {
        let free = *cursor % n;
        *cursor = (*cursor + 1) % n;
        // `worker_for` resolves the stateful leg of a split route without
        // touching the cursor (worker 0 when pinned, the key hash when
        // keyed — identical to the hash a plain `Key` route would use).
        let stateful = scheme.worker_for(source, tuple.values(), n, cursor);
        return Ok(Routed::Split { free, stateful });
    }
    Ok(Routed::One(scheme.worker_for(
        source,
        tuple.values(),
        n,
        cursor,
    )))
}

/// The `w`-th of `n` contiguous segments of a length-`len` slice — the
/// stateless batch distribution both runtimes use.
fn segment(len: usize, n: usize, w: usize) -> (usize, usize) {
    let per = len.div_ceil(n).max(1);
    ((w * per).min(len), ((w + 1) * per).min(len))
}

/// Re-derives the per-m-op partition-key reports after a plan delta.
/// Untouched ops carry their previous report over — their resolved
/// contexts compared equal, so re-instantiating them could not produce a
/// different key structure — and only added/rewired ops are instantiated
/// afresh. Swap cost thus scales with the delta, not the plan.
fn refresh_reports(
    plan: &PlanGraph,
    prev: &[(MopId, PartitionKeys)],
    delta: &PlanDelta,
) -> Result<Vec<(MopId, PartitionKeys)>> {
    let mut reports: Vec<(MopId, PartitionKeys)> = prev
        .iter()
        .filter(|(id, _)| !delta.removed.contains(id) && !delta.rewired.contains(id))
        .cloned()
        .collect();
    for &id in delta.added.iter().chain(delta.rewired.iter()) {
        let ctx = MopContext::build(plan, id)?;
        reports.push((id, rumor_ops::instantiate(&ctx)?.partition_keys()));
    }
    Ok(reports)
}

/// The shared hot-swap preamble of both runtimes. The delta is computed
/// here, against the runtime's *installed* snapshot — never taken from
/// the caller: a plan can accumulate several mutations between swaps
/// (including one whose swap was previously refused), and trusting a
/// per-mutation delta would let the ops of the earlier mutations slip
/// into the workers via `apply_delta` without a partition report or a
/// re-derived route — silently wrong routing. From the cumulative delta
/// this refreshes the key reports incrementally, re-derives the routing
/// scheme for touched components only, and refuses the swap when it
/// would re-route live stateful state ([`reroute_conflict`]). Nothing is
/// mutated on failure — a refused swap keeps being refused until the
/// caller resolves it (e.g. removes the offending query) and updates
/// again.
fn prepare_swap(
    plan: &PlanGraph,
    installed: &PlanSnapshot,
    prev_scheme: &PartitionScheme,
    prev_reports: &[(MopId, PartitionKeys)],
) -> Result<(PartitionScheme, Vec<(MopId, PartitionKeys)>)> {
    let delta = installed.delta(plan);
    let reports = refresh_reports(plan, prev_reports, &delta)?;
    let scheme = reanalyze_partitioning(plan, &reports, prev_scheme, &delta)?;
    if let Some(src) = reroute_conflict(prev_scheme, &scheme) {
        return Err(RumorError::exec(format!(
            "cannot hot-swap plan: source {src} would be re-routed under live stateful \
             state; rebuild the runtime for this change"
        )));
    }
    Ok((scheme, reports))
}

/// Routing-continuity check for plan hot-swaps: a source whose tuples feed
/// a stateful operator *with live state* must keep landing on the workers
/// holding that state. Re-routing it (a keyed component changing its key,
/// a keyed component becoming pinned, a pinned one becoming keyed) would
/// separate new tuples from the state their partners accumulated, so such
/// a swap is refused — the caller must rebuild the pool instead. Safe
/// transitions: an unchanged route; a previously *stateless* component
/// picking up its first stateful consumer (the new operator starts cold
/// everywhere, so any routing is as good as any other); a component
/// relaxing *to* stateless (no state left to mis-route); and the split
/// flips `Pinned ↔ PinnedSplit` and `Key ↔ KeySplit` *with equal key
/// attributes* (the stateful cone stays on worker 0 / the identical hash
/// either way — only the stateless sibling leg, which holds no state,
/// changes delivery). Returns the first offending source.
fn reroute_conflict(old: &PartitionScheme, new: &PartitionScheme) -> Option<SourceId> {
    let verdicts = |s: &PartitionScheme| -> Vec<Option<Verdict>> {
        let mut v = vec![None; s.routes().len()];
        for c in s.components() {
            for &src in &c.sources {
                v[src.index()] = Some(c.verdict);
            }
        }
        v
    };
    let old_v = verdicts(old);
    let new_v = verdicts(new);
    let pinnedish = |r: &SourceRoute| matches!(r, SourceRoute::Pinned | SourceRoute::PinnedSplit);
    fn keyedish(r: &SourceRoute) -> Option<&[usize]> {
        match r {
            SourceRoute::Key(attrs) | SourceRoute::KeySplit(attrs) => Some(attrs),
            _ => None,
        }
    }
    for (i, new_route) in new.routes().iter().enumerate() {
        let Some(old_route) = old.routes().get(i) else {
            continue; // source added by the swap: no history to honor
        };
        if old_route == new_route || (pinnedish(old_route) && pinnedish(new_route)) {
            continue;
        }
        if let (Some(a), Some(b)) = (keyedish(old_route), keyedish(new_route)) {
            if a == b {
                continue; // same hash for the stateful leg either way
            }
        }
        if old_v[i] == Some(Verdict::Stateless) || new_v[i] == Some(Verdict::Stateless) {
            continue;
        }
        return Some(SourceId::from_index(i));
    }
    None
}

/// Processes a run of scope-tagged deliveries on one worker. Deliveries
/// are `(scope, index)` pairs into one shared `events` slice — the worker
/// never receives cloned tuples, only selections of the batch the caller
/// already owns. Consecutive full-scope deliveries are regrouped (via
/// `scratch`) into one [`ExecutablePlan::push_batch_indexed`] call; scoped
/// legs of a split route go through [`ExecutablePlan::push_cone`] per
/// event (the tuple clone there is a refcount bump).
fn process_tagged<S: MergeSink>(
    exec: &mut ExecutablePlan,
    sink: &mut S,
    events: &[(SourceId, Tuple)],
    items: &[(ConeScope, u32)],
    scratch: &mut Vec<u32>,
) -> Result<()> {
    let mut i = 0;
    while i < items.len() {
        if items[i].0 == ConeScope::Full {
            scratch.clear();
            let mut j = i;
            while j < items.len() && items[j].0 == ConeScope::Full {
                scratch.push(items[j].1);
                j += 1;
            }
            exec.push_batch_indexed(events, scratch, sink)?;
            i = j;
        } else {
            let (scope, idx) = items[i];
            let (source, tuple) = &events[idx as usize];
            exec.push_cone(*source, tuple.clone(), scope, sink)?;
            i += 1;
        }
    }
    Ok(())
}

/// The partition-parallel runtime: `n` plan clones behind a static router.
pub struct ShardedRuntime<S: MergeSink> {
    workers: Vec<Worker<S>>,
    scheme: PartitionScheme,
    /// Per-m-op key reports backing `scheme`, refreshed incrementally on
    /// [`ShardedRuntime::update_plan`].
    reports: Vec<(MopId, PartitionKeys)>,
    /// Snapshot of the plan the workers actually run — hot-swap deltas
    /// are computed against this, not against whatever the caller thinks
    /// changed.
    installed: PlanSnapshot,
    /// Per-source round-robin cursors (kept per source so one source's
    /// distribution is independent of how sources interleave).
    rr_cursors: Vec<usize>,
    /// Every route is round-robin: batch calls split the input into
    /// contiguous zero-copy segments instead of routing per event.
    all_round_robin: bool,
    /// Some route is a split ([`SourceRoute::PinnedSplit`] /
    /// [`SourceRoute::KeySplit`]): batch calls stage scope-tagged index
    /// deliveries instead of plain index lists.
    has_split: bool,
    /// Per-worker index staging (keyed/pinned schemes without splits):
    /// each worker gets the indices of its share of the caller's batch —
    /// no tuple is cloned on the routing side. Reused across
    /// [`ShardedRuntime::push_batch`] calls.
    index_bufs: Vec<Vec<u32>>,
    /// Per-worker scope-tagged index staging (split schemes only).
    tagged_bufs: Vec<Vec<(ConeScope, u32)>>,
    /// Source events accepted (a split delivery counts once).
    accepted: u64,
    /// [`EventRuntime::finish`] has been called: every further lifecycle
    /// call returns [`RumorError::Finished`].
    finished: bool,
}

impl<S: MergeSink + Default> ShardedRuntime<S> {
    /// Compiles `plan` into `n` worker clones (n ≥ 1) and computes the
    /// routing scheme from the compiled operators' key reports.
    pub fn new(plan: &PlanGraph, n: usize) -> Result<Self> {
        if n == 0 {
            return Err(RumorError::exec("sharded runtime needs n >= 1".to_string()));
        }
        let mut workers = Vec::with_capacity(n);
        for _ in 0..n {
            workers.push(Worker {
                exec: ExecutablePlan::new(plan)?,
                sink: S::default(),
            });
        }
        let reports = workers[0].exec.partition_reports();
        let scheme = analyze_partitioning(plan, &reports)?;
        let n_sources = scheme.routes().len();
        let all_round_robin = scheme
            .routes()
            .iter()
            .all(|r| matches!(r, SourceRoute::RoundRobin));
        let has_split = scheme
            .routes()
            .iter()
            .any(|r| matches!(r, SourceRoute::PinnedSplit | SourceRoute::KeySplit(_)));
        Ok(ShardedRuntime {
            workers,
            scheme,
            reports,
            installed: plan.snapshot(),
            rr_cursors: vec![0; n_sources],
            all_round_robin,
            has_split,
            index_bufs: vec![Vec::new(); n],
            tagged_bufs: vec![Vec::new(); n],
            accepted: 0,
            finished: false,
        })
    }
}

impl<S: MergeSink> ShardedRuntime<S> {
    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// The routing scheme in force.
    pub fn scheme(&self) -> &PartitionScheme {
        &self.scheme
    }

    /// Whether the scheme lets more than one worker do useful work.
    pub fn is_parallelizable(&self) -> bool {
        self.scheme.is_parallelizable()
    }

    /// Source events accepted (a [`SourceRoute::PinnedSplit`] delivery
    /// counts once even though two workers observe it).
    pub fn events_in(&self) -> u64 {
        self.accepted
    }

    /// Deliveries processed per worker — the load-balance metric (a pinned
    /// component shows up as worker 0 carrying its whole stream). Under a
    /// split scheme the per-worker counts sum to more than
    /// [`ShardedRuntime::events_in`]: both legs of a split delivery count.
    pub fn worker_events(&self) -> Vec<u64> {
        self.workers.iter().map(|w| w.exec.events_in).collect()
    }

    /// Per-m-op execution counters folded across all workers (counters and
    /// state gauges sum). Usable at any
    /// point in the lifecycle — the workers are retained after `finish`.
    pub fn exec_stats(&self) -> ExecStatsReport {
        let mut acc = ExecStatsReport::default();
        for w in &self.workers {
            acc.absorb(&w.exec.stats_report());
        }
        acc
    }

    fn route(&mut self, source: SourceId, tuple: &Tuple) -> Result<Routed> {
        route_event(
            &self.scheme,
            &mut self.rr_cursors,
            self.workers.len(),
            source,
            tuple,
        )
    }

    fn ensure_live(&self, op: &str) -> Result<()> {
        if self.finished {
            return Err(RumorError::finished(op));
        }
        Ok(())
    }

    /// Routes and processes one source tuple (inline, on the caller's
    /// thread). Tuples must arrive in global timestamp order.
    pub fn push(&mut self, source: SourceId, tuple: Tuple) -> Result<()> {
        self.ensure_live("push")?;
        match self.route(source, &tuple)? {
            Routed::One(w) => {
                let worker = &mut self.workers[w];
                worker.exec.push(source, tuple, &mut worker.sink)?;
            }
            Routed::Split { free, stateful } => {
                // Stateless leg first (it owns the source-channel taps),
                // matching the per-event engine's taps-then-operators order.
                let worker = &mut self.workers[free];
                worker.exec.push_cone(
                    source,
                    tuple.clone(),
                    ConeScope::Stateless,
                    &mut worker.sink,
                )?;
                let worker = &mut self.workers[stateful];
                worker
                    .exec
                    .push_cone(source, tuple, ConeScope::Stateful, &mut worker.sink)?;
            }
        }
        self.accepted += 1;
        Ok(())
    }

    /// Routes a timestamp-ordered event slice across the workers and runs
    /// them in parallel (scoped threads), one
    /// [`ExecutablePlan::push_batch`] /
    /// [`ExecutablePlan::push_batch_indexed`] call per worker per call.
    ///
    /// Fully stateless schemes (every route round-robin) skip per-event
    /// routing entirely: the slice is split into `n` contiguous segments
    /// consumed zero-copy, which is the optimal stateless distribution for
    /// a batch — equal load, maximal channel-run lengths per worker, no
    /// tuple clones. Keyed and pinned routes take the per-event router but
    /// stay zero-copy too: routing only records per-worker *index lists*
    /// into the caller's slice, and each worker feeds its selection of the
    /// shared batch through the same chunked batch machinery. Split routes
    /// ([`SourceRoute::PinnedSplit`] / [`SourceRoute::KeySplit`]) stage
    /// scope-tagged indices — one shared allocation, two scoped legs.
    ///
    /// Unlike [`ExecutablePlan::push_batch`], an unknown source fails the
    /// whole call up front: routing validates every event before any worker
    /// processes anything.
    pub fn push_batch(&mut self, events: &[(SourceId, Tuple)]) -> Result<()> {
        self.ensure_live("push_batch")?;
        if let Some((source, _)) = events
            .iter()
            .find(|(s, _)| s.index() >= self.rr_cursors.len())
        {
            return Err(RumorError::exec(format!("unknown source {source}")));
        }
        self.accepted += events.len() as u64;
        if self.workers.len() == 1 {
            let worker = &mut self.workers[0];
            return worker.exec.push_batch(events, &mut worker.sink);
        }
        if self.all_round_robin {
            let n = self.workers.len();
            return self.run_workers(|w| {
                let (lo, hi) = segment(events.len(), n, w);
                &events[lo..hi]
            });
        }
        if self.has_split {
            for buf in &mut self.tagged_bufs {
                buf.clear();
            }
            for (i, (source, tuple)) in events.iter().enumerate() {
                match self.route(*source, tuple)? {
                    Routed::One(w) => {
                        self.tagged_bufs[w].push((ConeScope::Full, i as u32));
                    }
                    Routed::Split { free, stateful } => {
                        self.tagged_bufs[free].push((ConeScope::Stateless, i as u32));
                        self.tagged_bufs[stateful].push((ConeScope::Stateful, i as u32));
                    }
                }
            }
            let bufs = std::mem::take(&mut self.tagged_bufs);
            let outcome = self.run_tagged_workers(events, &bufs);
            self.tagged_bufs = bufs;
            return outcome;
        }
        for buf in &mut self.index_bufs {
            buf.clear();
        }
        for (i, (source, tuple)) in events.iter().enumerate() {
            let w = match self.route(*source, tuple)? {
                Routed::One(w) => w,
                Routed::Split { .. } => unreachable!("split routes take the tagged path"),
            };
            self.index_bufs[w].push(i as u32);
        }
        let bufs = std::mem::take(&mut self.index_bufs);
        let outcome = self.run_indexed_workers(events, &bufs);
        self.index_bufs = bufs;
        outcome
    }

    /// Runs every worker with a non-empty scope-tagged share on its own
    /// scoped thread (split schemes). Shares are index selections of the
    /// one `events` slice every thread borrows.
    fn run_tagged_workers(
        &mut self,
        events: &[(SourceId, Tuple)],
        bufs: &[Vec<(ConeScope, u32)>],
    ) -> Result<()> {
        let mut outcomes: Vec<Result<()>> = Vec::with_capacity(self.workers.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .workers
                .iter_mut()
                .enumerate()
                .filter(|(w, _)| !bufs[*w].is_empty())
                .map(|(w, worker)| {
                    let items = bufs[w].as_slice();
                    scope.spawn(move || {
                        let mut scratch = Vec::new();
                        process_tagged(
                            &mut worker.exec,
                            &mut worker.sink,
                            events,
                            items,
                            &mut scratch,
                        )
                    })
                })
                .collect();
            for h in handles {
                outcomes.push(h.join().unwrap_or_else(|_| {
                    Err(RumorError::exec("sharded worker panicked".to_string()))
                }));
            }
        });
        outcomes.into_iter().collect()
    }

    /// Runs every worker with a non-empty index share on its own scoped
    /// thread (keyed/pinned schemes without splits): each worker consumes
    /// its selection of the shared `events` slice zero-copy.
    fn run_indexed_workers(
        &mut self,
        events: &[(SourceId, Tuple)],
        bufs: &[Vec<u32>],
    ) -> Result<()> {
        let mut outcomes: Vec<Result<()>> = Vec::with_capacity(self.workers.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .workers
                .iter_mut()
                .enumerate()
                .filter(|(w, _)| !bufs[*w].is_empty())
                .map(|(w, worker)| {
                    let indices = bufs[w].as_slice();
                    scope.spawn(move || {
                        worker
                            .exec
                            .push_batch_indexed(events, indices, &mut worker.sink)
                    })
                })
                .collect();
            for h in handles {
                outcomes.push(h.join().unwrap_or_else(|_| {
                    Err(RumorError::exec("sharded worker panicked".to_string()))
                }));
            }
        });
        outcomes.into_iter().collect()
    }

    /// Runs every worker with a non-empty share on its own scoped thread.
    fn run_workers<'a>(
        &mut self,
        share: impl Fn(usize) -> &'a [(SourceId, Tuple)] + Sync,
    ) -> Result<()> {
        let mut outcomes: Vec<Result<()>> = Vec::with_capacity(self.workers.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .workers
                .iter_mut()
                .enumerate()
                .filter(|(w, _)| !share(*w).is_empty())
                .map(|(w, worker)| {
                    let share = &share;
                    scope.spawn(move || worker.exec.push_batch(share(w), &mut worker.sink))
                })
                .collect();
            for h in handles {
                outcomes.push(h.join().unwrap_or_else(|_| {
                    Err(RumorError::exec("sharded worker panicked".to_string()))
                }));
            }
        });
        outcomes.into_iter().collect()
    }

    /// Hot-swaps every worker's compiled plan onto a mutated plan graph —
    /// the one-shot runtime's half of the epoch protocol. Calls are
    /// synchronous (workers only run inside `push_batch`), so the epoch
    /// boundary is implicit: this re-derives the routing scheme
    /// incrementally for everything that changed since the last installed
    /// plan (the runtime tracks that itself — accumulated mutations,
    /// including ones whose swap was previously refused, are all
    /// accounted for) and applies [`ExecutablePlan::apply_delta`] on
    /// every worker clone, carrying untouched operators' state across.
    /// Fails without touching any worker when the new scheme would
    /// re-route a source feeding surviving stateful state.
    pub fn update_plan(&mut self, plan: &PlanGraph) -> Result<()> {
        self.ensure_live("update_plan")?;
        let (scheme, reports) = prepare_swap(plan, &self.installed, &self.scheme, &self.reports)?;
        // `prepare_swap` already instantiated every delta-touched op from
        // the same contexts the workers resolve, so per-worker
        // `apply_delta` cannot fail here short of allocation failure —
        // and `apply_delta` itself leaves a worker untouched on error.
        for worker in &mut self.workers {
            worker.exec.apply_delta(plan)?;
        }
        self.all_round_robin = scheme
            .routes()
            .iter()
            .all(|r| matches!(r, SourceRoute::RoundRobin));
        self.has_split = scheme
            .routes()
            .iter()
            .any(|r| matches!(r, SourceRoute::PinnedSplit | SourceRoute::KeySplit(_)));
        self.rr_cursors.resize(scheme.routes().len(), 0);
        self.scheme = scheme;
        self.reports = reports;
        self.installed = plan.snapshot();
        Ok(())
    }

    /// Takes and merges everything the per-worker sinks accumulated since
    /// the last drain (worker 0 first, then [`MergeSink::finalize`]),
    /// leaving fresh default sinks in place. Workers only run inside
    /// `push`/`push_batch` calls, so there is never in-flight work to wait
    /// for; valid after [`EventRuntime::finish`] — that is how the final
    /// results get out.
    pub fn drain_sink(&mut self) -> S
    where
        S: Default,
    {
        let mut it = self.workers.iter_mut();
        let mut acc = std::mem::take(&mut it.next().expect("n >= 1 workers").sink);
        for w in it {
            acc.merge(std::mem::take(&mut w.sink));
        }
        acc.finalize();
        acc
    }
}

impl<S: MergeSink + Default> EventRuntime for ShardedRuntime<S> {
    fn push(&mut self, source: SourceId, tuple: Tuple) -> Result<()> {
        ShardedRuntime::push(self, source, tuple)
    }

    fn push_batch(&mut self, events: &[(SourceId, Tuple)]) -> Result<()> {
        ShardedRuntime::push_batch(self, events)
    }

    fn flush(&mut self) -> Result<()> {
        // Workers run synchronously inside the push calls; the barrier is
        // trivially satisfied.
        self.ensure_live("flush")
    }

    fn finish(&mut self) -> Result<()> {
        self.ensure_live("finish")?;
        self.finished = true;
        Ok(())
    }

    fn update_plan(&mut self, plan: &PlanGraph) -> Result<()> {
        ShardedRuntime::update_plan(self, plan)
    }
}

// ----------------------------------------------------------------------
// The persistent streaming worker pool.
// ----------------------------------------------------------------------

/// Tuning knobs of the [`StreamingShardedRuntime`] worker pool.
#[derive(Debug, Clone)]
pub struct StreamingConfig {
    /// Deliveries staged per worker before a message is dispatched. Larger
    /// batches amortize channel synchronization; 1 sends every delivery
    /// immediately.
    pub batch_size: usize,
    /// In-flight messages each worker's queue may hold before
    /// [`StreamingShardedRuntime::push`] /
    /// [`StreamingShardedRuntime::push_batch`] block (backpressure bound:
    /// at most `queue_depth * batch_size` events buffered per worker).
    pub queue_depth: usize,
}

impl Default for StreamingConfig {
    fn default() -> Self {
        StreamingConfig {
            batch_size: 1024,
            queue_depth: 4,
        }
    }
}

/// One unit of work inside a worker message. Full-scope deliveries are
/// staged as ready-made event runs so the worker feeds them straight into
/// [`ExecutablePlan::push_batch`] — no per-event regrouping or second
/// clone on the worker side; scoped legs of a split route travel
/// individually. Shared-batch segments
/// ([`StreamingShardedRuntime::push_batch_shared`]) carry a range of one
/// refcounted input allocation — the zero-copy stateless path — while
/// keyed, pinned, and split schemes ship scope-tagged index selections of
/// that same allocation ([`Delivery::SharedTagged`]): one refcount bump
/// per worker instead of one tuple clone per event.
enum Delivery {
    Run(Vec<(SourceId, Tuple)>),
    Shared(Arc<Vec<(SourceId, Tuple)>>, std::ops::Range<usize>),
    SharedTagged(Arc<Vec<(SourceId, Tuple)>>, Vec<(ConeScope, u32)>),
    Cone(ConeScope, SourceId, Tuple),
}

enum WorkerMsg<S> {
    Batch(Vec<Delivery>),
    /// Barrier: publish the generation once every previously sent message
    /// is processed (see [`FlushGate`]).
    Flush(u64),
    /// Epoch boundary of the hot-swap protocol: install the new plan via
    /// [`ExecutablePlan::apply_delta`], carrying unchanged operators'
    /// state across. Always preceded by a [`WorkerMsg::Flush`] barrier
    /// (the quiesce), so the swap never races in-flight deliveries.
    Update(Arc<PlanGraph>),
    /// Mid-stream sink handoff (the session delivery point): the worker
    /// ships everything its sink accumulated back over the enclosed
    /// channel and continues with a fresh default sink. Queue FIFO means
    /// every previously sent delivery is reflected in the shipped sink.
    Drain(Sender<S>),
    /// Mid-stream stats handoff: the worker ships a snapshot of its
    /// executor's per-op counters. Like [`WorkerMsg::Drain`],
    /// queue FIFO makes the reply reflect every previously sent delivery.
    Stats(Sender<ExecStatsReport>),
}

/// Published by a [`FlushGate`] when its worker exits (normally or by
/// panic), so barrier waiters never hang on a dead worker.
const GATE_DEAD: u64 = u64::MAX;

/// Worker-side barrier acknowledgement: a monotonically increasing
/// generation the worker publishes after draining everything sent before
/// the matching [`WorkerMsg::Flush`]. This replaces the former per-call
/// ack channel — the epoch protocol makes repeated barriers a hot path
/// (every plan swap quiesces, latency-sensitive callers flush per chunk),
/// and a generation bump on a long-lived gate costs no allocation.
struct FlushGate {
    gen: Mutex<u64>,
    cv: Condvar,
    /// First error the worker hit (processing or plan install). Barrier
    /// waiters surface it instead of letting the worker silently drop
    /// every subsequent delivery until `finish`.
    error: Mutex<Option<String>>,
}

impl FlushGate {
    fn new() -> Self {
        FlushGate {
            gen: Mutex::new(0),
            cv: Condvar::new(),
            error: Mutex::new(None),
        }
    }

    /// Records the worker's first error for barrier waiters.
    fn fail(&self, msg: String) {
        let mut e = self.error.lock().expect("gate poisoned");
        if e.is_none() {
            *e = Some(msg);
        }
    }

    /// The worker's recorded error, if any.
    fn error(&self) -> Option<String> {
        self.error.lock().expect("gate poisoned").clone()
    }

    fn publish(&self, g: u64) {
        let mut cur = self.gen.lock().expect("gate poisoned");
        if *cur < g {
            *cur = g;
            self.cv.notify_all();
        }
    }

    /// Blocks until generation `g` (or later) is published; `false` when
    /// the worker exited instead of reaching the barrier.
    fn wait_for(&self, g: u64) -> bool {
        let mut cur = self.gen.lock().expect("gate poisoned");
        while *cur < g {
            cur = self.cv.wait(cur).expect("gate poisoned");
        }
        *cur != GATE_DEAD
    }
}

/// Publishes [`GATE_DEAD`] when dropped — including during unwind — so a
/// worker can never exit without releasing its barrier waiters.
struct GateGuard(Arc<FlushGate>);

impl Drop for GateGuard {
    fn drop(&mut self) {
        self.0.publish(GATE_DEAD);
    }
}

struct WorkerOutcome<S> {
    sink: S,
    events_in: u64,
    /// Final per-op counters, folded into the pool's stored report at
    /// shutdown so [`StreamingShardedRuntime::exec_stats`] keeps working
    /// after `finish`.
    stats: ExecStatsReport,
    error: Option<RumorError>,
}

fn worker_loop<S: MergeSink + Default>(
    mut exec: ExecutablePlan,
    rx: Receiver<WorkerMsg<S>>,
    gate: Arc<FlushGate>,
) -> WorkerOutcome<S> {
    let _guard = GateGuard(Arc::clone(&gate));
    let mut sink = S::default();
    let mut error: Option<RumorError> = None;
    let mut scratch: Vec<u32> = Vec::new();
    while let Ok(msg) = rx.recv() {
        match msg {
            WorkerMsg::Batch(deliveries) => {
                // After the first error the worker keeps draining its
                // queue (so producers never block on a dead consumer) but
                // stops processing.
                if error.is_some() {
                    continue;
                }
                for d in &deliveries {
                    let outcome = match d {
                        Delivery::Run(run) => exec.push_batch(run, &mut sink),
                        Delivery::Shared(events, range) => {
                            exec.push_batch(&events[range.clone()], &mut sink)
                        }
                        Delivery::SharedTagged(events, items) => {
                            process_tagged(&mut exec, &mut sink, events, items, &mut scratch)
                        }
                        Delivery::Cone(scope, source, tuple) => {
                            exec.push_cone(*source, tuple.clone(), *scope, &mut sink)
                        }
                    };
                    if let Err(e) = outcome {
                        gate.fail(e.to_string());
                        error = Some(e);
                        break;
                    }
                }
            }
            WorkerMsg::Flush(g) => {
                // Channel FIFO: everything sent before this barrier has
                // been processed by now.
                gate.publish(g);
            }
            WorkerMsg::Update(plan) => {
                if error.is_none() {
                    if let Err(e) = exec.apply_delta(&plan) {
                        gate.fail(e.to_string());
                        error = Some(e);
                    }
                }
            }
            WorkerMsg::Drain(tx) => {
                // Ship the accumulated results back (even after an error:
                // the partial sink is what the caller gets, the error
                // itself surfaces at the barrier). A failed send means the
                // runtime stopped waiting; nothing to do.
                let _ = tx.send(std::mem::take(&mut sink));
            }
            WorkerMsg::Stats(tx) => {
                let _ = tx.send(exec.stats_report());
            }
        }
    }
    WorkerOutcome {
        sink,
        events_in: exec.events_in,
        stats: exec.stats_report(),
        error,
    }
}

/// Per-worker staging buffer: pending deliveries plus the number of
/// events they carry (dispatch triggers on events, not deliveries).
struct Staged {
    items: Vec<Delivery>,
    events: usize,
    /// Capacity hint for fresh runs (the configured batch size), so
    /// per-event staging fills one exact-sized allocation instead of
    /// doubling its way up.
    run_capacity: usize,
}

impl Staged {
    fn with_capacity(run_capacity: usize) -> Self {
        Staged {
            items: Vec::new(),
            events: 0,
            run_capacity,
        }
    }

    /// Appends one full-scope event, growing the trailing run.
    fn push_full(&mut self, source: SourceId, tuple: Tuple) {
        match self.items.last_mut() {
            Some(Delivery::Run(run)) => run.push((source, tuple)),
            _ => {
                let mut run = Vec::with_capacity(self.run_capacity);
                run.push((source, tuple));
                self.items.push(Delivery::Run(run));
            }
        }
        self.events += 1;
    }

    fn push_cone(&mut self, scope: ConeScope, source: SourceId, tuple: Tuple) {
        self.items.push(Delivery::Cone(scope, source, tuple));
        self.events += 1;
    }
}

/// The persistent streaming shard pool: `n` long-lived workers, each
/// owning a full [`ExecutablePlan`] clone and a private sink, fed over
/// bounded channels by the same static partition router as
/// [`ShardedRuntime`].
///
/// Where [`ShardedRuntime::push_batch`] spawns scoped threads per call —
/// fine for large one-shot batches, wasteful for small or streaming ones —
/// this runtime spawns its workers once at construction and streams
/// deliveries to them for its whole lifetime:
///
/// * [`StreamingShardedRuntime::push`] /
///   [`StreamingShardedRuntime::push_batch`] /
///   [`StreamingShardedRuntime::push_batch_shared`] route events and
///   stage them into per-worker buffers; a buffer reaching
///   [`StreamingConfig::batch_size`] events is dispatched as one message.
///   Bounded queues ([`StreamingConfig::queue_depth`]) provide
///   backpressure: when a worker falls behind, the caller blocks instead
///   of buffering without limit.
/// * [`StreamingShardedRuntime::flush`] dispatches all staged deliveries
///   and blocks until every worker has drained its queue — a barrier, not
///   a shutdown. Flushing an empty or idle runtime is a no-op.
/// * [`StreamingShardedRuntime::finish`] flushes, shuts the pool down,
///   joins the workers, and folds their sinks deterministically (worker 0
///   first, then [`MergeSink::finalize`]). Calling it again returns an
///   empty default sink instead of panicking.
///
/// Per-worker delivery order equals global arrival order restricted to
/// that worker (routing never reorders, queues are FIFO), so results are
/// exactly those of [`ShardedRuntime`] over the same input split.
pub struct StreamingShardedRuntime<S: MergeSink + Default + Send + 'static> {
    txs: Vec<Sender<WorkerMsg<S>>>,
    handles: Vec<JoinHandle<WorkerOutcome<S>>>,
    /// Per-worker barrier gates (generation-counter acknowledgement).
    gates: Vec<Arc<FlushGate>>,
    /// Last barrier generation issued.
    flush_gen: u64,
    scheme: PartitionScheme,
    /// Per-m-op key reports backing `scheme`, refreshed incrementally on
    /// [`StreamingShardedRuntime::update_plan`].
    reports: Vec<(MopId, PartitionKeys)>,
    /// Snapshot of the plan the workers actually run (see
    /// [`ShardedRuntime`]'s field of the same name).
    installed: PlanSnapshot,
    rr_cursors: Vec<usize>,
    all_round_robin: bool,
    /// Per-worker staging buffers (dispatched at `batch_size` events).
    staged: Vec<Staged>,
    batch_size: usize,
    accepted: u64,
    finished: bool,
    /// The merged results of the shutdown pool, until drained.
    final_sink: Option<S>,
    /// Deliveries processed per worker, recorded when the pool shuts down.
    worker_events: Vec<u64>,
    /// Folded per-op counters of the shutdown pool, so stats stay readable
    /// after `finish`.
    final_exec: Option<ExecStatsReport>,
    /// Per-worker high-water mark of the dispatch queue depth (sampled at
    /// each dispatch: messages already queued plus the one being sent).
    queue_hwm: Vec<u64>,
    /// Dispatches that found a worker queue full and fell back to a
    /// blocking send — the backpressure count.
    blocking_sends: u64,
    /// Runtime-level flight recorder: backpressure stalls and streaming
    /// swap phases, journaled on the routing thread and merged into the
    /// session trace timeline
    /// ([`Session::trace`](crate::session::Session::trace)).
    trace: TraceRing,
}

impl<S: MergeSink + Default + Send + 'static> StreamingShardedRuntime<S> {
    /// Spawns `n` persistent workers (n ≥ 1) with default tuning.
    pub fn new(plan: &PlanGraph, n: usize) -> Result<Self> {
        Self::with_config(plan, n, StreamingConfig::default())
    }

    /// Spawns `n` persistent workers (n ≥ 1) with explicit tuning.
    pub fn with_config(plan: &PlanGraph, n: usize, config: StreamingConfig) -> Result<Self> {
        if n == 0 {
            return Err(RumorError::exec(
                "streaming sharded runtime needs n >= 1".to_string(),
            ));
        }
        let batch_size = config.batch_size.max(1);
        let queue_depth = config.queue_depth.max(1);
        let mut execs = Vec::with_capacity(n);
        for _ in 0..n {
            execs.push(ExecutablePlan::new(plan)?);
        }
        let reports = execs[0].partition_reports();
        let scheme = analyze_partitioning(plan, &reports)?;
        let n_sources = scheme.routes().len();
        let all_round_robin = scheme
            .routes()
            .iter()
            .all(|r| matches!(r, SourceRoute::RoundRobin));
        let mut txs = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        let mut gates = Vec::with_capacity(n);
        for exec in execs {
            let (tx, rx) = bounded::<WorkerMsg<S>>(queue_depth);
            let gate = Arc::new(FlushGate::new());
            txs.push(tx);
            gates.push(Arc::clone(&gate));
            handles.push(std::thread::spawn(move || worker_loop::<S>(exec, rx, gate)));
        }
        Ok(StreamingShardedRuntime {
            txs,
            handles,
            gates,
            flush_gen: 0,
            scheme,
            reports,
            installed: plan.snapshot(),
            rr_cursors: vec![0; n_sources],
            all_round_robin,
            staged: std::iter::repeat_with(|| Staged::with_capacity(batch_size))
                .take(n)
                .collect(),
            batch_size,
            accepted: 0,
            finished: false,
            final_sink: None,
            worker_events: Vec::new(),
            final_exec: None,
            queue_hwm: vec![0; n],
            blocking_sends: 0,
            trace: TraceRing::with_capacity(256),
        })
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.staged.len()
    }

    /// The routing scheme in force.
    pub fn scheme(&self) -> &PartitionScheme {
        &self.scheme
    }

    /// Whether the scheme lets more than one worker do useful work.
    pub fn is_parallelizable(&self) -> bool {
        self.scheme.is_parallelizable()
    }

    /// Source events accepted so far (a split delivery counts once).
    pub fn events_in(&self) -> u64 {
        self.accepted
    }

    /// Whether [`EventRuntime::finish`] has been called on this pool.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Deliveries processed per worker — the load-balance metric. Only
    /// known once the pool has shut down: empty before
    /// [`StreamingShardedRuntime::finish`]. Under a split scheme the
    /// per-worker counts sum to more than
    /// [`StreamingShardedRuntime::events_in`]: both legs of a split
    /// delivery count.
    pub fn worker_events(&self) -> &[u64] {
        &self.worker_events
    }

    /// Per-worker high-water mark of the dispatch queue depth (messages
    /// observed queued at a dispatch, including the one being sent).
    pub fn queue_depth_hwm(&self) -> &[u64] {
        &self.queue_hwm
    }

    /// Dispatches that found a worker queue full and fell back to a
    /// blocking send — how often backpressure actually engaged.
    pub fn blocking_sends(&self) -> u64 {
        self.blocking_sends
    }

    /// Runtime-level flight-recorder events (backpressure stalls,
    /// streaming swap phases), oldest first. Bounded: the recorder keeps
    /// its most recent 256 events. Empty under `stats-off`.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.trace.events().cloned().collect()
    }

    /// Per-m-op execution counters folded across all workers. On a live
    /// pool this is a stats barrier: staged deliveries are dispatched and
    /// each worker ships a snapshot over a reply channel (queue FIFO makes
    /// it reflect everything sent before). On a finished pool the report
    /// recorded at shutdown is returned.
    pub fn exec_stats(&mut self) -> Result<ExecStatsReport> {
        if self.finished {
            return Ok(self.final_exec.clone().unwrap_or_default());
        }
        let mut handoffs = Vec::with_capacity(self.txs.len());
        for w in 0..self.txs.len() {
            self.dispatch(w)?;
            let (stx, srx) = bounded::<ExecStatsReport>(1);
            self.txs[w]
                .send(WorkerMsg::Stats(stx))
                .map_err(|_| RumorError::exec(format!("streaming shard worker {w} died")))?;
            handoffs.push(srx);
        }
        let mut acc = ExecStatsReport::default();
        for (w, srx) in handoffs.into_iter().enumerate() {
            let report = srx
                .recv()
                .map_err(|_| RumorError::exec(format!("streaming shard worker {w} died")))?;
            acc.absorb(&report);
        }
        Ok(acc)
    }

    fn ensure_live(&self, op: &str) -> Result<()> {
        if self.finished {
            return Err(RumorError::finished(op));
        }
        Ok(())
    }

    fn stage_full(&mut self, w: usize, source: SourceId, tuple: Tuple) -> Result<()> {
        self.staged[w].push_full(source, tuple);
        if self.staged[w].events >= self.batch_size {
            self.dispatch(w)?;
        }
        Ok(())
    }

    fn stage_cone(
        &mut self,
        w: usize,
        scope: ConeScope,
        source: SourceId,
        tuple: Tuple,
    ) -> Result<()> {
        self.staged[w].push_cone(scope, source, tuple);
        if self.staged[w].events >= self.batch_size {
            self.dispatch(w)?;
        }
        Ok(())
    }

    fn dispatch(&mut self, w: usize) -> Result<()> {
        if self.staged[w].items.is_empty() {
            return Ok(());
        }
        let staged = std::mem::replace(&mut self.staged[w], Staged::with_capacity(self.batch_size));
        // Depth observed by this dispatch: whatever is already queued plus
        // the message about to join it. try_send first so a full queue is
        // *counted* (the backpressure signal) before falling back to the
        // blocking send that provides the actual backpressure.
        let depth = self.txs[w].len() as u64 + 1;
        if depth > self.queue_hwm[w] {
            self.queue_hwm[w] = depth;
        }
        match self.txs[w].try_send(WorkerMsg::Batch(staged.items)) {
            Ok(()) => Ok(()),
            Err(crossbeam_channel::TrySendError::Full(msg)) => {
                self.blocking_sends += 1;
                #[cfg(not(feature = "stats-off"))]
                self.trace.record(
                    "backpressure_stall",
                    format!("worker {w} queue full at depth {depth}; blocking send"),
                );
                self.txs[w]
                    .send(msg)
                    .map_err(|_| RumorError::exec(format!("streaming shard worker {w} died")))
            }
            Err(crossbeam_channel::TrySendError::Disconnected(_)) => {
                Err(RumorError::exec(format!("streaming shard worker {w} died")))
            }
        }
    }

    fn route(&mut self, source: SourceId, tuple: &Tuple) -> Result<Routed> {
        route_event(
            &self.scheme,
            &mut self.rr_cursors,
            self.txs.len(),
            source,
            tuple,
        )
    }

    /// Routes one source tuple into the pool. Tuples must arrive in global
    /// timestamp order; delivery is asynchronous (results are observable
    /// only through [`StreamingShardedRuntime::finish`]). Blocks when the
    /// target worker's queue is full.
    pub fn push(&mut self, source: SourceId, tuple: Tuple) -> Result<()> {
        self.ensure_live("push")?;
        match self.route(source, &tuple)? {
            Routed::One(w) => self.stage_full(w, source, tuple)?,
            Routed::Split { free, stateful } => {
                self.stage_cone(free, ConeScope::Stateless, source, tuple.clone())?;
                self.stage_cone(stateful, ConeScope::Stateful, source, tuple)?;
            }
        }
        self.accepted += 1;
        Ok(())
    }

    /// Routes a timestamp-ordered event slice into the pool. An unknown
    /// source fails the whole call before anything is staged. Fully
    /// stateless schemes skip per-event routing: the slice is split into
    /// `n` contiguous segments, exactly like [`ShardedRuntime::push_batch`].
    pub fn push_batch(&mut self, events: &[(SourceId, Tuple)]) -> Result<()> {
        self.ensure_live("push_batch")?;
        if let Some((source, _)) = events
            .iter()
            .find(|(s, _)| s.index() >= self.rr_cursors.len())
        {
            return Err(RumorError::exec(format!("unknown source {source}")));
        }
        self.push_batch_validated(events)
    }

    /// Per-event routing/staging behind the batch entry points (sources
    /// already validated).
    fn push_batch_validated(&mut self, events: &[(SourceId, Tuple)]) -> Result<()> {
        if self.all_round_robin && self.txs.len() > 1 {
            // Stateless scheme: contiguous segments per worker (the optimal
            // stateless distribution, as in [`ShardedRuntime::push_batch`]),
            // bulk-appended to the staged run without per-event routing.
            let n = self.txs.len();
            for w in 0..n {
                let (lo, hi) = segment(events.len(), n, w);
                let mut seg = &events[lo..hi];
                while !seg.is_empty() {
                    let room = self.batch_size.saturating_sub(self.staged[w].events).max(1);
                    let take = room.min(seg.len());
                    let staged = &mut self.staged[w];
                    match staged.items.last_mut() {
                        Some(Delivery::Run(run)) => run.extend_from_slice(&seg[..take]),
                        _ => staged.items.push(Delivery::Run(seg[..take].to_vec())),
                    }
                    staged.events += take;
                    if staged.events >= self.batch_size {
                        self.dispatch(w)?;
                    }
                    seg = &seg[take..];
                }
            }
        } else {
            for (source, tuple) in events {
                match self.route(*source, tuple)? {
                    Routed::One(w) => {
                        self.stage_full(w, *source, tuple.clone())?;
                    }
                    Routed::Split { free, stateful } => {
                        self.stage_cone(free, ConeScope::Stateless, *source, tuple.clone())?;
                        self.stage_cone(stateful, ConeScope::Stateful, *source, tuple.clone())?;
                    }
                }
            }
        }
        self.accepted += events.len() as u64;
        Ok(())
    }

    /// [`StreamingShardedRuntime::push_batch`] with ownership handoff: the
    /// caller gives the pool a refcounted batch, and no per-tuple clone
    /// happens anywhere. Fully stateless schemes ship each worker a
    /// *range* of that one allocation — the zero-copy equivalent of
    /// [`ShardedRuntime::push_batch`]'s contiguous-segment path. Keyed,
    /// pinned, and split schemes route per event but ship each worker a
    /// scope-tagged *index selection* of the same shared allocation
    /// (`Delivery::SharedTagged`): one refcount bump per delivery
    /// message instead of one tuple clone per event, and the worker feeds
    /// its selection through the chunked batch machinery
    /// ([`ExecutablePlan::push_batch_indexed`]). Prefer this entry point
    /// whenever the batch is already an owned allocation.
    pub fn push_batch_shared(&mut self, events: Arc<Vec<(SourceId, Tuple)>>) -> Result<()> {
        self.ensure_live("push_batch_shared")?;
        if let Some((source, _)) = events
            .iter()
            .find(|(s, _)| s.index() >= self.rr_cursors.len())
        {
            return Err(RumorError::exec(format!("unknown source {source}")));
        }
        let n = self.txs.len();
        if self.all_round_robin && n > 1 {
            for w in 0..n {
                let (lo, hi) = segment(events.len(), n, w);
                let mut off = lo;
                // Chunk the segment at batch-size granularity so queue
                // backpressure keeps its meaning.
                while off < hi {
                    let take = self.batch_size.min(hi - off);
                    let staged = &mut self.staged[w];
                    staged
                        .items
                        .push(Delivery::Shared(events.clone(), off..off + take));
                    staged.events += take;
                    off += take;
                    if staged.events >= self.batch_size {
                        self.dispatch(w)?;
                    }
                }
            }
            self.accepted += events.len() as u64;
            return Ok(());
        }
        if self.all_round_robin {
            // One worker: the whole batch is its segment.
            return self.push_batch_validated(&events);
        }
        // Keyed / pinned / split scheme: per-event routing, zero-copy
        // delivery. Route the whole batch into per-worker tagged index
        // lists first, then stage them in batch-size slices.
        let mut idx_lists: Vec<Vec<(ConeScope, u32)>> = vec![Vec::new(); n];
        for (i, (source, tuple)) in events.iter().enumerate() {
            match self.route(*source, tuple)? {
                Routed::One(w) => idx_lists[w].push((ConeScope::Full, i as u32)),
                Routed::Split { free, stateful } => {
                    idx_lists[free].push((ConeScope::Stateless, i as u32));
                    idx_lists[stateful].push((ConeScope::Stateful, i as u32));
                }
            }
        }
        for (w, list) in idx_lists.into_iter().enumerate() {
            for chunk in list.chunks(self.batch_size) {
                let staged = &mut self.staged[w];
                staged
                    .items
                    .push(Delivery::SharedTagged(events.clone(), chunk.to_vec()));
                staged.events += chunk.len();
                if staged.events >= self.batch_size {
                    self.dispatch(w)?;
                }
            }
        }
        self.accepted += events.len() as u64;
        Ok(())
    }

    /// Dispatches all staged deliveries and blocks until every worker has
    /// drained its queue — a barrier, not a shutdown; the pool keeps
    /// accepting events afterwards. On an empty runtime this is a no-op;
    /// on a finished one it returns [`RumorError::Finished`] like every
    /// other lifecycle call. Acknowledged through per-worker generation
    /// counters, so repeated barriers allocate nothing.
    pub fn flush(&mut self) -> Result<()> {
        self.ensure_live("flush")?;
        for w in 0..self.txs.len() {
            self.dispatch(w)?;
        }
        self.barrier()
    }

    /// Takes and merges everything the worker sinks accumulated since the
    /// last drain (worker 0 first, then [`MergeSink::finalize`]), leaving
    /// fresh default sinks on the workers — the pool keeps running. On a
    /// finished pool, returns the merged final results (once; empty
    /// afterwards).
    ///
    /// The sink handoff is itself a drain barrier: queue FIFO means a
    /// worker ships its sink only after processing every delivery sent
    /// before the `Drain` message, and the blocking `recv` waits for
    /// exactly that — one cross-worker round-trip total, no separate
    /// generation barrier.
    pub fn drain_sink(&mut self) -> Result<S> {
        if self.finished {
            return Ok(self.final_sink.take().unwrap_or_default());
        }
        let mut handoffs = Vec::with_capacity(self.txs.len());
        for w in 0..self.txs.len() {
            self.dispatch(w)?;
            let (stx, srx) = bounded::<S>(1);
            self.txs[w]
                .send(WorkerMsg::Drain(stx))
                .map_err(|_| RumorError::exec(format!("streaming shard worker {w} died")))?;
            handoffs.push(srx);
        }
        let mut acc: Option<S> = None;
        for (w, srx) in handoffs.into_iter().enumerate() {
            let sink = srx
                .recv()
                .map_err(|_| RumorError::exec(format!("streaming shard worker {w} died")))?;
            // The worker has processed everything that preceded the
            // handoff, so any processing error is recorded by now —
            // surface it like the flush barrier would.
            if let Some(msg) = self.gates[w].error() {
                return Err(RumorError::exec(format!(
                    "streaming shard worker {w} failed: {msg}"
                )));
            }
            match &mut acc {
                None => acc = Some(sink),
                Some(into) => into.merge(sink),
            }
        }
        let mut sink = acc.ok_or_else(|| RumorError::exec("no worker sinks".to_string()))?;
        sink.finalize();
        Ok(sink)
    }

    /// Takes the merged final results of a finished pool (empty when
    /// already taken or never finished) — the post-`finish` counterpart
    /// of [`StreamingShardedRuntime::drain_sink`] for callers that track
    /// the lifecycle themselves.
    pub fn take_final_sink(&mut self) -> S {
        self.final_sink.take().unwrap_or_default()
    }

    /// Issues one barrier generation and waits until every worker has
    /// published it (everything previously queued is processed).
    fn barrier(&mut self) -> Result<()> {
        self.flush_gen += 1;
        let g = self.flush_gen;
        for (w, tx) in self.txs.iter().enumerate() {
            tx.send(WorkerMsg::Flush(g))
                .map_err(|_| RumorError::exec(format!("streaming shard worker {w} died")))?;
        }
        for (w, gate) in self.gates.iter().enumerate() {
            if !gate.wait_for(g) {
                return Err(RumorError::exec(format!("streaming shard worker {w} died")));
            }
            // Surface the worker's first error at the barrier instead of
            // letting it silently drop deliveries until `finish`.
            if let Some(msg) = gate.error() {
                return Err(RumorError::exec(format!(
                    "streaming shard worker {w} failed: {msg}"
                )));
            }
        }
        Ok(())
    }

    /// Hot-swaps the pool onto a mutated plan — the epoch protocol of the
    /// dynamic query lifecycle. The pool is **not** restarted:
    ///
    /// 1. **Quiesce** — staged deliveries are dispatched and a flush
    ///    barrier drains every worker's queue, so the old epoch's events
    ///    are fully processed under the old plan.
    /// 2. **Install** — every worker receives the new plan and applies it
    ///    via [`ExecutablePlan::apply_delta`]: operators unchanged since
    ///    the last installed plan keep their instance *and their window/
    ///    sequence/aggregate state*; added or rewired operators start
    ///    cold. The router's partition scheme is re-derived incrementally
    ///    ([`rumor_core::partition::reanalyze`]) — only components the
    ///    change touched are recomputed. The runtime tracks the installed
    ///    plan itself, so every mutation since the last *successful* swap
    ///    is accounted for, including ones whose swap was refused.
    /// 3. **Resume** — a second barrier confirms installation, then
    ///    pushes route under the new scheme (queue FIFO already
    ///    guarantees no event can reach a worker before its swap).
    ///
    /// Fails without touching the pool when the new scheme would re-route
    /// a source feeding surviving stateful state (see the module docs):
    /// that transition needs a fresh pool.
    pub fn update_plan(&mut self, plan: &PlanGraph) -> Result<()> {
        self.ensure_live("update_plan")?;
        let (scheme, reports) = prepare_swap(plan, &self.installed, &self.scheme, &self.reports)?;
        #[cfg(not(feature = "stats-off"))]
        self.trace.record(
            "swap_quiesce",
            format!("draining {} worker queues", self.txs.len()),
        );
        self.flush()?;
        let shared = Arc::new(plan.clone());
        #[cfg(not(feature = "stats-off"))]
        self.trace.record(
            "swap_install",
            format!("delta install on {} workers", self.txs.len()),
        );
        for (w, tx) in self.txs.iter().enumerate() {
            tx.send(WorkerMsg::Update(Arc::clone(&shared)))
                .map_err(|_| RumorError::exec(format!("streaming shard worker {w} died")))?;
        }
        self.barrier()?;
        #[cfg(not(feature = "stats-off"))]
        self.trace
            .record("swap_resume", "routing under new scheme".to_string());
        self.all_round_robin = scheme
            .routes()
            .iter()
            .all(|r| matches!(r, SourceRoute::RoundRobin));
        self.rr_cursors.resize(scheme.routes().len(), 0);
        self.scheme = scheme;
        self.reports = reports;
        self.installed = plan.snapshot();
        Ok(())
    }

    /// Shuts the pool down: dispatches staged deliveries, joins every
    /// worker, and folds the per-worker sinks (worker 0 first) into the
    /// final, finalized sink. Worker errors (or panics) surface here.
    fn shutdown(&mut self) -> Result<S> {
        self.finished = true;
        for w in 0..self.txs.len() {
            self.dispatch(w)?;
        }
        // Dropping the senders disconnects the queues; workers exit after
        // draining them.
        self.txs.clear();
        let mut acc: Option<S> = None;
        let mut first_error: Option<RumorError> = None;
        let mut final_exec = ExecStatsReport::default();
        for (w, handle) in self.handles.drain(..).enumerate() {
            match handle.join() {
                Ok(outcome) => {
                    if first_error.is_none() {
                        first_error = outcome.error;
                    }
                    self.worker_events.push(outcome.events_in);
                    final_exec.absorb(&outcome.stats);
                    match &mut acc {
                        None => acc = Some(outcome.sink),
                        Some(sink) => sink.merge(outcome.sink),
                    }
                }
                Err(_) => {
                    if first_error.is_none() {
                        first_error = Some(RumorError::exec(format!(
                            "streaming shard worker {w} panicked"
                        )));
                    }
                }
            }
        }
        self.final_exec = Some(final_exec);
        if let Some(e) = first_error {
            return Err(e);
        }
        let mut sink = acc.ok_or_else(|| RumorError::exec("no worker sinks".to_string()))?;
        sink.finalize();
        Ok(sink)
    }
}

impl<S: MergeSink + Default + Send + 'static> EventRuntime for StreamingShardedRuntime<S> {
    fn push(&mut self, source: SourceId, tuple: Tuple) -> Result<()> {
        StreamingShardedRuntime::push(self, source, tuple)
    }

    fn push_batch(&mut self, events: &[(SourceId, Tuple)]) -> Result<()> {
        StreamingShardedRuntime::push_batch(self, events)
    }

    fn push_batch_shared(&mut self, events: Arc<Vec<(SourceId, Tuple)>>) -> Result<()> {
        StreamingShardedRuntime::push_batch_shared(self, events)
    }

    fn flush(&mut self) -> Result<()> {
        StreamingShardedRuntime::flush(self)
    }

    fn finish(&mut self) -> Result<()> {
        self.ensure_live("finish")?;
        let sink = self.shutdown()?;
        self.final_sink = Some(sink);
        Ok(())
    }

    fn update_plan(&mut self, plan: &PlanGraph) -> Result<()> {
        StreamingShardedRuntime::update_plan(self, plan)
    }
}

impl<S: MergeSink + Default + Send + 'static> Drop for StreamingShardedRuntime<S> {
    fn drop(&mut self) {
        // Disconnect and reap the workers so no thread outlives the pool;
        // staged-but-undispatched deliveries are discarded (results were
        // never observable without `finish`).
        self.txs.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rumor_core::{LogicalPlan, Optimizer, OptimizerConfig, SeqSpec, SourceRoute, Verdict};
    use rumor_expr::{CmpOp, Expr, Predicate};
    use rumor_types::{QueryId, Schema};

    fn optimized(queries: &[LogicalPlan]) -> (PlanGraph, Vec<QueryId>) {
        let mut plan = PlanGraph::new();
        plan.add_source("S", Schema::ints(3), None).unwrap();
        plan.add_source("T", Schema::ints(3), None).unwrap();
        let qs = queries.iter().map(|q| plan.add_query(q).unwrap()).collect();
        Optimizer::new(OptimizerConfig::default())
            .optimize(&mut plan)
            .unwrap();
        (plan, qs)
    }

    fn interleaved(plan: &PlanGraph, n: u64) -> Vec<(SourceId, Tuple)> {
        let s = plan.source_by_name("S").unwrap().id;
        let t = plan.source_by_name("T").unwrap().id;
        (0..n)
            .map(|ts| {
                let src = if ts % 2 == 0 { s } else { t };
                (
                    src,
                    Tuple::ints(ts, &[(ts % 5) as i64, (ts % 3) as i64, ts as i64]),
                )
            })
            .collect()
    }

    fn reference(plan: &PlanGraph, events: &[(SourceId, Tuple)]) -> CollectingSink {
        let mut exec = ExecutablePlan::new(plan).unwrap();
        let mut sink = CollectingSink::default();
        for (src, t) in events {
            exec.push(*src, t.clone(), &mut sink).unwrap();
        }
        sink
    }

    fn sorted_of(sink: &CollectingSink, q: QueryId) -> Vec<String> {
        let mut v: Vec<String> = sink.of(q).iter().map(|t| t.to_string()).collect();
        v.sort();
        v
    }

    #[test]
    fn stateless_plan_round_robins_and_matches() {
        let (plan, qs) = optimized(&[
            LogicalPlan::source("S").select(Predicate::attr_eq_const(0, 1i64)),
            LogicalPlan::source("S").select(Predicate::attr_eq_const(0, 2i64)),
        ]);
        let events = interleaved(&plan, 60);
        let want = reference(&plan, &events);
        for n in [1, 2, 4] {
            let mut rt: ShardedRuntime<CollectingSink> = ShardedRuntime::new(&plan, n).unwrap();
            assert_eq!(rt.scheme().count(Verdict::Stateless), 2);
            rt.push_batch(&events).unwrap();
            assert_eq!(rt.events_in(), 60);
            if n > 1 {
                let per_worker = rt.worker_events();
                assert!(per_worker.iter().all(|&e| e > 0), "{per_worker:?}");
            }
            let got = rt.drain_sink();
            for &q in &qs {
                assert_eq!(sorted_of(&got, q), sorted_of(&want, q), "n={n}");
            }
        }
    }

    #[test]
    fn keyed_sequence_partitions_by_hash() {
        let (plan, qs) = optimized(&[LogicalPlan::source("S")
            .select(Predicate::attr_eq_const(1, 0i64))
            .followed_by(
                LogicalPlan::source("T"),
                SeqSpec {
                    predicate: Predicate::cmp(CmpOp::Eq, Expr::col(0), Expr::rcol(0)),
                    window: 20,
                },
            )]);
        let events = interleaved(&plan, 120);
        let want = reference(&plan, &events);
        let mut rt: ShardedRuntime<CollectingSink> = ShardedRuntime::new(&plan, 4).unwrap();
        assert_eq!(rt.scheme().count(Verdict::Keyed), 1);
        let s = plan.source_by_name("S").unwrap().id;
        assert_eq!(*rt.scheme().route(s), SourceRoute::Key(vec![0]));
        rt.push_batch(&events).unwrap();
        let got = rt.drain_sink();
        assert!(!want.results.is_empty());
        for &q in &qs {
            assert_eq!(sorted_of(&got, q), sorted_of(&want, q));
        }
    }

    #[test]
    fn unkeyed_sequence_pins_to_worker_zero() {
        let (plan, qs) = optimized(&[LogicalPlan::source("S").followed_by(
            LogicalPlan::source("T"),
            SeqSpec {
                predicate: Predicate::cmp(CmpOp::Lt, Expr::col(2), Expr::rcol(2)),
                window: 10,
            },
        )]);
        let events = interleaved(&plan, 80);
        let want = reference(&plan, &events);
        let mut rt: ShardedRuntime<CollectingSink> = ShardedRuntime::new(&plan, 4).unwrap();
        assert_eq!(rt.scheme().count(Verdict::Pinned), 1);
        assert!(!rt.is_parallelizable());
        rt.push_batch(&events).unwrap();
        assert_eq!(rt.worker_events(), vec![80, 0, 0, 0]);
        let got = rt.drain_sink();
        for &q in &qs {
            assert_eq!(sorted_of(&got, q), sorted_of(&want, q));
        }
    }

    #[test]
    fn push_and_push_batch_agree() {
        let (plan, qs) = optimized(&[
            LogicalPlan::source("S").select(Predicate::attr_eq_const(0, 3i64)),
            LogicalPlan::source("S")
                .select(Predicate::attr_eq_const(1, 1i64))
                .followed_by(
                    LogicalPlan::source("T"),
                    SeqSpec {
                        predicate: Predicate::cmp(CmpOp::Eq, Expr::col(0), Expr::rcol(0)),
                        window: 15,
                    },
                ),
        ]);
        let events = interleaved(&plan, 90);
        let mut a: ShardedRuntime<CollectingSink> = ShardedRuntime::new(&plan, 3).unwrap();
        for (src, t) in &events {
            a.push(*src, t.clone()).unwrap();
        }
        let mut b: ShardedRuntime<CollectingSink> = ShardedRuntime::new(&plan, 3).unwrap();
        b.push_batch(&events).unwrap();
        let (a, b) = (a.drain_sink(), b.drain_sink());
        for &q in &qs {
            assert_eq!(sorted_of(&a, q), sorted_of(&b, q));
        }
    }

    #[test]
    fn single_worker_results_obey_merge_order() {
        // With n = 1 no merge runs; finalize must still establish the
        // (ts, query) contract order rather than rely on the engine's
        // delivery order.
        let (plan, _) = optimized(&[
            LogicalPlan::source("S").select(Predicate::True),
            LogicalPlan::source("S").followed_by(
                LogicalPlan::source("T"),
                SeqSpec {
                    predicate: Predicate::cmp(CmpOp::Eq, Expr::col(0), Expr::rcol(0)),
                    window: 20,
                },
            ),
        ]);
        let events = interleaved(&plan, 60);
        let mut rt: ShardedRuntime<CollectingSink> = ShardedRuntime::new(&plan, 1).unwrap();
        rt.push_batch(&events).unwrap();
        let results = rt.drain_sink().results;
        assert!(!results.is_empty());
        let keys: Vec<(u64, u32)> = results.iter().map(|(q, t)| (t.ts, q.0)).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "n=1 results must be (ts, query)-sorted");
    }

    #[test]
    fn unknown_source_fails_before_processing() {
        let (plan, _) = optimized(&[LogicalPlan::source("S").select(Predicate::True)]);
        let mut rt: ShardedRuntime<CountingSink> = ShardedRuntime::new(&plan, 2).unwrap();
        let s = plan.source_by_name("S").unwrap().id;
        let events = vec![
            (s, Tuple::ints(0, &[1, 0, 0])),
            (SourceId(9), Tuple::ints(1, &[1, 0, 0])),
        ];
        assert!(rt.push_batch(&events).is_err());
        assert_eq!(rt.events_in(), 0);
    }

    #[test]
    fn streaming_matches_one_shot_across_worker_counts() {
        let (plan, qs) = optimized(&[
            LogicalPlan::source("S").select(Predicate::attr_eq_const(0, 1i64)),
            LogicalPlan::source("S")
                .select(Predicate::attr_eq_const(1, 1i64))
                .followed_by(
                    LogicalPlan::source("T"),
                    SeqSpec {
                        predicate: Predicate::cmp(CmpOp::Eq, Expr::col(0), Expr::rcol(0)),
                        window: 15,
                    },
                ),
        ]);
        let events = interleaved(&plan, 120);
        let want = reference(&plan, &events);
        for n in [1usize, 2, 4] {
            let mut rt: StreamingShardedRuntime<CollectingSink> =
                StreamingShardedRuntime::with_config(
                    &plan,
                    n,
                    StreamingConfig {
                        batch_size: 7,
                        queue_depth: 2,
                    },
                )
                .unwrap();
            rt.push_batch(&events).unwrap();
            assert_eq!(rt.events_in(), 120);
            let got = rt.drain_sink().unwrap();
            for &q in &qs {
                assert_eq!(sorted_of(&got, q), sorted_of(&want, q), "n={n}");
            }
        }
    }

    #[test]
    fn streaming_shared_batch_matches_reference_on_both_paths() {
        // Stateless plan: zero-copy segment path. Keyed plan: per-event
        // fallback off the shared allocation. Both must match per-event.
        for queries in [
            vec![
                LogicalPlan::source("S").select(Predicate::attr_eq_const(0, 1i64)),
                LogicalPlan::source("T").select(Predicate::attr_eq_const(1, 2i64)),
            ],
            vec![LogicalPlan::source("S")
                .select(Predicate::attr_eq_const(1, 0i64))
                .followed_by(
                    LogicalPlan::source("T"),
                    SeqSpec {
                        predicate: Predicate::cmp(CmpOp::Eq, Expr::col(0), Expr::rcol(0)),
                        window: 20,
                    },
                )],
        ] {
            let (plan, qs) = optimized(&queries);
            let events = interleaved(&plan, 100);
            let want = reference(&plan, &events);
            let mut rt: StreamingShardedRuntime<CollectingSink> =
                StreamingShardedRuntime::with_config(
                    &plan,
                    3,
                    StreamingConfig {
                        batch_size: 16,
                        queue_depth: 2,
                    },
                )
                .unwrap();
            // Mix the shared entry point with staged per-event pushes to
            // check ordering across delivery kinds.
            rt.push_batch_shared(Arc::new(events[..40].to_vec()))
                .unwrap();
            for (src, t) in &events[40..60] {
                rt.push(*src, t.clone()).unwrap();
            }
            rt.push_batch_shared(Arc::new(events[60..].to_vec()))
                .unwrap();
            assert_eq!(rt.events_in(), 100);
            let got = rt.drain_sink().unwrap();
            for &q in &qs {
                assert_eq!(sorted_of(&got, q), sorted_of(&want, q));
            }
        }
    }

    #[test]
    fn streaming_interleaved_pushes_match_reference() {
        let (plan, qs) = optimized(&[
            LogicalPlan::source("S").select(Predicate::attr_eq_const(0, 2i64)),
            LogicalPlan::source("S").followed_by(
                LogicalPlan::source("T"),
                SeqSpec {
                    predicate: Predicate::cmp(CmpOp::Eq, Expr::col(1), Expr::rcol(1)),
                    window: 12,
                },
            ),
        ]);
        let events = interleaved(&plan, 90);
        let want = reference(&plan, &events);
        let mut rt: StreamingShardedRuntime<CollectingSink> = StreamingShardedRuntime::with_config(
            &plan,
            3,
            StreamingConfig {
                batch_size: 5,
                queue_depth: 2,
            },
        )
        .unwrap();
        // Mix the lifecycle: single pushes, mid-stream flush barriers, and
        // slice pushes of varying size (including empty).
        rt.push_batch(&events[0..10]).unwrap();
        rt.flush().unwrap();
        for (src, t) in &events[10..25] {
            rt.push(*src, t.clone()).unwrap();
        }
        rt.push_batch(&[]).unwrap();
        rt.flush().unwrap();
        rt.flush().unwrap();
        rt.push_batch(&events[25..]).unwrap();
        let got = rt.drain_sink().unwrap();
        for &q in &qs {
            assert_eq!(sorted_of(&got, q), sorted_of(&want, q));
        }
    }

    #[test]
    fn flush_on_empty_runtime_is_a_noop_and_finish_misuse_is_typed() {
        let (plan, _) = optimized(&[LogicalPlan::source("S").select(Predicate::True)]);
        let mut rt: StreamingShardedRuntime<CollectingSink> =
            StreamingShardedRuntime::new(&plan, 2).unwrap();
        // Nothing pushed yet: flush must return cleanly, repeatedly.
        rt.flush().unwrap();
        rt.flush().unwrap();
        let s = plan.source_by_name("S").unwrap().id;
        rt.push(s, Tuple::ints(0, &[1, 0, 0])).unwrap();
        EventRuntime::finish(&mut rt).unwrap();
        // The final results come out of the finished pool exactly once.
        let first = rt.drain_sink().unwrap();
        assert_eq!(first.results.len(), 1);
        assert!(rt.drain_sink().unwrap().results.is_empty());
        // Lifecycle misuse after finish returns the typed error — same
        // variant for every entry point, no panics, no silent no-ops.
        for err in [
            EventRuntime::finish(&mut rt),
            rt.flush(),
            rt.push(s, Tuple::ints(1, &[1, 0, 0])),
            rt.push_batch(&[]),
            rt.update_plan(&plan),
        ] {
            assert!(matches!(err, Err(RumorError::Finished(_))), "{err:?}");
        }
    }

    #[test]
    fn one_shot_finish_misuse_is_typed() {
        let (plan, _) = optimized(&[LogicalPlan::source("S").select(Predicate::True)]);
        let mut rt: ShardedRuntime<CollectingSink> = ShardedRuntime::new(&plan, 2).unwrap();
        let s = plan.source_by_name("S").unwrap().id;
        rt.push(s, Tuple::ints(0, &[1, 0, 0])).unwrap();
        EventRuntime::finish(&mut rt).unwrap();
        assert_eq!(rt.drain_sink().results.len(), 1);
        assert!(rt.drain_sink().results.is_empty(), "drained once");
        for err in [
            EventRuntime::finish(&mut rt),
            EventRuntime::flush(&mut rt),
            rt.push(s, Tuple::ints(1, &[1, 0, 0])),
            rt.push_batch(&[]),
            rt.update_plan(&plan),
        ] {
            assert!(matches!(err, Err(RumorError::Finished(_))), "{err:?}");
        }
    }

    #[test]
    fn streaming_mid_stream_drain_keeps_pool_live() {
        // drain_sink is a delivery point, not a shutdown: results drained
        // mid-stream plus results drained at the end must equal the
        // one-shot total, and the pool keeps accepting events in between.
        let (plan, qs) =
            optimized(&[LogicalPlan::source("S").select(Predicate::attr_eq_const(0, 1i64))]);
        let events = interleaved(&plan, 80);
        let want = reference(&plan, &events);
        let mut rt: StreamingShardedRuntime<CollectingSink> = StreamingShardedRuntime::with_config(
            &plan,
            3,
            StreamingConfig {
                batch_size: 4,
                queue_depth: 2,
            },
        )
        .unwrap();
        rt.push_batch(&events[..30]).unwrap();
        let mut got = rt.drain_sink().unwrap();
        rt.push_batch(&events[30..]).unwrap();
        got.merge(rt.drain_sink().unwrap());
        assert!(rt.push(SourceId(9), Tuple::ints(999, &[0, 0, 0])).is_err());
        EventRuntime::finish(&mut rt).unwrap();
        got.merge(rt.drain_sink().unwrap());
        for &q in &qs {
            assert_eq!(sorted_of(&got, q), sorted_of(&want, q));
        }
    }

    #[test]
    fn streaming_unknown_source_fails_before_staging() {
        let (plan, _) = optimized(&[LogicalPlan::source("S").select(Predicate::True)]);
        let mut rt: StreamingShardedRuntime<CountingSink> =
            StreamingShardedRuntime::new(&plan, 2).unwrap();
        let s = plan.source_by_name("S").unwrap().id;
        let events = vec![
            (s, Tuple::ints(0, &[1, 0, 0])),
            (SourceId(9), Tuple::ints(1, &[1, 0, 0])),
        ];
        assert!(rt.push_batch(&events).is_err());
        assert_eq!(rt.events_in(), 0);
        assert!(rt.push(SourceId(9), Tuple::ints(2, &[1, 0, 0])).is_err());
        assert_eq!(rt.drain_sink().unwrap().total, 0);
    }

    #[test]
    fn streaming_backpressure_bounded_queues_still_drain() {
        // Tiny queues + tiny batches: pushes must block-and-resume rather
        // than error or drop, and every event must come out the other end.
        let (plan, _) = optimized(&[LogicalPlan::source("S").select(Predicate::True)]);
        let events = interleaved(&plan, 500);
        let mut rt: StreamingShardedRuntime<CountingSink> = StreamingShardedRuntime::with_config(
            &plan,
            2,
            StreamingConfig {
                batch_size: 1,
                queue_depth: 1,
            },
        )
        .unwrap();
        rt.push_batch(&events).unwrap();
        let got = rt.drain_sink().unwrap();
        // Every S event (even ts) passes the TRUE-selection.
        assert_eq!(got.total, 250);
    }

    #[test]
    fn pinned_split_routes_stateless_siblings_across_workers() {
        // An unkeyed sequence pins the S/T component, but the stateless
        // select on S must still round-robin: worker 0 gets every tuple's
        // stateful leg, the stateless legs spread across all workers.
        let (plan, qs) = optimized(&[
            LogicalPlan::source("S").followed_by(
                LogicalPlan::source("T"),
                SeqSpec {
                    predicate: Predicate::cmp(CmpOp::Lt, Expr::col(2), Expr::rcol(2)),
                    window: 10,
                },
            ),
            LogicalPlan::source("S").select(Predicate::True),
        ]);
        let events = interleaved(&plan, 80);
        let want = reference(&plan, &events);
        let s = plan.source_by_name("S").unwrap().id;
        let t = plan.source_by_name("T").unwrap().id;
        for n in [2usize, 4] {
            let mut rt: ShardedRuntime<CollectingSink> = ShardedRuntime::new(&plan, n).unwrap();
            assert_eq!(*rt.scheme().route(s), SourceRoute::PinnedSplit);
            assert_eq!(*rt.scheme().route(t), SourceRoute::Pinned);
            assert!(rt.is_parallelizable());
            rt.push_batch(&events).unwrap();
            assert_eq!(rt.events_in(), 80, "split deliveries must count once");
            let per_worker = rt.worker_events();
            assert!(
                per_worker[1..].iter().any(|&e| e > 0),
                "stateless legs must leave worker 0: {per_worker:?}"
            );
            let got = rt.drain_sink();
            for &q in &qs {
                assert_eq!(sorted_of(&got, q), sorted_of(&want, q), "n={n}");
            }
        }
    }

    #[test]
    fn streaming_update_plan_hot_swaps_without_pool_restart() {
        // The acceptance pin: a windowed (keyed) sequence query keeps
        // matching across an unrelated add and remove on a *running*
        // streaming pool — no teardown, no lost in-flight state.
        use rumor_core::Optimizer as Opt;
        let mut plan = PlanGraph::new();
        plan.add_source("S", Schema::ints(3), None).unwrap();
        plan.add_source("T", Schema::ints(3), None).unwrap();
        let q_seq = plan
            .add_query(
                &LogicalPlan::source("S")
                    .select(Predicate::attr_eq_const(1, 0i64))
                    .followed_by(
                        LogicalPlan::source("T"),
                        SeqSpec {
                            predicate: Predicate::cmp(CmpOp::Eq, Expr::col(0), Expr::rcol(0)),
                            window: 60,
                        },
                    ),
            )
            .unwrap();
        let q_sel = plan
            .add_query(&LogicalPlan::source("S").select(Predicate::attr_eq_const(0, 1i64)))
            .unwrap();
        let optimizer = Opt::new(OptimizerConfig::default());
        optimizer.optimize(&mut plan).unwrap();
        let original = plan.clone();
        let events = interleaved(&plan, 180);

        let mut rt: StreamingShardedRuntime<CollectingSink> = StreamingShardedRuntime::with_config(
            &plan,
            3,
            StreamingConfig {
                batch_size: 7,
                queue_depth: 2,
            },
        )
        .unwrap();
        rt.push_batch(&events[..60]).unwrap();
        let added = optimizer
            .integrate(
                &mut plan,
                &LogicalPlan::source("S").select(Predicate::attr_eq_const(1, 2i64)),
            )
            .unwrap();
        rt.update_plan(&plan).unwrap();
        rt.push_batch(&events[60..120]).unwrap();
        plan.remove_query(added.query).unwrap();
        rt.update_plan(&plan).unwrap();
        rt.push_batch(&events[120..]).unwrap();
        let got = rt.drain_sink().unwrap();

        // Oracle for the surviving queries: the original plan over the
        // whole history in one uninterrupted life.
        let want = reference(&original, &events);
        assert!(!want.of(q_seq).is_empty());
        assert!(
            want.of(q_seq).iter().any(|tu| tu.ts >= 60),
            "matches must span the swaps"
        );
        for q in [q_seq, q_sel] {
            assert_eq!(sorted_of(&got, q), sorted_of(&want, q));
        }
        // The transient query observed exactly its lifetime's events.
        let mid: Vec<&Tuple> = got.of(added.query);
        assert!(!mid.is_empty());
        assert!(mid.iter().all(|tu| (60..120).contains(&tu.ts)));
    }

    #[test]
    fn one_shot_update_plan_hot_swaps_workers() {
        use rumor_core::Optimizer as Opt;
        let (mut plan, qs) = optimized(&[
            LogicalPlan::source("S").select(Predicate::attr_eq_const(0, 1i64)),
            LogicalPlan::source("S").followed_by(
                LogicalPlan::source("T"),
                SeqSpec {
                    predicate: Predicate::cmp(CmpOp::Eq, Expr::col(1), Expr::rcol(1)),
                    window: 50,
                },
            ),
        ]);
        let original = plan.clone();
        let events = interleaved(&plan, 120);
        let mut rt: ShardedRuntime<CollectingSink> = ShardedRuntime::new(&plan, 3).unwrap();
        rt.push_batch(&events[..60]).unwrap();
        let optimizer = Opt::new(OptimizerConfig::default());
        let added = optimizer
            .integrate(
                &mut plan,
                &LogicalPlan::source("T").select(Predicate::attr_eq_const(0, 3i64)),
            )
            .unwrap();
        rt.update_plan(&plan).unwrap();
        rt.push_batch(&events[60..]).unwrap();
        let got = rt.drain_sink();
        let want = reference(&original, &events);
        for &q in &qs {
            assert_eq!(sorted_of(&got, q), sorted_of(&want, q));
        }
        let mid: Vec<&Tuple> = got.of(added.query);
        assert!(mid.iter().all(|tu| tu.ts >= 60));
        assert!(!mid.is_empty());
    }

    #[test]
    fn update_plan_refuses_rerouting_live_stateful_state() {
        // A keyed S/T component; integrating an ungrouped aggregate on S
        // pins the component — tuples would have to move from hashed
        // workers to worker 0, abandoning the sequence state accumulated
        // under the old routing. The swap must be refused, pool intact.
        use rumor_core::Optimizer as Opt;
        let mut plan = PlanGraph::new();
        plan.add_source("S", Schema::ints(3), None).unwrap();
        plan.add_source("T", Schema::ints(3), None).unwrap();
        plan.add_source("U", Schema::ints(3), None).unwrap();
        plan.add_query(
            &LogicalPlan::source("S")
                .select(Predicate::attr_eq_const(1, 0i64))
                .followed_by(
                    LogicalPlan::source("T"),
                    SeqSpec {
                        predicate: Predicate::cmp(CmpOp::Eq, Expr::col(0), Expr::rcol(0)),
                        window: 20,
                    },
                ),
        )
        .unwrap();
        Opt::new(OptimizerConfig::default())
            .optimize(&mut plan)
            .unwrap();
        let events = interleaved(&plan, 60);
        let mut rt: StreamingShardedRuntime<CollectingSink> =
            StreamingShardedRuntime::new(&plan, 2).unwrap();
        rt.push_batch(&events).unwrap();
        let optimizer = Opt::new(OptimizerConfig::default());
        let added = optimizer
            .integrate(
                &mut plan,
                &LogicalPlan::source("S").aggregate(rumor_core::AggSpec {
                    func: rumor_core::AggFunc::Sum,
                    input: Expr::col(2),
                    group_by: Vec::new(),
                    window: 10,
                }),
            )
            .unwrap();
        let err = rt.update_plan(&plan);
        assert!(err.is_err(), "re-routing keyed → pinned must be refused");

        // The runtime diffs against what it actually installed, so a
        // later swap carrying an *unrelated* mutation must still refuse:
        // accepting it would smuggle the refused aggregate into the
        // workers with a stale keyed route (hash-partitioned partial
        // sums — silent corruption).
        optimizer
            .integrate(
                &mut plan,
                &LogicalPlan::source("U").select(Predicate::attr_eq_const(0, 1i64)),
            )
            .unwrap();
        assert!(
            rt.update_plan(&plan).is_err(),
            "cumulative delta must keep refusing while the offender is resident"
        );

        // Removing the offending query makes the plan installable again.
        plan.remove_query(added.query).unwrap();
        rt.update_plan(&plan).unwrap();
        let s = plan.source_by_name("S").unwrap().id;
        assert!(matches!(rt.scheme().route(s), SourceRoute::Key(_)));

        // The pool survives it all and still finishes cleanly.
        rt.flush().unwrap();
        EventRuntime::finish(&mut rt).unwrap();
    }

    #[test]
    fn counting_sink_merge_folds_counts() {
        let mut a = CountingSink::default();
        a.on_result(QueryId(0), &Tuple::ints(0, &[1]));
        let mut b = CountingSink::default();
        b.on_result(QueryId(0), &Tuple::ints(1, &[1]));
        b.on_result(QueryId(2), &Tuple::ints(1, &[1]));
        a.merge(b);
        assert_eq!(a.count(QueryId(0)), 2);
        assert_eq!(a.count(QueryId(2)), 1);
        assert_eq!(a.total, 3);
    }

    #[test]
    fn collecting_sink_merge_sorts_by_ts_then_query() {
        let mut a = CollectingSink::default();
        a.on_result(QueryId(1), &Tuple::ints(5, &[1]));
        a.on_result(QueryId(0), &Tuple::ints(7, &[2]));
        let mut b = CollectingSink::default();
        b.on_result(QueryId(0), &Tuple::ints(5, &[3]));
        a.merge(b);
        let order: Vec<(u32, u64)> = a.results.iter().map(|(q, t)| (q.0, t.ts)).collect();
        assert_eq!(order, vec![(0, 5), (1, 5), (0, 7)]);
    }
}
