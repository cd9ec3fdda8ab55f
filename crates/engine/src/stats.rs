//! Runtime introspection: always-on per-m-op counters, backpressure
//! visibility, the paper's sharing-benefit metric measured live — and
//! the time domain: latency [`Histogram`]s, sampled per-m-op
//! wall-time attribution, a bounded [`TraceRing`] flight recorder, and an
//! interval [`Meter`].
//!
//! The layer is deliberately cheap: each executor owns plain `u64`
//! counters bumped inline at its dispatch sites (no atomics on the hot
//! path — per-worker executors are single-threaded by construction) and
//! the shard runtimes fold the per-worker counters at the same barriers
//! that already merge sinks. Wall time is *sampled*: one dispatch in
//! [`TIME_SAMPLE_EVERY`] is bracketed with `Instant` reads and the total
//! is scaled back up by the event ratio, so the hot loop pays a counter
//! mask, not a clock read. A [`StatsSnapshot`] is assembled on demand by
//! [`Session::stats`](crate::session::Session::stats), serialized with
//! [`StatsSnapshot::to_json`], and two snapshots bracketing a workload
//! window subtract into a per-window view via [`StatsSnapshot::diff`]
//! (histogram diffs subtract bucket counts, so interval percentiles stay
//! meaningful).
//!
//! Compiling with the `stats-off` cargo feature turns every counter and
//! clock update into a no-op (the snapshot machinery stays, reporting
//! zeros) — the baseline the overhead guard in the bench crate measures
//! against.

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt::Write as _;
use std::time::Instant;

use rumor_core::plan::{PlanGraph, Producer};
use rumor_types::{MopId, QueryId};

/// Whether counter updates are compiled in. `false` when the engine was
/// built with the `stats-off` feature (the overhead-guard baseline).
pub const STATS_COMPILED: bool = cfg!(not(feature = "stats-off"));

/// Wall-time sampling interval: one dispatch in this many is bracketed
/// with `Instant` reads (power of two — the sample decision is a mask on
/// counters the hot path already maintains). Totals are scaled back up by
/// the covered-event ratio in [`OpStats::est_nanos`].
pub const TIME_SAMPLE_EVERY: u64 = 64;

// ----------------------------------------------------------------------
// The log-bucket histogram.
// ----------------------------------------------------------------------

const HIST_BUCKETS: usize = 64;

/// A fixed-size log-bucket histogram (no dependencies, 64 power-of-two
/// buckets — enough for nanosecond values up to `u64::MAX`).
///
/// Percentiles report the *lower bound* of the bucket holding the
/// requested rank, which keeps the ordering invariant exact:
/// `p50() ≤ p90() ≤ p99() ≤ max()` always holds, because [`Histogram::max`]
/// is tracked exactly and can never be below its own bucket's lower
/// bound. Merge worker-side histograms with [`Histogram::absorb`];
/// subtract an interval baseline with [`Histogram::diff`] (per-bucket
/// saturating subtraction — the diffed histogram's percentiles describe
/// just the interval).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn bucket(value: u64) -> usize {
        // floor(log2(value)) with 0 landing in bucket 0.
        63 - (value | 1).leading_zeros() as usize
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        if value > self.max {
            self.max = value;
        }
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values (saturating).
    pub fn total(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `p` (`0.0 ..= 1.0`): the lower bound of the
    /// bucket containing the `⌈p·count⌉`-th sample. 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= target {
                return if i == 0 { 0 } else { 1u64 << i };
            }
        }
        self.max
    }

    /// Median ([`Histogram::percentile`] at 0.5).
    pub fn p50(&self) -> u64 {
        self.percentile(0.5)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.percentile(0.9)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// Merges another histogram into this one (bucket-wise addition) —
    /// how per-worker latency distributions fold at stats barriers.
    pub fn absorb(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The interval `self − baseline`: bucket counts subtract
    /// (saturating), `count` is recomputed from the diffed buckets, and
    /// `max` keeps `self`'s value (a maximum is a lifetime gauge — it
    /// cannot be un-observed).
    pub fn diff(&self, baseline: &Histogram) -> Histogram {
        let mut out = Histogram::default();
        for i in 0..HIST_BUCKETS {
            out.buckets[i] = self.buckets[i].saturating_sub(baseline.buckets[i]);
        }
        out.count = out.buckets.iter().sum();
        out.sum = self.sum.saturating_sub(baseline.sum);
        out.max = self.max;
        out
    }

    /// One-line JSON summary (`count`, `total_nanos`, percentiles, max).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\": {}, \"total_nanos\": {}, \"p50_nanos\": {}, \"p90_nanos\": {}, \"p99_nanos\": {}, \"max_nanos\": {}}}",
            self.count,
            self.sum,
            self.p50(),
            self.p90(),
            self.p99(),
            self.max,
        )
    }
}

// ----------------------------------------------------------------------
// Hot-path recording support: fast id hashing + compact accumulators.
// ----------------------------------------------------------------------

/// Multiply-shift hasher for small integer keys (`QueryId`, `MopId`).
/// The std SipHash costs tens of nanoseconds per lookup — measurable on
/// the per-delivered-tuple latency path — while a Fibonacci multiply is
/// a couple of cycles and distributes sequential ids well.
#[derive(Default, Clone)]
pub(crate) struct IdHasher(u64);

impl std::hash::Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // Fold high entropy into the low bits the table indexes with.
        self.0 ^ (self.0 >> 32)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0 ^ n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// `BuildHasher` for [`IdHasher`]-keyed maps.
pub(crate) type IdBuild = std::hash::BuildHasherDefault<IdHasher>;

/// Inline bucket slots a [`LatAcc`] holds before spilling to a boxed
/// [`Histogram`]. Latency values cluster into a handful of log buckets
/// per query, so four slots absorb virtually every recording.
const LAT_INLINE: usize = 4;

/// A compact per-query latency accumulator for the delivery hot path.
/// A full [`Histogram`] is 536 bytes; at 1024 registered queries the
/// per-query map blows past L2 and every delivered tuple pays a cache
/// miss. This accumulator is ~64 bytes — an exact `emitted` tally plus
/// sparse `(bucket, count)` slots for the *sampled* deliveries — and
/// expands to a `Histogram` at snapshot time
/// ([`LatAcc::to_histogram`]). The split keeps the per-tuple hot-path
/// work to one counter add: [`LatAcc::note_emit`] runs per delivered
/// tuple, while [`LatAcc::record`] runs only for tuples in a sampled
/// delivery batch (one batch in [`TIME_SAMPLE_EVERY`] on the per-event
/// path). Within the sampled population nothing is lost: a fifth
/// distinct bucket (or a saturated slot) spills into a lazily boxed
/// full histogram.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct LatAcc {
    /// `(bucket index, samples)` pairs; `count == 0` marks a free slot.
    slots: [(u8, u32); LAT_INLINE],
    /// Tuples delivered (exact — every tuple, sampled or not).
    emitted: u64,
    /// Latency samples recorded (`<= emitted`).
    count: u64,
    sum: u64,
    max: u64,
    spill: Option<Box<Histogram>>,
}

impl LatAcc {
    /// Counts one delivered tuple — the only per-tuple cost on unsampled
    /// delivery batches.
    #[inline(always)]
    pub(crate) fn note_emit(&mut self) {
        self.emitted += 1;
    }

    /// Records one latency sample (nanoseconds).
    #[inline]
    pub(crate) fn record(&mut self, value: u64) {
        let b = Histogram::bucket(value) as u8;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        if value > self.max {
            self.max = value;
        }
        for slot in &mut self.slots {
            if slot.1 == 0 {
                *slot = (b, 1);
                return;
            }
            if slot.0 == b {
                if let Some(n) = slot.1.checked_add(1) {
                    slot.1 = n;
                    return;
                }
                break;
            }
        }
        // Fifth distinct bucket or a saturated slot: exact spill. The
        // spill histogram only carries bucket counts; count/sum/max stay
        // authoritative on the accumulator.
        self.spill.get_or_insert_with(Default::default).buckets[b as usize] += 1;
    }

    /// Tuples delivered (exact).
    pub(crate) fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Folds another accumulator's samples into this one (exact — both
    /// sides expand to histograms, so no bucket is lost). Cold path:
    /// used when a dead subscription's accumulator is reclaimed and at
    /// snapshot assembly, never per tuple.
    pub(crate) fn absorb(&mut self, other: &LatAcc) {
        self.emitted += other.emitted;
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            let emitted = self.emitted;
            *self = other.clone();
            self.emitted = emitted;
            return;
        }
        let mut merged = self.to_histogram();
        merged.absorb(&other.to_histogram());
        self.count = merged.count;
        self.sum = merged.sum;
        self.max = merged.max;
        self.slots = [(0, 0); LAT_INLINE];
        self.spill = Some(Box::new(merged));
    }

    /// Expands into the equivalent full [`Histogram`].
    pub(crate) fn to_histogram(&self) -> Histogram {
        let mut h = self.spill.as_deref().cloned().unwrap_or_default();
        for &(b, n) in &self.slots {
            h.buckets[b as usize] += n as u64;
        }
        h.count = self.count;
        h.sum = self.sum;
        h.max = self.max;
        h
    }
}

// ----------------------------------------------------------------------
// The flight recorder.
// ----------------------------------------------------------------------

fn trace_epoch() -> Instant {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide trace epoch (first use). Every
/// [`TraceEvent`] timestamps against this one clock, so events recorded
/// on different worker threads merge into one coherent timeline.
pub fn trace_clock_nanos() -> u64 {
    trace_epoch().elapsed().as_nanos() as u64
}

/// One journaled runtime transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the process trace epoch ([`trace_clock_nanos`]).
    pub at_nanos: u64,
    /// Stable event kind (`swap_quiesce`, `backpressure_stall`, ...).
    pub kind: &'static str,
    /// Human-readable detail.
    pub detail: String,
}

/// A bounded in-memory flight recorder: the last `capacity` runtime
/// transitions, oldest evicted first. Kept per runtime / session and
/// merged (sorted by timestamp) in
/// [`Session::trace`](crate::session::Session::trace).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRing {
    ring: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl Default for TraceRing {
    fn default() -> Self {
        TraceRing::with_capacity(256)
    }
}

impl TraceRing {
    /// A recorder holding at most `capacity` events (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        TraceRing {
            ring: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// Journals one event, evicting the oldest when full.
    pub fn record(&mut self, kind: &'static str, detail: String) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(TraceEvent {
            at_nanos: trace_clock_nanos(),
            kind,
            detail,
        });
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.ring.iter()
    }

    /// Retained event count.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Events evicted to stay within capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Renders trace events as JSON lines (one object per line, sorted by
/// whatever order the caller passed —
/// [`Session::trace`](crate::session::Session::trace) pre-sorts by
/// timestamp).
pub fn trace_json_lines(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for e in events {
        let _ = writeln!(
            out,
            "{{\"at_us\": {:.1}, \"kind\": \"{}\", \"detail\": \"{}\"}}",
            e.at_nanos as f64 / 1_000.0,
            json_escape(e.kind),
            json_escape(&e.detail),
        );
    }
    out
}

// ----------------------------------------------------------------------
// Per-op counters.
// ----------------------------------------------------------------------

/// Raw per-operator counters owned by one executor, bumped inline at the
/// dispatch sites. All updates compile to nothing under `stats-off`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounters {
    /// Events fed into the operator (per-event calls + batched run lengths).
    pub events_in: u64,
    /// Events the operator emitted downstream.
    pub events_out: u64,
    /// Batched invocations (`process_batch`).
    pub batch_calls: u64,
    /// Per-event invocations (`process`).
    pub event_calls: u64,
    /// Wall nanoseconds accumulated by *sampled* dispatches (one in
    /// [`TIME_SAMPLE_EVERY`]).
    pub sampled_nanos: u64,
    /// Sampled dispatch count.
    pub sampled_calls: u64,
    /// Events covered by the sampled dispatches — the scale factor
    /// [`OpStats::est_nanos`] uses to estimate total wall time.
    pub sampled_events: u64,
}

impl OpCounters {
    /// Records one per-event `process` invocation that emitted `emitted`
    /// events.
    #[inline(always)]
    pub fn record_event(&mut self, emitted: u64) {
        #[cfg(not(feature = "stats-off"))]
        {
            self.events_in += 1;
            self.event_calls += 1;
            self.events_out += emitted;
        }
        #[cfg(feature = "stats-off")]
        let _ = emitted;
    }

    /// Records one batched invocation over `events` inputs that emitted
    /// `emitted` events.
    #[inline(always)]
    pub fn record_batch(&mut self, events: u64, emitted: u64) {
        #[cfg(not(feature = "stats-off"))]
        {
            self.events_in += events;
            self.batch_calls += 1;
            self.events_out += emitted;
        }
        #[cfg(feature = "stats-off")]
        let _ = (events, emitted);
    }

    /// Whether the *next* dispatch is a timing sample: one call in
    /// [`TIME_SAMPLE_EVERY`] (a mask over counters the dispatch site
    /// already bumps) returns a live `Instant`; everything else — and
    /// every call under `stats-off` — costs a branch. Pair with
    /// [`OpCounters::record_time`] after the dispatch.
    #[inline(always)]
    pub fn sample_start(&self) -> Option<Instant> {
        #[cfg(not(feature = "stats-off"))]
        if (self.event_calls + self.batch_calls) & (TIME_SAMPLE_EVERY - 1) == 0 {
            return Some(Instant::now());
        }
        None
    }

    /// Closes a timing sample opened by [`OpCounters::sample_start`]
    /// (no-op when that dispatch was not sampled), attributing the
    /// elapsed wall time to `events` input events.
    #[inline(always)]
    pub fn record_time(&mut self, start: Option<Instant>, events: u64) {
        #[cfg(not(feature = "stats-off"))]
        if let Some(t) = start {
            self.sampled_nanos += t.elapsed().as_nanos() as u64;
            self.sampled_calls += 1;
            self.sampled_events += events.max(1);
        }
        #[cfg(feature = "stats-off")]
        let _ = (start, events);
    }
}

/// Counters plus sampled gauges for one m-op, as reported by one
/// executor (or folded across all workers of a shard runtime).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpStats {
    /// The plan node these counters belong to.
    pub mop: MopId,
    /// The operator implementation's name (`MultiOp::name`).
    pub name: String,
    /// Events fed in.
    pub events_in: u64,
    /// Events emitted.
    pub events_out: u64,
    /// Batched invocations.
    pub batch_calls: u64,
    /// Per-event invocations.
    pub event_calls: u64,
    /// Resident state (live NFA instances, buffered join tuples, window
    /// occupancy + group count) sampled at snapshot time; 0 for
    /// stateless operators. Summed across workers on shard runtimes.
    pub state_size: u64,
    /// Wall nanoseconds measured by the sampled dispatches.
    pub sampled_nanos: u64,
    /// Sampled dispatch count.
    pub sampled_calls: u64,
    /// Events the sampled dispatches covered.
    pub sampled_events: u64,
}

impl OpStats {
    /// Observed selectivity: events out per event in (0 when nothing was
    /// fed).
    pub fn selectivity(&self) -> f64 {
        if self.events_in == 0 {
            0.0
        } else {
            self.events_out as f64 / self.events_in as f64
        }
    }

    /// Estimated total wall nanoseconds spent in this operator: the
    /// sampled time scaled up by the covered-event ratio
    /// (`sampled_nanos × events_in / sampled_events`). 0 before the
    /// first sample and under `stats-off`.
    pub fn est_nanos(&self) -> u64 {
        if self.sampled_events == 0 {
            0
        } else {
            ((self.sampled_nanos as u128 * self.events_in.max(1) as u128)
                / self.sampled_events as u128) as u64
        }
    }

    /// Measured wall nanoseconds per input event (sampled; 0.0 before the
    /// first sample).
    pub fn nanos_per_event(&self) -> f64 {
        if self.sampled_events == 0 {
            0.0
        } else {
            self.sampled_nanos as f64 / self.sampled_events as f64
        }
    }
}

/// One executor's full stats report: per-op counters. Shard runtimes
/// fold per-worker reports with [`ExecStatsReport::absorb`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecStatsReport {
    /// Per-op counters, in the executor's operator order.
    pub ops: Vec<OpStats>,
}

impl ExecStatsReport {
    /// Folds another worker's report into this one: counters and state
    /// gauges sum per op.
    pub fn absorb(&mut self, other: &ExecStatsReport) {
        if self.ops.is_empty() {
            *self = other.clone();
            return;
        }
        debug_assert_eq!(self.ops.len(), other.ops.len(), "same plan on all workers");
        for (mine, theirs) in self.ops.iter_mut().zip(&other.ops) {
            debug_assert_eq!(mine.mop, theirs.mop);
            mine.events_in += theirs.events_in;
            mine.events_out += theirs.events_out;
            mine.batch_calls += theirs.batch_calls;
            mine.event_calls += theirs.event_calls;
            mine.state_size += theirs.state_size;
            mine.sampled_nanos += theirs.sampled_nanos;
            mine.sampled_calls += theirs.sampled_calls;
            mine.sampled_events += theirs.sampled_events;
        }
    }
}

/// Runtime-level (not per-op) counters: queue pressure and barrier
/// latency distributions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Per-worker high-water mark of the dispatch queue depth (streaming
    /// pool only; empty for the local and one-shot backends).
    pub queue_depth_hwm: Vec<u64>,
    /// Dispatches that found the worker queue full and fell back to a
    /// blocking send — the backpressure count (streaming pool only).
    pub blocking_sends: u64,
    /// Flush-barrier latency distribution: one sample per `flush` and
    /// `finish` barrier (`count()` is the barrier count, `total()` the
    /// wall nanoseconds inside barriers).
    pub flush: Histogram,
    /// `update_plan` epoch latency distribution (quiesce → install →
    /// resume), one sample per epoch.
    pub update: Histogram,
}

/// Results delivered for one query at the subscription dispatch point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryStats {
    /// The query.
    pub query: QueryId,
    /// Result tuples routed to this query (subscription or unclaimed).
    pub emitted: u64,
    /// Ingest→delivery latency distribution over *sampled* delivery
    /// batches (`count() <= emitted`; `emitted` itself is exact). A
    /// delivery batch is sampled when it follows a fresh ingest mark —
    /// one push in [`TIME_SAMPLE_EVERY`] takes an `Instant` (batch entry
    /// points always mark, so barrier deliveries are always sampled) —
    /// and measures against that mark, so the distribution reflects true
    /// queueing + processing delay with no clock read and only one
    /// counter add per tuple on the unsampled hot path.
    pub latency: Histogram,
}

/// One shared ancestor m-op of a query, with its fan-in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedOpRef {
    /// The shared m-op.
    pub mop: MopId,
    /// How many member operators (≈ queries) share it.
    pub fan_in: usize,
}

/// Sharing attribution for one query: which shared m-ops sit in its
/// ancestry and the paper's benefit metric — how many operator
/// invocations (and how much measured wall time) sharing saved versus an
/// unshared plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuerySharing {
    /// The query.
    pub query: QueryId,
    /// Shared m-ops (fan-in > 1) in this query's ancestry, by id.
    pub shared: Vec<SharedOpRef>,
    /// Estimated events saved by sharing across this query's shared
    /// ancestors: Σ `events_in(op) × (fan_in − 1)` — an unshared plan
    /// would have run each member's private copy over the same input.
    pub events_saved: u64,
    /// The same saving priced in measured wall time: events saved at each
    /// shared op × that op's sampled nanoseconds per event. 0 until the
    /// op has timing samples (and under `stats-off`).
    pub nanos_saved: u64,
}

/// A point-in-time, engine-independent view of the whole runtime.
///
/// Counters are cumulative since session construction; gauges
/// (`state_size`, `queue_depth_hwm`) are the value at snapshot time.
/// Serialize with [`to_json`](Self::to_json); subtract a baseline with
/// [`diff`](Self::diff).
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    /// Backend label: `local`, `sharded`, or `streaming`.
    pub engine: &'static str,
    /// Worker count (1 for the local backend).
    pub workers: usize,
    /// Total events accepted by the session.
    pub events_in: u64,
    /// Per-m-op counters, folded across workers.
    pub ops: Vec<OpStats>,
    /// Queue/backpressure/barrier counters.
    pub runtime: RuntimeStats,
    /// Per-query delivered-result counts and latency distributions, one
    /// entry per registered query.
    pub queries: Vec<QueryStats>,
    /// Per-query sharing attribution.
    pub sharing: Vec<QuerySharing>,
}

impl StatsSnapshot {
    /// Measured per-m-op selectivities (and, when timing samples exist,
    /// per-m-op *time weights* — measured nanoseconds per event
    /// normalized to a mean of 1.0) as a cost-model calibration (see
    /// [`rumor_core::SelectivityModel`]): every op that has seen at least
    /// one input event contributes its observed events-out/events-in
    /// ratio. Feed the result to [`crate::Rumor::calibrate`] (or
    /// `Optimizer::with_selectivity`) so the cost-based sharing search
    /// scores candidate plans against this workload instead of the
    /// per-kind defaults — with work terms weighted by where the wall
    /// time actually went.
    pub fn selectivity_model(&self) -> rumor_core::SelectivityModel {
        let mut model = rumor_core::SelectivityModel::from_measured(
            self.ops
                .iter()
                .filter(|o| o.events_in > 0)
                .map(|o| (o.mop, o.selectivity())),
        );
        let timed: Vec<(MopId, f64)> = self
            .ops
            .iter()
            .filter(|o| o.sampled_events > 0 && o.events_in > 0)
            .map(|o| (o.mop, o.nanos_per_event()))
            .collect();
        if !timed.is_empty() {
            let mean = timed.iter().map(|(_, n)| n).sum::<f64>() / timed.len() as f64;
            if mean > 0.0 {
                for (mop, npe) in timed {
                    model = model.with_time_weight(mop, npe / mean);
                }
            }
        }
        model
    }

    /// The counter delta `self − baseline`: per-op and per-query counters
    /// subtract (saturating, matched by id), histograms subtract bucket
    /// counts; gauges — `state_size`, `queue_depth_hwm` — keep `self`'s
    /// value; per-query `events_saved`/`nanos_saved` are recomputed from
    /// the diffed op counters. Take a snapshot before
    /// and after a workload window and diff them to see just that window.
    pub fn diff(&self, baseline: &StatsSnapshot) -> StatsSnapshot {
        let base_ops: HashMap<MopId, &OpStats> = baseline.ops.iter().map(|o| (o.mop, o)).collect();
        let ops: Vec<OpStats> = self
            .ops
            .iter()
            .map(|o| {
                let b = base_ops.get(&o.mop);
                let sub =
                    |f: fn(&OpStats) -> u64| f(o).saturating_sub(b.map(|b| f(b)).unwrap_or(0));
                OpStats {
                    mop: o.mop,
                    name: o.name.clone(),
                    events_in: sub(|o| o.events_in),
                    events_out: sub(|o| o.events_out),
                    batch_calls: sub(|o| o.batch_calls),
                    event_calls: sub(|o| o.event_calls),
                    state_size: o.state_size,
                    sampled_nanos: sub(|o| o.sampled_nanos),
                    sampled_calls: sub(|o| o.sampled_calls),
                    sampled_events: sub(|o| o.sampled_events),
                }
            })
            .collect();
        let base_queries: HashMap<QueryId, &QueryStats> =
            baseline.queries.iter().map(|q| (q.query, q)).collect();
        let queries = self
            .queries
            .iter()
            .map(|q| {
                let b = base_queries.get(&q.query);
                QueryStats {
                    query: q.query,
                    emitted: q.emitted.saturating_sub(b.map(|b| b.emitted).unwrap_or(0)),
                    latency: match b {
                        Some(b) => q.latency.diff(&b.latency),
                        None => q.latency.clone(),
                    },
                }
            })
            .collect();
        let in_by_op: HashMap<MopId, u64> = ops.iter().map(|o| (o.mop, o.events_in)).collect();
        let npe_by_op: HashMap<MopId, f64> =
            ops.iter().map(|o| (o.mop, o.nanos_per_event())).collect();
        let sharing = self
            .sharing
            .iter()
            .map(|s| QuerySharing {
                query: s.query,
                shared: s.shared.clone(),
                events_saved: events_saved(&s.shared, &in_by_op),
                nanos_saved: nanos_saved(&s.shared, &in_by_op, &npe_by_op),
            })
            .collect();
        StatsSnapshot {
            engine: self.engine,
            workers: self.workers,
            events_in: self.events_in.saturating_sub(baseline.events_in),
            ops,
            runtime: RuntimeStats {
                queue_depth_hwm: self.runtime.queue_depth_hwm.clone(),
                blocking_sends: self
                    .runtime
                    .blocking_sends
                    .saturating_sub(baseline.runtime.blocking_sends),
                flush: self.runtime.flush.diff(&baseline.runtime.flush),
                update: self.runtime.update.diff(&baseline.runtime.update),
            },
            queries,
            sharing,
        }
    }

    /// Total estimated events saved by sharing across all queries'
    /// shared ancestors (each shared op counted once).
    pub fn total_events_saved(&self) -> u64 {
        let mut seen: HashSet<MopId> = HashSet::new();
        let in_by_op: HashMap<MopId, u64> = self.ops.iter().map(|o| (o.mop, o.events_in)).collect();
        let mut total = 0u64;
        for s in &self.sharing {
            for op in &s.shared {
                if seen.insert(op.mop) {
                    total += in_by_op.get(&op.mop).copied().unwrap_or(0)
                        * (op.fan_in.saturating_sub(1)) as u64;
                }
            }
        }
        total
    }

    /// Total estimated wall nanoseconds saved by sharing (each shared op
    /// counted once, priced at its measured nanoseconds per event). 0
    /// until timing samples exist.
    pub fn total_nanos_saved(&self) -> u64 {
        let mut seen: HashSet<MopId> = HashSet::new();
        let by_op: HashMap<MopId, &OpStats> = self.ops.iter().map(|o| (o.mop, o)).collect();
        let mut total = 0u64;
        for s in &self.sharing {
            for op in &s.shared {
                if seen.insert(op.mop) {
                    if let Some(o) = by_op.get(&op.mop) {
                        let saved = o.events_in * (op.fan_in.saturating_sub(1)) as u64;
                        total += (saved as f64 * o.nanos_per_event()) as u64;
                    }
                }
            }
        }
        total
    }

    /// Per-m-op share of the total estimated wall time (empty until
    /// timing samples exist). Shares sum to ~1.0 across ops.
    pub fn time_shares(&self) -> Vec<(MopId, f64)> {
        let total: u64 = self.ops.iter().map(|o| o.est_nanos()).sum();
        if total == 0 {
            return Vec::new();
        }
        self.ops
            .iter()
            .map(|o| (o.mop, o.est_nanos() as f64 / total as f64))
            .collect()
    }

    /// Serializes the snapshot as a stable, hand-rolled JSON document
    /// (the workspace deliberately carries no serialization dependency).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"engine\": \"{}\",", self.engine);
        let _ = writeln!(out, "  \"workers\": {},", self.workers);
        let _ = writeln!(out, "  \"stats_compiled\": {},", STATS_COMPILED);
        let _ = writeln!(out, "  \"events_in\": {},", self.events_in);
        let total_est: u64 = self.ops.iter().map(|o| o.est_nanos()).sum();
        out.push_str("  \"ops\": [\n");
        for (i, o) in self.ops.iter().enumerate() {
            let share = if total_est == 0 {
                0.0
            } else {
                o.est_nanos() as f64 / total_est as f64
            };
            let _ = writeln!(
                out,
                "    {{\"mop\": {}, \"name\": \"{}\", \"events_in\": {}, \"events_out\": {}, \"selectivity\": {:.4}, \"batch_calls\": {}, \"event_calls\": {}, \"state_size\": {}, \"est_nanos\": {}, \"time_share\": {:.4}, \"sampled_calls\": {}}}{}",
                o.mop.index(),
                json_escape(&o.name),
                o.events_in,
                o.events_out,
                o.selectivity(),
                o.batch_calls,
                o.event_calls,
                o.state_size,
                o.est_nanos(),
                share,
                o.sampled_calls,
                comma(i, self.ops.len()),
            );
        }
        out.push_str("  ],\n");
        let hwm: Vec<String> = self
            .runtime
            .queue_depth_hwm
            .iter()
            .map(u64::to_string)
            .collect();
        let _ = writeln!(
            out,
            "  \"runtime\": {{\"queue_depth_hwm\": [{}], \"blocking_sends\": {}, \"flush_barriers\": {}, \"flush_nanos\": {}, \"flush_latency\": {}, \"update_epochs\": {}, \"update_nanos\": {}, \"update_latency\": {}}},",
            hwm.join(", "),
            self.runtime.blocking_sends,
            self.runtime.flush.count(),
            self.runtime.flush.total(),
            self.runtime.flush.to_json(),
            self.runtime.update.count(),
            self.runtime.update.total(),
            self.runtime.update.to_json(),
        );
        out.push_str("  \"queries\": [\n");
        for (i, q) in self.queries.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"query\": {}, \"emitted\": {}, \"latency\": {}}}{}",
                q.query.index(),
                q.emitted,
                q.latency.to_json(),
                comma(i, self.queries.len()),
            );
        }
        out.push_str("  ],\n  \"sharing\": [\n");
        for (i, s) in self.sharing.iter().enumerate() {
            let shared: Vec<String> = s
                .shared
                .iter()
                .map(|op| format!("{{\"mop\": {}, \"fan_in\": {}}}", op.mop.index(), op.fan_in))
                .collect();
            let _ = writeln!(
                out,
                "    {{\"query\": {}, \"shared\": [{}], \"events_saved\": {}, \"nanos_saved\": {}}}{}",
                s.query.index(),
                shared.join(", "),
                s.events_saved,
                s.nanos_saved,
                comma(i, self.sharing.len()),
            );
        }
        let _ = writeln!(
            out,
            "  ],\n  \"total_events_saved\": {},\n  \"total_nanos_saved\": {}\n}}",
            self.total_events_saved(),
            self.total_nanos_saved(),
        );
        out
    }
}

// ----------------------------------------------------------------------
// The interval meter.
// ----------------------------------------------------------------------

/// Where [`Meter`] interval lines go. Implementations must tolerate being
/// called from whatever thread drives the session (the meter itself is
/// caller-driven, so this is the session thread in practice).
pub trait MeterSink {
    /// Emits one JSON line (no trailing newline in `line`).
    fn emit(&mut self, line: &str);
}

/// A [`MeterSink`] writing lines to stderr.
#[derive(Debug, Default, Clone, Copy)]
pub struct StderrMeterSink;

impl MeterSink for StderrMeterSink {
    fn emit(&mut self, line: &str) {
        eprintln!("{line}");
    }
}

/// A [`MeterSink`] appending lines to a file (buffered; flushed on drop).
#[derive(Debug)]
pub struct FileMeterSink {
    out: std::io::BufWriter<std::fs::File>,
}

impl FileMeterSink {
    /// Creates (truncating) the file at `path`.
    pub fn create(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        Ok(FileMeterSink {
            out: std::io::BufWriter::new(std::fs::File::create(path)?),
        })
    }
}

impl MeterSink for FileMeterSink {
    fn emit(&mut self, line: &str) {
        use std::io::Write as _;
        let _ = writeln!(self.out, "{line}");
    }
}

/// A [`MeterSink`] collecting lines in memory (tests, bench reports).
#[derive(Debug, Default, Clone)]
pub struct CollectingMeterSink {
    /// The emitted lines, in order.
    pub lines: Vec<String>,
}

impl MeterSink for CollectingMeterSink {
    fn emit(&mut self, line: &str) {
        self.lines.push(line.to_string());
    }
}

/// Caller-driven interval metering: feed it a [`StatsSnapshot`] whenever
/// an interval closes (a timer tick, every N batches — the cadence is
/// the caller's), and it diffs against the previous snapshot via
/// [`StatsSnapshot::diff`] and emits one compact JSON line per interval
/// to its [`MeterSink`]. The first tick only establishes the baseline.
#[derive(Debug)]
pub struct Meter<S: MeterSink> {
    sink: S,
    last: Option<StatsSnapshot>,
    intervals: u64,
}

impl<S: MeterSink> Meter<S> {
    /// A meter emitting to `sink`.
    pub fn new(sink: S) -> Self {
        Meter {
            sink,
            last: None,
            intervals: 0,
        }
    }

    /// Closes an interval: diffs `snapshot` against the previous tick's
    /// and emits the interval line (returns `false` on the baseline
    /// tick, which emits nothing).
    pub fn tick(&mut self, snapshot: StatsSnapshot) -> bool {
        let emitted = if let Some(prev) = &self.last {
            let d = snapshot.diff(prev);
            let line = meter_line(self.intervals, &d);
            self.sink.emit(&line);
            self.intervals += 1;
            true
        } else {
            false
        };
        self.last = Some(snapshot);
        emitted
    }

    /// Intervals emitted so far (baseline tick excluded).
    pub fn intervals(&self) -> u64 {
        self.intervals
    }

    /// Consumes the meter, returning its sink (e.g. to read collected
    /// lines).
    pub fn into_sink(self) -> S {
        self.sink
    }
}

/// One compact interval line from a diffed snapshot.
fn meter_line(interval: u64, d: &StatsSnapshot) -> String {
    let delivered: u64 = d.queries.iter().map(|q| q.emitted).sum();
    let busiest = d.ops.iter().max_by_key(|o| (o.est_nanos(), o.events_in));
    let total_est: u64 = d.ops.iter().map(|o| o.est_nanos()).sum();
    let (busiest_name, busiest_share) = match busiest {
        Some(o) if total_est > 0 => (o.name.clone(), o.est_nanos() as f64 / total_est as f64),
        Some(o) => (o.name.clone(), 0.0),
        None => (String::new(), 0.0),
    };
    format!(
        "{{\"interval\": {}, \"events_in\": {}, \"delivered\": {}, \"events_saved\": {}, \"blocking_sends\": {}, \"flush_barriers\": {}, \"flush_p99_us\": {:.1}, \"busiest\": \"{}\", \"busiest_share\": {:.3}}}",
        interval,
        d.events_in,
        delivered,
        d.total_events_saved(),
        d.runtime.blocking_sends,
        d.runtime.flush.count(),
        d.runtime.flush.p99() as f64 / 1_000.0,
        json_escape(&busiest_name),
        busiest_share,
    )
}

// ----------------------------------------------------------------------
// Sharing attribution.
// ----------------------------------------------------------------------

/// Computes per-query sharing attribution from the plan structure and a
/// folded op report: for each query, walk its output stream's ancestry
/// through member-precise producer links, collect every m-op with more
/// than one member, and price the saved work at `events_in × (fan_in −
/// 1)` per shared ancestor — in events, and in measured wall time where
/// timing samples exist.
pub fn sharing_attribution(plan: &PlanGraph, ops: &[OpStats]) -> Vec<QuerySharing> {
    let in_by_op: HashMap<MopId, u64> = ops.iter().map(|o| (o.mop, o.events_in)).collect();
    let npe_by_op: HashMap<MopId, f64> = ops.iter().map(|o| (o.mop, o.nanos_per_event())).collect();
    plan.query_outputs()
        .iter()
        .map(|&(query, out)| {
            let mut shared: Vec<SharedOpRef> = Vec::new();
            let mut seen_mops: HashSet<MopId> = HashSet::new();
            let mut stack = vec![out];
            let mut seen_streams: HashSet<_> = HashSet::new();
            while let Some(s) = stack.pop() {
                if !seen_streams.insert(s) {
                    continue;
                }
                if let Producer::Mop { mop, member } = plan.stream(s).producer {
                    let node = plan.mop(mop);
                    if seen_mops.insert(mop) && node.members.len() > 1 {
                        shared.push(SharedOpRef {
                            mop,
                            fan_in: node.members.len(),
                        });
                    }
                    // Member-precise lineage: only the producing member's
                    // inputs are this query's ancestors.
                    stack.extend(node.members[member].inputs.iter().copied());
                }
            }
            shared.sort_by_key(|op| op.mop);
            let events_saved = events_saved(&shared, &in_by_op);
            let nanos_saved = nanos_saved(&shared, &in_by_op, &npe_by_op);
            QuerySharing {
                query,
                shared,
                events_saved,
                nanos_saved,
            }
        })
        .collect()
}

fn events_saved(shared: &[SharedOpRef], in_by_op: &HashMap<MopId, u64>) -> u64 {
    shared
        .iter()
        .map(|op| {
            in_by_op.get(&op.mop).copied().unwrap_or(0) * (op.fan_in.saturating_sub(1)) as u64
        })
        .sum()
}

fn nanos_saved(
    shared: &[SharedOpRef],
    in_by_op: &HashMap<MopId, u64>,
    npe_by_op: &HashMap<MopId, f64>,
) -> u64 {
    shared
        .iter()
        .map(|op| {
            let saved =
                in_by_op.get(&op.mop).copied().unwrap_or(0) * (op.fan_in.saturating_sub(1)) as u64;
            (saved as f64 * npe_by_op.get(&op.mop).copied().unwrap_or(0.0)) as u64
        })
        .sum()
}

fn comma(i: usize, len: usize) -> &'static str {
    if i + 1 == len {
        ""
    } else {
        ","
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(mop: u32, events_in: u64, events_out: u64) -> OpStats {
        OpStats {
            mop: MopId(mop),
            name: format!("op{mop}"),
            events_in,
            events_out,
            batch_calls: 1,
            event_calls: 2,
            state_size: 3,
            sampled_nanos: 0,
            sampled_calls: 0,
            sampled_events: 0,
        }
    }

    fn snap(ops: Vec<OpStats>) -> StatsSnapshot {
        StatsSnapshot {
            engine: "local",
            workers: 1,
            events_in: ops.iter().map(|o| o.events_in).sum(),
            ops,
            runtime: RuntimeStats::default(),
            queries: vec![QueryStats {
                query: QueryId(0),
                emitted: 7,
                latency: Histogram::default(),
            }],
            sharing: vec![QuerySharing {
                query: QueryId(0),
                shared: vec![SharedOpRef {
                    mop: MopId(0),
                    fan_in: 3,
                }],
                events_saved: 0,
                nanos_saved: 0,
            }],
        }
    }

    #[test]
    fn diff_subtracts_counters_and_keeps_gauges() {
        let before = snap(vec![op(0, 100, 40)]);
        let mut after = snap(vec![op(0, 250, 90)]);
        after.queries[0].emitted = 19;
        let d = after.diff(&before);
        assert_eq!(d.ops[0].events_in, 150);
        assert_eq!(d.ops[0].events_out, 50);
        assert_eq!(d.ops[0].state_size, 3, "gauge keeps the later value");
        assert_eq!(d.queries[0].emitted, 12);
        // events_saved recomputed from the diffed window: 150 × (3−1).
        assert_eq!(d.sharing[0].events_saved, 300);
        assert_eq!(d.events_in, 150);
    }

    #[test]
    fn json_is_balanced_and_names_escaped() {
        let mut s = snap(vec![op(0, 10, 5)]);
        s.ops[0].name = "weird\"name".into();
        let json = s.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("weird\\\"name"));
        assert!(json.contains("\"stats_compiled\""));
        assert!(json.contains("\"queue_depth_hwm\""));
        assert!(json.contains("\"flush_latency\""));
        assert!(json.contains("\"time_share\""));
        assert!(json.contains("\"nanos_saved\""));
    }

    #[test]
    fn counters_record_both_paths() {
        let mut c = OpCounters::default();
        c.record_event(2);
        c.record_batch(10, 4);
        if STATS_COMPILED {
            assert_eq!(c.events_in, 11);
            assert_eq!(c.events_out, 6);
            assert_eq!(c.batch_calls, 1);
            assert_eq!(c.event_calls, 1);
        } else {
            assert_eq!(c, OpCounters::default());
        }
    }

    #[test]
    fn timing_samples_first_dispatch_then_every_interval() {
        let mut c = OpCounters::default();
        // The very first dispatch is always a sample.
        let t0 = c.sample_start();
        assert_eq!(t0.is_some(), STATS_COMPILED);
        c.record_event(0);
        c.record_time(t0, 1);
        if STATS_COMPILED {
            assert_eq!(c.sampled_calls, 1);
            assert_eq!(c.sampled_events, 1);
            // Calls 2..TIME_SAMPLE_EVERY are unsampled...
            for _ in 1..TIME_SAMPLE_EVERY {
                let t = c.sample_start();
                assert!(t.is_none());
                c.record_event(0);
                c.record_time(t, 1);
            }
            // ...and the cycle restarts exactly at the interval.
            assert!(c.sample_start().is_some());
        } else {
            assert_eq!(c, OpCounters::default());
        }
    }

    #[test]
    fn lat_acc_expands_to_the_identical_histogram() {
        // More distinct log buckets than inline slots, so the spill path
        // runs; interleaved repeats exercise slot reuse.
        let values = [
            3u64, 90_000, 3, 17, 512, 90_000, 1, 40, 1_000_000, 17, 7, 512, 33_000_000, 2,
        ];
        let mut acc = LatAcc::default();
        let mut direct = Histogram::new();
        for &v in &values {
            acc.record(v);
            direct.record(v);
        }
        assert_eq!(acc.to_histogram(), direct);
        // Sparse case: a single hot bucket never allocates the spill.
        let mut acc = LatAcc::default();
        let mut direct = Histogram::new();
        for _ in 0..1000 {
            acc.record(42);
            direct.record(42);
        }
        assert!(acc.spill.is_none());
        assert_eq!(acc.to_histogram(), direct);
    }

    #[test]
    fn lat_acc_absorb_is_exact() {
        // absorb(a, b) must equal recording every sample into one
        // accumulator, in every mix of empty/inline/spilled states —
        // including recording more samples after the merge.
        let a_vals = [3u64, 17, 512, 90_000, 1_000_000, 3, 17];
        let b_vals = [7u64, 42, 42, 33_000_000, 2, 512, 90_000, 8_000];
        let tail = [5u64, 999];
        let mut a = LatAcc::default();
        let mut b = LatAcc::default();
        let mut direct = Histogram::new();
        for &v in &a_vals {
            a.record(v);
            direct.record(v);
        }
        for &v in &b_vals {
            b.record(v);
            direct.record(v);
        }
        // Emitted tallies are independent of the sampled population and
        // must survive the merge exactly.
        for _ in 0..10 {
            a.note_emit();
        }
        for _ in 0..3 {
            b.note_emit();
        }
        a.absorb(&b);
        for &v in &tail {
            a.record(v);
            direct.record(v);
        }
        assert_eq!(a.to_histogram(), direct);
        assert_eq!(a.emitted(), 13);
        // Absorbing into an empty accumulator clones; absorbing an empty
        // one is a no-op.
        let mut empty = LatAcc::default();
        empty.absorb(&b);
        assert_eq!(empty.to_histogram(), b.to_histogram());
        let before = b.to_histogram();
        b.absorb(&LatAcc::default());
        assert_eq!(b.to_histogram(), before);
    }

    #[test]
    fn histogram_percentiles_are_ordered_and_bounded() {
        let mut h = Histogram::new();
        for v in [3u64, 17, 17, 120, 900, 4096, 70_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.max(), 70_000);
        assert!(h.p50() <= h.p90());
        assert!(h.p90() <= h.p99());
        assert!(h.p99() <= h.max());
        // Lower-bound semantics: the median (4th of 7) sample is 120,
        // which lives in bucket [64, 128), so p50 reports 64.
        assert_eq!(h.p50(), 64);
        assert_eq!(h.total(), 3 + 17 + 17 + 120 + 900 + 4096 + 70_000);
    }

    #[test]
    fn histogram_absorb_merges_and_diff_subtracts_buckets() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [10u64, 20, 30] {
            a.record(v);
        }
        for v in [1_000u64, 2_000] {
            b.record(v);
        }
        let mut merged = a.clone();
        merged.absorb(&b);
        assert_eq!(merged.count(), 5);
        assert_eq!(merged.max(), 2_000);
        assert_eq!(merged.total(), a.total() + b.total());
        // diff is absorb's inverse on bucket counts.
        let d = merged.diff(&a);
        assert_eq!(d.count(), b.count());
        assert_eq!(d.total(), b.total());
        assert_eq!(d.p99(), b.p99());
        // Diffing an empty baseline is the identity.
        assert_eq!(merged.diff(&Histogram::new()), merged);
        // An empty interval has no samples at any percentile.
        let none = merged.diff(&merged);
        assert_eq!(none.count(), 0);
        assert_eq!(none.p99(), 0);
    }

    #[test]
    fn trace_ring_evicts_oldest_beyond_capacity() {
        let mut ring = TraceRing::with_capacity(3);
        for i in 0..5 {
            ring.record("tick", format!("event {i}"));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let kept: Vec<&str> = ring.events().map(|e| e.detail.as_str()).collect();
        assert_eq!(kept, ["event 2", "event 3", "event 4"]);
        // Timestamps are monotone within the ring.
        let stamps: Vec<u64> = ring.events().map(|e| e.at_nanos).collect();
        let mut sorted = stamps.clone();
        sorted.sort_unstable();
        assert_eq!(stamps, sorted);
        let lines = trace_json_lines(&ring.events().cloned().collect::<Vec<_>>());
        assert_eq!(lines.lines().count(), 3);
        assert!(lines
            .lines()
            .all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn meter_emits_one_line_per_interval_after_baseline() {
        let mut meter = Meter::new(CollectingMeterSink::default());
        let before = snap(vec![op(0, 100, 40)]);
        let mut after = snap(vec![op(0, 250, 90)]);
        after.queries[0].emitted = 19;
        assert!(!meter.tick(before), "baseline tick emits nothing");
        assert!(meter.tick(after));
        assert_eq!(meter.intervals(), 1);
        let sink = meter.into_sink();
        assert_eq!(sink.lines.len(), 1);
        let line = &sink.lines[0];
        assert!(line.contains("\"interval\": 0"), "{line}");
        assert!(line.contains("\"events_in\": 150"), "{line}");
        assert!(line.contains("\"delivered\": 12"), "{line}");
        assert!(!line.contains('\n'));
    }

    #[test]
    fn total_events_saved_counts_each_shared_op_once() {
        let mut s = snap(vec![op(0, 100, 40)]);
        // Two queries sharing the same op: the op's saving counts once.
        s.sharing.push(QuerySharing {
            query: QueryId(1),
            shared: vec![SharedOpRef {
                mop: MopId(0),
                fan_in: 3,
            }],
            events_saved: 200,
            nanos_saved: 0,
        });
        assert_eq!(s.total_events_saved(), 200);
    }

    #[test]
    fn time_weighted_attribution_follows_sampled_nanos() {
        let mut timed = op(0, 100, 40);
        timed.sampled_nanos = 5_000;
        timed.sampled_calls = 2;
        timed.sampled_events = 50; // 100 ns/event measured
        let mut s = snap(vec![timed]);
        s.sharing = sharing_or_stub(&s);
        // est_nanos scales sampled time to all events: 5000 × 100 / 50.
        assert_eq!(s.ops[0].est_nanos(), 10_000);
        let shares = s.time_shares();
        assert_eq!(shares.len(), 1);
        assert!((shares[0].1 - 1.0).abs() < 1e-9);
        // nanos saved = events saved × ns/event = 200 × 100.
        assert_eq!(s.total_nanos_saved(), 20_000);
        let model = s.selectivity_model();
        assert!(model.is_calibrated());
        // Single timed op normalizes to weight 1.0.
        assert!((model.time_weight_for(MopId(0)) - 1.0).abs() < 1e-9);
    }

    /// Rebuilds the stub sharing rows against the snapshot's own ops so
    /// saved-time tests price with the synthetic timing above.
    fn sharing_or_stub(s: &StatsSnapshot) -> Vec<QuerySharing> {
        let in_by_op: HashMap<MopId, u64> = s.ops.iter().map(|o| (o.mop, o.events_in)).collect();
        let npe: HashMap<MopId, f64> = s.ops.iter().map(|o| (o.mop, o.nanos_per_event())).collect();
        s.sharing
            .iter()
            .map(|row| QuerySharing {
                query: row.query,
                shared: row.shared.clone(),
                events_saved: events_saved(&row.shared, &in_by_op),
                nanos_saved: nanos_saved(&row.shared, &in_by_op, &npe),
            })
            .collect()
    }
}
