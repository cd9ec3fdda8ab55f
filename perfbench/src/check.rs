//! Result checking against a reference, and the engine counters the
//! per-layer metrics are read from.

use std::time::Instant;

use rumor_engine::{StatsSnapshot, Subscription, STATS_COMPILED};
use rumor_types::{Tuple, Value};

use crate::measure::Samples;
use crate::trace::Tracer;
use crate::Metric;

/// Fingerprint of one query's results as a multiset. Shared and
/// unshared plans may emit results that carry the same timestamp in a
/// different order, so the order of results is not part of the check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    pub count: u64,
    pub hash: u64,
}

fn mix(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29)
}

impl Digest {
    /// Folds one result in; `base_ts` is the timestamp the round's input
    /// started at, so rounds fed the same input with shifted timestamps
    /// digest identically.
    pub fn add(&mut self, t: &Tuple, base_ts: u64) {
        let mut h = mix(0x5EED, t.ts.wrapping_sub(base_ts));
        for v in t.values() {
            h = match v {
                Value::Int(i) => mix(h, *i as u64),
                Value::Float(f) => mix(h ^ 1, f.to_bits()),
                Value::Bool(b) => mix(h ^ 2, *b as u64),
                Value::Str(s) => s.bytes().fold(h ^ 3, |h, b| mix(h, b as u64)),
                Value::Null => mix(h ^ 4, 0),
            };
        }
        self.hash = self.hash.wrapping_add(mix(h, 0));
        self.count += 1;
    }
}

/// Folds results received at `received_ns` into a digest and latency
/// samples. A result's latency runs from the start of the push call that
/// carried its timestamp's event, `start_ns(chunk)`; consecutive results
/// of one chunk share one weighted sample.
pub fn fold(
    digest: &mut Digest,
    latency: &mut Samples,
    tuples: &[Tuple],
    base_ts: u64,
    chunk_len: u64,
    received_ns: u64,
    start_ns: impl Fn(usize) -> u64,
) {
    let mut run: Option<(usize, u64)> = None;
    for t in tuples {
        digest.add(t, base_ts);
        let chunk = (t.ts.saturating_sub(base_ts) / chunk_len) as usize;
        run = match run {
            Some((c, n)) if c == chunk => Some((c, n + 1)),
            Some((c, n)) => {
                latency.add_n(received_ns.saturating_sub(start_ns(c)), n);
                Some((chunk, 1))
            }
            None => Some((chunk, 1)),
        };
    }
    if let Some((c, n)) = run {
        latency.add_n(received_ns.saturating_sub(start_ns(c)), n);
    }
}

/// The consumer side of an embedded round: drains subscriptions into
/// per-query digests and latency samples.
pub struct Consumer {
    origin: Instant,
    base_ts: u64,
    chunk_len: u64,
    starts_ns: Vec<u64>,
    pub digests: Vec<Digest>,
    pub latency: Samples,
    pub drains: u64,
    pub useful_drains: u64,
    pub results: u64,
    pub drain_ns: u64,
}

impl Consumer {
    pub fn new(origin: Instant, queries: usize, base_ts: u64, chunk_len: usize) -> Consumer {
        Consumer {
            origin,
            base_ts,
            chunk_len: chunk_len as u64,
            starts_ns: Vec::new(),
            digests: vec![Digest::default(); queries],
            latency: Samples::default(),
            drains: 0,
            useful_drains: 0,
            results: 0,
            drain_ns: 0,
        }
    }

    /// Marks the start of the push call for the next chunk.
    pub fn chunk_pushed(&mut self, at: Instant) {
        self.starts_ns
            .push(at.duration_since(self.origin).as_nanos() as u64);
    }

    /// Drains one subscription (digest slot `query`) under a span.
    pub fn drain(&mut self, query: usize, sub: &mut Subscription, tr: &mut Tracer, chunk: u64) {
        tr.enter("session.drain", chunk);
        let tuples = sub.drain();
        self.drain_ns += tr.exit();
        self.drains += 1;
        if tuples.is_empty() {
            return;
        }
        let received_ns = self.origin.elapsed().as_nanos() as u64;
        self.useful_drains += 1;
        self.results += tuples.len() as u64;
        let starts = &self.starts_ns;
        let last = starts.len().saturating_sub(1);
        fold(
            &mut self.digests[query],
            &mut self.latency,
            &tuples,
            self.base_ts,
            self.chunk_len,
            received_ns,
            |c| starts.get(c.min(last)).copied().unwrap_or(0),
        );
    }

    /// The `session.drain_*` metrics of the traced rounds.
    pub fn drain_metrics(drains: u64, useful: u64, results: u64, drain_ns: u64) -> Vec<Metric> {
        vec![
            Metric::new(
                "session.drain_us_per_result",
                drain_ns as f64 / 1e3 / results.max(1) as f64,
                "us",
            )
            .with_samples(drains),
            Metric::new(
                "session.drain_useful_frac",
                useful as f64 / drains.max(1) as f64,
                "ratio",
            )
            .with_samples(drains),
        ]
    }
}

/// Results wrong or missing against the reference: every result of a
/// query whose digest differs counts, as do extra results.
pub fn wrong_results(expected: &[Digest], actual: &[Digest]) -> u64 {
    assert_eq!(
        expected.len(),
        actual.len(),
        "digest vectors cover the same queries"
    );
    expected
        .iter()
        .zip(actual)
        .filter(|(e, a)| e != a)
        .map(|(e, a)| e.count.max(a.count).max(1))
        .sum()
}

pub fn total_results(digests: &[Digest]) -> u64 {
    digests.iter().map(|d| d.count).sum()
}

/// Share of queries with at least one result.
pub fn nonempty_share(digests: &[Digest]) -> f64 {
    digests.iter().filter(|d| d.count > 0).count() as f64 / digests.len().max(1) as f64
}

/// Engine counters summed over the m-ops of one or more snapshots.
#[derive(Debug, Clone, Default)]
pub struct OpsTotals {
    pub events_in: u64,
    pub op_events_in: u64,
    pub events_saved: u64,
    pub state_size: u64,
    pub batch_calls: u64,
    pub event_calls: u64,
    pub select_nanos: u64,
    pub sequence_nanos: u64,
    pub all_nanos: u64,
    pub sequence_batch_calls: u64,
    pub sequence_event_calls: u64,
    pub mops: u64,
}

impl OpsTotals {
    fn add_op(
        &mut self,
        name: &str,
        events_in: u64,
        state: u64,
        batch: u64,
        event: u64,
        nanos: u64,
    ) {
        self.op_events_in += events_in;
        self.state_size += state;
        self.batch_calls += batch;
        self.event_calls += event;
        self.all_nanos += nanos;
        self.mops += 1;
        if name.contains("select") {
            self.select_nanos += nanos;
        } else if name.contains("sequence") {
            self.sequence_nanos += nanos;
            self.sequence_batch_calls += batch;
            self.sequence_event_calls += event;
        }
    }

    pub fn from_snapshot(s: &StatsSnapshot) -> OpsTotals {
        let mut t = OpsTotals {
            events_in: s.events_in,
            events_saved: s.total_events_saved(),
            ..OpsTotals::default()
        };
        for o in &s.ops {
            t.add_op(
                &o.name,
                o.events_in,
                o.state_size,
                o.batch_calls,
                o.event_calls,
                o.est_nanos(),
            );
        }
        t
    }

    /// Reads the same counters from the server's `STATS` document, whose
    /// `session` member is [`StatsSnapshot::to_json`].
    pub fn from_stats_json(json: &str) -> Result<OpsTotals, String> {
        let session = json
            .find("\"session\"")
            .ok_or("STATS has no session member")?;
        let doc = &json[session..];
        let mut t = OpsTotals {
            events_in: scan_u64(doc, "\"events_in\": ")?,
            events_saved: scan_u64(doc, "\"total_events_saved\": ")?,
            ..OpsTotals::default()
        };
        for line in doc
            .lines()
            .filter(|l| l.trim_start().starts_with("{\"mop\": "))
        {
            let name = line
                .split("\"name\": \"")
                .nth(1)
                .and_then(|r| r.split('"').next())
                .ok_or("m-op line without a name")?;
            t.add_op(
                name,
                scan_u64(line, "\"events_in\": ")?,
                scan_u64(line, "\"state_size\": ")?,
                scan_u64(line, "\"batch_calls\": ")?,
                scan_u64(line, "\"event_calls\": ")?,
                scan_u64(line, "\"est_nanos\": ")?,
            );
        }
        Ok(t)
    }

    pub fn absorb(&mut self, o: &OpsTotals) {
        self.events_in += o.events_in;
        self.op_events_in += o.op_events_in;
        self.events_saved += o.events_saved;
        self.state_size = self.state_size.max(o.state_size);
        self.batch_calls += o.batch_calls;
        self.event_calls += o.event_calls;
        self.select_nanos += o.select_nanos;
        self.sequence_nanos += o.sequence_nanos;
        self.all_nanos += o.all_nanos;
        self.sequence_batch_calls += o.sequence_batch_calls;
        self.sequence_event_calls += o.sequence_event_calls;
        self.mops = self.mops.max(o.mops);
    }

    /// Share of sequence m-op calls that took the batched path; `None`
    /// when no sequence m-op ran or under `stats-off`.
    pub fn sequence_batch_frac(&self) -> Option<f64> {
        let calls = self.sequence_batch_calls + self.sequence_event_calls;
        (STATS_COMPILED && calls > 0).then(|| self.sequence_batch_calls as f64 / calls as f64)
    }

    /// The `ops.*` and `exec.*` metrics. Under the engine's `stats-off`
    /// build the counters are not kept, so these metrics are absent
    /// rather than zero.
    pub fn metrics(&self) -> Vec<Metric> {
        if !STATS_COMPILED {
            return Vec::new();
        }
        let per_event = |x: u64| x as f64 / self.events_in.max(1) as f64;
        let share = |x: u64| x as f64 / self.all_nanos.max(1) as f64;
        vec![
            Metric::new(
                "ops.invocations_per_event",
                per_event(self.op_events_in),
                "count",
            ),
            Metric::new(
                "ops.events_saved_per_event",
                per_event(self.events_saved),
                "count",
            ),
            Metric::new("ops.select_time_share", share(self.select_nanos), "ratio"),
            Metric::new(
                "ops.sequence_time_share",
                share(self.sequence_nanos),
                "ratio",
            ),
            Metric::new("ops.state_size", self.state_size as f64, "count"),
            Metric::new(
                "exec.batch_call_frac",
                self.batch_calls as f64 / (self.batch_calls + self.event_calls).max(1) as f64,
                "ratio",
            ),
        ]
    }
}

/// Reads `<key><unsigned integer>` from the engine's hand-rolled JSON,
/// whose keys are fixed strings.
pub fn scan_u64(json: &str, key: &str) -> Result<u64, String> {
    let at = json.find(key).ok_or(format!("no {key:?} in stats"))? + key.len();
    let digits: String = json[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().map_err(|e| format!("{key:?}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_see_values_and_shifted_timestamps_not_order() {
        let a = Tuple::ints(5, &[1, 2]);
        let b = Tuple::ints(6, &[1, 3]);
        let mut x = Digest::default();
        x.add(&a, 0);
        x.add(&b, 0);
        let mut swapped = Digest::default();
        swapped.add(&b, 0);
        swapped.add(&a, 0);
        assert_eq!(x, swapped, "order does not matter");
        let mut y = Digest::default();
        y.add(&a, 0);
        y.add(&Tuple::ints(6, &[1, 4]), 0);
        assert_ne!(x, y, "values matter");
        let mut late = Digest::default();
        late.add(&a, 0);
        late.add(&Tuple::ints(7, &[1, 3]), 0);
        assert_ne!(x, late, "timestamps matter");
        let mut z = Digest::default();
        z.add(&Tuple::ints(105, &[1, 2]), 100);
        z.add(&Tuple::ints(106, &[1, 3]), 100);
        assert_eq!(x, z, "timestamps are taken relative to the round base");
        assert_eq!(wrong_results(&[x, x], &[x, y]), 2);
        assert_eq!(
            wrong_results(&[x, Digest::default()], &[x, Digest::default()]),
            0
        );
        assert_eq!(nonempty_share(&[x, Digest::default()]), 0.5);
    }

    #[test]
    fn stats_json_totals_match_the_snapshot_fields() {
        let doc = "{\"server\": {\"clients\": 2, \"registered_queries\": 4, \"shed_results\": 0}, \"session\": {\n  \"engine\": \"local\",\n  \"events_in\": 100,\n  \"ops\": [\n    {\"mop\": 0, \"name\": \"indexed-select\", \"events_in\": 100, \"events_out\": 40, \"selectivity\": 0.4000, \"batch_calls\": 3, \"event_calls\": 1, \"state_size\": 0, \"est_nanos\": 900, \"time_share\": 0.9000, \"sampled_calls\": 2},\n    {\"mop\": 1, \"name\": \"shared-sequence\", \"events_in\": 40, \"events_out\": 4, \"selectivity\": 0.1000, \"batch_calls\": 0, \"event_calls\": 40, \"state_size\": 7, \"est_nanos\": 100, \"time_share\": 0.1000, \"sampled_calls\": 1}\n  ],\n  \"total_events_saved\": 250,\n  \"total_nanos_saved\": 0\n}}";
        let t = OpsTotals::from_stats_json(doc).unwrap();
        assert_eq!(t.events_in, 100);
        assert_eq!(t.op_events_in, 140);
        assert_eq!(t.events_saved, 250);
        assert_eq!(t.state_size, 7);
        assert_eq!((t.batch_calls, t.event_calls), (3, 41));
        assert_eq!(
            (t.select_nanos, t.sequence_nanos, t.all_nanos),
            (900, 100, 1000)
        );
        assert_eq!(t.mops, 2);
        assert_eq!(t.sequence_batch_frac(), STATS_COMPILED.then_some(0.0));
        assert!(OpsTotals::from_stats_json("{}").is_err());
    }
}
