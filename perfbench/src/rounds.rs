//! The closed loop every workload runs: rounds over the same generated
//! input, warm-up first, until the run's time is up, summarised over the
//! measured rounds by a trimmed mean.

use std::io;
use std::time::{Duration, Instant};

use crate::measure::{cpu_seconds, trimmed_mean, Samples};
use crate::{Args, Metric};

/// Measured rounds of each kind a run makes at least, however long they
/// take.
const MIN_ROUNDS: usize = 3;

/// Share of rounds dropped at each end before per-round figures are
/// averaged: one slow round does not move the result, and a host whose
/// speed drifts during the run moves it in proportion.
const TRIM: f64 = 0.2;

/// Rounds that start within this time of the run's first round warm up
/// (caches, allocator, socket buffers) and are not measured; the first
/// round always does.
const WARM_UP: Duration = Duration::from_secs(2);

/// Brackets one round's timed window: wall clock and process CPU.
pub struct RoundClock {
    start: Instant,
    cpu_s: f64,
}

impl RoundClock {
    pub fn start() -> io::Result<RoundClock> {
        let cpu_s = cpu_seconds()?;
        Ok(RoundClock {
            start: Instant::now(),
            cpu_s,
        })
    }

    /// Ends the window at `end` (when the last result reached the
    /// consumer).
    pub fn finish(self, end: Instant, events: u64, latency: Samples) -> io::Result<Round> {
        Ok(Round {
            events,
            wall_s: end.duration_since(self.start).as_secs_f64(),
            cpu_s: cpu_seconds()? - self.cpu_s,
            latency,
        })
    }
}

/// One round's raw figures. `latency` holds per-result latencies in
/// nanoseconds.
pub struct Round {
    pub events: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub latency: Samples,
}

#[derive(Default)]
struct Acc {
    eps: Vec<f64>,
    p50: Vec<f64>,
    p90: Vec<f64>,
    p99: Vec<f64>,
    results: u64,
    events: u64,
    cpu_s: f64,
}

impl Acc {
    fn add(&mut self, mut r: Round) {
        self.eps.push(r.events as f64 / r.wall_s);
        self.events += r.events;
        self.cpu_s += r.cpu_s;
        self.results += r.latency.count();
        let us = |ns: Option<u64>| ns.map(|v| v as f64 / 1e3);
        if let (Some(p50), Some(p90), Some(p99)) = (
            us(r.latency.percentile(0.5)),
            us(r.latency.percentile(0.9)),
            us(r.latency.percentile(0.99)),
        ) {
            self.p50.push(p50);
            self.p90.push(p90);
            self.p99.push(p99);
        }
    }
}

pub struct Rounds {
    seconds: Duration,
    trace: bool,
    warm_until: Option<Instant>,
    /// Set when the first measured round starts.
    deadline: Option<Instant>,
    /// Whether the round last handed out is measured.
    measuring: bool,
    measured: usize,
    plain: Acc,
    traced: Acc,
}

impl Rounds {
    pub fn new(args: &Args) -> Rounds {
        Rounds {
            seconds: Duration::from_secs(args.seconds),
            trace: args.trace,
            warm_until: None,
            deadline: None,
            measuring: false,
            measured: 0,
            plain: Acc::default(),
            traced: Acc::default(),
        }
    }

    /// `Some(traced)` for the next round; `None` once the run is over.
    /// Rounds warm up for [`WARM_UP`]; then `--seconds` of measured
    /// rounds follow, alternating untraced and traced in a traced run.
    pub fn next(&mut self) -> Option<bool> {
        let now = Instant::now();
        let warm_until = *self.warm_until.get_or_insert(now + WARM_UP);
        self.measuring = self.measured > 0 || now >= warm_until;
        if !self.measuring {
            return Some(false);
        }
        let deadline = *self.deadline.get_or_insert(now + self.seconds);
        let enough = self.plain.eps.len() >= MIN_ROUNDS
            && (!self.trace || self.traced.eps.len() >= MIN_ROUNDS);
        if enough && now >= deadline {
            None
        } else {
            Some(self.trace && self.measured % 2 == 1)
        }
    }

    /// Whether the round last handed out by [`Rounds::next`] is measured.
    pub fn measuring(&self) -> bool {
        self.measuring
    }

    pub fn record(&mut self, traced: bool, round: Round) {
        if !self.measuring {
            return;
        }
        if traced {
            self.traced.add(round);
        } else {
            self.plain.add(round);
        }
        self.measured += 1;
    }

    /// Wall time per event of the traced rounds, for per-layer shares.
    pub fn traced_events(&self) -> u64 {
        self.traced.events
    }

    /// End-to-end metrics from the untraced rounds, plus the bench-layer
    /// metrics (`result_latency_p99_us`, and `trace.overhead_frac` in a
    /// traced run).
    pub fn metrics(&self) -> Vec<Metric> {
        let p = &self.plain;
        let rounds = p.eps.len() as u64;
        let mut out = vec![
            Metric::new("throughput_eps", trimmed_mean(&p.eps, TRIM), "events/s")
                .with_samples(rounds),
            Metric::new("cpu_us_per_event", p.cpu_s * 1e6 / p.events as f64, "us"),
        ];
        if !p.p50.is_empty() {
            out.push(
                Metric::new("result_latency_p50_us", trimmed_mean(&p.p50, TRIM), "us")
                    .with_samples(p.results),
            );
            out.push(
                Metric::new("result_latency_p90_us", trimmed_mean(&p.p90, TRIM), "us")
                    .with_samples(p.results),
            );
            out.push(
                Metric::new("result_latency_p99_us", trimmed_mean(&p.p99, TRIM), "us")
                    .with_samples(p.results),
            );
        }
        if self.trace {
            let overhead = 1.0 - trimmed_mean(&self.traced.eps, TRIM) / trimmed_mean(&p.eps, TRIM);
            out.push(
                Metric::new("trace.overhead_frac", overhead, "ratio")
                    .with_samples(self.traced.eps.len() as u64),
            );
        }
        out
    }
}
