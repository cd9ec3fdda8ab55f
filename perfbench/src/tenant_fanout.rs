//! `tenant_fanout`: many tenants' selections behind the TCP server.
//!
//! 1024 selections `SELECT * FROM mt WHERE a = k`, `k` drawn from
//! Zipf(64, 1.1), registered half on each of two loopback connections to
//! an in-process `rumor-server` with the default `ServerConfig`.
//! Connection A is a `rumor_server::Client` and feeds the input: one
//! `push_batch` chunk, then `flush`, and the next chunk only after its
//! own `FLUSHED`, so one chunk is in flight. The second benchmark thread
//! reads connection B continuously with `frame::read_frame` and
//! `Reply::decode`. B is sent `FLUSH` after each chunk without waiting
//! for it; the main thread waits for B's `FLUSHED` of a chunk only once
//! the next chunk is through A, so B trails by at most one chunk and its
//! outbox (part of `peak_rss_mb`) stays bounded. Each
//! event yields ~16 results, so result encoding, delivery, the outboxes,
//! the writer threads and client decode dominate while the engine runs
//! one indexed select.

use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rumor_core::OptimizerConfig;
use rumor_engine::{EventRuntime, Rumor};
use rumor_server::frame::{read_frame, write_frame};
use rumor_server::{Client, Reply, Request, Server, ServerConfig, PROTOCOL_VERSION};
use rumor_types::{QueryId, Result, RumorError, SourceId, Tuple};
use rumor_workloads::Zipf;

use crate::check::{
    fold, nonempty_share, scan_u64, total_results, wrong_results, Consumer, Digest, OpsTotals,
};
use crate::measure::{median, peak_rss_mib, Samples};
use crate::rounds::{RoundClock, Rounds};
use crate::trace::Tracer;
use crate::{registry, Args, Metric, Report};

pub const QUERIES: usize = 1024;
/// Set-ups per run (1024 REGISTER round trips each); `setup_s` is their median.
const SETUPS: usize = 5;
/// Input events per round.
pub const EVENTS: usize = 40_000;
/// Events per `PUSH_BATCH` frame.
pub const CHUNK: usize = 2_000;
const CHUNKS: usize = EVENTS / CHUNK;
const DOMAIN: usize = 64;
const ZIPF_S: f64 = 1.1;
/// Same-plan embedded replays for `engine.same_plan_us_per_event`.
const REPLAYS: usize = 3;
/// How long connection B's reader waits for a frame before the run
/// fails.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// Constant of query `q<i>`.
    pub ks: Vec<i64>,
    /// One round's events, timestamps from 0.
    pub events: Vec<Tuple>,
}

pub fn inputs(seed: u64, events: usize) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7E4A_47F0);
    let zipf = Zipf::new(DOMAIN, ZIPF_S);
    let ks = (0..QUERIES)
        .map(|_| zipf.sample_constant(&mut rng))
        .collect();
    let events = (0..events as u64)
        .map(|ts| {
            let a = rng.gen_range(0..DOMAIN as i64);
            Tuple::ints(ts, &[a, rng.gen_range(0..97), rng.gen_range(0..1_000_000)])
        })
        .collect();
    Inputs { ks, events }
}

fn body(k: i64) -> String {
    format!("SELECT * FROM mt WHERE a = {k}")
}

/// Connection A owns even query slots, connection B odd ones.
fn owned_by_a(slot: usize) -> bool {
    slot.is_multiple_of(2)
}

/// Connection B's writer half: encodes and frames each request under
/// spans.
fn send(writer: &mut BufWriter<TcpStream>, req: &Request, tr: &mut Tracer) -> Result<()> {
    tr.enter("proto.encode", 0);
    let payload = req.encode();
    tr.exit();
    tr.enter("frame.write_frame", 0);
    write_frame(writer, &payload)?;
    writer.flush()?;
    tr.exit();
    Ok(())
}

/// Connection B in raw framing, handshake done.
struct RawConn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl RawConn {
    fn connect(addr: SocketAddr) -> Result<RawConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A stalled server fails the run instead of hanging it.
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        let mut conn = RawConn {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        };
        match conn.request(&Request::Hello {
            version: PROTOCOL_VERSION,
        })? {
            Reply::Welcome { version, .. } if version == PROTOCOL_VERSION => Ok(conn),
            other => Err(RumorError::io(format!(
                "expected WELCOME version {PROTOCOL_VERSION}, got {other:?}"
            ))),
        }
    }

    /// One request and its reply; only for set-up, when no results flow.
    fn request(&mut self, req: &Request) -> Result<Reply> {
        send(&mut self.writer, req, &mut Tracer::new(Instant::now()))?;
        let frame = read_frame(&mut self.reader)?
            .ok_or_else(|| RumorError::io("server closed the connection"))?;
        Reply::decode(&frame)
    }
}

/// A running server with both connections and every query registered.
struct Deployment {
    server: Server,
    a: Client,
    b: RawConn,
    src: SourceId,
    /// Engine query id → query slot.
    slots: HashMap<QueryId, usize>,
}

/// Starts the server and registers every query; `register_rtt` gets each
/// `Client::register` round trip on connection A.
fn deploy(inputs: &Inputs, register_rtt: &mut Samples) -> Result<Deployment> {
    let mut engine = Rumor::new(OptimizerConfig::default());
    engine.execute("CREATE STREAM mt (a INT, b INT, c INT);")?;
    let server = Server::spawn(engine, ServerConfig::default())?;
    let mut a = Client::connect(server.addr())?;
    let src = a
        .source("mt")
        .ok_or_else(|| RumorError::io("WELCOME lacks stream mt"))?;
    let mut b = RawConn::connect(server.addr())?;
    let mut slots = HashMap::new();
    for (i, &k) in inputs.ks.iter().enumerate() {
        let name = format!("q{i}");
        let q = if owned_by_a(i) {
            let t0 = Instant::now();
            let q = a.register(&name, &body(k))?;
            register_rtt.add(t0.elapsed().as_nanos() as u64);
            q
        } else {
            match b.request(&Request::Register {
                name,
                body: body(k),
            })? {
                Reply::Registered { query, .. } => query,
                other => {
                    return Err(RumorError::io(format!(
                        "expected REGISTERED, got {other:?}"
                    )))
                }
            }
        };
        slots.insert(q, i);
    }
    Ok(Deployment {
        server,
        a,
        b,
        src,
        slots,
    })
}

/// The embedded engine with the server's plan: optimized empty, then
/// every query integrated live in registration order.
fn embedded(inputs: &Inputs) -> Result<(Rumor, Vec<QueryId>)> {
    let mut engine = Rumor::new(OptimizerConfig::default());
    engine.execute("CREATE STREAM mt (a INT, b INT, c INT);")?;
    engine.optimize()?;
    let script: String = inputs
        .ks
        .iter()
        .enumerate()
        .map(|(i, &k)| format!("QUERY q{i} AS {};\n", body(k)))
        .collect();
    let ids = engine.execute(&script)?;
    Ok((engine, ids))
}

/// The reference: an embedded session on the same plan, one event at a
/// time.
pub fn reference(inputs: &Inputs) -> Result<Vec<Digest>> {
    let (engine, ids) = embedded(inputs)?;
    let mut off = Tracer::new(Instant::now());
    Ok(replay(&engine, &ids, inputs, true, &mut off)?.1.digests)
}

/// Feeds one round's input to an embedded session of the same plan,
/// one event at a time or chunked as over the wire; returns wall seconds
/// and the consumer.
fn replay(
    engine: &Rumor,
    ids: &[QueryId],
    inputs: &Inputs,
    per_event: bool,
    tr: &mut Tracer,
) -> Result<(f64, Consumer)> {
    let src = engine.source_id("mt").expect("created by embedded()");
    let events: Vec<(SourceId, Tuple)> = inputs.events.iter().map(|t| (src, t.clone())).collect();
    let mut session = engine.session().build()?;
    let mut subs: Vec<_> = ids.iter().map(|&q| session.subscribe(q)).collect();
    let mut out = Consumer::new(Instant::now(), QUERIES, 0, CHUNK);
    let t0 = Instant::now();
    for (c, chunk) in events.chunks(CHUNK).enumerate() {
        out.chunk_pushed(Instant::now());
        if per_event {
            for (src, t) in chunk {
                session.push(*src, t.clone())?;
            }
        } else {
            tr.enter("session.push_batch", c as u64);
            session.push_batch(chunk)?;
            tr.exit();
        }
        for (q, sub) in subs.iter_mut().enumerate() {
            out.drain(q, sub, tr, c as u64);
        }
    }
    session.finish()?;
    for (q, sub) in subs.iter_mut().enumerate() {
        out.drain(q, sub, tr, CHUNKS as u64);
    }
    Ok((t0.elapsed().as_secs_f64(), out))
}

/// Round state shared with the reader thread. Chunk start times are
/// nanoseconds since `origin`, stored before the chunk is sent.
struct Shared {
    origin: Instant,
    base_ts: AtomicU64,
    starts_ns: Vec<AtomicU64>,
    /// Set by the main thread when a traced round starts; cleared by the
    /// reader at the round's last `FLUSHED`, so its wait for the next
    /// round is not traced.
    traced: AtomicBool,
}

impl Shared {
    fn start_ns(&self, chunk: usize) -> u64 {
        self.starts_ns[chunk.min(CHUNKS - 1)].load(SeqCst)
    }
}

/// What one connection's consumer saw in one round.
struct Side {
    digests: Vec<Digest>,
    latency: Samples,
    results: u64,
    frames: u64,
    result_frames: u64,
    bytes: u64,
    decode_ns: u64,
    read_ns: u64,
    errors: u64,
    shed_frames: u64,
    /// When `FLUSHED` arrived, nanoseconds since `origin`.
    flushed_ns: u64,
}

impl Side {
    fn new() -> Side {
        Side {
            digests: vec![Digest::default(); QUERIES],
            latency: Samples::default(),
            results: 0,
            frames: 0,
            result_frames: 0,
            bytes: 0,
            decode_ns: 0,
            read_ns: 0,
            errors: 0,
            shed_frames: 0,
            flushed_ns: 0,
        }
    }

    /// Folds one query's results, in the consumer's hands at
    /// `received_ns`, into the digests and latency samples.
    fn take(
        &mut self,
        query: QueryId,
        tuples: &[Tuple],
        received_ns: u64,
        shared: &Shared,
        slots: &HashMap<QueryId, usize>,
    ) -> Result<()> {
        let slot = *slots
            .get(&query)
            .ok_or_else(|| RumorError::io(format!("results for unknown query {query}")))?;
        self.results += tuples.len() as u64;
        fold(
            &mut self.digests[slot],
            &mut self.latency,
            tuples,
            shared.base_ts.load(SeqCst),
            CHUNK as u64,
            received_ns,
            |c| shared.start_ns(c),
        );
        Ok(())
    }
}

/// Connection B's reader: reads and decodes every reply frame under
/// spans and reports each `FLUSHED`, handing over what it saw at a
/// round's last one; returns its tracer at `GOODBYE` or EOF.
fn read_b(
    mut reader: BufReader<TcpStream>,
    shared: Arc<Shared>,
    slots: Arc<HashMap<QueryId, usize>>,
    flushes: mpsc::Sender<Option<Side>>,
) -> Result<Tracer> {
    let mut tr = Tracer::new(shared.origin);
    let mut side = Side::new();
    let mut flushed = 0usize;
    loop {
        tr.set_enabled(shared.traced.load(SeqCst));
        tr.enter("frame.read_frame", 0);
        let frame = read_frame(&mut reader);
        side.read_ns += tr.exit();
        let Some(frame) = frame? else {
            return Ok(tr);
        };
        side.frames += 1;
        side.bytes += frame.len() as u64;
        tr.enter("proto.decode", 0);
        let reply = Reply::decode(&frame);
        let decode_ns = tr.exit();
        match reply? {
            Reply::Results { query, tuples } => {
                let received_ns = shared.origin.elapsed().as_nanos() as u64;
                side.decode_ns += decode_ns;
                side.result_frames += 1;
                side.take(query, &tuples, received_ns, &shared, &slots)?;
            }
            // Shed results show as missing in the digests.
            Reply::Shed { .. } => side.shed_frames += 1,
            Reply::Error { message } => {
                eprintln!("perfbench: server error on connection B: {message}");
                side.errors += 1;
            }
            Reply::Flushed => {
                flushed += 1;
                let round_done = flushed.is_multiple_of(CHUNKS);
                let msg = round_done.then(|| {
                    side.flushed_ns = shared.origin.elapsed().as_nanos() as u64;
                    shared.traced.store(false, SeqCst);
                    std::mem::replace(&mut side, Side::new())
                });
                if flushes.send(msg).is_err() {
                    return Ok(tr);
                }
            }
            Reply::Goodbye => return Ok(tr),
            _ => {}
        }
    }
}

/// Waits for connection B's next `FLUSHED`.
fn wait_b(rx: &mpsc::Receiver<Option<Side>>) -> Result<Option<Side>> {
    rx.recv_timeout(READ_TIMEOUT)
        .map_err(|e| RumorError::io(format!("connection B never answered FLUSH: {e}")))
}

/// Per-connection digests merged by slot ownership; a result delivered
/// on the wrong connection counts as wrong.
fn merge(a: &Side, b: &Side) -> (Vec<Digest>, u64) {
    let mut misrouted = 0;
    let digests = (0..QUERIES)
        .map(|i| {
            let (own, other) = if owned_by_a(i) { (a, b) } else { (b, a) };
            misrouted += other.digests[i].count;
            own.digests[i]
        })
        .collect();
    (digests, misrouted)
}

pub fn run(args: &Args, origin: Instant) -> Result<Report> {
    let inputs = inputs(args.seed, EVENTS);
    let expected = reference(&inputs)?;
    let expected_results = total_results(&expected);
    let mut problems = Vec::new();
    let floor = registry::workload("tenant_fanout")
        .expect("registered")
        .nonempty_floor;
    let share = nonempty_share(&expected);
    if share < floor {
        problems.push(format!(
            "only {share:.3} of queries produce a result in the reference (floor {floor})"
        ));
    }

    let mut setup_s = Vec::new();
    let mut register_rtt = Samples::default();
    let mut deployed = None;
    for _ in 0..SETUPS {
        if let Some(old) = deployed.take() {
            let Deployment { server, a, b, .. } = old;
            drop((a, b));
            server.shutdown()?;
        }
        let t0 = Instant::now();
        deployed = Some(deploy(&inputs, &mut register_rtt)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let Deployment {
        server,
        mut a,
        b,
        src,
        slots,
    } = deployed.expect("at least one set-up");

    let shared = Arc::new(Shared {
        origin,
        base_ts: AtomicU64::new(0),
        starts_ns: (0..CHUNKS).map(|_| AtomicU64::new(0)).collect(),
        traced: AtomicBool::new(false),
    });
    let slots = Arc::new(slots);
    let RawConn {
        reader: b_reader,
        writer: mut b_writer,
    } = b;
    let (tx, rx) = mpsc::channel();
    let reader = {
        let (shared, slots) = (shared.clone(), slots.clone());
        thread::Builder::new()
            .name("perfbench-reader-b".into())
            .spawn(move || read_b(b_reader, shared, slots, tx))
            .map_err(|e| RumorError::io(format!("cannot spawn the reader: {e}")))?
    };

    let mut tr = Tracer::new(origin);
    let mut rounds = Rounds::new(args);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut flush_rtt = Samples::default();
    let mut traced_b: Vec<Side> = Vec::new();
    let (mut push_ns, mut traced_wall_s) = (0u64, 0.0);
    let mut round = 0usize;
    while let Some(traced) = rounds.next() {
        let base = (round * EVENTS) as u64;
        let chunks: Vec<Vec<(SourceId, Tuple)>> = inputs
            .events
            .chunks(CHUNK)
            .map(|chunk| {
                chunk
                    .iter()
                    .map(|t| {
                        let mut t = t.clone();
                        t.ts += base;
                        (src, t)
                    })
                    .collect()
            })
            .collect();
        shared.base_ts.store(base, SeqCst);
        shared.traced.store(traced, SeqCst);
        tr.set_enabled(traced);
        let mut side_a = Side::new();
        let clock = RoundClock::start()?;
        for (c, chunk) in chunks.into_iter().enumerate() {
            let cu = c as u64;
            shared.starts_ns[c].store(origin.elapsed().as_nanos() as u64, SeqCst);
            tr.enter("client.push_batch", cu);
            a.push_batch(chunk)?;
            push_ns += tr.exit();
            tr.enter("client.flush", cu);
            a.flush()?;
            let rtt = tr.exit();
            if traced {
                flush_rtt.add(rtt);
            }
            let received_ns = origin.elapsed().as_nanos() as u64;
            for (query, tuples) in a.take_results() {
                side_a.take(query, &tuples, received_ns, &shared, &slots)?;
            }
            // FLUSHED on A means the chunk is through the engine, so all
            // of its results for B are queued ahead of B's FLUSHED.
            send(&mut b_writer, &Request::Flush, &mut tr)?;
            if c > 0 {
                wait_b(&rx)?;
            }
        }
        let side_b = wait_b(&rx)?.expect("the round's last FLUSHED carries its side");
        tr.set_enabled(false);
        let end = origin + Duration::from_nanos(side_b.flushed_ns);
        let mut latency = std::mem::take(&mut side_a.latency);
        latency.absorb(&side_b.latency);
        let measured = clock.finish(end, EVENTS as u64, latency)?;

        let (digests, misrouted) = merge(&side_a, &side_b);
        let wrong = wrong_results(&expected, &digests) + misrouted;
        let errors = side_b.errors;
        // Per chunk: push_batch and flush on A, flush on B.
        attempted += (3 * CHUNKS) as u64 + expected_results;
        failed += wrong + errors;
        if wrong + errors > 0 {
            problems.push(format!(
                "round {round}: {wrong} results differ from the embedded reference, {errors} error replies, {} shed notices",
                a.shed() + side_b.shed_frames
            ));
        }
        if traced {
            traced_wall_s += measured.wall_s;
            traced_b.push(side_b);
        }
        rounds.record(traced, measured);
        round += 1;
    }

    let stats = a.stats_json()?;
    send(&mut b_writer, &Request::Bye, &mut tr)?;
    let reader_tracer = reader
        .join()
        .map_err(|_| RumorError::io("the connection B reader panicked"))??;
    a.bye()?;
    server.shutdown()?;
    tr.absorb(reader_tracer);

    let ops = OpsTotals::from_stats_json(&stats).map_err(RumorError::io)?;
    let shed = scan_u64(&stats, "\"shed_results\": ").map_err(RumorError::io)?;
    let mut metrics = rounds.metrics();
    metrics.push(Metric::new("setup_s", median(&setup_s), "s").with_samples(SETUPS as u64));
    metrics.push(Metric::new("peak_rss_mb", peak_rss_mib()?, "MiB"));
    metrics.push(Metric::new("core.plan_mops", ops.mops as f64, "count"));
    if args.trace {
        let (engine, ids) = embedded(&inputs)?;
        let mut off = Tracer::new(origin);
        let mut walls = Vec::new();
        for _ in 0..REPLAYS {
            walls.push(replay(&engine, &ids, &inputs, false, &mut off)?.0);
        }
        let mut replay_tr = Tracer::new(origin);
        replay_tr.set_enabled(true);
        let (_, out) = replay(&engine, &ids, &inputs, false, &mut replay_tr)?;
        replay_tr.set_enabled(false);
        if wrong_results(&expected, &out.digests) > 0 {
            problems.push("the embedded same-plan replay differs from the reference".into());
            failed += 1;
        }
        let push = replay_tr.totals("session.push_batch");
        let us = |ns: Option<u64>| ns.map_or(f64::NAN, |v| v as f64 / 1e3);
        let sum = |f: fn(&Side) -> u64| traced_b.iter().map(f).sum::<u64>();
        let events = rounds.traced_events().max(1) as f64;
        let (results, result_frames) = (sum(|s| s.results), sum(|s| s.result_frames));
        metrics.extend([
            Metric::new(
                "session.push_batch_us_per_event",
                push.total_ns as f64 / 1e3 / EVENTS as f64,
                "us",
            ),
            Metric::new(
                "engine.same_plan_us_per_event",
                median(&walls) * 1e6 / EVENTS as f64,
                "us",
            )
            .with_samples(REPLAYS as u64),
            Metric::new(
                "client.register_rtt_us_p50",
                us(register_rtt.percentile(0.5)),
                "us",
            )
            .with_samples(register_rtt.count()),
            Metric::new(
                "client.push_batch_us_per_event",
                push_ns as f64 / 1e3 / events,
                "us",
            ),
            Metric::new(
                "client.flush_rtt_us_p50",
                us(flush_rtt.percentile(0.5)),
                "us",
            )
            .with_samples(flush_rtt.count()),
            Metric::new(
                "client.flush_rtt_us_p99",
                us(flush_rtt.percentile(0.99)),
                "us",
            )
            .with_samples(flush_rtt.count()),
            Metric::new(
                "proto.decode_us_per_result",
                sum(|s| s.decode_ns) as f64 / 1e3 / results.max(1) as f64,
                "us",
            ),
            Metric::new(
                "frame.read_wait_frac",
                sum(|s| s.read_ns) as f64 / 1e9 / traced_wall_s,
                "ratio",
            ),
            Metric::new(
                "wire.frames_per_event",
                sum(|s| s.frames) as f64 / events,
                "count",
            ),
            Metric::new(
                "wire.bytes_per_event",
                sum(|s| s.bytes) as f64 / events,
                "count",
            ),
            Metric::new(
                "wire.results_per_frame",
                results as f64 / result_frames.max(1) as f64,
                "count",
            ),
            Metric::new("server.shed_results", shed as f64, "count"),
        ]);
        metrics.extend(Consumer::drain_metrics(
            out.drains,
            out.useful_drains,
            out.results,
            out.drain_ns,
        ));
        metrics.extend(ops.metrics());
        tr.absorb(replay_tr);
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
        let a = inputs(3, 1_500);
        assert_eq!(a, inputs(3, 1_500));
        assert_ne!(a, inputs(4, 1_500));
        let d = reference(&a).unwrap();
        assert_eq!(d, reference(&a).unwrap());
        assert!(total_results(&d) > 0, "the reference is not vacuous");
    }
}
