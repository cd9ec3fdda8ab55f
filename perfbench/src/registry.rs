//! The benchmark's definition as data: workloads with their rationale
//! and non-vacuity floors, and every metric with its unit, layer, the
//! end-to-end metric it should move and the workloads it is read on.
//!
//! `BENCHMARK.json` (the gated contract) and `perfbench/metrics.json`
//! (the full table) are both rendered from here; tests keep the
//! committed files identical to the rendering.

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
    /// Share of the workload's queries that must produce at least one
    /// result in the reference run, so the check cannot pass vacuously.
    pub nonempty_floor: f64,
}

pub const WORKLOADS: [WorkloadDef; 3] = [
    WorkloadDef {
        name: "paper_mix",
        why: "Figure 9 mix: 1000 Workload 1 plus 16 Workload 2 queries embedded, no server or optimizer; the check covers the dispatch mode the batch gate settles on",
        nonempty_floor: 0.9,
    },
    WorkloadDef {
        name: "tenant_fanout",
        why: "1024 Zipf selections on a loopback server over 2 connections; ~16 results per event, so result encoding, outboxes and client decode dominate",
        nonempty_floor: 0.95,
    },
    WorkloadDef {
        name: "live_churn",
        why: "1024 selections on a 2-worker streaming pool with a query registered and one dropped between chunks; optimizer and shard epoch swap run",
        nonempty_floor: 0.9,
    },
];

pub const ALL: &[&str] = &["paper_mix", "tenant_fanout", "live_churn"];

/// How a metric appears in `BENCHMARK.json`.
#[derive(Clone, Copy, PartialEq)]
pub enum Gate {
    /// An end-to-end metric with its regression bound (share of the
    /// parent's median).
    EndToEnd(f64),
    /// A per-layer metric every workload's traced run reports.
    PerLayer,
    /// Printed by the runs that measure it, not listed in
    /// `BENCHMARK.json`: it exists on some workloads only.
    Unlisted,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub layer: &'static str,
    pub gate: Gate,
    /// The end-to-end metrics this one should move.
    pub moves: &'static [&'static str],
    pub on: &'static [&'static str],
    pub definition: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    gate: Gate,
    on: &'static [&'static str],
    definition: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        layer: "end_to_end",
        gate,
        moves: &[],
        on,
        definition,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    layer: &'static str,
    gate: Gate,
    moves: &'static [&'static str],
    on: &'static [&'static str],
    definition: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
        layer,
        gate,
        moves,
        on,
        definition,
    }
}

/// A layer metric where more is better.
const fn higher(m: MetricDef) -> MetricDef {
    MetricDef {
        better: "higher",
        ..m
    }
}

use Gate::{EndToEnd, PerLayer, Unlisted};

const TPUT: &str = "throughput_eps";
const CPU: &str = "cpu_us_per_event";
const P50: &str = "result_latency_p50_us";
const P90: &str = "result_latency_p90_us";
const PM: &[&str] = &["paper_mix"];
const TF: &[&str] = &["tenant_fanout"];
const LC: &[&str] = &["live_churn"];

pub const METRICS: &[MetricDef] = &[
    e2e("throughput_eps", "events/s", "higher", EndToEnd(0.25), ALL,
        "input events / wall time from the first push until the last result is in the consumer's hands, per round; mean of the middle 60% of rounds"),
    e2e("cpu_us_per_event", "us", "lower", EndToEnd(0.25), ALL,
        "process CPU time (user + sys, all threads, /proc/self/stat) over the timed rounds / input events"),
    e2e("result_latency_p50_us", "us", "lower", EndToEnd(0.25), ALL,
        "per result: receive time (return of drain or of Reply::decode) minus the start of the push call carrying the event whose timestamp the result has; the round's exact p50, averaged over the middle 60% of rounds"),
    e2e("result_latency_p90_us", "us", "lower", EndToEnd(0.25), ALL,
        "as result_latency_p50_us, at p90"),
    e2e("setup_s", "s", "lower", EndToEnd(0.25), ALL,
        "engine build, query registration, optimize and session or server start, up to the first timed push; median of the run's set-ups (paper_mix 7, tenant_fanout 5, live_churn 15)"),
    e2e("peak_rss_mb", "MiB", "lower", EndToEnd(0.2), ALL,
        "VmHWM of the benchmark process, which also hosts the server"),
    e2e("register_p50_us", "us", "lower", Unlisted, LC,
        "per live registration: Rumor::execute + update_plan + subscribe"),
    e2e("register_p90_us", "us", "lower", Unlisted, LC, "as register_p50_us, at p90"),
    e2e("failed_frac", "ratio", "lower", Unlisted, ALL,
        "(failed calls + results missing or wrong against the reference) / (calls attempted + results expected); the run's `failed` / `attempted`"),
    layer("session.push_batch_us_per_event", "us", "engine.session+exec", PerLayer, &[TPUT, CPU], ALL,
        "traced Session::push_batch time / events pushed (tenant_fanout: the embedded same-plan replay)"),
    layer("session.drain_us_per_result", "us", "engine.session", PerLayer, &[TPUT, P50], ALL,
        "traced Subscription::drain time / results drained (tenant_fanout: the embedded same-plan replay)"),
    higher(layer("session.drain_useful_frac", "ratio", "engine.session", PerLayer, &[TPUT], ALL,
        "drains that return at least one tuple / drains (tenant_fanout: the embedded same-plan replay)")),
    layer("session.finish_us", "us", "engine.session", Unlisted, &[P90], PM,
        "traced Session::finish at the end of the run"),
    layer("ops.invocations_per_event", "count", "ops", PerLayer, &[CPU], ALL,
        "sum of OpStats.events_in / input events (live_churn: over the events since a registration last restarted the m-op counters)"),
    higher(layer("ops.events_saved_per_event", "count", "ops/core", PerLayer, &[CPU], ALL,
        "sharing attribution: StatsSnapshot::total_events_saved / input events")),
    layer("ops.select_time_share", "ratio", "ops", PerLayer, &[TPUT], ALL,
        "sampled m-op time of select m-ops / all sampled m-op time"),
    layer("ops.sequence_time_share", "ratio", "ops", PerLayer, &[TPUT], ALL,
        "sampled m-op time of sequence m-ops / all sampled m-op time"),
    layer("ops.state_size", "count", "ops", PerLayer, &["peak_rss_mb"], ALL,
        "sum of OpStats.state_size at the end of a round"),
    higher(layer("exec.batch_call_frac", "ratio", "engine.exec", PerLayer, &[TPUT], ALL,
        "batch calls / all m-op calls")),
    higher(layer("exec.sequence_batch_call_frac", "ratio", "engine.exec", Unlisted, &[TPUT], PM,
        "batch calls / all calls of sequence m-ops over the whole run, from Session::stats; printed so a flip of the batch gate is visible")),
    layer("core.optimize_s", "s", "core", Unlisted, &["setup_s"], PM,
        "Rumor::optimize time in set-up; median of 7"),
    layer("core.plan_mops", "count", "core", PerLayer, &[TPUT], ALL,
        "m-ops in the shared plan after set-up"),
    layer("core.execute_us_p50", "us", "lang+core", Unlisted, &["register_p50_us"], LC,
        "traced Rumor::execute of one live registration, p50"),
    layer("core.execute_us_p90", "us", "lang+core", Unlisted, &["register_p90_us"], LC,
        "as core.execute_us_p50, at p90"),
    layer("core.remove_us_p50", "us", "core", Unlisted, &[CPU], LC,
        "traced Rumor::remove_query_named, p50"),
    layer("core.mops_added_per_register", "count", "core", Unlisted, &["register_p50_us"], LC,
        "plan m-op count after minus before each live registration, mean"),
    layer("shard.update_plan_us_p50", "us", "engine.shard", Unlisted, &["register_p50_us"], LC,
        "traced EventRuntime::update_plan on the streaming pool, p50"),
    layer("shard.update_plan_us_p90", "us", "engine.shard", Unlisted, &["register_p90_us"], LC,
        "as shard.update_plan_us_p50, at p90"),
    layer("shard.queue_depth_hwm", "count", "engine.shard", Unlisted, &[TPUT, P90], LC,
        "highest worker queue depth, from Session::stats"),
    layer("shard.blocking_sends", "count", "engine.shard", Unlisted, &[TPUT, P90], LC,
        "sends that blocked on a full worker queue, from Session::stats"),
    layer("client.register_rtt_us_p50", "us", "server", Unlisted, &["setup_s"], TF,
        "Client::register round trip on connection A in set-up, p50"),
    layer("client.push_batch_us_per_event", "us", "server.proto+frame", Unlisted, &[TPUT], TF,
        "traced Client::push_batch (Request::encode + frame::write_frame of PUSH_BATCH) / events"),
    layer("client.flush_rtt_us_p50", "us", "server.ingest", Unlisted, &[TPUT, P90], TF,
        "Client::flush on connection A after a chunk: one chunk through ingest, engine, deliver() and A's decode; p50"),
    layer("client.flush_rtt_us_p99", "us", "server.ingest", Unlisted, &[TPUT, P90], TF,
        "as client.flush_rtt_us_p50, at p99"),
    layer("proto.decode_us_per_result", "us", "server.proto", Unlisted, &[CPU], TF,
        "traced Reply::decode time of RESULTS frames on connection B / B's results"),
    layer("frame.read_wait_frac", "ratio", "server.outbox/writer", Unlisted, &[P50], TF,
        "connection B reader's time in frame::read_frame / traced round time"),
    layer("wire.frames_per_event", "count", "server.proto", Unlisted, &[CPU], TF,
        "reply frames received on connection B / input events"),
    layer("wire.bytes_per_event", "count", "server.proto", Unlisted, &[CPU], TF,
        "reply payload bytes received on connection B / input events"),
    higher(layer("wire.results_per_frame", "count", "server.proto", Unlisted, &[CPU], TF,
        "results received on connection B / B's RESULTS frames")),
    layer("server.shed_results", "count", "server.outbox", Unlisted, &["failed_frac"], TF,
        "shed_results from the STATS reply"),
    layer("engine.same_plan_us_per_event", "us", "engine", Unlisted, &[TPUT], TF,
        "the same plan and feed replayed on an embedded session: wall time / event; the floor the wire overhead sits on"),
    layer("result_latency_p99_us", "us", "bench", PerLayer, &[], ALL,
        "as result_latency_p50_us, at p99 (untraced rounds of the traced run)"),
    layer("trace.overhead_frac", "ratio", "bench", PerLayer, &[], ALL,
        "1 - traced / untraced throughput_eps, rounds alternating within the traced run"),
];

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn metric(name: &str) -> Option<&'static MetricDef> {
    METRICS.iter().find(|m| m.name == name)
}

/// The layer a span name belongs to: its metric prefix.
pub fn span_layer(span: &str) -> &'static str {
    match span.split('.').next().unwrap_or("") {
        "session" => "engine.session",
        "core" => "lang+core",
        "shard" => "engine.shard",
        "client" => "server.client",
        "proto" => "server.proto",
        "frame" => "server.frame",
        _ => "bench",
    }
}

fn list(items: &[&str]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
    format!("[{}]", quoted.join(", "))
}

/// `BENCHMARK.json`: the run command, workloads and gated metrics.
pub fn benchmark_json(run_seconds: u64) -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let e2e: Vec<String> = METRICS
        .iter()
        .filter_map(|m| match m.gate {
            EndToEnd(bound) => Some(format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}",
                m.name, m.unit, m.better
            )),
            _ => None,
        })
        .collect();
    let per_layer: Vec<String> = METRICS
        .iter()
        .filter(|m| m.gate == PerLayer)
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {run_seconds},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        list(&crate::COMMAND),
        workloads.join(",\n"),
        e2e.join(",\n"),
        per_layer.join(",\n")
    )
}

/// `perfbench/metrics.json`: every workload and metric with what
/// `BENCHMARK.json` has no room for.
pub fn describe_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\", \"nonempty_floor\": {}}}",
                w.name, w.why, w.nonempty_floor
            )
        })
        .collect();
    let metrics: Vec<String> = METRICS
        .iter()
        .map(|m| {
            let gate = match m.gate {
                EndToEnd(bound) => format!("\"end_to_end\", \"bound\": {bound}"),
                PerLayer => "\"per_layer\"".to_string(),
                Unlisted => "\"unlisted\"".to_string(),
            };
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"layer\": \"{}\", \"listed\": {gate}, \"moves\": {}, \"on\": {}, \"definition\": \"{}\"}}",
                m.name,
                m.unit,
                m.better,
                m.layer,
                list(m.moves),
                list(m.on),
                m.definition.replace('"', "\\\"")
            )
        })
        .collect();
    format!(
        "{{\n  \"workloads\": [\n{}\n  ],\n  \"metrics\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        metrics.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_files_match_the_registry() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            benchmark_json(crate::RUN_SECONDS),
            "regenerate with `perfbench --emit-benchmark-json > BENCHMARK.json`"
        );
        assert_eq!(
            include_str!("../metrics.json"),
            describe_json(),
            "regenerate with `perfbench --describe > perfbench/metrics.json`"
        );
    }

    #[test]
    fn names_units_and_bounds_obey_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let mut names = std::collections::HashSet::new();
        for m in METRICS {
            assert!(ok_name(m.name), "{}", m.name);
            assert!(names.insert(m.name), "duplicate {}", m.name);
            assert!(m.unit.len() <= 16, "{}", m.unit);
            if let EndToEnd(bound) = m.gate {
                assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
            }
            for w in m.on {
                assert!(workload(w).is_some(), "{} on unknown {w}", m.name);
            }
            if m.gate != Unlisted {
                assert_eq!(
                    m.on, ALL,
                    "{} is listed, so every workload reports it",
                    m.name
                );
            }
        }
        for w in &WORKLOADS {
            assert!(ok_name(w.name) && w.why.len() <= 200 && !w.why.contains('"'));
        }
        let setup = metric("setup_s").unwrap();
        let largest = METRICS
            .iter()
            .filter_map(|m| match m.gate {
                EndToEnd(b) => Some(b),
                _ => None,
            })
            .fold(0.0, f64::max);
        assert!(setup.gate == EndToEnd(largest) && setup.unit == "s");
    }
}
