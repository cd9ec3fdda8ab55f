//! Correctness of the evaluation workloads themselves (small scale): the
//! RUMOR plan and the Cayuga engine must agree on every workload of §5.2,
//! and the channel / no-channel Workload 3 setups must agree on identical
//! content — the preconditions for the throughput comparisons of
//! Figures 9–11 to be meaningful.

use std::collections::HashMap;

use rumor::workloads::synth::{
    st_events, w3_channel_events, w3_round_robin_events, StTag, W3Event,
};
use rumor::workloads::{hybrid, perfmon, workload1, workload2, workload3, Params};
use rumor::{
    CayugaEngine, CollectingSink, Membership, Optimizer, OptimizerConfig, PlanGraph, QueryId,
    Schema, SourceId, Tuple,
};
use rumor_engine::ExecutablePlan;

fn small_params() -> Params {
    Params::default()
        .with_queries(25)
        .with_const_domain(8)
        .with_window_domain(40)
        .with_tuples(600)
}

/// How [`run_rumor_st`] feeds the event stream into the compiled plan.
#[derive(Debug, Clone, Copy)]
enum Feed {
    /// One `ExecutablePlan::push` per event.
    PerEvent,
    /// `ExecutablePlan::push_batch` over chunks of this many events, so
    /// operator state (sequence instances, iteration instances) must carry
    /// across calls.
    Chunks(usize),
}

/// The feeds every Cayuga-agreement test runs under.
const FEEDS: [Feed; 2] = [Feed::PerEvent, Feed::Chunks(256)];

fn run_rumor_st(
    queries: &[rumor::LogicalPlan],
    params: &Params,
    feed: Feed,
) -> HashMap<QueryId, Vec<String>> {
    let mut plan = PlanGraph::new();
    let s = plan
        .add_source("S", Schema::ints(params.num_attrs), None)
        .unwrap();
    let t = plan
        .add_source("T", Schema::ints(params.num_attrs), None)
        .unwrap();
    let qids: Vec<QueryId> = queries.iter().map(|q| plan.add_query(q).unwrap()).collect();
    Optimizer::new(OptimizerConfig::default())
        .optimize(&mut plan)
        .unwrap();
    plan.validate().unwrap();
    let mut exec = ExecutablePlan::new(&plan).unwrap();
    let mut sink = CollectingSink::default();
    let events: Vec<(SourceId, Tuple)> = st_events(params)
        .into_iter()
        .map(|ev| {
            let src = match ev.tag {
                StTag::S => s,
                StTag::T => t,
            };
            (src, ev.tuple)
        })
        .collect();
    match feed {
        Feed::PerEvent => {
            for (src, tuple) in &events {
                exec.push(*src, tuple.clone(), &mut sink).unwrap();
            }
        }
        Feed::Chunks(n) => {
            for chunk in events.chunks(n) {
                exec.push_batch(chunk, &mut sink).unwrap();
            }
        }
    }
    qids.iter()
        .enumerate()
        .map(|(i, &q)| {
            let mut v: Vec<String> = sink.of(q).iter().map(|t| t.to_string()).collect();
            v.sort();
            (QueryId(i as u32), v)
        })
        .collect()
}

fn run_cayuga_st(automata: &[rumor::Automaton], params: &Params) -> HashMap<QueryId, Vec<String>> {
    let mut engine = CayugaEngine::new();
    for a in automata {
        engine.add_automaton(a);
    }
    let mut out: HashMap<QueryId, Vec<String>> = HashMap::new();
    for ev in st_events(params) {
        let stream = match ev.tag {
            StTag::S => "S",
            StTag::T => "T",
        };
        engine.on_event(stream, &ev.tuple, &mut |q, t| {
            out.entry(q).or_default().push(t.to_string());
        });
    }
    for v in out.values_mut() {
        v.sort();
    }
    out
}

#[test]
fn workload1_engines_agree() {
    let params = small_params();
    let queries = workload1::generate(&params);
    let plans: Vec<_> = queries.iter().map(|q| q.plan.clone()).collect();
    let cayuga = run_cayuga_st(
        &queries
            .iter()
            .map(|q| q.automaton.clone())
            .collect::<Vec<_>>(),
        &params,
    );
    for feed in FEEDS {
        let rumor = run_rumor_st(&plans, &params, feed);
        let mut total = 0;
        for i in 0..queries.len() {
            let q = QueryId(i as u32);
            let want = cayuga.get(&q).cloned().unwrap_or_default();
            let got = rumor.get(&q).cloned().unwrap_or_default();
            assert_eq!(got, want, "workload1 query {i} diverged ({feed:?})");
            total += got.len();
        }
        assert!(total > 0, "workload must produce matches at this scale");
    }
}

#[test]
fn workload2_seq_engines_agree() {
    let params = small_params();
    let queries = workload2::generate_seq(&params);
    let plans: Vec<_> = queries.iter().map(|q| q.plan.clone()).collect();
    let cayuga = run_cayuga_st(
        &queries
            .iter()
            .map(|q| q.automaton.clone())
            .collect::<Vec<_>>(),
        &params,
    );
    for feed in FEEDS {
        let rumor = run_rumor_st(&plans, &params, feed);
        for i in 0..queries.len() {
            let q = QueryId(i as u32);
            assert_eq!(
                rumor.get(&q).cloned().unwrap_or_default(),
                cayuga.get(&q).cloned().unwrap_or_default(),
                "workload2(;) query {i} diverged ({feed:?})"
            );
        }
    }
}

#[test]
fn workload2_mu_engines_agree() {
    let params = small_params().with_queries(12).with_tuples(400);
    let queries = workload2::generate_mu(&params);
    let plans: Vec<_> = queries.iter().map(|q| q.plan.clone()).collect();
    let cayuga = run_cayuga_st(
        &queries
            .iter()
            .map(|q| q.automaton.clone())
            .collect::<Vec<_>>(),
        &params,
    );
    for feed in FEEDS {
        let rumor = run_rumor_st(&plans, &params, feed);
        for i in 0..queries.len() {
            let q = QueryId(i as u32);
            assert_eq!(
                rumor.get(&q).cloned().unwrap_or_default(),
                cayuga.get(&q).cloned().unwrap_or_default(),
                "workload2(µ) query {i} diverged ({feed:?})"
            );
        }
    }
}

#[test]
fn workload3_channel_and_plain_agree() {
    let capacity = 5;
    let params = small_params().with_queries(15).with_tuples(400);
    let queries = workload3::generate(&params, capacity);

    // Channel setup.
    let mut plan = PlanGraph::new();
    let c = plan
        .add_source_group("C", Schema::ints(params.num_attrs), capacity)
        .unwrap();
    let t = plan
        .add_source("T", Schema::ints(params.num_attrs), None)
        .unwrap();
    let qids: Vec<QueryId> = queries
        .iter()
        .map(|q| plan.add_query(&q.channel_plan).unwrap())
        .collect();
    Optimizer::new(OptimizerConfig::default())
        .optimize(&mut plan)
        .unwrap();
    plan.validate().unwrap();
    let mut exec = ExecutablePlan::new(&plan).unwrap();
    let mut sink = CollectingSink::default();
    for ev in w3_channel_events(&params, capacity) {
        match ev {
            W3Event::Channel(tuple) => exec
                .push_channel(c, tuple, Membership::all(capacity), &mut sink)
                .unwrap(),
            W3Event::T(tuple) => exec.push(t, tuple, &mut sink).unwrap(),
            W3Event::Si(..) => unreachable!(),
        }
    }
    let channel_results: Vec<Vec<String>> = qids
        .iter()
        .map(|&q| {
            let mut v: Vec<String> = sink.of(q).iter().map(|t| t.to_string()).collect();
            v.sort();
            v
        })
        .collect();

    // Plain setup over identical content.
    let mut plan = PlanGraph::new();
    let mut sis = Vec::new();
    for i in 0..capacity {
        sis.push(
            plan.add_source(
                format!("S{i}"),
                Schema::ints(params.num_attrs),
                Some("w3".into()),
            )
            .unwrap(),
        );
    }
    let t = plan
        .add_source("T", Schema::ints(params.num_attrs), None)
        .unwrap();
    let qids: Vec<QueryId> = queries
        .iter()
        .map(|q| plan.add_query(&q.plain_plan).unwrap())
        .collect();
    Optimizer::new(OptimizerConfig::without_channels())
        .optimize(&mut plan)
        .unwrap();
    plan.validate().unwrap();
    let mut exec = ExecutablePlan::new(&plan).unwrap();
    let mut sink = CollectingSink::default();
    for ev in w3_round_robin_events(&params, capacity) {
        match ev {
            W3Event::Si(i, tuple) => exec.push(sis[i], tuple, &mut sink).unwrap(),
            W3Event::T(tuple) => exec.push(t, tuple, &mut sink).unwrap(),
            W3Event::Channel(_) => unreachable!(),
        }
    }
    let plain_results: Vec<Vec<String>> = qids
        .iter()
        .map(|&q| {
            let mut v: Vec<String> = sink.of(q).iter().map(|t| t.to_string()).collect();
            v.sort();
            v
        })
        .collect();

    assert_eq!(channel_results, plain_results);
    assert!(channel_results.iter().any(|v| !v.is_empty()));
}

#[test]
fn workload3_mu_variant_channel_and_plain_agree() {
    // §5.2's closing remark: the µ template over channels behaves like the
    // ; template. Cross-check results between the channel and round-robin
    // setups at small scale.
    let capacity = 4;
    let params = small_params().with_queries(8).with_tuples(300);
    let queries = workload3::generate_mu(&params, capacity);

    let run_channel = || {
        let mut plan = PlanGraph::new();
        let c = plan
            .add_source_group("C", Schema::ints(params.num_attrs), capacity)
            .unwrap();
        let t = plan
            .add_source("T", Schema::ints(params.num_attrs), None)
            .unwrap();
        let qids: Vec<QueryId> = queries
            .iter()
            .map(|q| plan.add_query(&q.channel_plan).unwrap())
            .collect();
        Optimizer::new(OptimizerConfig::default())
            .optimize(&mut plan)
            .unwrap();
        let mut exec = ExecutablePlan::new(&plan).unwrap();
        let mut sink = CollectingSink::default();
        for ev in w3_channel_events(&params, capacity) {
            match ev {
                W3Event::Channel(tuple) => exec
                    .push_channel(c, tuple, Membership::all(capacity), &mut sink)
                    .unwrap(),
                W3Event::T(tuple) => exec.push(t, tuple, &mut sink).unwrap(),
                W3Event::Si(..) => unreachable!(),
            }
        }
        qids.iter()
            .map(|&q| {
                let mut v: Vec<String> = sink.of(q).iter().map(|t| t.to_string()).collect();
                v.sort();
                v
            })
            .collect::<Vec<_>>()
    };

    let run_plain = || {
        let mut plan = PlanGraph::new();
        let mut sis = Vec::new();
        for i in 0..capacity {
            sis.push(
                plan.add_source(
                    format!("S{i}"),
                    Schema::ints(params.num_attrs),
                    Some("w3".into()),
                )
                .unwrap(),
            );
        }
        let t = plan
            .add_source("T", Schema::ints(params.num_attrs), None)
            .unwrap();
        let qids: Vec<QueryId> = queries
            .iter()
            .map(|q| plan.add_query(&q.plain_plan).unwrap())
            .collect();
        Optimizer::new(OptimizerConfig::without_channels())
            .optimize(&mut plan)
            .unwrap();
        let mut exec = ExecutablePlan::new(&plan).unwrap();
        let mut sink = CollectingSink::default();
        for ev in w3_round_robin_events(&params, capacity) {
            match ev {
                W3Event::Si(i, tuple) => exec.push(sis[i], tuple, &mut sink).unwrap(),
                W3Event::T(tuple) => exec.push(t, tuple, &mut sink).unwrap(),
                W3Event::Channel(_) => unreachable!(),
            }
        }
        qids.iter()
            .map(|&q| {
                let mut v: Vec<String> = sink.of(q).iter().map(|t| t.to_string()).collect();
                v.sort();
                v
            })
            .collect::<Vec<_>>()
    };

    let channel_results = run_channel();
    let plain_results = run_plain();
    assert_eq!(channel_results, plain_results);
    assert!(channel_results.iter().any(|v| !v.is_empty()));
}

#[test]
fn hybrid_channel_and_plain_agree() {
    let trace = perfmon::generate(&perfmon::PerfmonConfig {
        processes: 12,
        duration_secs: 300,
        seed: 7,
    });
    let run = |config: OptimizerConfig| {
        let mut plan = PlanGraph::new();
        let cpu = plan.add_source("CPU", Schema::ints(2), None).unwrap();
        let qids: Vec<QueryId> = hybrid::generate(6, 0.4)
            .into_iter()
            .map(|q| plan.add_query(&q.plan).unwrap())
            .collect();
        Optimizer::new(config).optimize(&mut plan).unwrap();
        plan.validate().unwrap();
        let mut exec = ExecutablePlan::new(&plan).unwrap();
        let mut sink = CollectingSink::default();
        for tuple in &trace {
            exec.push(cpu, tuple.clone(), &mut sink).unwrap();
        }
        qids.iter()
            .map(|&q| {
                let mut v: Vec<String> = sink.of(q).iter().map(|t| t.to_string()).collect();
                v.sort();
                v
            })
            .collect::<Vec<_>>()
    };
    let with_channels = run(OptimizerConfig::default());
    let without = run(OptimizerConfig::without_channels());
    assert_eq!(with_channels, without);
    assert!(
        with_channels.iter().any(|v| !v.is_empty()),
        "the trace must trigger some ramp alerts"
    );
}
