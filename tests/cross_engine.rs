//! Cross-engine equivalence (§4.2/§4.3): running a set of Cayuga automata
//! in the baseline event engine and running their translated, fully
//! optimized RUMOR plans must produce identical per-query results.
//!
//! This is the semantic footing of the paper's §5.2 comparison — the two
//! systems implement the same queries, so only their performance may
//! differ.

use std::collections::HashMap;

use proptest::prelude::*;

use rumor::{
    Automaton, CayugaEngine, CollectingSink, Optimizer, OptimizerConfig, PlanGraph, Predicate,
    QueryId, Schema, Tuple,
};
use rumor_engine::ExecutablePlan;
use rumor_expr::{CmpOp, Expr, NamedExpr, SchemaMap};

#[derive(Debug, Clone)]
enum Spec {
    /// (start constant, event constant, window)
    Seq(i64, i64, u64),
    /// (start constant, window) with the monotone rebind pattern
    Mu(i64, u64),
}

fn automaton_for(spec: &Spec, q: u32, schema: &Schema) -> Automaton {
    match spec {
        Spec::Seq(c1, c3, w) => Automaton::sequence(
            "S",
            schema,
            Predicate::attr_eq_const(0, *c1),
            "T",
            schema,
            Predicate::cmp(CmpOp::Eq, Expr::rcol(0), Expr::lit(*c3)),
            *w,
            QueryId(q),
        ),
        Spec::Mu(c1, w) => Automaton::iterate(
            "S",
            schema,
            Predicate::attr_eq_const(0, *c1),
            "T",
            Predicate::cmp(CmpOp::Ne, Expr::col(0), Expr::rcol(0)),
            Predicate::and(vec![
                Predicate::cmp(CmpOp::Eq, Expr::col(0), Expr::rcol(0)),
                Predicate::cmp(CmpOp::Gt, Expr::rcol(1), Expr::col(1)),
            ]),
            SchemaMap::new(vec![
                NamedExpr::new("a0", Expr::col(0)),
                NamedExpr::new("a1", Expr::rcol(1)),
                NamedExpr::new("a2", Expr::col(2)),
            ]),
            *w,
            QueryId(q),
        ),
    }
}

fn spec_strategy() -> impl Strategy<Value = Spec> {
    prop_oneof![
        (0i64..4, 0i64..4, 1u64..30).prop_map(|(c1, c3, w)| Spec::Seq(c1, c3, w)),
        (0i64..4, 1u64..30).prop_map(|(c1, w)| Spec::Mu(c1, w)),
    ]
}

fn events_strategy() -> impl Strategy<Value = Vec<(bool, Tuple)>> {
    prop::collection::vec((any::<bool>(), prop::collection::vec(0i64..4, 3)), 1..120).prop_map(
        |items| {
            items
                .into_iter()
                .enumerate()
                .map(|(ts, (is_s, vals))| (is_s, Tuple::ints(ts as u64, &vals)))
                .collect()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn translated_plans_match_automata(
        specs in prop::collection::vec(spec_strategy(), 1..6),
        events in events_strategy(),
    ) {
        let schema = Schema::ints(3);
        let automata: Vec<Automaton> = specs
            .iter()
            .enumerate()
            .map(|(i, s)| automaton_for(s, i as u32, &schema))
            .collect();

        // Cayuga side.
        let mut cayuga = CayugaEngine::new();
        for a in &automata {
            cayuga.add_automaton(a);
        }
        let mut cayuga_out: HashMap<QueryId, Vec<String>> = HashMap::new();
        for (is_s, tuple) in &events {
            let stream = if *is_s { "S" } else { "T" };
            cayuga.on_event(stream, tuple, &mut |q, t| {
                cayuga_out.entry(q).or_default().push(t.to_string());
            });
        }

        // RUMOR side: translate, register, optimize with the full rule set.
        let mut schemas = HashMap::new();
        schemas.insert("S".to_string(), schema.clone());
        schemas.insert("T".to_string(), schema.clone());
        let mut plan = PlanGraph::new();
        let s = plan.add_source("S", schema.clone(), None).unwrap();
        let t = plan.add_source("T", schema.clone(), None).unwrap();
        let mut query_map: Vec<(QueryId, QueryId)> = Vec::new();
        for a in &automata {
            for (cq, logical) in rumor_cayuga::translate(a, &schemas).unwrap() {
                let rq = plan.add_query(&logical).unwrap();
                query_map.push((cq, rq));
            }
        }
        Optimizer::new(OptimizerConfig::default())
            .optimize(&mut plan)
            .unwrap();
        plan.validate().unwrap();

        let mut exec = ExecutablePlan::new(&plan).unwrap();
        let mut sink = CollectingSink::default();
        for (is_s, tuple) in &events {
            let src = if *is_s { s } else { t };
            exec.push(src, tuple.clone(), &mut sink).unwrap();
        }

        for (cq, rq) in &query_map {
            let mut want = cayuga_out.remove(cq).unwrap_or_default();
            let mut got: Vec<String> = sink.of(*rq).iter().map(|t| t.to_string()).collect();
            want.sort();
            got.sort();
            prop_assert_eq!(got, want, "query {} diverged", cq);
        }
    }
}

// The former batched-execution and pipelined-runner equivalence proptests
// that lived here were superseded by the table-driven differential
// conformance harness in `tests/conformance.rs`, which runs every engine
// mode (per-event, batch, pipelined, sharded, streaming sharded)
// over one shared workload matrix.
