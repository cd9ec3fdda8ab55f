//! Shared window-aggregation m-ops.
//!
//! * [`SharedAggregate`] — rule sα \[22\]: aggregations with the same
//!   function, input expression, and window but *different group-by
//!   specifications* over one stream. The window buffer, input-expression
//!   evaluation, and eviction scan are shared; each member keeps
//!   incrementally-maintained per-group states.
//! * [`FragmentAggregate`] — rule cα \[15\]: *identical* aggregations over
//!   sharable streams encoded by a channel. Partial aggregates are kept per
//!   (group, membership-fragment); a member's aggregate is the combination
//!   of the fragments its stream participates in, so tuples shared by many
//!   streams are stored and folded exactly once.

use std::collections::{HashMap, VecDeque};

use rumor_core::logical::AggSpec;
use rumor_core::{ChannelTuple, Emit, MopContext, MultiOp};
use rumor_expr::EvalCtx;
use rumor_types::{Membership, PortId, Result, RumorError, Timestamp, Tuple, Value, ValueKey};

use crate::emitgroup::OutputGroups;
use crate::single::{group_key, GroupState};

fn extract_agg(ctx: &MopContext) -> Result<Vec<AggSpec>> {
    ctx.members
        .iter()
        .map(|m| match &m.def {
            rumor_core::OpDef::Aggregate(spec) => Ok(spec.clone()),
            other => Err(RumorError::exec(format!(
                "aggregate m-op given non-aggregate member {other}"
            ))),
        })
        .collect()
}

fn output_row(tuple: &Tuple, group_by: &[usize], result: Value) -> Tuple {
    let mut values = Vec::with_capacity(group_by.len() + 1);
    for &i in group_by {
        values.push(tuple.value(i).cloned().unwrap_or(Value::Null));
    }
    values.push(result);
    Tuple::new(tuple.ts, values)
}

/// Shared aggregate evaluation across group-by specifications (rule sα).
pub struct SharedAggregate {
    specs: Vec<AggSpec>,
    in_position: usize,
    /// Shared window buffer: (ts, input tuple, aggregated value). Stored
    /// once no matter how many members aggregate it.
    window: VecDeque<(Timestamp, Tuple, Value)>,
    window_len: u64,
    /// Per member: group key → incrementally maintained state.
    groups: Vec<HashMap<Vec<ValueKey>, GroupState>>,
    outputs: OutputGroups,
}

impl SharedAggregate {
    /// Builds the shared aggregation.
    pub fn new(ctx: &MopContext) -> Result<Self> {
        let specs = extract_agg(ctx)?;
        let first = specs
            .first()
            .ok_or_else(|| RumorError::exec("empty aggregate m-op".to_string()))?;
        if specs.iter().any(|s| s.shared_key() != first.shared_key()) {
            return Err(RumorError::exec(
                "sα members must share function, input, and window".to_string(),
            ));
        }
        let in_position = ctx.members[0].input_positions[0];
        if ctx
            .members
            .iter()
            .any(|m| m.input_positions[0] != in_position)
        {
            return Err(RumorError::exec(
                "sα members must read the same stream".to_string(),
            ));
        }
        Ok(SharedAggregate {
            window_len: first.window,
            groups: vec![HashMap::new(); specs.len()],
            specs,
            in_position,
            window: VecDeque::new(),
            outputs: OutputGroups::new(&ctx.members),
        })
    }

    fn evict(&mut self, now: Timestamp) {
        while let Some((ts, _, _)) = self.window.front() {
            if now.saturating_sub(self.window_len) > *ts || self.window_len == 0 {
                let (_, tuple, v) = self.window.pop_front().expect("checked front");
                for (spec, groups) in self.specs.iter().zip(self.groups.iter_mut()) {
                    let key = group_key(&tuple, &spec.group_by);
                    if let Some(g) = groups.get_mut(&key) {
                        g.remove(&v);
                        if g.is_empty() {
                            groups.remove(&key);
                        }
                    }
                }
            } else {
                break;
            }
        }
    }
}

impl MultiOp for SharedAggregate {
    fn process(&mut self, _port: PortId, input: &ChannelTuple, out: &mut dyn Emit) {
        if !input.belongs_to(self.in_position) {
            return;
        }
        let tuple = &input.tuple;
        self.evict(tuple.ts);
        // The input expression is evaluated once for all members.
        let v = self.specs[0].input.eval(&EvalCtx::unary(tuple));
        self.window.push_back((tuple.ts, tuple.clone(), v.clone()));
        for (idx, (spec, groups)) in self.specs.iter().zip(self.groups.iter_mut()).enumerate() {
            let key = group_key(tuple, &spec.group_by);
            let g = groups.entry(key).or_default();
            g.add(&v);
            let row = output_row(tuple, &spec.group_by, g.result(spec.func));
            self.outputs.emit_one(out, row, idx);
        }
    }

    fn partition_keys(&self) -> rumor_core::PartitionKeys {
        // A group's state depends only on the tuples of that group (the
        // shared window buffer is per-group at eviction time, and eviction
        // is a pure ts horizon), so any hash key that every member's
        // group-by refines keeps each group whole: report the intersection
        // of the members' group-by attribute sets.
        let mut common: Vec<usize> = self.specs[0].group_by.clone();
        common.sort_unstable();
        common.dedup();
        for spec in &self.specs[1..] {
            common.retain(|a| spec.group_by.contains(a));
        }
        if common.is_empty() {
            rumor_core::PartitionKeys::Opaque
        } else {
            rumor_core::PartitionKeys::Grouped { group_by: common }
        }
    }

    fn state_size(&self) -> usize {
        self.window.len() + self.groups.iter().map(HashMap::len).sum::<usize>()
    }

    fn name(&self) -> &'static str {
        "shared-aggregate"
    }
}

/// Shared fragment aggregation over a channel (rule cα).
pub struct FragmentAggregate {
    spec: AggSpec,
    in_positions: Vec<usize>,
    window: VecDeque<(Timestamp, Tuple, Value, Membership)>,
    /// group key → fragments: (membership, partial state).
    fragments: HashMap<Vec<ValueKey>, Vec<(Membership, GroupState)>>,
    outputs: OutputGroups,
}

impl FragmentAggregate {
    /// Builds the fragment aggregation.
    pub fn new(ctx: &MopContext) -> Result<Self> {
        let specs = extract_agg(ctx)?;
        let first = specs
            .first()
            .ok_or_else(|| RumorError::exec("empty aggregate m-op".to_string()))?
            .clone();
        if specs.iter().any(|s| *s != first) {
            return Err(RumorError::exec(
                "cα members must have identical definitions".to_string(),
            ));
        }
        Ok(FragmentAggregate {
            spec: first,
            in_positions: ctx.members.iter().map(|m| m.input_positions[0]).collect(),
            window: VecDeque::new(),
            fragments: HashMap::new(),
            outputs: OutputGroups::new(&ctx.members),
        })
    }

    fn evict(&mut self, now: Timestamp) {
        while let Some((ts, _, _, _)) = self.window.front() {
            if now.saturating_sub(self.spec.window) > *ts || self.spec.window == 0 {
                let (_, tuple, v, membership) = self.window.pop_front().expect("checked front");
                let key = group_key(&tuple, &self.spec.group_by);
                if let Some(frags) = self.fragments.get_mut(&key) {
                    if let Some((_, g)) = frags.iter_mut().find(|(m, _)| *m == membership) {
                        g.remove(&v);
                    }
                    frags.retain(|(_, g)| !g.is_empty());
                    if frags.is_empty() {
                        self.fragments.remove(&key);
                    }
                }
            } else {
                break;
            }
        }
    }

    /// Current number of fragments for diagnostics.
    pub fn fragment_count(&self) -> usize {
        self.fragments.values().map(|v| v.len()).sum()
    }
}

impl MultiOp for FragmentAggregate {
    fn process(&mut self, _port: PortId, input: &ChannelTuple, out: &mut dyn Emit) {
        // Restrict the membership to the streams our members actually read.
        let mut relevant: Vec<usize> = Vec::new();
        for (m, &pos) in self.in_positions.iter().enumerate() {
            if input.belongs_to(pos) {
                relevant.push(m);
            }
        }
        if relevant.is_empty() {
            return;
        }
        let tuple = &input.tuple;
        self.evict(tuple.ts);
        let v = self.spec.input.eval(&EvalCtx::unary(tuple));
        let key = group_key(tuple, &self.spec.group_by);
        // Fold the tuple into its (group, fragment) partial exactly once —
        // this is the space and computation sharing of [15].
        let frags = self.fragments.entry(key.clone()).or_default();
        match frags.iter_mut().find(|(m, _)| *m == input.membership) {
            Some((_, g)) => g.add(&v),
            None => {
                let mut g = GroupState::new();
                g.add(&v);
                frags.push((input.membership.clone(), g));
            }
        }
        self.window
            .push_back((tuple.ts, tuple.clone(), v, input.membership.clone()));

        // Emit the refreshed aggregate for each member that received the
        // tuple, grouping members with equal results into one channel tuple.
        let frags = &self.fragments[&key];
        let mut by_result: Vec<(ValueKey, Value, Vec<usize>)> = Vec::new();
        for &m in &relevant {
            let pos = self.in_positions[m];
            let mut combined = GroupState::new();
            for (membership, g) in frags {
                if membership.contains(pos) {
                    combined.merge_from(g);
                }
            }
            let result = combined.result(self.spec.func);
            let rk = result.group_key();
            match by_result.iter_mut().find(|(k, _, _)| *k == rk) {
                Some((_, _, members)) => members.push(m),
                None => by_result.push((rk, result, vec![m])),
            }
        }
        for (_, result, members) in by_result {
            let row = output_row(tuple, &self.spec.group_by, result);
            self.outputs.emit_members(out, &row, &members);
        }
    }

    fn partition_keys(&self) -> rumor_core::PartitionKeys {
        if self.spec.group_by.is_empty() {
            rumor_core::PartitionKeys::Opaque
        } else {
            let mut group_by = self.spec.group_by.clone();
            group_by.sort_unstable();
            group_by.dedup();
            rumor_core::PartitionKeys::Grouped { group_by }
        }
    }

    fn state_size(&self) -> usize {
        self.window.len() + self.fragment_count()
    }

    fn name(&self) -> &'static str {
        "fragment-aggregate"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rumor_core::logical::{AggFunc, OpDef};
    use rumor_core::{MopKind, PlanGraph, VecEmit};
    use rumor_expr::{Expr, Predicate};
    use rumor_types::Schema;

    fn spec(func: AggFunc, group_by: Vec<usize>, window: u64) -> AggSpec {
        AggSpec {
            func,
            input: Expr::col(1),
            group_by,
            window,
        }
    }

    #[test]
    fn shared_aggregate_two_group_bys() {
        let mut p = PlanGraph::new();
        p.add_source("S", Schema::ints(3), None).unwrap();
        let s = p.source_by_name("S").unwrap().stream;
        let (a, _) = p
            .add_op(OpDef::Aggregate(spec(AggFunc::Sum, vec![0], 10)), vec![s])
            .unwrap();
        let (b, _) = p
            .add_op(OpDef::Aggregate(spec(AggFunc::Sum, vec![], 10)), vec![s])
            .unwrap();
        let merged = p.merge_mops(&[a, b], MopKind::SharedAggregate).unwrap();
        let ctx = MopContext::build(&p, merged).unwrap();
        let mut op = SharedAggregate::new(&ctx).unwrap();
        let mut sink = VecEmit::default();
        op.process(
            PortId::LEFT,
            &ChannelTuple::solo(Tuple::ints(0, &[7, 10, 0])),
            &mut sink,
        );
        op.process(
            PortId::LEFT,
            &ChannelTuple::solo(Tuple::ints(1, &[8, 5, 0])),
            &mut sink,
        );
        // Member 0 groups by a0: sums 10 then 5. Member 1 has no group-by:
        // sums 10 then 15.
        assert_eq!(sink.out.len(), 4);
        assert_eq!(sink.out[0].1, Tuple::ints(0, &[7, 10]));
        assert_eq!(sink.out[1].1, Tuple::ints(0, &[10]));
        assert_eq!(sink.out[2].1, Tuple::ints(1, &[8, 5]));
        assert_eq!(sink.out[3].1, Tuple::ints(1, &[15]));
    }

    #[test]
    fn shared_aggregate_eviction() {
        let mut p = PlanGraph::new();
        p.add_source("S", Schema::ints(2), None).unwrap();
        let s = p.source_by_name("S").unwrap().stream;
        let (a, _) = p
            .add_op(OpDef::Aggregate(spec(AggFunc::Sum, vec![], 2)), vec![s])
            .unwrap();
        let ctx = MopContext::build(&p, a).unwrap();
        let mut op = SharedAggregate::new(&ctx).unwrap();
        let mut sink = VecEmit::default();
        for (ts, v) in [(0, 10), (1, 20), (4, 5)] {
            op.process(
                PortId::LEFT,
                &ChannelTuple::solo(Tuple::ints(ts, &[0, v])),
                &mut sink,
            );
        }
        // At ts=4 both earlier tuples expired.
        assert_eq!(sink.out[2].1, Tuple::ints(4, &[5]));
    }

    fn fragment_setup(n: usize) -> (PlanGraph, MopContext) {
        let mut p = PlanGraph::new();
        p.add_source("S", Schema::ints(3), None).unwrap();
        let s = p.source_by_name("S").unwrap().stream;
        let mut ups = Vec::new();
        let mut outs = Vec::new();
        for i in 0..n {
            let (id, o) = p
                .add_op(
                    OpDef::Select(Predicate::attr_eq_const(2, i as i64)),
                    vec![s],
                )
                .unwrap();
            ups.push(id);
            outs.push(o);
        }
        p.merge_mops(&ups, MopKind::IndexedSelect).unwrap();
        let aggs: Vec<_> = outs
            .iter()
            .map(|&o| {
                p.add_op(OpDef::Aggregate(spec(AggFunc::Sum, vec![], 10)), vec![o])
                    .unwrap()
                    .0
            })
            .collect();
        p.encode_channel(&outs).unwrap();
        let merged = p.merge_mops(&aggs, MopKind::FragmentAggregate).unwrap();
        let down_outs: Vec<_> = p.mop(merged).output_streams().collect();
        p.encode_channel(&down_outs).unwrap();
        let ctx = MopContext::build(&p, merged).unwrap();
        (p, ctx)
    }

    #[test]
    fn fragment_aggregate_shares_common_tuples() {
        let (_, ctx) = fragment_setup(3);
        let mut op = FragmentAggregate::new(&ctx).unwrap();
        let mut sink = VecEmit::default();
        // Tuple belongs to all three streams: one fragment, one emission.
        op.process(
            PortId::LEFT,
            &ChannelTuple::new(Tuple::ints(0, &[0, 10, 0]), Membership::all(3)),
            &mut sink,
        );
        assert_eq!(op.fragment_count(), 1);
        assert_eq!(sink.out.len(), 1, "equal results grouped");
        assert_eq!(sink.out[0].2, Membership::all(3));
        assert_eq!(sink.out[0].1.value(0), Some(&Value::Int(10)));

        // Tuple belonging only to stream 1: results now diverge.
        op.process(
            PortId::LEFT,
            &ChannelTuple::new(Tuple::ints(1, &[0, 5, 0]), Membership::singleton(1)),
            &mut sink,
        );
        assert_eq!(op.fragment_count(), 2);
        // Member 1 sees 15, but members 0 and 2 did not receive this tuple,
        // so only member 1 emits.
        assert_eq!(sink.out.len(), 2);
        assert_eq!(sink.out[1].1.value(0), Some(&Value::Int(15)));
        assert_eq!(sink.out[1].2, Membership::singleton(1));

        // A third tuple on all streams: member 1 = 10+5+10 = 25,
        // members 0/2 = 10+10 = 20.
        op.process(
            PortId::LEFT,
            &ChannelTuple::new(Tuple::ints(2, &[0, 10, 0]), Membership::all(3)),
            &mut sink,
        );
        let last_two = &sink.out[2..];
        assert_eq!(last_two.len(), 2);
        let m1 = last_two
            .iter()
            .find(|(_, _, m)| *m == Membership::singleton(1))
            .unwrap();
        assert_eq!(m1.1.value(0), Some(&Value::Int(25)));
        let m02 = last_two
            .iter()
            .find(|(_, _, m)| *m == Membership::from_indices([0, 2]))
            .unwrap();
        assert_eq!(m02.1.value(0), Some(&Value::Int(20)));
    }

    #[test]
    fn fragment_aggregate_eviction() {
        let (_, ctx) = fragment_setup(2);
        let mut op = FragmentAggregate::new(&ctx).unwrap();
        let mut sink = VecEmit::default();
        op.process(
            PortId::LEFT,
            &ChannelTuple::new(Tuple::ints(0, &[0, 10, 0]), Membership::all(2)),
            &mut sink,
        );
        // Window is 10; at ts=20 the first tuple is gone.
        op.process(
            PortId::LEFT,
            &ChannelTuple::new(Tuple::ints(20, &[0, 1, 0]), Membership::all(2)),
            &mut sink,
        );
        assert_eq!(op.fragment_count(), 1);
        assert_eq!(sink.out[1].1.value(0), Some(&Value::Int(1)));
    }
}
