//! Shared selection m-ops.
//!
//! * [`IndexedSelect`] — rule sσ: predicate indexing over selections that
//!   read the same stream \[10, 16\]. Equality comparisons with constants are
//!   hash-indexed per attribute; remaining predicates are evaluated
//!   sequentially. This m-op is also how Cayuga's FR and AN indexes surface
//!   in RUMOR plans (§4.3, §5.2).
//! * [`ChannelSelect`] — rule cσ: selections with the same definition
//!   reading sharable streams encoded in one channel. The predicate is
//!   evaluated once per distinct definition, and output membership is the
//!   intersection of the input membership with the satisfied members — the
//!   stopping-condition m-op σ{e1..en} of Figure 6(c).

use std::collections::HashMap;

use rumor_core::{ChannelTuple, Emit, MopContext, MultiOp};
use rumor_expr::{EvalCtx, Predicate};
use rumor_types::{PortId, Result, RumorError, ValueKey};

use crate::emitgroup::OutputGroups;

/// Splits a predicate into an indexable `attr = const` head and a residual.
///
/// Returns `(attr, key, residual)` if the predicate — or one conjunct of a
/// top-level conjunction — is an equality between a left attribute and a
/// constant.
pub fn index_split(pred: &Predicate) -> Option<(usize, ValueKey, Predicate)> {
    if let Some(eq) = pred.as_eq_const() {
        return Some((eq.attr, eq.value.group_key(), Predicate::True));
    }
    if let Predicate::And(conjuncts) = pred {
        for (i, c) in conjuncts.iter().enumerate() {
            if let Some(eq) = c.as_eq_const() {
                let mut rest = conjuncts.clone();
                rest.remove(i);
                return Some((eq.attr, eq.value.group_key(), Predicate::and(rest)));
            }
        }
    }
    None
}

fn extract_select(ctx: &MopContext) -> Result<Vec<Predicate>> {
    ctx.members
        .iter()
        .map(|m| match &m.def {
            rumor_core::OpDef::Select(p) => Ok(p.clone()),
            other => Err(RumorError::exec(format!(
                "selection m-op given non-select member {other}"
            ))),
        })
        .collect()
}

/// Predicate-indexed shared selection (rule sσ).
pub struct IndexedSelect {
    /// Position of the (single) input stream within the input channel.
    in_position: usize,
    /// attr → (constant → member indices); probed per tuple.
    indexes: Vec<(usize, HashMap<ValueKey, Vec<u32>>)>,
    /// Residual predicate per indexed member (usually `True`).
    residuals: Vec<Predicate>,
    /// Members whose predicates are not indexable: evaluated one-by-one.
    scan: Vec<u32>,
    predicates: Vec<Predicate>,
    outputs: OutputGroups,
    satisfied: Vec<usize>,
}

impl IndexedSelect {
    /// Builds the index over the member predicates.
    pub fn new(ctx: &MopContext) -> Result<Self> {
        let predicates = extract_select(ctx)?;
        let in_position = ctx
            .members
            .first()
            .map(|m| m.input_positions[0])
            .unwrap_or(0);
        if ctx
            .members
            .iter()
            .any(|m| m.input_positions[0] != in_position)
        {
            return Err(RumorError::exec(
                "sσ members must read the same stream".to_string(),
            ));
        }
        let mut by_attr: HashMap<usize, HashMap<ValueKey, Vec<u32>>> = HashMap::new();
        let mut residuals = vec![Predicate::True; predicates.len()];
        let mut scan = Vec::new();
        for (i, p) in predicates.iter().enumerate() {
            match index_split(p) {
                Some((attr, key, residual)) => {
                    by_attr
                        .entry(attr)
                        .or_default()
                        .entry(key)
                        .or_default()
                        .push(i as u32);
                    residuals[i] = residual;
                }
                None => scan.push(i as u32),
            }
        }
        let mut indexes: Vec<(usize, HashMap<ValueKey, Vec<u32>>)> = by_attr.into_iter().collect();
        indexes.sort_by_key(|(attr, _)| *attr);
        Ok(IndexedSelect {
            in_position,
            indexes,
            residuals,
            scan,
            predicates,
            outputs: OutputGroups::new(&ctx.members),
            satisfied: Vec::new(),
        })
    }

    /// Number of hash-indexed members (diagnostics / tests).
    pub fn indexed_members(&self) -> usize {
        self.predicates.len() - self.scan.len()
    }
}

impl IndexedSelect {
    /// The per-tuple core, shared by the single and batched entry points.
    #[inline]
    fn process_one(&mut self, input: &ChannelTuple, out: &mut dyn Emit) {
        if !input.belongs_to(self.in_position) {
            return;
        }
        let tuple = &input.tuple;
        let ctx = EvalCtx::unary(tuple);
        self.satisfied.clear();
        for (attr, map) in &self.indexes {
            if let Some(v) = tuple.value(*attr) {
                if let Some(candidates) = map.get(&v.group_key()) {
                    for &m in candidates {
                        if self.residuals[m as usize].eval(&ctx) {
                            self.satisfied.push(m as usize);
                        }
                    }
                }
            }
        }
        for &m in &self.scan {
            if self.predicates[m as usize].eval(&ctx) {
                self.satisfied.push(m as usize);
            }
        }
        // Deterministic emission order regardless of index layout.
        self.satisfied.sort_unstable();
        let satisfied = std::mem::take(&mut self.satisfied);
        self.outputs.emit_members(out, tuple, &satisfied);
        self.satisfied = satisfied;
    }
}

impl MultiOp for IndexedSelect {
    fn process(&mut self, _port: PortId, input: &ChannelTuple, out: &mut dyn Emit) {
        self.process_one(input, out);
    }

    fn process_batch(&mut self, _port: PortId, inputs: &[ChannelTuple], out: &mut dyn Emit) {
        // One virtual dispatch per run; the single-index single-member
        // common case (sσ over one plain stream with pure `attr = const`
        // predicates) additionally skips the residual/scan machinery.
        if self.scan.is_empty() && self.indexes.len() == 1 {
            let (attr, map) = &self.indexes[0];
            let attr = *attr;
            for input in inputs {
                if !input.belongs_to(self.in_position) {
                    continue;
                }
                let tuple = &input.tuple;
                let Some(v) = tuple.value(attr) else { continue };
                let Some(candidates) = map.get(&v.group_key()) else {
                    continue;
                };
                let ctx = EvalCtx::unary(tuple);
                self.satisfied.clear();
                for &m in candidates {
                    if self.residuals[m as usize].eval(&ctx) {
                        self.satisfied.push(m as usize);
                    }
                }
                self.satisfied.sort_unstable();
                let satisfied = std::mem::take(&mut self.satisfied);
                self.outputs.emit_members(out, tuple, &satisfied);
                self.satisfied = satisfied;
            }
            return;
        }
        for input in inputs {
            self.process_one(input, out);
        }
    }

    fn is_stateless(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "indexed-select"
    }
}

/// Channelized shared selection (rule cσ).
pub struct ChannelSelect {
    /// Distinct predicates and the members using each.
    def_groups: Vec<(Predicate, Vec<u32>)>,
    /// Per member: position of its input stream within the input channel.
    in_positions: Vec<usize>,
    /// Union of all member input positions (batch fast-path decode mask).
    member_mask: rumor_types::Membership,
    /// Whether member `m` reads input position `m` and writes output
    /// position `m` on one shared channel — the strict cσ shape, where the
    /// batch path can pass memberships through by intersection.
    identity_mapped: bool,
    outputs: OutputGroups,
    satisfied: Vec<usize>,
}

impl ChannelSelect {
    /// Builds the channelized selection.
    pub fn new(ctx: &MopContext) -> Result<Self> {
        let predicates = extract_select(ctx)?;
        let mut def_groups: Vec<(Predicate, Vec<u32>)> = Vec::new();
        for (i, p) in predicates.iter().enumerate() {
            match def_groups.iter_mut().find(|(q, _)| q == p) {
                Some((_, members)) => members.push(i as u32),
                None => def_groups.push((p.clone(), vec![i as u32])),
            }
        }
        let in_positions: Vec<usize> = ctx.members.iter().map(|m| m.input_positions[0]).collect();
        let member_mask = rumor_types::Membership::from_indices(in_positions.iter().copied());
        let outputs = OutputGroups::new(&ctx.members);
        let identity_mapped = outputs.uniform_channel().is_some()
            && in_positions
                .iter()
                .enumerate()
                .all(|(m, &pos)| pos == m && outputs.position_of(m) == m);
        Ok(ChannelSelect {
            def_groups,
            in_positions,
            member_mask,
            identity_mapped,
            outputs,
            satisfied: Vec::new(),
        })
    }

    /// Number of distinct predicate definitions (1 when the cσ condition
    /// held exactly).
    pub fn distinct_defs(&self) -> usize {
        self.def_groups.len()
    }
}

impl ChannelSelect {
    #[inline]
    fn process_one(&mut self, input: &ChannelTuple, out: &mut dyn Emit) {
        let ctx = EvalCtx::unary(&input.tuple);
        for (pred, members) in &self.def_groups {
            // Decode: members of this definition whose stream carries the
            // tuple. The predicate runs at most once per definition.
            self.satisfied.clear();
            let mut evaluated = None;
            for &m in members {
                if input.belongs_to(self.in_positions[m as usize]) {
                    let ok = *evaluated.get_or_insert_with(|| pred.eval(&ctx));
                    if ok {
                        self.satisfied.push(m as usize);
                    } else {
                        break; // same predicate: nobody else can pass
                    }
                }
            }
            let satisfied = std::mem::take(&mut self.satisfied);
            self.outputs.emit_members(out, &input.tuple, &satisfied);
            self.satisfied = satisfied;
        }
    }
}

impl MultiOp for ChannelSelect {
    fn process(&mut self, _port: PortId, input: &ChannelTuple, out: &mut dyn Emit) {
        self.process_one(input, out);
    }

    fn process_batch(&mut self, _port: PortId, inputs: &[ChannelTuple], out: &mut dyn Emit) {
        // The strict cσ case (one shared definition, members identity-
        // mapped onto one output channel): evaluate the predicate once per
        // tuple and pass the membership through by mask intersection,
        // skipping the per-member decode loop entirely.
        if self.def_groups.len() == 1 && self.identity_mapped {
            let pred = &self.def_groups[0].0;
            for input in inputs {
                let membership = input.membership.intersect(&self.member_mask);
                if membership.is_empty() {
                    continue;
                }
                if pred.eval(&EvalCtx::unary(&input.tuple)) {
                    self.outputs
                        .emit_premapped(out, input.tuple.clone(), membership);
                }
            }
            return;
        }
        for input in inputs {
            self.process_one(input, out);
        }
    }

    fn is_stateless(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "channel-select"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rumor_core::logical::OpDef;
    use rumor_core::{MopKind, PlanGraph, VecEmit};
    use rumor_expr::{CmpOp, Expr};
    use rumor_types::{Membership, Schema, Tuple, Value};

    fn indexed_ctx(preds: Vec<Predicate>) -> (PlanGraph, MopContext) {
        let mut p = PlanGraph::new();
        p.add_source("S", Schema::ints(3), None).unwrap();
        let s = p.source_by_name("S").unwrap().stream;
        let ids: Vec<_> = preds
            .into_iter()
            .map(|pred| p.add_op(OpDef::Select(pred), vec![s]).unwrap().0)
            .collect();
        let merged = p.merge_mops(&ids, MopKind::IndexedSelect).unwrap();
        let ctx = MopContext::build(&p, merged).unwrap();
        (p, ctx)
    }

    #[test]
    fn index_split_variants() {
        let eq = Predicate::attr_eq_const(2, 9i64);
        let (attr, key, res) = index_split(&eq).unwrap();
        assert_eq!(attr, 2);
        assert_eq!(key, Value::Int(9).group_key());
        assert_eq!(res, Predicate::True);

        let conj = Predicate::and(vec![
            Predicate::cmp(CmpOp::Gt, Expr::col(1), Expr::lit(3i64)),
            Predicate::attr_eq_const(0, 5i64),
        ]);
        let (attr, _, res) = index_split(&conj).unwrap();
        assert_eq!(attr, 0);
        assert_eq!(
            res,
            Predicate::cmp(CmpOp::Gt, Expr::col(1), Expr::lit(3i64))
        );

        assert!(index_split(&Predicate::cmp(CmpOp::Lt, Expr::col(0), Expr::lit(1i64))).is_none());
    }

    #[test]
    fn indexed_select_probes_constants() {
        let (_, ctx) = indexed_ctx(vec![
            Predicate::attr_eq_const(0, 1i64),
            Predicate::attr_eq_const(0, 2i64),
            Predicate::attr_eq_const(1, 7i64),
            Predicate::cmp(CmpOp::Lt, Expr::col(2), Expr::lit(100i64)), // scan
        ]);
        let mut op = IndexedSelect::new(&ctx).unwrap();
        assert_eq!(op.indexed_members(), 3);
        let mut sink = VecEmit::default();
        // a0=1 (member 0), a1=7 (member 2), a2=5<100 (member 3).
        op.process(
            PortId::LEFT,
            &ChannelTuple::solo(Tuple::ints(0, &[1, 7, 5])),
            &mut sink,
        );
        let hit: Vec<_> = sink.out.iter().map(|(ch, _, _)| *ch).collect();
        assert_eq!(
            hit,
            vec![
                ctx.members[0].out_channel,
                ctx.members[2].out_channel,
                ctx.members[3].out_channel
            ]
        );
    }

    #[test]
    fn indexed_select_residual_conjuncts() {
        let (_, ctx) = indexed_ctx(vec![Predicate::and(vec![
            Predicate::attr_eq_const(0, 1i64),
            Predicate::cmp(CmpOp::Gt, Expr::col(1), Expr::lit(10i64)),
        ])]);
        let mut op = IndexedSelect::new(&ctx).unwrap();
        let mut sink = VecEmit::default();
        op.process(
            PortId::LEFT,
            &ChannelTuple::solo(Tuple::ints(0, &[1, 5])),
            &mut sink,
        );
        assert!(sink.out.is_empty(), "index hit but residual fails");
        op.process(
            PortId::LEFT,
            &ChannelTuple::solo(Tuple::ints(1, &[1, 11])),
            &mut sink,
        );
        assert_eq!(sink.out.len(), 1);
    }

    #[test]
    fn indexed_select_matches_duplicate_constants() {
        let (_, ctx) = indexed_ctx(vec![
            Predicate::attr_eq_const(0, 4i64),
            Predicate::attr_eq_const(0, 4i64),
        ]);
        // Identical predicates are deduplicated at merge time, so this m-op
        // has a single member; both queries read its one output stream.
        assert_eq!(ctx.members.len(), 1);
        let mut op = IndexedSelect::new(&ctx).unwrap();
        let mut sink = VecEmit::default();
        op.process(
            PortId::LEFT,
            &ChannelTuple::solo(Tuple::ints(0, &[4])),
            &mut sink,
        );
        assert_eq!(sink.out.len(), 1);
    }

    fn channel_ctx(preds: Vec<Predicate>) -> (PlanGraph, MopContext) {
        // n upstream selections over S (merged, outputs channel-encoded),
        // then n downstream selections with the given predicates.
        let mut p = PlanGraph::new();
        p.add_source("S", Schema::ints(3), None).unwrap();
        let s = p.source_by_name("S").unwrap().stream;
        let n = preds.len();
        let mut ups = Vec::new();
        let mut outs = Vec::new();
        for i in 0..n {
            let (id, o) = p
                .add_op(
                    OpDef::Select(Predicate::attr_eq_const(0, i as i64)),
                    vec![s],
                )
                .unwrap();
            ups.push(id);
            outs.push(o);
        }
        p.merge_mops(&ups, MopKind::IndexedSelect).unwrap();
        let downs: Vec<_> = preds
            .into_iter()
            .enumerate()
            .map(|(i, pred)| p.add_op(OpDef::Select(pred), vec![outs[i]]).unwrap().0)
            .collect();
        p.encode_channel(&outs).unwrap();
        let merged = p.merge_mops(&downs, MopKind::ChannelSelect).unwrap();
        let down_outs: Vec<_> = p.mop(merged).output_streams().collect();
        p.encode_channel(&down_outs).unwrap();
        let ctx = MopContext::build(&p, merged).unwrap();
        (p, ctx)
    }

    #[test]
    fn channel_select_intersects_membership() {
        let pred = Predicate::cmp(CmpOp::Gt, Expr::col(1), Expr::lit(10i64));
        let (p, ctx) = channel_ctx(vec![pred.clone(), pred.clone(), pred]);
        let mut op = ChannelSelect::new(&ctx).unwrap();
        assert_eq!(op.distinct_defs(), 1);
        let mut sink = VecEmit::default();
        // Tuple belongs to streams {0, 2} and passes the predicate: one
        // output channel tuple with the same membership (on out positions).
        op.process(
            PortId::LEFT,
            &ChannelTuple::new(
                Tuple::ints(0, &[0, 11, 0]),
                Membership::from_indices([0, 2]),
            ),
            &mut sink,
        );
        assert_eq!(sink.out.len(), 1);
        let out_ch = p.channel_of(ctx.members[0].output);
        assert_eq!(sink.out[0].0, out_ch);
        assert_eq!(sink.out[0].2, Membership::from_indices([0, 2]));
        // Failing tuple: nothing.
        op.process(
            PortId::LEFT,
            &ChannelTuple::new(
                Tuple::ints(1, &[0, 5, 0]),
                Membership::from_indices([0, 1, 2]),
            ),
            &mut sink,
        );
        assert_eq!(sink.out.len(), 1);
    }

    #[test]
    fn channel_select_handles_mixed_defs() {
        // Generalization beyond the strict cσ condition: two distinct
        // predicate definitions, each evaluated once.
        let (_, ctx) = channel_ctx(vec![
            Predicate::cmp(CmpOp::Gt, Expr::col(1), Expr::lit(10i64)),
            Predicate::cmp(CmpOp::Gt, Expr::col(1), Expr::lit(10i64)),
            Predicate::cmp(CmpOp::Lt, Expr::col(1), Expr::lit(5i64)),
        ]);
        let mut op = ChannelSelect::new(&ctx).unwrap();
        assert_eq!(op.distinct_defs(), 2);
        let mut sink = VecEmit::default();
        op.process(
            PortId::LEFT,
            &ChannelTuple::new(
                Tuple::ints(0, &[0, 11, 0]),
                Membership::from_indices([0, 1, 2]),
            ),
            &mut sink,
        );
        // Members 0,1 pass (one grouped emission); member 2 fails.
        assert_eq!(sink.out.len(), 1);
        assert_eq!(sink.out[0].2, Membership::from_indices([0, 1]));
    }
}
