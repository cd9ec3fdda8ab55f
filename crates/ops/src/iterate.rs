//! The Cayuga iteration operator `µ` as a shared m-op.
//!
//! [`SharedIterate`] covers rules sµ (same definition over the same stream
//! pair, per-member duration windows) and cµ (§4.4: left inputs encoded by
//! a channel, instances carry memberships).
//!
//! Sharing argument: a µ instance's evolution (filter / rebind / delete /
//! duplicate) depends only on the instance value and the event — members of
//! an sµ m-op differ *only* in their duration window, so one shared
//! instance evolves identically for every member and emissions are simply
//! filtered by per-member window coverage. Members of a cµ m-op are fully
//! identical; the instance's membership says which queries it exists for.
//!
//! Two evaluation modes:
//!
//! * **keyed** — when the rebind predicate has equi-join conjuncts (e.g.
//!   `instance.pid = event.pid`) *and* the filter predicate provably passes
//!   every non-key event (it is `True`, or exactly the negated key
//!   equality), instances are hash-bucketed by key: an event only touches
//!   instances of its own key. This is the µ counterpart of the AI index.
//! * **scan** — the general fallback: every live instance evaluates both
//!   edge predicates per event.

use std::collections::HashMap;

use rumor_core::logical::IterSpec;
use rumor_core::{ChannelTuple, Emit, MopContext, MultiOp};
use rumor_expr::{CmpOp, EvalCtx, Expr, Predicate, Side};
use rumor_types::{Membership, PortId, Result, RumorError, Timestamp, Tuple, Value, ValueKey};

use crate::emitgroup::OutputGroups;

fn extract_iter(ctx: &MopContext) -> Result<Vec<IterSpec>> {
    ctx.members
        .iter()
        .map(|m| match &m.def {
            rumor_core::OpDef::Iterate(spec) => Ok(spec.clone()),
            other => Err(RumorError::exec(format!(
                "iterate m-op given non-iterate member {other}"
            ))),
        })
        .collect()
}

/// Whether the keyed mode is sound: the filter predicate must be guaranteed
/// true for every event whose key differs from the instance's key (so that
/// skipping non-key instances can never miss a deletion), and the rebind
/// predicate must be guaranteed false for them (its equi conjunct fails).
fn keyed_mode_sound(filter: &Predicate, keys: &[(usize, usize)]) -> bool {
    if keys.is_empty() {
        return false;
    }
    match filter {
        Predicate::True => true,
        Predicate::Cmp {
            op: CmpOp::Ne,
            lhs,
            rhs,
        } => {
            if keys.len() != 1 {
                return false;
            }
            let (l, r) = keys[0];
            matches!(
                (lhs, rhs),
                (
                    Expr::Col { side: Side::Left, index: li },
                    Expr::Col { side: Side::Right, index: ri },
                ) if *li == l && *ri == r
            ) || matches!(
                (lhs, rhs),
                (
                    Expr::Col { side: Side::Right, index: ri },
                    Expr::Col { side: Side::Left, index: li },
                ) if *li == l && *ri == r
            )
        }
        _ => false,
    }
}

#[derive(Debug, Clone)]
struct Instance {
    start_ts: Timestamp,
    tuple: Tuple,
    membership: Membership,
}

/// Shared `µ` m-op (rules sµ and cµ).
pub struct SharedIterate {
    spec: IterSpec,
    /// `(window, member)` sorted descending (sµ mode).
    members_by_window: Vec<(u64, usize)>,
    max_window: u64,
    channel_mode: bool,
    keyed: bool,
    keys: Vec<(usize, usize)>,
    left_positions: Vec<usize>,
    right_position: usize,
    /// Scan mode: all instances in insertion order.
    instances: Vec<Instance>,
    /// Keyed mode: instances bucketed by key.
    buckets: HashMap<Vec<ValueKey>, Vec<Instance>>,
    live: usize,
    outputs: OutputGroups,
    satisfied: Vec<usize>,
    /// Channel-mode fast path (see the sequence m-op): descending member
    /// windows, cumulative prefix out-masks, per-left-position out-masks.
    windows_desc: Vec<u64>,
    prefix_masks: Vec<Membership>,
    pos_out_masks: Vec<Membership>,
}

impl SharedIterate {
    /// Builds the sµ implementation.
    pub fn new(ctx: &MopContext) -> Result<Self> {
        Self::build(ctx, false)
    }

    /// Builds the cµ implementation.
    pub fn new_channel(ctx: &MopContext) -> Result<Self> {
        Self::build(ctx, true)
    }

    fn build(ctx: &MopContext, channel_mode: bool) -> Result<Self> {
        let specs = extract_iter(ctx)?;
        let first = specs
            .first()
            .ok_or_else(|| RumorError::exec("empty iterate m-op".to_string()))?
            .clone();
        let same_core = specs.iter().all(|s| {
            s.filter == first.filter && s.rebind == first.rebind && s.rebind_map == first.rebind_map
        });
        if !same_core {
            return Err(RumorError::exec(
                "µ m-op members must share filter/rebind/map".to_string(),
            ));
        }
        if !channel_mode {
            let p0 = ctx.members[0].input_positions[0];
            if ctx.members.iter().any(|m| m.input_positions[0] != p0) {
                return Err(RumorError::exec(
                    "sµ members must read the same left stream".to_string(),
                ));
            }
        }
        let (keys, _residual) = first.rebind.split_equi_join();
        let keyed = keyed_mode_sound(&first.filter, &keys);
        let mut members_by_window: Vec<(u64, usize)> = specs
            .iter()
            .enumerate()
            .map(|(i, s)| (s.window, i))
            .collect();
        members_by_window.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let max_window = members_by_window.first().map(|&(w, _)| w).unwrap_or(0);
        let outputs = OutputGroups::new(&ctx.members);
        let left_positions: Vec<usize> = ctx.members.iter().map(|m| m.input_positions[0]).collect();
        let (windows_desc, prefix_masks, pos_out_masks) =
            if channel_mode && outputs.uniform_channel().is_some() {
                let windows_desc: Vec<u64> = members_by_window.iter().map(|&(w, _)| w).collect();
                let mut prefix_masks = Vec::with_capacity(members_by_window.len() + 1);
                let mut acc = Membership::empty();
                prefix_masks.push(acc.clone());
                for &(_, m) in &members_by_window {
                    acc.insert(outputs.position_of(m));
                    prefix_masks.push(acc.clone());
                }
                let max_pos = left_positions.iter().copied().max().unwrap_or(0);
                let mut pos_out_masks = vec![Membership::empty(); max_pos + 1];
                for (m, &pos) in left_positions.iter().enumerate() {
                    pos_out_masks[pos].insert(outputs.position_of(m));
                }
                (windows_desc, prefix_masks, pos_out_masks)
            } else {
                (Vec::new(), Vec::new(), Vec::new())
            };
        Ok(SharedIterate {
            spec: first,
            members_by_window,
            max_window,
            channel_mode,
            keyed,
            keys,
            left_positions,
            right_position: ctx.members[0].input_positions[1],
            instances: Vec::new(),
            buckets: HashMap::new(),
            live: 0,
            outputs,
            satisfied: Vec::new(),
            windows_desc,
            prefix_masks,
            pos_out_masks,
        })
    }

    /// Number of live instances.
    pub fn instance_count(&self) -> usize {
        self.live
    }

    /// Whether keyed (AI-index style) evaluation is active.
    pub fn is_keyed(&self) -> bool {
        self.keyed
    }

    fn instance_key(&self, tuple: &Tuple) -> Vec<ValueKey> {
        self.keys
            .iter()
            .map(|&(l, _)| tuple.value(l).cloned().unwrap_or(Value::Null).group_key())
            .collect()
    }

    fn event_key(&self, tuple: &Tuple) -> Vec<ValueKey> {
        self.keys
            .iter()
            .map(|&(_, r)| tuple.value(r).cloned().unwrap_or(Value::Null).group_key())
            .collect()
    }

    fn emit_rebound(
        &mut self,
        out: &mut dyn Emit,
        rebound: &Tuple,
        membership: &Membership,
        dt: u64,
    ) {
        if self.channel_mode {
            // Membership routing intersected with per-member window
            // coverage (see the sequence m-op for the exactness argument).
            if !self.prefix_masks.is_empty() {
                let k = self.windows_desc.partition_point(|&w| w >= dt);
                let mut mapped = Membership::empty();
                for pos in membership.iter() {
                    if let Some(mask) = self.pos_out_masks.get(pos) {
                        mapped = mapped.union(mask);
                    }
                }
                let emitted = mapped.intersect(&self.prefix_masks[k]);
                if !emitted.is_empty() {
                    self.outputs.emit_premapped(out, rebound.clone(), emitted);
                }
                return;
            }
            self.satisfied.clear();
            for &(window, m) in &self.members_by_window {
                if window < dt {
                    break;
                }
                if membership.contains(self.left_positions[m]) {
                    self.satisfied.push(m);
                }
            }
            self.satisfied.sort_unstable();
            let satisfied = std::mem::take(&mut self.satisfied);
            self.outputs.emit_members(out, rebound, &satisfied);
            self.satisfied = satisfied;
        } else {
            for &(window, member) in &self.members_by_window {
                if window < dt {
                    break;
                }
                self.outputs.emit_one(out, rebound.clone(), member);
            }
        }
    }

    /// Runs the edge semantics for the instances in `list` against `event`.
    /// Returns instances to append afterwards (rebinds that moved buckets in
    /// keyed mode are returned via `moved`).
    #[allow(clippy::too_many_arguments)]
    fn run_edges(
        spec: &IterSpec,
        list: &mut Vec<Instance>,
        event: &Tuple,
        horizon: Timestamp,
        emit: &mut impl FnMut(&Tuple, &Membership, u64),
        keyed: bool,
        keys: &[(usize, usize)],
        moved: &mut Vec<(Vec<ValueKey>, Instance)>,
        live: &mut usize,
    ) {
        let initial_len = list.len();
        let mut appended: Vec<Instance> = Vec::new();
        let mut i = 0;
        let mut remaining = initial_len;
        while i < remaining {
            let inst = &list[i];
            if inst.start_ts < horizon {
                *live -= 1;
                list.remove(i);
                remaining -= 1;
                continue;
            }
            if inst.start_ts >= event.ts {
                i += 1;
                continue;
            }
            let ctx = EvalCtx::binary(&inst.tuple, event);
            let f = spec.filter.eval(&ctx);
            let r = spec.rebind.eval(&ctx);
            if r {
                let rebound_tuple = spec.rebind_map.apply_binary(&inst.tuple, event);
                let dt = event.ts - inst.start_ts;
                emit(&rebound_tuple, &inst.membership, dt);
                let rebound = Instance {
                    start_ts: inst.start_ts,
                    tuple: rebound_tuple,
                    membership: inst.membership.clone(),
                };
                let rebucketed = keyed && {
                    let new_key: Vec<ValueKey> = keys
                        .iter()
                        .map(|&(l, _)| {
                            rebound
                                .tuple
                                .value(l)
                                .cloned()
                                .unwrap_or(Value::Null)
                                .group_key()
                        })
                        .collect();
                    let old_key: Vec<ValueKey> = keys
                        .iter()
                        .map(|&(l, _)| {
                            list[i]
                                .tuple
                                .value(l)
                                .cloned()
                                .unwrap_or(Value::Null)
                                .group_key()
                        })
                        .collect();
                    if new_key != old_key {
                        moved.push((new_key, rebound.clone()));
                        true
                    } else {
                        false
                    }
                };
                if f {
                    // Non-determinism: keep the original (filter edge) and
                    // add the rebound copy (rebind edge).
                    if !rebucketed {
                        appended.push(rebound);
                        *live += 1;
                    } else {
                        *live += 1;
                    }
                    i += 1;
                } else if rebucketed {
                    list.remove(i);
                    remaining -= 1;
                    // live count unchanged: one died here, one moved there.
                    *live -= 1;
                    *live += 1;
                    // (net zero, spelled out for clarity)
                } else {
                    list[i] = rebound;
                    i += 1;
                }
            } else if f {
                i += 1;
            } else {
                *live -= 1;
                list.remove(i);
                remaining -= 1;
            }
        }
        list.extend(appended);
    }

    /// Whether the rebind map passes every key attribute through unchanged,
    /// so a rebound instance can never migrate to another key bucket.
    fn key_preserved(&self) -> bool {
        self.keys.iter().all(|&(l, _)| {
            self.spec.rebind_map.outputs.get(l).is_some_and(|ne| {
                ne.expr
                    == rumor_expr::Expr::Col {
                        side: rumor_expr::Side::Left,
                        index: l,
                    }
            })
        })
    }

    fn process_event(&mut self, event: &Tuple, out: &mut dyn Emit) {
        let horizon = event.ts.saturating_sub(self.max_window);
        // Split borrows: emissions need &mut outputs but not the stores.
        let mut emissions: Vec<(Tuple, Membership, u64)> = Vec::new();
        let mut emit = |t: &Tuple, m: &Membership, dt: u64| {
            emissions.push((t.clone(), m.clone(), dt));
        };
        let mut moved: Vec<(Vec<ValueKey>, Instance)> = Vec::new();
        if self.keyed {
            let key = self.event_key(event);
            if let Some(mut list) = self.buckets.remove(&key) {
                Self::run_edges(
                    &self.spec,
                    &mut list,
                    event,
                    horizon,
                    &mut emit,
                    true,
                    &self.keys,
                    &mut moved,
                    &mut self.live,
                );
                if !list.is_empty() {
                    self.buckets.insert(key, list);
                }
            }
            for (k, inst) in moved {
                self.buckets.entry(k).or_default().push(inst);
            }
        } else {
            let mut list = std::mem::take(&mut self.instances);
            Self::run_edges(
                &self.spec,
                &mut list,
                event,
                horizon,
                &mut emit,
                false,
                &self.keys,
                &mut moved,
                &mut self.live,
            );
            self.instances = list;
        }
        for (tuple, membership, dt) in emissions {
            self.emit_rebound(out, &tuple, &membership, dt);
        }
    }
}

impl MultiOp for SharedIterate {
    fn process(&mut self, port: PortId, input: &ChannelTuple, out: &mut dyn Emit) {
        if port.index() == 0 {
            if self.channel_mode {
                if !self.left_positions.iter().any(|&pos| input.belongs_to(pos)) {
                    return;
                }
            } else if !input.belongs_to(self.left_positions[0]) {
                return;
            }
            let inst = Instance {
                start_ts: input.tuple.ts,
                tuple: input.tuple.clone(),
                membership: input.membership.clone(),
            };
            self.live += 1;
            if self.keyed {
                let key = self.instance_key(&inst.tuple);
                self.buckets.entry(key).or_default().push(inst);
            } else {
                self.instances.push(inst);
            }
        } else {
            if !input.belongs_to(self.right_position) {
                return;
            }
            let event = input.tuple.clone();
            self.process_event(&event, out);
        }
    }

    fn partition_keys(&self) -> rumor_core::PartitionKeys {
        // Keyed mode already proves that events of a foreign key leave an
        // instance untouched (the filter passes them, the rebind's equi
        // conjunct fails), so per-key behaviour is self-contained — but a
        // rebind may still *rewrite* the key attribute, migrating the
        // instance to another bucket. A single-process engine just re-files
        // it; a partitioned one cannot move state across workers, so the
        // key is only partition-safe when the rebind map passes every key
        // attribute through unchanged.
        if self.keyed && self.key_preserved() {
            let (l, r): (Vec<usize>, Vec<usize>) = self.keys.iter().copied().unzip();
            rumor_core::PartitionKeys::Equi {
                per_port: vec![l, r],
            }
        } else {
            rumor_core::PartitionKeys::Opaque
        }
    }

    fn state_size(&self) -> usize {
        self.live
    }

    fn name(&self) -> &'static str {
        if self.channel_mode {
            "channel-iterate"
        } else {
            "shared-iterate"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rumor_core::logical::OpDef;
    use rumor_core::{MopKind, PlanGraph, VecEmit};
    use rumor_expr::{NamedExpr, SchemaMap};
    use rumor_types::Schema;

    fn monotone_spec(window: u64) -> IterSpec {
        IterSpec {
            filter: Predicate::cmp(CmpOp::Ne, Expr::col(0), Expr::rcol(0)),
            rebind: Predicate::and(vec![
                Predicate::cmp(CmpOp::Eq, Expr::col(0), Expr::rcol(0)),
                Predicate::cmp(CmpOp::Gt, Expr::rcol(1), Expr::col(1)),
            ]),
            rebind_map: SchemaMap::new(vec![
                NamedExpr::new("a0", Expr::col(0)),
                NamedExpr::new("a1", Expr::rcol(1)),
            ]),
            window,
        }
    }

    fn ctx_with(windows: &[u64]) -> MopContext {
        let mut p = PlanGraph::new();
        p.add_source("S", Schema::ints(2), None).unwrap();
        p.add_source("T", Schema::ints(2), None).unwrap();
        let s = p.source_by_name("S").unwrap().stream;
        let t = p.source_by_name("T").unwrap().stream;
        let ids: Vec<_> = windows
            .iter()
            .map(|&w| {
                p.add_op(OpDef::Iterate(monotone_spec(w)), vec![s, t])
                    .unwrap()
                    .0
            })
            .collect();
        let merged = p.merge_mops(&ids, MopKind::SharedIterate).unwrap();
        MopContext::build(&p, merged).unwrap()
    }

    #[test]
    fn keyed_mode_detected_for_monotone_pattern() {
        let ctx = ctx_with(&[100]);
        let op = SharedIterate::new(&ctx).unwrap();
        assert!(op.is_keyed());
    }

    #[test]
    fn keyed_mode_unsound_cases_fall_back_to_scan() {
        // A filter that could delete instances of other keys.
        let mut spec = monotone_spec(100);
        spec.filter = Predicate::cmp(CmpOp::Gt, Expr::rcol(1), Expr::lit(5i64));
        let mut p = PlanGraph::new();
        p.add_source("S", Schema::ints(2), None).unwrap();
        p.add_source("T", Schema::ints(2), None).unwrap();
        let s = p.source_by_name("S").unwrap().stream;
        let t = p.source_by_name("T").unwrap().stream;
        let (id, _) = p.add_op(OpDef::Iterate(spec), vec![s, t]).unwrap();
        let ctx = MopContext::build(&p, id).unwrap();
        let op = SharedIterate::new(&ctx).unwrap();
        assert!(!op.is_keyed());
    }

    #[test]
    fn monotone_pattern_evolution() {
        let ctx = ctx_with(&[100]);
        let mut op = SharedIterate::new(&ctx).unwrap();
        let mut sink = VecEmit::default();
        let feed =
            |op: &mut SharedIterate, port: PortId, ts: u64, vals: &[i64], sink: &mut VecEmit| {
                op.process(port, &ChannelTuple::solo(Tuple::ints(ts, vals)), sink);
            };
        feed(&mut op, PortId::LEFT, 0, &[7, 10], &mut sink);
        feed(&mut op, PortId::RIGHT, 1, &[7, 15], &mut sink); // rebind
        feed(&mut op, PortId::RIGHT, 2, &[8, 99], &mut sink); // other key
        feed(&mut op, PortId::RIGHT, 3, &[7, 20], &mut sink); // rebind
        assert_eq!(sink.out.len(), 2);
        assert_eq!(sink.out[0].1, Tuple::ints(1, &[7, 15]));
        assert_eq!(sink.out[1].1, Tuple::ints(3, &[7, 20]));
        // Non-increasing same-key event kills the pattern.
        feed(&mut op, PortId::RIGHT, 4, &[7, 1], &mut sink);
        assert_eq!(op.instance_count(), 0);
    }

    #[test]
    fn per_member_window_filtering() {
        let ctx = ctx_with(&[2, 100]);
        let mut op = SharedIterate::new(&ctx).unwrap();
        let mut sink = VecEmit::default();
        op.process(
            PortId::LEFT,
            &ChannelTuple::solo(Tuple::ints(0, &[7, 10])),
            &mut sink,
        );
        // dt = 5 > 2: only the window-100 member gets the emission.
        op.process(
            PortId::RIGHT,
            &ChannelTuple::solo(Tuple::ints(5, &[7, 15])),
            &mut sink,
        );
        assert_eq!(sink.out.len(), 1);
        assert_eq!(sink.out[0].0, ctx.members[1].out_channel);
    }

    #[test]
    fn expiry_removes_instances() {
        let ctx = ctx_with(&[3]);
        let mut op = SharedIterate::new(&ctx).unwrap();
        let mut sink = VecEmit::default();
        op.process(
            PortId::LEFT,
            &ChannelTuple::solo(Tuple::ints(0, &[7, 10])),
            &mut sink,
        );
        op.process(
            PortId::RIGHT,
            &ChannelTuple::solo(Tuple::ints(10, &[7, 15])),
            &mut sink,
        );
        assert!(sink.out.is_empty());
        assert_eq!(op.instance_count(), 0);
    }

    #[test]
    fn duplication_on_both_edges() {
        let spec = IterSpec {
            filter: Predicate::True,
            rebind: Predicate::True,
            rebind_map: SchemaMap::new(vec![
                NamedExpr::new("a0", Expr::col(0)),
                NamedExpr::new("a1", Expr::rcol(1)),
            ]),
            window: 100,
        };
        let mut p = PlanGraph::new();
        p.add_source("S", Schema::ints(2), None).unwrap();
        p.add_source("T", Schema::ints(2), None).unwrap();
        let s = p.source_by_name("S").unwrap().stream;
        let t = p.source_by_name("T").unwrap().stream;
        let (id, _) = p.add_op(OpDef::Iterate(spec), vec![s, t]).unwrap();
        let ctx = MopContext::build(&p, id).unwrap();
        let mut op = SharedIterate::new(&ctx).unwrap();
        let mut sink = VecEmit::default();
        op.process(
            PortId::LEFT,
            &ChannelTuple::solo(Tuple::ints(0, &[1, 0])),
            &mut sink,
        );
        op.process(
            PortId::RIGHT,
            &ChannelTuple::solo(Tuple::ints(1, &[1, 5])),
            &mut sink,
        );
        assert_eq!(op.instance_count(), 2, "filter + rebind duplicate");
        assert_eq!(sink.out.len(), 1);
        op.process(
            PortId::RIGHT,
            &ChannelTuple::solo(Tuple::ints(2, &[1, 6])),
            &mut sink,
        );
        assert_eq!(op.instance_count(), 4);
        assert_eq!(sink.out.len(), 3);
    }

    fn channel_ctx(n: usize) -> MopContext {
        let mut p = PlanGraph::new();
        p.add_source("S", Schema::ints(2), None).unwrap();
        p.add_source("T", Schema::ints(2), None).unwrap();
        let s = p.source_by_name("S").unwrap().stream;
        let t = p.source_by_name("T").unwrap().stream;
        let mut ups = Vec::new();
        let mut outs = Vec::new();
        for i in 0..n {
            let (id, o) = p
                .add_op(
                    OpDef::Select(Predicate::attr_eq_const(1, i as i64)),
                    vec![s],
                )
                .unwrap();
            ups.push(id);
            outs.push(o);
        }
        p.merge_mops(&ups, MopKind::IndexedSelect).unwrap();
        let mus: Vec<_> = outs
            .iter()
            .map(|&o| {
                p.add_op(OpDef::Iterate(monotone_spec(100)), vec![o, t])
                    .unwrap()
                    .0
            })
            .collect();
        p.encode_channel(&outs).unwrap();
        let merged = p.merge_mops(&mus, MopKind::ChannelIterate).unwrap();
        let down_outs: Vec<_> = p.mop(merged).output_streams().collect();
        p.encode_channel(&down_outs).unwrap();
        MopContext::build(&p, merged).unwrap()
    }

    #[test]
    fn channel_mode_single_instance_for_all_queries() {
        let ctx = channel_ctx(5);
        let mut op = SharedIterate::new_channel(&ctx).unwrap();
        let mut sink = VecEmit::default();
        op.process(
            PortId::LEFT,
            &ChannelTuple::new(Tuple::ints(0, &[7, 10]), Membership::all(5)),
            &mut sink,
        );
        assert_eq!(op.instance_count(), 1);
        op.process(
            PortId::RIGHT,
            &ChannelTuple::solo(Tuple::ints(1, &[7, 15])),
            &mut sink,
        );
        // One rebind evaluation, one output channel tuple for 5 queries.
        assert_eq!(sink.out.len(), 1);
        assert_eq!(sink.out[0].2.len(), 5);
        assert_eq!(sink.out[0].1, Tuple::ints(1, &[7, 15]));
    }
}
