//! The Cayuga sequence operator `;` as a shared m-op.
//!
//! [`SharedSequence`] covers three rule targets:
//!
//! * rule s; — `;` operators with the same predicate over the same stream
//!   pair (CSE; members may differ in duration window, generalizing the
//!   shared-window-state idea of \[12\] to sequences);
//! * the **AI index** (§4.3): stored instances are hash-indexed by the
//!   equi-join conjuncts of the predicate (`S.a\[0\] = T.a\[0\]` in Workload 2),
//!   so an arriving event probes a bucket instead of scanning all
//!   instances;
//! * rule c; (§4.4): constructed with [`SharedSequence::new_channel`], the
//!   left input is a channel and each stored instance carries its
//!   membership, which propagates to the outputs.
//!
//! Deletion semantics: a matched instance is deleted (§5.2). With
//! per-member windows this is still exact: a match at age `dt` is consumed
//! by every member whose window covers `dt`, and members with smaller
//! windows had already expired the instance.

use std::collections::{HashMap, VecDeque};

use rumor_core::logical::SeqSpec;
use rumor_core::{ChannelTuple, Emit, MopContext, MultiOp};
use rumor_expr::{EvalCtx, Predicate};
use rumor_types::{Membership, PortId, Result, RumorError, Timestamp, Tuple, ValueKey};

use crate::emitgroup::OutputGroups;
use crate::single::concat_with_ts;

fn extract_seq(ctx: &MopContext) -> Result<Vec<SeqSpec>> {
    ctx.members
        .iter()
        .map(|m| match &m.def {
            rumor_core::OpDef::Sequence(spec) => Ok(spec.clone()),
            other => Err(RumorError::exec(format!(
                "sequence m-op given non-sequence member {other}"
            ))),
        })
        .collect()
}

struct Slot {
    gen: u32,
    alive: bool,
    start_ts: Timestamp,
    tuple: Tuple,
    membership: Membership,
}

/// Generation-validated instance store with FIFO expiry and an optional
/// hash index (the AI index) over the predicate's equi-join key.
struct InstanceStore {
    slots: Vec<Slot>,
    free: Vec<u32>,
    fifo: VecDeque<(u32, u32)>,
    buckets: HashMap<Vec<ValueKey>, Vec<(u32, u32)>>,
    keyed: bool,
    live: usize,
}

impl InstanceStore {
    fn new(keyed: bool) -> Self {
        InstanceStore {
            slots: Vec::new(),
            free: Vec::new(),
            fifo: VecDeque::new(),
            buckets: HashMap::new(),
            keyed,
            live: 0,
        }
    }

    fn valid(&self, slot: u32, gen: u32) -> bool {
        let s = &self.slots[slot as usize];
        s.gen == gen && s.alive
    }

    fn insert(
        &mut self,
        start_ts: Timestamp,
        tuple: Tuple,
        membership: Membership,
        key: Vec<ValueKey>,
    ) {
        let slot = match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                s.alive = true;
                s.start_ts = start_ts;
                s.tuple = tuple;
                s.membership = membership;
                slot
            }
            None => {
                self.slots.push(Slot {
                    gen: 0,
                    alive: true,
                    start_ts,
                    tuple,
                    membership,
                });
                (self.slots.len() - 1) as u32
            }
        };
        let gen = self.slots[slot as usize].gen;
        self.fifo.push_back((slot, gen));
        if self.keyed {
            self.buckets.entry(key).or_default().push((slot, gen));
        }
        self.live += 1;
    }

    fn kill(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        if s.alive {
            s.alive = false;
            self.live -= 1;
        }
    }

    /// Pops expired and dead instances from the FIFO front. Instances are
    /// inserted in timestamp order, so the front is always the oldest.
    fn evict(&mut self, horizon: Timestamp) {
        while let Some(&(slot, gen)) = self.fifo.front() {
            let s = &self.slots[slot as usize];
            let stale = s.gen != gen || !s.alive;
            if stale || s.start_ts < horizon {
                self.fifo.pop_front();
                if !stale {
                    self.kill(slot);
                }
                let s = &mut self.slots[slot as usize];
                s.gen = s.gen.wrapping_add(1);
                self.free.push(slot);
            } else {
                break;
            }
        }
    }

    fn len(&self) -> usize {
        self.live
    }
}

/// Shared `;` m-op (rules s; and c;).
pub struct SharedSequence {
    /// Whether the AI index is active (keys non-empty).
    keyed: bool,
    /// Equi-key attribute pairs (instance attr, event attr) — the AI index.
    keys: Vec<(usize, usize)>,
    residual: Predicate,
    /// `(window, member)` sorted descending for window-routing (s; mode).
    members_by_window: Vec<(u64, usize)>,
    max_window: u64,
    /// Channel mode: memberships route outputs instead of windows.
    channel_mode: bool,
    /// Per member: position of its left stream in the left channel.
    left_positions: Vec<usize>,
    right_position: usize,
    store: InstanceStore,
    outputs: OutputGroups,
    satisfied: Vec<usize>,
    /// Channel-mode fast path: member windows sorted descending, the
    /// cumulative out-position mask of each prefix of `members_by_window`,
    /// and the out-position mask of the members reading each left-channel
    /// position. A match at age `dt` then emits
    /// `union(pos_masks[instance membership]) ∩ prefix_masks[k]` where `k`
    /// counts members whose window covers `dt` — O(bit-words), independent
    /// of the member count (§5.3: "the amount of work ... remains the
    /// same, regardless of how many stream tuples t encodes").
    windows_desc: Vec<u64>,
    prefix_masks: Vec<Membership>,
    pos_out_masks: Vec<Membership>,
}

impl SharedSequence {
    /// Builds the s; implementation (plain left stream, per-member windows).
    pub fn new(ctx: &MopContext) -> Result<Self> {
        Self::build(ctx, false)
    }

    /// Builds the c; implementation (left channel with memberships).
    pub fn new_channel(ctx: &MopContext) -> Result<Self> {
        Self::build(ctx, true)
    }

    fn build(ctx: &MopContext, channel_mode: bool) -> Result<Self> {
        let specs = extract_seq(ctx)?;
        let first = specs
            .first()
            .ok_or_else(|| RumorError::exec("empty sequence m-op".to_string()))?;
        if specs.iter().any(|s| s.predicate != first.predicate) {
            return Err(RumorError::exec(
                "sequence m-op members must share the predicate".to_string(),
            ));
        }
        if !channel_mode {
            let p0 = ctx.members[0].input_positions[0];
            if ctx.members.iter().any(|m| m.input_positions[0] != p0) {
                return Err(RumorError::exec(
                    "s; members must read the same left stream".to_string(),
                ));
            }
        }
        let (keys, residual) = first.predicate.split_equi_join();
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
        Ok(SharedSequence {
            keyed: !keys.is_empty(),
            keys,
            residual,
            members_by_window,
            max_window,
            channel_mode,
            left_positions,
            right_position: ctx.members[0].input_positions[1],
            store: InstanceStore::new(false),
            outputs,
            satisfied: Vec::new(),
            windows_desc,
            prefix_masks,
            pos_out_masks,
        }
        .finish())
    }

    fn finish(mut self) -> Self {
        self.store = InstanceStore::new(self.keyed);
        self
    }

    /// Number of live stored instances (diagnostics / tests).
    pub fn instance_count(&self) -> usize {
        self.store.len()
    }

    /// Whether the AI index is active.
    pub fn is_indexed(&self) -> bool {
        self.keyed
    }

    fn instance_key(&self, tuple: &Tuple) -> Vec<ValueKey> {
        self.keys
            .iter()
            .map(|&(l, _)| {
                tuple
                    .value(l)
                    .cloned()
                    .unwrap_or(rumor_types::Value::Null)
                    .group_key()
            })
            .collect()
    }

    fn event_key(&self, tuple: &Tuple) -> Vec<ValueKey> {
        self.keys
            .iter()
            .map(|&(_, r)| {
                tuple
                    .value(r)
                    .cloned()
                    .unwrap_or(rumor_types::Value::Null)
                    .group_key()
            })
            .collect()
    }

    fn emit_match(
        &mut self,
        out: &mut dyn Emit,
        inst_tuple: &Tuple,
        inst_membership: &Membership,
        event: &Tuple,
        dt: u64,
    ) {
        let row = concat_with_ts(inst_tuple, event, event.ts);
        if self.channel_mode {
            // Membership routing intersected with per-member window
            // coverage: a member whose window is smaller than the match age
            // had already expired its copy of the instance.
            if !self.prefix_masks.is_empty() {
                // Fast path: prefix mask of window-eligible members ∩ the
                // instance's out-mapped membership.
                let k = self.windows_desc.partition_point(|&w| w >= dt);
                let mut mapped = Membership::empty();
                for pos in inst_membership.iter() {
                    if let Some(mask) = self.pos_out_masks.get(pos) {
                        mapped = mapped.union(mask);
                    }
                }
                let emitted = mapped.intersect(&self.prefix_masks[k]);
                if !emitted.is_empty() {
                    self.outputs.emit_premapped(out, row, emitted);
                }
                return;
            }
            self.satisfied.clear();
            for &(window, m) in &self.members_by_window {
                if window < dt {
                    break;
                }
                if inst_membership.contains(self.left_positions[m]) {
                    self.satisfied.push(m);
                }
            }
            self.satisfied.sort_unstable();
            let satisfied = std::mem::take(&mut self.satisfied);
            self.outputs.emit_members(out, &row, &satisfied);
            self.satisfied = satisfied;
        } else {
            for &(window, member) in &self.members_by_window {
                if window < dt {
                    break;
                }
                self.outputs.emit_one(out, row.clone(), member);
            }
        }
    }

    /// Probes one key bucket's entries with `event`: emits and deletes
    /// matches, drops stale entries in place.
    fn probe_entries(&mut self, entries: &mut Vec<(u32, u32)>, event: &Tuple, out: &mut dyn Emit) {
        let mut i = 0;
        while i < entries.len() {
            let (slot, gen) = entries[i];
            if !self.store.valid(slot, gen) {
                entries.remove(i);
                continue;
            }
            let (start_ts, matched, tuple, membership) = {
                let s = &self.store.slots[slot as usize];
                let in_window = s.start_ts < event.ts && event.ts - s.start_ts <= self.max_window;
                let matched = in_window && self.residual.eval(&EvalCtx::binary(&s.tuple, event));
                (s.start_ts, matched, s.tuple.clone(), s.membership.clone())
            };
            if matched {
                let dt = event.ts - start_ts;
                self.emit_match(out, &tuple, &membership, event, dt);
                self.store.kill(slot);
                entries.remove(i);
            } else {
                i += 1;
            }
        }
    }

    fn process_event(&mut self, event: &Tuple, out: &mut dyn Emit) {
        let horizon = event.ts.saturating_sub(self.max_window);
        self.store.evict(horizon);
        if self.keyed {
            let key = self.event_key(event);
            let Some(mut entries) = self.store.buckets.remove(&key) else {
                return;
            };
            self.probe_entries(&mut entries, event, out);
            if !entries.is_empty() {
                self.store.buckets.insert(key, entries);
            }
        } else {
            // Unindexed predicate: scan instances in insertion order.
            for idx in 0..self.store.fifo.len() {
                let (slot, gen) = self.store.fifo[idx];
                if !self.store.valid(slot, gen) {
                    continue;
                }
                let (start_ts, matched, tuple, membership) = {
                    let s = &self.store.slots[slot as usize];
                    let in_window =
                        s.start_ts < event.ts && event.ts - s.start_ts <= self.max_window;
                    let matched =
                        in_window && self.residual.eval(&EvalCtx::binary(&s.tuple, event));
                    (s.start_ts, matched, s.tuple.clone(), s.membership.clone())
                };
                if matched {
                    let dt = event.ts - start_ts;
                    self.emit_match(out, &tuple, &membership, event, dt);
                    self.store.kill(slot);
                }
            }
        }
    }
}

impl MultiOp for SharedSequence {
    fn process(&mut self, port: PortId, input: &ChannelTuple, out: &mut dyn Emit) {
        if port.index() == 0 {
            // Instance arrival.
            if self.channel_mode {
                let relevant = self.left_positions.iter().any(|&pos| input.belongs_to(pos));
                if !relevant {
                    return;
                }
            } else if !input.belongs_to(self.left_positions[0]) {
                return;
            }
            self.store
                .evict(input.tuple.ts.saturating_sub(self.max_window));
            let key = self.instance_key(&input.tuple);
            self.store.insert(
                input.tuple.ts,
                input.tuple.clone(),
                input.membership.clone(),
                key,
            );
        } else {
            if !input.belongs_to(self.right_position) {
                return;
            }
            let event = input.tuple.clone();
            self.process_event(&event, out);
        }
    }

    fn partition_keys(&self) -> rumor_core::PartitionKeys {
        // With the AI index active an event only probes (and deletes)
        // instances of its own key, matches are window-guarded pairwise,
        // and eviction is a pure ts horizon — exact under hash partitioning
        // on the equi key. An unindexed sequence scans every instance per
        // event, so any tuple pair can interact: opaque.
        if self.keyed {
            let (l, r): (Vec<usize>, Vec<usize>) = self.keys.iter().copied().unzip();
            rumor_core::PartitionKeys::Equi {
                per_port: vec![l, r],
            }
        } else {
            rumor_core::PartitionKeys::Opaque
        }
    }

    fn state_size(&self) -> usize {
        self.store.len()
    }

    fn name(&self) -> &'static str {
        if self.channel_mode {
            "channel-sequence"
        } else {
            "shared-sequence"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rumor_core::logical::OpDef;
    use rumor_core::{MopKind, PlanGraph, VecEmit};
    use rumor_expr::{CmpOp, Expr};
    use rumor_types::Schema;

    fn equi_spec(window: u64) -> SeqSpec {
        SeqSpec {
            predicate: Predicate::cmp(CmpOp::Eq, Expr::col(0), Expr::rcol(0)),
            window,
        }
    }

    fn shared_ctx(windows: &[u64]) -> MopContext {
        let mut p = PlanGraph::new();
        p.add_source("S", Schema::ints(2), None).unwrap();
        p.add_source("T", Schema::ints(2), None).unwrap();
        let s = p.source_by_name("S").unwrap().stream;
        let t = p.source_by_name("T").unwrap().stream;
        let ids: Vec<_> = windows
            .iter()
            .map(|&w| {
                p.add_op(OpDef::Sequence(equi_spec(w)), vec![s, t])
                    .unwrap()
                    .0
            })
            .collect();
        let merged = p.merge_mops(&ids, MopKind::SharedSequence).unwrap();
        MopContext::build(&p, merged).unwrap()
    }

    #[test]
    fn ai_index_is_used_for_equi_predicates() {
        let ctx = shared_ctx(&[10]);
        let op = SharedSequence::new(&ctx).unwrap();
        assert!(op.is_indexed());
    }

    #[test]
    fn match_emits_and_deletes() {
        let ctx = shared_ctx(&[10]);
        let mut op = SharedSequence::new(&ctx).unwrap();
        let mut sink = VecEmit::default();
        op.process(
            PortId::LEFT,
            &ChannelTuple::solo(Tuple::ints(0, &[7, 1])),
            &mut sink,
        );
        assert_eq!(op.instance_count(), 1);
        op.process(
            PortId::RIGHT,
            &ChannelTuple::solo(Tuple::ints(1, &[7, 2])),
            &mut sink,
        );
        assert_eq!(sink.out.len(), 1);
        assert_eq!(sink.out[0].1, Tuple::ints(1, &[7, 1, 7, 2]));
        assert_eq!(op.instance_count(), 0, "matched instance deleted");
        op.process(
            PortId::RIGHT,
            &ChannelTuple::solo(Tuple::ints(2, &[7, 3])),
            &mut sink,
        );
        assert_eq!(sink.out.len(), 1, "no instance left to match");
    }

    #[test]
    fn per_member_window_routing() {
        let ctx = shared_ctx(&[2, 10]);
        let mut op = SharedSequence::new(&ctx).unwrap();
        let mut sink = VecEmit::default();
        op.process(
            PortId::LEFT,
            &ChannelTuple::solo(Tuple::ints(0, &[7, 1])),
            &mut sink,
        );
        // dt = 5: only the window-10 member emits; the instance is deleted.
        op.process(
            PortId::RIGHT,
            &ChannelTuple::solo(Tuple::ints(5, &[7, 2])),
            &mut sink,
        );
        assert_eq!(sink.out.len(), 1);
        assert_eq!(sink.out[0].0, ctx.members[1].out_channel);
    }

    #[test]
    fn expiry_frees_instances() {
        let ctx = shared_ctx(&[3]);
        let mut op = SharedSequence::new(&ctx).unwrap();
        let mut sink = VecEmit::default();
        op.process(
            PortId::LEFT,
            &ChannelTuple::solo(Tuple::ints(0, &[7, 1])),
            &mut sink,
        );
        op.process(
            PortId::RIGHT,
            &ChannelTuple::solo(Tuple::ints(10, &[7, 2])),
            &mut sink,
        );
        assert!(sink.out.is_empty());
        assert_eq!(op.instance_count(), 0);
    }

    #[test]
    fn non_equi_predicate_scans() {
        let mut p = PlanGraph::new();
        p.add_source("S", Schema::ints(2), None).unwrap();
        p.add_source("T", Schema::ints(2), None).unwrap();
        let s = p.source_by_name("S").unwrap().stream;
        let t = p.source_by_name("T").unwrap().stream;
        let spec = SeqSpec {
            predicate: Predicate::cmp(CmpOp::Lt, Expr::col(0), Expr::rcol(0)),
            window: 10,
        };
        let (id, _) = p.add_op(OpDef::Sequence(spec), vec![s, t]).unwrap();
        let ctx = MopContext::build(&p, id).unwrap();
        let mut op = SharedSequence::new(&ctx).unwrap();
        assert!(!op.is_indexed());
        let mut sink = VecEmit::default();
        op.process(
            PortId::LEFT,
            &ChannelTuple::solo(Tuple::ints(0, &[3, 0])),
            &mut sink,
        );
        op.process(
            PortId::LEFT,
            &ChannelTuple::solo(Tuple::ints(1, &[9, 0])),
            &mut sink,
        );
        op.process(
            PortId::RIGHT,
            &ChannelTuple::solo(Tuple::ints(2, &[5, 0])),
            &mut sink,
        );
        // Only the instance with a0=3 < 5 matches (and is deleted).
        assert_eq!(sink.out.len(), 1);
        assert_eq!(op.instance_count(), 1);
    }

    fn channel_ctx(n: usize) -> (PlanGraph, MopContext) {
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
        let seqs: Vec<_> = outs
            .iter()
            .map(|&o| {
                p.add_op(OpDef::Sequence(equi_spec(10)), vec![o, t])
                    .unwrap()
                    .0
            })
            .collect();
        p.encode_channel(&outs).unwrap();
        let merged = p.merge_mops(&seqs, MopKind::ChannelSequence).unwrap();
        let down_outs: Vec<_> = p.mop(merged).output_streams().collect();
        p.encode_channel(&down_outs).unwrap();
        let ctx = MopContext::build(&p, merged).unwrap();
        (p, ctx)
    }

    #[test]
    fn channel_mode_stores_once_and_routes_membership() {
        let (_, ctx) = channel_ctx(10);
        let mut op = SharedSequence::new_channel(&ctx).unwrap();
        let mut sink = VecEmit::default();
        // One channel tuple belonging to all 10 streams: ONE instance.
        op.process(
            PortId::LEFT,
            &ChannelTuple::new(Tuple::ints(0, &[7, 0]), Membership::all(10)),
            &mut sink,
        );
        assert_eq!(op.instance_count(), 1);
        op.process(
            PortId::RIGHT,
            &ChannelTuple::solo(Tuple::ints(1, &[7, 5])),
            &mut sink,
        );
        // One output channel tuple covering all 10 queries.
        assert_eq!(sink.out.len(), 1);
        assert_eq!(sink.out[0].2.len(), 10);
        assert_eq!(op.instance_count(), 0);
    }

    #[test]
    fn channel_mode_partial_membership() {
        let (_, ctx) = channel_ctx(4);
        let mut op = SharedSequence::new_channel(&ctx).unwrap();
        let mut sink = VecEmit::default();
        op.process(
            PortId::LEFT,
            &ChannelTuple::new(Tuple::ints(0, &[7, 0]), Membership::from_indices([1, 3])),
            &mut sink,
        );
        op.process(
            PortId::RIGHT,
            &ChannelTuple::solo(Tuple::ints(1, &[7, 5])),
            &mut sink,
        );
        assert_eq!(sink.out.len(), 1);
        assert_eq!(sink.out[0].2, Membership::from_indices([1, 3]));
    }
}
