//! The physical multi-operator (m-op) execution interface (§2.2).
//!
//! An m-op is the scheduling and execution unit of the engine. It implements
//! a *set* of member operators; its reference semantics is the one-by-one
//! execution of those members, and any shared implementation must be
//! input/output-equivalent to that reference (§2.2). The traits here are
//! shared between `rumor-ops` (implementations) and `rumor-engine`
//! (scheduling): `rumor-core` defines the contract, not the algorithms.

use rumor_types::{
    ChannelId, Membership, MopId, PortId, Result, RumorError, Schema, StreamId, Tuple,
};

use crate::channel::ChannelTuple;
use crate::logical::OpDef;
use crate::plan::{MopKind, PlanGraph};

/// Output collector handed to an m-op during processing.
///
/// Emission is channel-based: the *encoding step* of §3.1 is the membership
/// argument. Emitting to a member's singleton output channel uses a
/// singleton membership; channelized m-ops emit one tuple with the full
/// membership of satisfied output streams.
pub trait Emit {
    /// Emits `tuple` on `channel` for the encoded streams in `membership`.
    fn emit(&mut self, channel: ChannelId, tuple: Tuple, membership: Membership);
}

/// A no-op sink that counts emissions; useful in tests and benchmarks.
#[derive(Debug, Default)]
pub struct CountingEmit {
    /// Number of `emit` calls.
    pub calls: usize,
    /// Total membership cardinality emitted.
    pub streams: usize,
}

impl Emit for CountingEmit {
    fn emit(&mut self, _channel: ChannelId, _tuple: Tuple, membership: Membership) {
        self.calls += 1;
        self.streams += membership.len();
    }
}

/// An emit sink that records every emission; used by unit tests.
#[derive(Debug, Default)]
pub struct VecEmit {
    /// Recorded `(channel, tuple, membership)` triples in emission order.
    pub out: Vec<(ChannelId, Tuple, Membership)>,
}

impl Emit for VecEmit {
    fn emit(&mut self, channel: ChannelId, tuple: Tuple, membership: Membership) {
        self.out.push((channel, tuple, membership));
    }
}

/// A physical m-op instance.
///
/// The engine calls [`MultiOp::process`] once per input channel tuple, in
/// global timestamp order. All state lives inside the operator.
///
/// Batched execution: engines that route events at batch granularity call
/// [`MultiOp::process_batch`] with a run of consecutive tuples from one
/// input channel. The default implementation falls back to per-tuple
/// processing; implementations override it to hoist routing, lookup, and
/// allocation work out of the per-tuple loop. Overrides must stay
/// observationally equivalent to the per-tuple loop (the §2.2 obligation
/// extends to batching).
pub trait MultiOp: Send {
    /// Processes one input tuple arriving on `port`, writing any outputs.
    fn process(&mut self, port: PortId, input: &ChannelTuple, out: &mut dyn Emit);

    /// Processes an ordered run of tuples from `port`'s input channel.
    ///
    /// Equivalent to calling [`MultiOp::process`] once per tuple in order,
    /// up to the interleaving of emissions across *different* output
    /// channel positions (per-position output order and content must be
    /// identical — that is what downstream decoding and query delivery
    /// observe). Overridden by hot operators to amortize per-tuple
    /// overhead.
    fn process_batch(&mut self, port: PortId, inputs: &[ChannelTuple], out: &mut dyn Emit) {
        for input in inputs {
            self.process(port, input, out);
        }
    }

    /// True when the operator keeps no state across input tuples, so its
    /// outputs depend only on each single input tuple.
    ///
    /// When *every* operator of a plan is stateless the engine may relax
    /// strict global timestamp-order delivery into channel-run-batched
    /// delivery (which reorders tuples *across* channels but never within
    /// one), unlocking the batched fast path. Stateful operators (windowed
    /// joins, sequences, aggregates, iterations) must return `false`.
    fn is_stateless(&self) -> bool {
        false
    }

    /// How this operator's state is keyed over its input attributes — the
    /// introspection behind the partitioning analysis
    /// ([`crate::partition::analyze`]). Stateless operators are transparent
    /// to partitioning; stateful implementations override this to report
    /// their equi keys (joins, AI-indexed sequences, keyed iterations) or
    /// group-by attributes (window aggregates). The default is maximally
    /// conservative: stateful operators that do not report a key structure
    /// are treated as opaque and pin their plan component to one worker.
    fn partition_keys(&self) -> crate::partition::PartitionKeys {
        if self.is_stateless() {
            crate::partition::PartitionKeys::Stateless
        } else {
            crate::partition::PartitionKeys::Opaque
        }
    }

    /// Current resident state size, in implementation-defined units —
    /// live sequence/iterate instances, buffered join tuples, window
    /// occupancy plus group count for aggregates. A gauge for the
    /// introspection layer (`rumor-engine`'s `Session::stats`), not a
    /// byte count; stateless operators keep the default `0`.
    fn state_size(&self) -> usize {
        0
    }

    /// Implementation name for diagnostics.
    fn name(&self) -> &'static str;
}

/// Everything a physical implementation needs to know about one member
/// operator, resolved against the plan.
///
/// `PartialEq` is part of the hot-swap contract: two equal contexts compile
/// to interchangeable operator instances, so [`crate::plan::PlanDelta`]
/// classifies an m-op as *unchanged* (state may carry across a plan swap)
/// exactly when its rebuilt context compares equal.
#[derive(Debug, Clone, PartialEq)]
pub struct MemberCtx {
    /// The member's operator definition.
    pub def: OpDef,
    /// For each port `p`: the position of the member's port-`p` input stream
    /// within the m-op's port-`p` input channel (the decoding key, §3.1).
    pub input_positions: Vec<usize>,
    /// Input schemas, one per port.
    pub input_schemas: Vec<Schema>,
    /// The member's output stream.
    pub output: StreamId,
    /// The channel encoding the output stream.
    pub out_channel: ChannelId,
    /// Position of the output stream within `out_channel` (the encoding
    /// key).
    pub out_position: usize,
    /// Capacity of the output channel (1 = plain stream).
    pub out_capacity: usize,
    /// Output schema.
    pub output_schema: Schema,
}

impl MemberCtx {
    /// Emits a tuple on this member's output stream alone.
    pub fn emit_solo(&self, out: &mut dyn Emit, tuple: Tuple) {
        out.emit(
            self.out_channel,
            tuple,
            Membership::singleton(self.out_position),
        );
    }
}

/// The resolved execution context of an m-op: definition plus all channel
/// positions, ready for a physical implementation to consume.
#[derive(Debug, Clone, PartialEq)]
pub struct MopContext {
    /// Plan node id.
    pub id: MopId,
    /// Implementation kind selected by the rewrite rules.
    pub kind: MopKind,
    /// Input channels by port.
    pub inputs: Vec<ChannelId>,
    /// Capacity of each input channel, parallel to `inputs`.
    pub input_capacities: Vec<usize>,
    /// Member contexts in member order.
    pub members: Vec<MemberCtx>,
}

impl MopContext {
    /// Resolves the execution context for plan node `id`.
    pub fn build(plan: &PlanGraph, id: MopId) -> Result<Self> {
        let node = plan
            .mop_opt(id)
            .ok_or_else(|| RumorError::plan(format!("retired m-op {id}")))?;
        let mut members = Vec::with_capacity(node.members.len());
        for m in &node.members {
            let input_positions = m
                .inputs
                .iter()
                .map(|&s| plan.position_in_channel(s))
                .collect();
            let input_schemas = m
                .inputs
                .iter()
                .map(|&s| plan.stream(s).schema.clone())
                .collect();
            let out_channel = plan.channel_of(m.output);
            members.push(MemberCtx {
                def: m.def.clone(),
                input_positions,
                input_schemas,
                output: m.output,
                out_channel,
                out_position: plan.position_in_channel(m.output),
                out_capacity: plan.channel(out_channel).capacity(),
                output_schema: plan.stream(m.output).schema.clone(),
            });
        }
        let input_capacities = node
            .inputs
            .iter()
            .map(|&c| plan.channel(c).capacity())
            .collect();
        Ok(MopContext {
            id,
            kind: node.kind,
            inputs: node.inputs.clone(),
            input_capacities,
            members,
        })
    }

    /// Whether all members share one definition (the channelized m-ops
    /// exploit this to evaluate once per tuple).
    pub fn uniform_def(&self) -> bool {
        self.members.windows(2).all(|w| w[0].def == w[1].def)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanGraph;
    use rumor_expr::Predicate;
    use rumor_types::Schema;

    #[test]
    fn build_context_resolves_positions() {
        let mut p = PlanGraph::new();
        p.add_source("S", Schema::ints(2), None).unwrap();
        let s = p.source_by_name("S").unwrap().stream;
        let (a, out_a) = p
            .add_op(OpDef::Select(Predicate::attr_eq_const(0, 1i64)), vec![s])
            .unwrap();
        let (b, out_b) = p
            .add_op(OpDef::Select(Predicate::attr_eq_const(0, 2i64)), vec![s])
            .unwrap();
        let merged = p.merge_mops(&[a, b], MopKind::IndexedSelect).unwrap();
        let ch = p.encode_channel(&[out_a, out_b]).unwrap();

        let ctx = MopContext::build(&p, merged).unwrap();
        assert_eq!(ctx.kind, MopKind::IndexedSelect);
        assert_eq!(ctx.members.len(), 2);
        assert_eq!(ctx.members[0].input_positions, vec![0]);
        assert_eq!(ctx.members[0].out_channel, ch);
        assert_eq!(ctx.members[0].out_position, 0);
        assert_eq!(ctx.members[1].out_position, 1);
        assert!(!ctx.uniform_def());
    }

    #[test]
    fn counting_emit() {
        let mut e = CountingEmit::default();
        e.emit(
            ChannelId(0),
            Tuple::ints(0, &[1]),
            Membership::from_indices([0, 1, 2]),
        );
        assert_eq!(e.calls, 1);
        assert_eq!(e.streams, 3);
    }

    #[test]
    fn member_emit_solo_uses_out_position() {
        let mut p = PlanGraph::new();
        p.add_source("S", Schema::ints(1), None).unwrap();
        let s = p.source_by_name("S").unwrap().stream;
        let (id, _) = p.add_op(OpDef::Select(Predicate::True), vec![s]).unwrap();
        let ctx = MopContext::build(&p, id).unwrap();
        let mut sink = VecEmit::default();
        ctx.members[0].emit_solo(&mut sink, Tuple::ints(0, &[7]));
        let (ch, _, m) = &sink.out[0];
        assert_eq!(*ch, ctx.members[0].out_channel);
        assert_eq!(*m, Membership::singleton(0));
    }
}
