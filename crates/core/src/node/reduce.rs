//! The reduce engines (§3.4.2): the coordinator that grows dynamic d-ary trees in
//! arrival order, and the per-slot participant that accumulates and streams
//! partially-reduced blocks.
//!
//! The coordinator subscribes to every source object's directory shard; each location
//! publication offers the object to the [`ReduceTreePlan`], which assigns it the next
//! in-order slot and reports which slots' instructions changed. Participants receive
//! those instructions, fold their own object's blocks together with the streams from
//! their child slots, and emit finalized blocks upward — or, at the root, into the
//! local result object.
//!
//! The engine owns all reduce state and reports store-level side effects back to the
//! facade as [`ReduceEvent`]s: root writes advance the result object (which may have
//! chained broadcast receivers), and epoch bumps invalidate a partially-materialized
//! result (which must abort anyone pulling it).
//!
//! That state is three ordered maps — coordinators by target, participants and parked
//! early blocks by (target, slot) — and nothing else: an advancing local object pumps
//! every participant whose instruction names it as its own input, found by a scan.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;

use crate::buffer::{Payload, SlabPool};
use crate::copytrace;
use crate::object::{ObjectId, ObjectStatus};
use crate::protocol::{DirOp, Effect, Message, ReduceInstruction};
use crate::reduce::ReduceSpec;

use super::coordinator::ReduceCoordinator;
use super::{trace, NodeContext};

/// Store-level side effects of reduce processing, routed by the facade.
#[derive(Clone, Copy, Debug)]
pub(crate) enum ReduceEvent {
    /// The (root's local) result object advanced; `completed` when fully materialized.
    Progress {
        /// The object that advanced.
        object: ObjectId,
        /// `true` once the object is complete.
        completed: bool,
    },
    /// A partially-materialized local object was dropped (epoch bump, §3.5.2).
    Invalidate {
        /// The dropped object.
        object: ObjectId,
    },
}

/// One accumulating block of a reduce participant.
///
/// Blocks are combined **as they arrive** (the paper's §3.4.2 pipelined reduce) and
/// **in place**: the first input is retained as a zero-copy shared view; the second
/// is combined with it ([`ReduceSpec::combine_from`], one pass, no seed copy unless an
/// input is segmented) into a buffer checked out of the process's [`SlabPool`] — a
/// slab a receive or an earlier fold has used, so after warm-up it is already mapped —
/// and every input after that folds into the same buffer via
/// [`ReduceSpec::combine_into`]: no per-input allocation, no per-input output copy.
/// Emission freezes the buffer into a shared view without copying and hands it back to
/// the pool, which reissues it once the last view (this block, the result object, a
/// frame in flight) has dropped.
#[derive(Debug, Default)]
struct BlockAccum {
    state: BlockState,
    inputs_applied: usize,
}

/// Accumulation state of one block.
#[derive(Debug, Default)]
enum BlockState {
    /// No input yet.
    #[default]
    Empty,
    /// One shared view: the only input so far (a leaf that only ever sees one input
    /// never copies at all; synthetic inputs stay here), or an accumulator frozen at
    /// emission, so re-sends after a parent change are refcount bumps.
    Shared(Payload),
    /// Two or more real inputs folded in place into the first `len` bytes of a pooled
    /// buffer this block holds the only handle to.
    Accum { buf: Arc<Vec<u8>>, len: usize },
}

impl BlockAccum {
    /// Fold one input into the block. Returns `false` — leaving the accumulated state
    /// untouched — when the input is shape-incompatible (the caller discards it).
    fn fold(
        &mut self,
        pool: &SlabPool,
        spec: ReduceSpec,
        target: ObjectId,
        block: &Payload,
    ) -> bool {
        match &mut self.state {
            BlockState::Empty => {
                self.state = BlockState::Shared(block.clone());
            }
            BlockState::Shared(existing) => {
                if existing.len() != block.len() {
                    return false;
                }
                if existing.is_synthetic() || block.is_synthetic() {
                    // Simulator mode (or a driver mixing modes): lengths only.
                    let len = existing.len();
                    self.state = BlockState::Shared(Payload::synthetic(len));
                } else {
                    // The second input — or a straggler after emission (e.g. a replay
                    // racing a repair): fold both into a writable accumulator — the
                    // shared bytes may still be aliased by live views — and keep going.
                    let len = existing.len() as usize;
                    let mut buf = pool.checkout(len);
                    let acc = &mut Arc::get_mut(&mut buf).expect("checked-out buffer")[..len];
                    let folded = match (existing.as_bytes(), block.as_bytes()) {
                        // One pass: read both inputs, write the accumulator.
                        (Some(a), Some(b)) => spec.combine_from(target, acc, a, b),
                        // A segmented input: seed the accumulator with a copy of the
                        // retained one, then combine the arrival into it.
                        _ => {
                            copytrace::record(len);
                            let mut at = 0;
                            for seg in existing.segments() {
                                acc[at..at + seg.len()].copy_from_slice(seg);
                                at += seg.len();
                            }
                            spec.combine_into(target, acc, block)
                        }
                    };
                    if folded.is_err() {
                        return false;
                    }
                    self.state = BlockState::Accum { buf, len };
                }
            }
            BlockState::Accum { buf, len } => {
                let acc = &mut Arc::get_mut(buf).expect("unshared until emission")[..*len];
                if spec.combine_into(target, acc, block).is_err() {
                    return false;
                }
            }
        }
        self.inputs_applied += 1;
        true
    }

    /// `true` once the block holds data from all `num_inputs` expected inputs.
    fn is_ready(&self, num_inputs: usize) -> bool {
        self.inputs_applied >= num_inputs && !matches!(self.state, BlockState::Empty)
    }

    /// The finalized payload for emission. Freezes an in-place accumulator into a
    /// shared view of its buffer (no copy), so this and every later call are cheap.
    fn emit(&mut self, pool: &SlabPool) -> Option<Payload> {
        if let BlockState::Accum { buf, len } = &self.state {
            let frozen = Payload::Bytes(Bytes::from_arc(buf.clone(), 0, *len));
            pool.retain(buf.clone());
            self.state = BlockState::Shared(frozen);
        }
        match &self.state {
            BlockState::Shared(p) => Some(p.clone()),
            BlockState::Empty | BlockState::Accum { .. } => None,
        }
    }
}

/// Per-slot reduce participant state.
#[derive(Debug)]
struct ReduceParticipant {
    instr: ReduceInstruction,
    blocks: Vec<BlockAccum>,
    /// Number of own-object blocks already folded into `blocks`.
    own_blocks_ingested: u64,
    /// Next block index to emit (to the parent, or into the local result object for
    /// the root).
    next_emit_block: u64,
    /// Root only: whether the result object has been created in the local store.
    root_started: bool,
}

impl ReduceParticipant {
    fn new(instr: ReduceInstruction) -> Self {
        let num_blocks = instr.object_size.div_ceil(instr.block_size).max(1);
        ReduceParticipant {
            instr,
            blocks: (0..num_blocks).map(|_| BlockAccum::default()).collect(),
            own_blocks_ingested: 0,
            next_emit_block: 0,
            root_started: false,
        }
    }

    fn reset(&mut self) {
        for b in &mut self.blocks {
            *b = BlockAccum::default();
        }
        self.own_blocks_ingested = 0;
        self.next_emit_block = 0;
        self.root_started = false;
    }
}

/// A reduce block that arrived before this node learned it owns the destination
/// slot. Children start streaming as soon as they know their parent's identity, and
/// nothing orders a child's first block after the parent's own instruction (the two
/// race on different links, or through the loopback queue when the slots are
/// co-located), so early blocks are parked here and replayed once the instruction
/// arrives.
#[derive(Debug)]
struct EarlyBlock {
    from_slot: usize,
    parent_epoch: u64,
    block_index: u64,
    object_size: u64,
    payload: Payload,
}

/// Cap on parked early blocks per slot; once full, later arrivals are discarded (the
/// child re-sends from scratch after the next repair, so this only bounds memory while
/// the instruction is in flight — normally a handful of blocks).
const MAX_EARLY_BLOCKS: usize = 256;

/// The reduce coordinator + participant engine.
#[derive(Default)]
pub(crate) struct ReduceEngine {
    /// Reduce coordinators keyed by target object.
    pub(crate) coordinators: BTreeMap<ObjectId, ReduceCoordinator>,
    /// Reduce participants keyed by (target, slot).
    participants: BTreeMap<(ObjectId, usize), ReduceParticipant>,
    /// Blocks that arrived before their slot's instruction, keyed by (target, slot).
    early_blocks: BTreeMap<(ObjectId, usize), Vec<EarlyBlock>>,
}

impl ReduceEngine {
    // -------------------------------------------------------------- participation --

    /// A (new or updated) instruction for a slot this node owns.
    pub(crate) fn on_instruction(
        &mut self,
        ctx: &mut NodeContext,
        instr: ReduceInstruction,
        out: &mut Vec<Effect>,
    ) -> Vec<ReduceEvent> {
        let key = (instr.target, instr.slot);
        trace!(
            "[n{}] got instr slot={} epoch={} own={:?} parent={:?}",
            ctx.id.0,
            instr.slot,
            instr.epoch,
            instr.own_object,
            instr.parent
        );
        let mut events = Vec::new();
        match self.participants.get_mut(&key) {
            Some(existing) => {
                let epoch_bumped = instr.epoch > existing.instr.epoch;
                let parent_changed = existing.instr.parent != instr.parent;
                let previous_root_started = existing.root_started;
                existing.instr = instr;
                if epoch_bumped {
                    ctx.metrics.reduce_resets += 1;
                    existing.reset();
                    // The root clears the partially-materialized result object too.
                    if previous_root_started {
                        let target = key.0;
                        if self.invalidate_local_object(ctx, target, out) {
                            events.push(ReduceEvent::Invalidate { object: target });
                        }
                    }
                } else if parent_changed {
                    // Same accumulated data, new (or restarted) parent: re-send our
                    // finalized blocks from the start.
                    existing.next_emit_block = 0;
                }
            }
            None => {
                let p = self.participants.entry(key).or_insert(ReduceParticipant::new(instr));
                // Replay any child blocks that raced ahead of this instruction.
                for block in self.early_blocks.remove(&key).unwrap_or_default() {
                    Self::apply_block(ctx, p, key.0, &block);
                }
            }
        }
        events.extend(self.pump_participant(ctx, key, out));
        events
    }

    /// Fold one child block into a participant's accumulator, discarding stale or
    /// mismatched blocks.
    fn apply_block(
        ctx: &mut NodeContext,
        p: &mut ReduceParticipant,
        target: ObjectId,
        block: &EarlyBlock,
    ) {
        if block.parent_epoch != p.instr.epoch {
            return; // stale block from before a repair
        }
        if block.object_size != p.instr.object_size {
            return;
        }
        trace!(
            "[n{}] reduce block target={:?} to_slot={} from_slot={} epoch={} idx={}",
            ctx.id.0,
            target,
            p.instr.slot,
            block.from_slot,
            block.parent_epoch,
            block.block_index
        );
        ctx.metrics.data_bytes_received += block.payload.len();
        let idx = block.block_index as usize;
        if idx >= p.blocks.len() {
            return;
        }
        let spec = p.instr.spec;
        p.blocks[idx].fold(&ctx.pool, spec, target, &block.payload);
    }

    /// A partially-reduced block arrived from a child slot.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_block(
        &mut self,
        ctx: &mut NodeContext,
        target: ObjectId,
        to_slot: usize,
        from_slot: usize,
        parent_epoch: u64,
        block_index: u64,
        object_size: u64,
        payload: Payload,
        out: &mut Vec<Effect>,
    ) -> Vec<ReduceEvent> {
        let key = (target, to_slot);
        let block = EarlyBlock { from_slot, parent_epoch, block_index, object_size, payload };
        let Some(p) = self.participants.get_mut(&key) else {
            // The sender learned about this slot's assignment before we did (its
            // instruction and our instruction race on independent links). Park the
            // block; it is replayed when our instruction arrives.
            trace!(
                "[n{}] parking early block target={:?} to_slot={} from_slot={} idx={}",
                ctx.id.0,
                target,
                to_slot,
                from_slot,
                block_index
            );
            let parked = self.early_blocks.entry(key).or_default();
            if parked.len() < MAX_EARLY_BLOCKS {
                parked.push(block);
            }
            return Vec::new();
        };
        Self::apply_block(ctx, p, target, &block);
        self.pump_participant(ctx, key, out)
    }

    /// Re-pump every participant whose own input object is `object` (called by the
    /// facade when that object's local watermark advances).
    pub(crate) fn pump_for(
        &mut self,
        ctx: &mut NodeContext,
        object: ObjectId,
        out: &mut Vec<Effect>,
    ) -> Vec<ReduceEvent> {
        let keys: Vec<(ObjectId, usize)> = self
            .participants
            .iter()
            .filter(|(_, p)| p.instr.own_object == object)
            .map(|(key, _)| *key)
            .collect();
        let mut events = Vec::new();
        for key in keys {
            events.extend(self.pump_participant(ctx, key, out));
        }
        events
    }

    /// Ingest newly-available own-object blocks and emit every finalized block in
    /// order, either to the parent slot or — for the root — into the local result
    /// object.
    fn pump_participant(
        &mut self,
        ctx: &mut NodeContext,
        key: (ObjectId, usize),
        out: &mut Vec<Effect>,
    ) -> Vec<ReduceEvent> {
        let mut events = Vec::new();
        let Some(p) = self.participants.get_mut(&key) else { return events };
        let target = p.instr.target;
        let spec = p.instr.spec;
        let block_size = p.instr.block_size;
        let object_size = p.instr.object_size;
        let total_blocks = object_size.div_ceil(block_size);

        // 1. Fold in own-object blocks that are now below the local watermark.
        let own = p.instr.own_object;
        let own_watermark = ctx.store.watermark(own).unwrap_or(0);
        let mut ingested = p.own_blocks_ingested;
        let mut to_ingest: Vec<(u64, u64, u64)> = Vec::new();
        while ingested < total_blocks {
            let offset = ingested * block_size;
            let len = block_size.min(object_size - offset);
            if offset + len > own_watermark {
                break;
            }
            to_ingest.push((ingested, offset, len));
            ingested += 1;
        }
        for (block_idx, offset, len) in to_ingest {
            let Some(block) = ctx.store.read(own, offset, len) else { break };
            let p = self.participants.get_mut(&key).expect("participant exists");
            if !p.blocks[block_idx as usize].fold(&ctx.pool, spec, target, &block) {
                break;
            }
            p.own_blocks_ingested = block_idx + 1;
        }

        // 2. Emit finalized blocks in order.
        loop {
            let p = self.participants.get_mut(&key).expect("participant exists");
            let idx = p.next_emit_block;
            if idx >= total_blocks {
                break;
            }
            let num_inputs = p.instr.num_inputs;
            if !p.blocks[idx as usize].is_ready(num_inputs) {
                break;
            }
            let payload = p.blocks[idx as usize].emit(&ctx.pool).expect("ready block has data");
            let is_root = p.instr.is_root;
            let parent = p.instr.parent;
            let slot = p.instr.slot;
            let coordinator = p.instr.coordinator;
            if is_root {
                // Materialize the result object locally, registering it as a partial
                // location right away so a following broadcast can start (§3.3).
                if !p.root_started {
                    p.root_started = true;
                    if !ctx.store.contains(target) {
                        let _ = ctx.store.begin_receive(
                            target,
                            object_size,
                            ctx.opts.synthetic_data || payload.is_synthetic(),
                        );
                        if !ctx.cfg.is_inline(object_size) {
                            let (object, holder, size) = (target, ctx.id, object_size);
                            let status = ObjectStatus::Partial;
                            ctx.dir(DirOp::Register { object, holder, status, size }, out);
                        }
                    }
                }
                let offset = idx * block_size;
                if ctx.store.append(target, offset, &payload).is_ok() {
                    let p = self.participants.get_mut(&key).expect("participant exists");
                    p.next_emit_block = idx + 1;
                    let watermark = ctx.store.watermark(target).unwrap_or(0);
                    out.push(Effect::LocalProgress {
                        object: target,
                        watermark,
                        total_size: object_size,
                    });
                    if watermark >= object_size {
                        // Small results go through the inline fast path like any Put.
                        if ctx.cfg.is_inline(object_size) {
                            if let Some(full) = ctx.store.get_complete(target) {
                                let (object, holder) = (target, ctx.id);
                                ctx.dir(DirOp::PutInline { object, holder, payload: full }, out);
                            }
                        }
                        trace!("[n{}] root completed {:?}", ctx.id.0, target);
                        events.push(ReduceEvent::Progress { object: target, completed: true });
                        ctx.send(coordinator, Message::ReduceDone { target, root: ctx.id }, out);
                    } else {
                        events.push(ReduceEvent::Progress { object: target, completed: false });
                    }
                } else {
                    break;
                }
            } else {
                let Some(parent) = parent else { break };
                ctx.metrics.reduce_blocks_sent += 1;
                ctx.metrics.data_bytes_sent += payload.len();
                ctx.send(
                    parent.node,
                    Message::ReduceBlock {
                        target,
                        to_slot: parent.slot,
                        from_slot: slot,
                        parent_epoch: parent.epoch,
                        block_index: idx,
                        object_size,
                        payload,
                    },
                    out,
                );
                let p = self.participants.get_mut(&key).expect("participant exists");
                p.next_emit_block = idx + 1;
            }
        }
        events
    }

    /// Release every participant slot and parked early block of a completed reduce
    /// (the coordinator broadcasts [`Message::ReduceRelease`] once the root reports
    /// done). Without this, long-lived serving clusters accumulate one participant +
    /// accumulator set per reduce ever run.
    pub(crate) fn on_release(&mut self, target: ObjectId) {
        self.participants.retain(|(t, _), _| *t != target);
        self.early_blocks.retain(|(t, _), _| *t != target);
    }

    /// `true` when the engine holds no reduce state at all (GC tests).
    pub(crate) fn is_idle(&self) -> bool {
        self.participants.is_empty() && self.coordinators.is_empty() && self.early_blocks.is_empty()
    }

    /// Drop an invalid local partial copy (used when a reduce root clears its result):
    /// delete it from the store and unregister from the directory. Returns `true` when
    /// a copy was actually dropped (so the facade aborts downstream pullers).
    fn invalidate_local_object(
        &mut self,
        ctx: &mut NodeContext,
        object: ObjectId,
        out: &mut Vec<Effect>,
    ) -> bool {
        if !ctx.store.contains(object) {
            return false;
        }
        ctx.store.delete(object);
        ctx.dir(DirOp::Unregister { object, holder: ctx.id }, out);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first fold of two contiguous inputs is one pass with no seed copy; a
    /// segmented input — either side — takes the copy-then-combine path, which is on
    /// the books. Both give the same sum, and a third input folds in place.
    #[test]
    fn first_fold_copies_only_for_a_segmented_input() {
        let (spec, target) = (ReduceSpec::sum_f32(), ObjectId::from_name("fold"));
        let values: Vec<f32> = (0..64).map(|i| i as f32).collect();
        let flat = Payload::from_f32s(&values);
        let bytes = flat.to_owned_vec().unwrap();
        // Split mid-element, so the segmented arrival also exercises the carry.
        let split = Payload::from_segments(vec![
            Bytes::from(bytes[..101].to_vec()),
            Bytes::from(bytes[101..].to_vec()),
        ]);
        let doubled: Vec<f32> = values.iter().map(|v| 2.0 * v).collect();
        let tripled: Vec<f32> = values.iter().map(|v| 3.0 * v).collect();
        for (first, second, copied) in
            [(&flat, &flat, 0), (&split, &flat, bytes.len()), (&flat, &split, bytes.len())]
        {
            let pool = SlabPool::new();
            let mut block = BlockAccum::default();
            copytrace::reset();
            assert!(block.fold(&pool, spec, target, first));
            assert!(block.fold(&pool, spec, target, second));
            if cfg!(debug_assertions) {
                assert_eq!(copytrace::bytes_copied(), copied as u64);
            }
            assert!(matches!(block.state, BlockState::Accum { .. }));
            assert!(block.is_ready(2));
            assert_eq!(block.emit(&pool).unwrap().to_f32s(), doubled);
            // A straggler after emission: the frozen view is an input like any other.
            assert!(block.fold(&pool, spec, target, &flat));
            assert_eq!(block.emit(&pool).unwrap().to_f32s(), tripled);
            // A shape mismatch is refused and leaves the block as it was.
            assert!(!block.fold(&pool, spec, target, &Payload::from_f32s(&[1.0])));
            assert_eq!(block.emit(&pool).unwrap().to_f32s(), tripled);
        }
    }
}
