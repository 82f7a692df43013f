//! The reduce *coordinator* engine (§3.4.2): grows a dynamic d-ary tree in input
//! arrival order and keeps every participant's instruction current.
//!
//! The coordinator lives on the node where the client called `Reduce`. It subscribes
//! to every source object's directory shard; each location publication offers that
//! object to the [`ReduceTreePlan`], which assigns it the next in-order slot and
//! reports which slots' instructions changed. The failure half of coordination — slot
//! vacation, the epoch bump, refills — lives in [`super::failure`].
//!
//! Coordinators sit in an ordered map keyed by target, and a coordinator's source list
//! is the only record of what it consumes: a publication goes to every coordinator
//! that lists the object, and a source is unsubscribed once no remaining coordinator
//! lists it.

use crate::error::HopliteError;
use crate::object::{NodeId, ObjectId};
use crate::protocol::{ClientReply, DirOp, Effect, Message, OpId, ReduceInstruction, ReduceParent};
use crate::reduce::degree::DEGREE_CANDIDATES;
use crate::reduce::{DegreeModel, ReduceInput, ReduceSpec, ReduceTreePlan};

use super::reduce::ReduceEngine;
use super::{trace, NodeContext};

/// Coordinator state for a reduce initiated on this node.
#[derive(Debug)]
pub(crate) struct ReduceCoordinator {
    pub(super) target: ObjectId,
    /// Source objects: a publication of one is offered to this reduce's plan, and on
    /// completion the ones no other reduce here consumes are unsubscribed.
    sources: Vec<ObjectId>,
    num_objects: usize,
    spec: ReduceSpec,
    degree_override: Option<usize>,
    object_size: Option<u64>,
    pub(crate) plan: Option<ReduceTreePlan>,
    notify_op: Option<OpId>,
}

impl ReduceEngine {
    // -------------------------------------------------------------- coordination --

    /// Start coordinating a reduce on this node (Table 1 `Reduce`).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn client_reduce(
        &mut self,
        ctx: &mut NodeContext,
        op_id: OpId,
        target: ObjectId,
        sources: Vec<ObjectId>,
        num_objects: Option<usize>,
        spec: ReduceSpec,
        degree: Option<usize>,
        out: &mut Vec<Effect>,
    ) {
        let n = num_objects.unwrap_or(sources.len());
        if n == 0 || n > sources.len() || sources.is_empty() {
            out.push(Effect::Reply {
                op: op_id,
                reply: ClientReply::Error {
                    error: HopliteError::NotEnoughReduceInputs {
                        target,
                        requested: n,
                        available: sources.len(),
                    },
                },
            });
            return;
        }
        ctx.metrics.reduces_coordinated += 1;
        let coord = ReduceCoordinator {
            target,
            sources: sources.clone(),
            num_objects: n,
            spec,
            degree_override: degree,
            object_size: None,
            plan: None,
            notify_op: Some(op_id),
        };
        self.coordinators.insert(target, coord);
        // Subscribe to every source's directory shard; publications drive the dynamic
        // tree construction in arrival order (§3.4.2). Going through the directory
        // client journals the subscription, so it survives a shard-primary failover.
        for source in sources {
            ctx.dir(DirOp::Subscribe { object: source, subscriber: ctx.id }, out);
        }
        out.push(Effect::Reply { op: op_id, reply: ClientReply::ReduceAccepted { target } });
    }

    /// A directory publication for a subscribed source arrived: offer it to every plan
    /// consuming it and (re-)issue the affected instructions. A completed reduce is no
    /// longer coordinated here (torn down by `on_reduce_done`), so a late publication
    /// for it offers nothing.
    pub(crate) fn on_dir_publish(
        &mut self,
        ctx: &mut NodeContext,
        object: ObjectId,
        holder: NodeId,
        size: u64,
        out: &mut Vec<Effect>,
    ) {
        trace!("[n{}] publish {:?} holder={:?} size={}", ctx.id.0, object, holder, size);
        for coord in self.coordinators.values_mut().filter(|c| c.sources.contains(&object)) {
            let object_size = *coord.object_size.get_or_insert(size);
            let n = coord.num_objects;
            let plan = coord.plan.get_or_insert_with(|| {
                let model = DegreeModel::paper_testbed();
                let degree = match coord.degree_override {
                    Some(d) if d == 0 || d >= n => n,
                    Some(d) => d,
                    None => model.choose(&DEGREE_CANDIDATES, n, object_size),
                };
                ReduceTreePlan::new(n, degree.max(1))
            });
            let affected = plan.offer_input(ReduceInput { object, node: holder });
            coord.issue_instructions(ctx, &affected, out);
        }
    }

    /// The root finished materializing `target`: complete the client's reduce, then
    /// tear the whole reduce down — unsubscribe from the sources no other reduce
    /// coordinated here still consumes, tell every participant node to release its
    /// slots, and drop the coordinator itself. A straggling duplicate `ReduceDone`
    /// finds no coordinator and is a no-op.
    pub(crate) fn on_reduce_done(
        &mut self,
        ctx: &mut NodeContext,
        target: ObjectId,
        out: &mut Vec<Effect>,
    ) {
        let Some(coord) = self.coordinators.remove(&target) else { return };
        if let Some(op) = coord.notify_op {
            out.push(Effect::Reply { op, reply: ClientReply::ReduceComplete { target } });
        }
        for (i, source) in coord.sources.iter().enumerate() {
            let first_listing = !coord.sources[..i].contains(source);
            if first_listing && !self.coordinators.values().any(|c| c.sources.contains(source)) {
                ctx.dir(DirOp::Unsubscribe { object: *source, subscriber: ctx.id }, out);
            }
        }
        if let Some(plan) = &coord.plan {
            let mut notified = Vec::new();
            for input in (0..plan.shape().len()).filter_map(|slot| plan.assignment(slot)) {
                if !notified.contains(&input.node) {
                    notified.push(input.node);
                    ctx.send(input.node, Message::ReduceRelease { target }, out);
                }
            }
        }
        trace!("[n{}] reduce {:?} complete, state released", ctx.id.0, target);
    }
}

impl ReduceCoordinator {
    /// Send (or re-send) the participant instructions for the given slots.
    pub(super) fn issue_instructions(
        &self,
        ctx: &mut NodeContext,
        slots: &[usize],
        out: &mut Vec<Effect>,
    ) {
        let (Some(plan), Some(object_size)) = (&self.plan, self.object_size) else { return };
        for &slot in slots {
            let Some(view) = plan.slot_view(slot) else { continue };
            let instr = ReduceInstruction {
                target: self.target,
                coordinator: ctx.id,
                slot,
                own_object: view.input.object,
                spec: self.spec,
                object_size,
                block_size: ctx.cfg.block_size,
                num_inputs: view.num_inputs,
                epoch: view.epoch,
                parent: view.parent.map(|(slot, input)| ReduceParent {
                    slot,
                    node: input.node,
                    epoch: view.epoch,
                }),
                children: view
                    .children
                    .iter()
                    .map(|(cslot, cinput)| (*cslot, cinput.node, cinput.object))
                    .collect(),
                is_root: view.is_root,
                total_slots: plan.shape().len(),
            };
            trace!(
                "[n{}] instr slot={} -> {:?} epoch={} parent={:?} num_inputs={}",
                ctx.id.0,
                slot,
                view.input.node,
                view.epoch,
                instr.parent,
                view.num_inputs
            );
            ctx.send(view.input.node, Message::ReduceInstruction(instr), out);
        }
    }
}
