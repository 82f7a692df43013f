//! The receiver-driven broadcast engine (§3.4.1) and the pipelined object ingest path
//! (§3.3).
//!
//! The engine owns every piece of per-node broadcast state:
//!
//! * in-progress local `Get`s and their outstanding directory queries;
//! * outgoing block transfers this node is serving to remote receivers (which is what
//!   turns receivers into senders and makes broadcast receiver-driven);
//! * pipelined `Put`s being copied block-by-block from the worker into the store.
//!
//! It emits [`Effect`]s through the shared [`NodeContext`] and reports local-store
//! progress back to the facade as [`Progress`] values, which the facade routes to the
//! reduce engine (an advancing object may be a reduce input) and back here (an
//! advancing object may have chained receivers).
//!
//! Every map here is keyed by object and ordered, and a pipelined put is one record
//! (payload, offset, op and the timer of its next block). A scan that emits effects —
//! the re-pulls and re-queries of a failover — therefore runs in object order, and a
//! node fed the same inputs emits the same effects.

use std::collections::BTreeMap;

use crate::buffer::Payload;
use crate::error::HopliteError;
use crate::object::ObjectStatus::{Complete, Partial};
use crate::object::{NodeId, ObjectId};
use crate::protocol::{ClientReply, DirOp, Effect, Message, OpId, QueryResult, TimerToken};

use super::{trace, NodeContext, Progress};

/// State of one in-progress `Get` (broadcast receive) on this node.
#[derive(Debug, Default)]
pub(crate) struct GetState {
    /// Local client operations waiting for the object.
    pub(crate) waiting_ops: Vec<OpId>,
    /// The sender we are currently pulling from, if any.
    pub(crate) pulling_from: Option<NodeId>,
    /// Senders we must not be pointed back at (observed failures).
    pub(crate) excluded: Vec<NodeId>,
    /// Outstanding directory query id, if any.
    pub(crate) query_id: Option<u64>,
}

/// One transfer we are serving to a remote receiver.
#[derive(Debug, Clone, PartialEq, Eq)]
struct OutgoingTransfer {
    to: NodeId,
    next_offset: u64,
}

/// One pipelined `Put` being copied block by block into the store.
#[derive(Debug)]
struct PipelinedPut {
    payload: Payload,
    /// Bytes copied so far: the offset of the next block.
    offset: u64,
    op: OpId,
    /// The timer that copies the next block.
    timer: TimerToken,
}

/// The broadcast + ingest engine. All maps are keyed by object.
#[derive(Default)]
pub(crate) struct BroadcastEngine {
    /// In-progress local `Get`s.
    pub(crate) gets: BTreeMap<ObjectId, GetState>,
    /// Transfers we are serving.
    outgoing: BTreeMap<ObjectId, Vec<OutgoingTransfer>>,
    /// Pipelined `Put`s in progress.
    puts: BTreeMap<ObjectId, PipelinedPut>,
}

impl BroadcastEngine {
    // ------------------------------------------------------------------------ put --

    /// Store an object locally and publish its location. Returns the progress events
    /// the facade must route (an instantaneous put completes immediately).
    pub(crate) fn client_put(
        &mut self,
        ctx: &mut NodeContext,
        op_id: OpId,
        object: ObjectId,
        payload: Payload,
        out: &mut Vec<Effect>,
    ) -> Vec<Progress> {
        let size = payload.len();
        if ctx.store.contains(object) {
            out.push(Effect::Reply {
                op: op_id,
                reply: ClientReply::Error { error: HopliteError::ObjectAlreadyExists(object) },
            });
            return Vec::new();
        }
        ctx.metrics.objects_put += 1;
        // Small objects take the directory fast path (§3.2): cache the whole object in
        // the directory shard; there is no block pipeline to run.
        if ctx.cfg.is_inline(size) {
            if let Err(error) = ctx.store.put_complete(object, payload.clone(), true) {
                out.push(Effect::Reply { op: op_id, reply: ClientReply::Error { error } });
                return Vec::new();
            }
            ctx.dir(DirOp::PutInline { object, holder: ctx.id, payload }, out);
            out.push(Effect::Reply { op: op_id, reply: ClientReply::PutDone { object } });
            return Vec::new();
        }
        if ctx.opts.pipelined_put && size > ctx.cfg.block_size {
            // Model the worker→store memcpy as a timed, block-granular copy so that the
            // network transfer can overlap with it (§3.3). The object is registered as
            // a partial location immediately.
            if let Err(error) = ctx.store.begin_receive(object, size, payload.is_synthetic()) {
                out.push(Effect::Reply { op: op_id, reply: ClientReply::Error { error } });
                return Vec::new();
            }
            ctx.store.set_pinned(object, true);
            ctx.dir(DirOp::Register { object, holder: ctx.id, status: Partial, size }, out);
            let timer = Self::schedule_put_step(ctx, out);
            self.puts.insert(object, PipelinedPut { payload, offset: 0, op: op_id, timer });
            Vec::new()
        } else {
            if let Err(error) = ctx.store.put_complete(object, payload, true) {
                out.push(Effect::Reply { op: op_id, reply: ClientReply::Error { error } });
                return Vec::new();
            }
            ctx.dir(DirOp::Register { object, holder: ctx.id, status: Complete, size }, out);
            out.push(Effect::Reply { op: op_id, reply: ClientReply::PutDone { object } });
            vec![Progress::completed(object)]
        }
    }

    /// Arm the timer that copies a pipelined put's next block.
    fn schedule_put_step(ctx: &mut NodeContext, out: &mut Vec<Effect>) -> TimerToken {
        let token = ctx.fresh_timer();
        let step = (ctx.cfg.block_size as f64 / ctx.cfg.memcpy_bandwidth).max(0.0);
        out.push(Effect::SetTimer { token, delay: crate::time::Duration::from_secs_f64(step) });
        token
    }

    /// The pipelined put a fired timer token belongs to, if any.
    pub(crate) fn put_for_timer(&self, token: TimerToken) -> Option<ObjectId> {
        self.puts.iter().find(|(_, put)| put.timer == token).map(|(object, _)| *object)
    }

    /// Copy the next block of a pipelined put into the store.
    pub(crate) fn advance_pipelined_put(
        &mut self,
        ctx: &mut NodeContext,
        object: ObjectId,
        out: &mut Vec<Effect>,
    ) -> Vec<Progress> {
        let Some(mut put) = self.puts.remove(&object) else {
            return Vec::new();
        };
        let total = put.payload.len();
        let len = ctx.cfg.block_size.min(total - put.offset);
        let block = put.payload.slice(put.offset, len);
        if ctx.store.append(object, put.offset, &block).is_err() {
            // The object was deleted mid-copy; drop the put.
            out.push(Effect::Reply {
                op: put.op,
                reply: ClientReply::Error { error: HopliteError::ObjectDeleted(object) },
            });
            return Vec::new();
        }
        put.offset += len;
        if put.offset >= total {
            out.push(Effect::Reply { op: put.op, reply: ClientReply::PutDone { object } });
            vec![Progress::completed(object)]
        } else {
            out.push(Effect::LocalProgress { object, watermark: put.offset, total_size: total });
            put.timer = Self::schedule_put_step(ctx, out);
            self.puts.insert(object, put);
            vec![Progress::advanced(object)]
        }
    }

    // ------------------------------------------------------------------------ get --

    /// Fetch an object: serve locally if complete, otherwise park the op and start the
    /// receiver-driven pull.
    pub(crate) fn client_get(
        &mut self,
        ctx: &mut NodeContext,
        op_id: OpId,
        object: ObjectId,
        out: &mut Vec<Effect>,
    ) {
        trace!("[n{}] client_get {:?}", ctx.id.0, object);
        if let Some(payload) = ctx.store.get_complete(object) {
            ctx.metrics.gets_completed += 1;
            out.push(Effect::Reply { op: op_id, reply: ClientReply::GetDone { object, payload } });
            return;
        }
        let already_tracking = self.gets.contains_key(&object) || ctx.store.contains(object);
        let entry = self.gets.entry(object).or_default();
        entry.waiting_ops.push(op_id);
        if already_tracking {
            // Either a pull is already in flight, or the object is being created
            // locally (pipelined put / reduce root); the reply happens on completion.
            return;
        }
        self.issue_directory_query(ctx, object, out);
    }

    pub(crate) fn issue_directory_query(
        &mut self,
        ctx: &mut NodeContext,
        object: ObjectId,
        out: &mut Vec<Effect>,
    ) {
        let query_id = ctx.fresh_query_id();
        let exclude = self.gets.get(&object).map(|g| g.excluded.clone()).unwrap_or_default();
        if let Some(g) = self.gets.get_mut(&object) {
            // Replaces an abandoned query's id, so its reply is dropped on arrival.
            g.query_id = Some(query_id);
            g.pulling_from = None;
        }
        ctx.dir(DirOp::Query { object, requester: ctx.id, query_id, exclude }, out);
    }

    /// Process a directory query reply: either an inline payload, a location to pull
    /// from, or a deletion notice.
    pub(crate) fn handle_query_reply(
        &mut self,
        ctx: &mut NodeContext,
        object: ObjectId,
        query_id: u64,
        result: QueryResult,
        out: &mut Vec<Effect>,
    ) {
        // Only the reply to this Get's outstanding query counts: a stale reply from an
        // abandoned query, or one naming another object, leaves the Get waiting.
        let Some(get) = self.gets.get_mut(&object).filter(|g| g.query_id == Some(query_id)) else {
            return;
        };
        get.query_id = None;
        trace!("[n{}] query reply {:?} -> {:?}", ctx.id.0, object, result);
        match result {
            QueryResult::Inline { payload } => {
                // The payload goes to the waiting ops and nowhere else: a copy in the
                // store would be one the directory never hears of, so no delete could
                // release it. A later Get queries again (§3.2).
                ctx.metrics.directory_inline_hits += 1;
                let get = self.gets.remove(&object).expect("the get this reply answers");
                for op in get.waiting_ops {
                    ctx.metrics.gets_completed += 1;
                    let reply = ClientReply::GetDone { object, payload: payload.clone() };
                    out.push(Effect::Reply { op, reply });
                }
            }
            QueryResult::Location { node, status: _, size } => {
                if !ctx.store.contains(object) {
                    if let Err(error) =
                        ctx.store.begin_receive(object, size, ctx.opts.synthetic_data)
                    {
                        self.fail_gets(object, error, out);
                        return;
                    }
                }
                // Register ourselves as a partial location right away so later
                // receivers can chain off us (§3.4.1), then pull from the chosen
                // sender starting at our current watermark (resume-friendly, §3.5.1).
                let watermark = ctx.store.watermark(object).unwrap_or(0);
                if let Some(g) = self.gets.get_mut(&object) {
                    g.pulling_from = Some(node);
                }
                ctx.dir(DirOp::Register { object, holder: ctx.id, status: Partial, size }, out);
                ctx.send(
                    node,
                    Message::PullRequest { object, requester: ctx.id, offset: watermark },
                    out,
                );
            }
            QueryResult::Deleted => {
                self.fail_gets(object, HopliteError::ObjectDeleted(object), out);
            }
        }
    }

    /// Fail every op parked on `object` with `error`.
    pub(crate) fn fail_gets(
        &mut self,
        object: ObjectId,
        error: HopliteError,
        out: &mut Vec<Effect>,
    ) {
        if let Some(get) = self.gets.remove(&object) {
            for op in get.waiting_ops {
                out.push(Effect::Reply { op, reply: ClientReply::Error { error: error.clone() } });
            }
        }
    }

    // ------------------------------------------------------------------- transfers --

    /// A remote receiver asked us to stream `object` from `offset`.
    pub(crate) fn handle_pull_request(
        &mut self,
        ctx: &mut NodeContext,
        object: ObjectId,
        requester: NodeId,
        offset: u64,
        out: &mut Vec<Effect>,
    ) {
        if !ctx.store.contains(object) {
            // A copy this node listed and lost without a word (an eviction): take it
            // off the list, or a requester — which never excludes a live sender —
            // would be pointed back here.
            if ctx.directory.is_registered(object) {
                ctx.dir(DirOp::Unregister { object, holder: ctx.id }, out);
            }
            ctx.send(
                requester,
                Message::PullError { object, reason: "object not in store".to_string() },
                out,
            );
            return;
        }
        trace!("[n{}] pull request {:?} from {:?} offset={}", ctx.id.0, object, requester, offset);
        ctx.metrics.pulls_served += 1;
        let transfers = self.outgoing.entry(object).or_default();
        transfers.retain(|t| t.to != requester);
        transfers.push(OutgoingTransfer { to: requester, next_offset: offset });
        self.pump_outgoing(ctx, object, out);
    }

    /// Push as many blocks as are locally available to every active outgoing transfer
    /// of `object`. The forward path is zero-copy end to end: each block is read out
    /// of the store as a shared view (segmented if it straddles received blocks) and
    /// rides the outgoing `PushBlock` by reference — the channels fabric passes the
    /// segment vector through untouched and the TCP fabric gathers it into iovecs.
    pub(crate) fn pump_outgoing(
        &mut self,
        ctx: &mut NodeContext,
        object: ObjectId,
        out: &mut Vec<Effect>,
    ) {
        let Some(watermark) = ctx.store.watermark(object) else { return };
        let Some(total) = ctx.store.total_size(object) else { return };
        let Some(transfers) = self.outgoing.get_mut(&object) else { return };
        let block = ctx.cfg.block_size;
        let mut sends: Vec<(NodeId, u64, u64)> = Vec::new();
        for t in transfers.iter_mut() {
            while t.next_offset < watermark {
                let len = block.min(watermark - t.next_offset);
                sends.push((t.to, t.next_offset, len));
                t.next_offset += len;
            }
        }
        transfers.retain(|t| t.next_offset < total);
        if self.outgoing.get(&object).map(|t| t.is_empty()).unwrap_or(false) {
            self.outgoing.remove(&object);
        }
        for (to, offset, len) in sends {
            let payload = ctx
                .store
                .read(object, offset, len)
                .expect("offsets below the watermark are always readable");
            ctx.metrics.data_bytes_sent += payload.len();
            let complete = offset + len >= total;
            ctx.send(
                to,
                Message::PushBlock { object, offset, total_size: total, payload, complete },
                out,
            );
        }
    }

    /// One block of object data arrived from `from`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn handle_push_block(
        &mut self,
        ctx: &mut NodeContext,
        from: NodeId,
        object: ObjectId,
        offset: u64,
        total_size: u64,
        payload: Payload,
        out: &mut Vec<Effect>,
    ) -> Vec<Progress> {
        // Ignore stale blocks from a sender we already abandoned.
        if let Some(get) = self.gets.get(&object) {
            if let Some(current) = get.pulling_from {
                if current != from {
                    return Vec::new();
                }
            }
        }
        if !ctx.store.contains(object)
            && ctx.store.begin_receive(object, total_size, ctx.opts.synthetic_data).is_err()
        {
            return Vec::new();
        }
        ctx.metrics.data_bytes_received += payload.len();
        match ctx.store.append(object, offset, &payload) {
            Ok(watermark) => {
                out.push(Effect::LocalProgress { object, watermark, total_size });
                if watermark >= total_size {
                    vec![Progress::completed(object)]
                } else {
                    vec![Progress::advanced(object)]
                }
            }
            Err(_) => {
                // Out-of-order data (e.g. from a sender we failed over from); ignore.
                Vec::new()
            }
        }
    }

    /// A receiver cancelled its in-flight pull.
    pub(crate) fn cancel_pull(&mut self, object: ObjectId, requester: NodeId) {
        if let Some(transfers) = self.outgoing.get_mut(&object) {
            transfers.retain(|t| t.to != requester);
        }
    }

    /// Bookkeeping common to every way an object can become locally complete: a
    /// finished pull, a finished pipelined put, or a reduce root materializing its
    /// result. (An inline reply never gets here: it completes its Gets and leaves no
    /// local copy.)
    pub(crate) fn on_object_complete(
        &mut self,
        ctx: &mut NodeContext,
        object: ObjectId,
        out: &mut Vec<Effect>,
    ) {
        let size = ctx.store.total_size(object).unwrap_or(0);
        trace!("[n{}] object complete {:?} size={}", ctx.id.0, object, size);
        out.push(Effect::LocalProgress { object, watermark: size, total_size: size });
        // Tell the directory we now hold a complete copy, and release the sender we
        // pulled from (if any) so it can serve other receivers again.
        let pulled_from = self.gets.get(&object).and_then(|g| g.pulling_from);
        if !ctx.cfg.is_inline(size) {
            ctx.dir(DirOp::Register { object, holder: ctx.id, status: Complete, size }, out);
        }
        if let Some(sender) = pulled_from {
            ctx.dir(DirOp::TransferDone { object, receiver: ctx.id, sender }, out);
        }
        // Wake up local clients blocked on Get.
        if let Some(get) = self.gets.remove(&object) {
            if !get.waiting_ops.is_empty() {
                let payload = ctx.store.get_complete(object).expect("object is complete");
                for op in get.waiting_ops {
                    ctx.metrics.gets_completed += 1;
                    out.push(Effect::Reply {
                        op,
                        reply: ClientReply::GetDone { object, payload: payload.clone() },
                    });
                }
            }
        }
        // Serve any receivers chained off us.
        self.pump_outgoing(ctx, object, out);
    }

    // --------------------------------------------------------------------- delete --

    /// The directory shard told us to drop our local copy (delete fan-out).
    pub(crate) fn handle_store_release(
        &mut self,
        ctx: &mut NodeContext,
        object: ObjectId,
        out: &mut Vec<Effect>,
    ) {
        ctx.store.delete(object);
        ctx.directory.forget(object);
        self.puts.remove(&object);
        // Anyone pulling from us can no longer be served.
        self.abort_outgoing(ctx, object, "object deleted", out);
        self.fail_gets(object, HopliteError::ObjectDeleted(object), out);
    }

    /// Abort every outgoing transfer of `object`, telling the receivers why.
    pub(crate) fn abort_outgoing(
        &mut self,
        ctx: &mut NodeContext,
        object: ObjectId,
        reason: &str,
        out: &mut Vec<Effect>,
    ) {
        if let Some(transfers) = self.outgoing.remove(&object) {
            for t in transfers {
                ctx.send(t.to, Message::PullError { object, reason: reason.to_string() }, out);
            }
        }
    }

    /// Drop transfers destined to a failed peer (no messages; the peer is gone).
    pub(crate) fn drop_transfers_to(&mut self, peer: NodeId) {
        for transfers in self.outgoing.values_mut() {
            transfers.retain(|t| t.to != peer);
        }
    }

    /// Objects whose in-flight pull was sourced from `peer`.
    pub(crate) fn pulls_from(&self, peer: NodeId) -> Vec<ObjectId> {
        self.gets.iter().filter(|(_, g)| g.pulling_from == Some(peer)).map(|(o, _)| *o).collect()
    }
}
