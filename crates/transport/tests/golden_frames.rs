//! Golden wire frames: the bytes peers observe, frozen.
//!
//! `golden_frames.txt` was produced by the hand-written codec this test was first
//! committed against; every later codec must reproduce it byte for byte, so a rewrite
//! of `framing.rs` cannot move a field, a tag or a length prefix without this failing.
//! One line per frame: `name hex` for frames up to 1 KiB, `name len=N fnv1a=H` (64-bit
//! FNV-1a of the frame bytes) for longer ones. The cases cover all 33 tags and, inside
//! them, every `DirOp`, `QueryResult` and `ConfirmKind` variant, both arms of every
//! `Option`, every reduce op × dtype, and every payload shape (contiguous, segmented
//! below and above `GATHER_MIN_SEGMENT`, synthetic, empty) in every field that
//! carries one.
//!
//! A deliberate wire change edits the fixture: the failure message prints the line
//! the encoder now produces.

use std::collections::HashMap;

use bytes::Bytes;
use hoplite_core::prelude::*;
use hoplite_core::protocol::ReduceParent;
use hoplite_transport::framing::{
    decode_body, encode_frame_vectored, FrameReader, GATHER_MIN_SEGMENT,
};

const FIXTURE: &str = include_str!("golden_frames.txt");

/// Frames longer than this are pinned by length and hash instead of full hex.
const HEX_LIMIT: usize = 1024;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

fn fixture_line(frame: &[u8]) -> String {
    if frame.len() <= HEX_LIMIT {
        frame.iter().map(|b| format!("{b:02x}")).collect()
    } else {
        format!("len={} fnv1a={:016x}", frame.len(), fnv1a(frame))
    }
}

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len()).step_by(2).map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap()).collect()
}

fn obj(name: &str) -> ObjectId {
    ObjectId::from_name(name)
}

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len).map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt)).collect()
}

/// Every payload shape the encoder distinguishes, by name.
fn payload_shapes() -> Vec<(&'static str, Payload)> {
    vec![
        ("contiguous", Payload::from_vec(pattern(5, 1))),
        (
            "segmented_small",
            Payload::from_segments(vec![Bytes::from(pattern(3, 2)), Bytes::from(pattern(2, 3))]),
        ),
        (
            "segmented_bulk",
            Payload::from_segments(vec![
                Bytes::from(pattern(7, 4)),
                Bytes::from(pattern(GATHER_MIN_SEGMENT + 3, 5)),
                Bytes::from(pattern(2, 6)),
            ]),
        ),
        ("bulk", Payload::from_vec(pattern(2 * GATHER_MIN_SEGMENT, 7))),
        ("synthetic", Payload::synthetic(1 << 20)),
        ("empty", Payload::from_vec(Vec::new())),
    ]
}

fn dir_ops() -> Vec<(&'static str, DirOp)> {
    let object = obj("op");
    vec![
        (
            "register",
            DirOp::Register {
                object,
                holder: NodeId(1),
                status: ObjectStatus::Complete,
                size: 999,
            },
        ),
        (
            "put_inline",
            DirOp::PutInline {
                object,
                holder: NodeId(2),
                payload: Payload::from_vec(pattern(6, 8)),
            },
        ),
        ("unregister", DirOp::Unregister { object, holder: NodeId(3) }),
        (
            "query",
            DirOp::Query {
                object,
                requester: NodeId(4),
                query_id: 11,
                exclude: vec![NodeId(0), NodeId(9)],
            },
        ),
        ("subscribe", DirOp::Subscribe { object, subscriber: NodeId(5) }),
        ("unsubscribe", DirOp::Unsubscribe { object, subscriber: NodeId(5) }),
        ("transfer_done", DirOp::TransferDone { object, receiver: NodeId(6), sender: NodeId(7) }),
        ("delete", DirOp::Delete { object }),
    ]
}

fn full_snapshot() -> ShardSnapshot {
    ShardSnapshot {
        entries: vec![
            SnapshotEntry {
                object: obj("full"),
                size: Some(4096),
                locations: vec![
                    (NodeId(0), ObjectStatus::Complete, None),
                    (NodeId(2), ObjectStatus::Partial, Some(NodeId(3))),
                ],
                inline: Some(Payload::from_vec(pattern(3, 9))),
                inline_stamp: 17,
                pending: vec![(NodeId(5), 77, vec![NodeId(1), NodeId(2)]), (NodeId(6), 78, vec![])],
                subscribers: vec![NodeId(6), NodeId(7)],
                pulls: vec![(NodeId(3), NodeId(2))],
                deleted: false,
            },
            SnapshotEntry {
                object: obj("tombstone"),
                size: None,
                locations: vec![],
                inline: None,
                inline_stamp: 0,
                pending: vec![],
                subscribers: vec![],
                pulls: vec![],
                deleted: true,
            },
        ],
    }
}

fn instruction(spec: ReduceSpec) -> ReduceInstruction {
    ReduceInstruction {
        target: obj("t"),
        coordinator: NodeId(0),
        slot: 3,
        own_object: obj("s"),
        spec,
        object_size: 1024,
        block_size: 256,
        num_inputs: 3,
        epoch: 5,
        parent: Some(ReduceParent { slot: 5, node: NodeId(2), epoch: 1 }),
        children: vec![(1, NodeId(4), obj("c1")), (2, NodeId(8), obj("c2"))],
        is_root: false,
        total_slots: 6,
    }
}

/// The named messages the fixture pins, in fixture order.
fn golden_messages() -> Vec<(String, Message)> {
    let object = obj("golden");
    let gossip = vec![
        (NodeId(1), 0, GossipState::Alive),
        (NodeId(2), 3, GossipState::Suspect),
        (NodeId(3), u64::MAX, GossipState::Dead),
    ];
    let mut cases: Vec<(String, Message)> = Vec::new();
    let mut case = |name: &str, msg: Message| cases.push((name.to_string(), msg));

    for (shape, payload) in payload_shapes() {
        case(
            &format!("push_block_{shape}"),
            Message::PushBlock {
                object,
                offset: 12345,
                total_size: 1 << 40,
                payload: payload.clone(),
                complete: shape == "contiguous",
            },
        );
        case(
            &format!("reduce_block_{shape}"),
            Message::ReduceBlock {
                target: object,
                to_slot: 3,
                from_slot: 9,
                parent_epoch: 2,
                block_index: 7,
                object_size: 4096,
                payload: payload.clone(),
            },
        );
        case(
            &format!("dir_put_inline_{shape}"),
            Message::DirPutInline { object, holder: NodeId(3), payload: payload.clone() },
        );
        case(
            &format!("dir_query_reply_inline_{shape}"),
            Message::DirQueryReply {
                object,
                query_id: 9,
                result: QueryResult::Inline { payload: payload.clone() },
            },
        );
        case(
            &format!("dir_replicate_put_inline_{shape}"),
            Message::DirReplicate {
                shard: 6,
                epoch: 1,
                seq: 2,
                op: DirOp::PutInline { object, holder: NodeId(2), payload: payload.clone() },
            },
        );
        case(
            &format!("dir_snapshot_chunk_inline_{shape}"),
            Message::DirSnapshotChunk {
                shard: 4,
                epoch: 2,
                seq: 30,
                rank: 1,
                done: shape == "empty",
                state: ShardSnapshot {
                    entries: vec![SnapshotEntry {
                        object,
                        size: Some(payload.len()),
                        inline: Some(payload),
                        inline_stamp: 3,
                        ..SnapshotEntry::default()
                    }],
                },
            },
        );
    }

    case(
        "dir_register_partial",
        Message::DirRegister {
            object,
            holder: NodeId(0),
            status: ObjectStatus::Partial,
            size: 123,
        },
    );
    case(
        "dir_register_complete",
        Message::DirRegister {
            object,
            holder: NodeId(u32::MAX),
            status: ObjectStatus::Complete,
            size: u64::MAX,
        },
    );
    case("dir_unregister", Message::DirUnregister { object, holder: NodeId(1) });
    case(
        "dir_query",
        Message::DirQuery {
            object,
            requester: NodeId(4),
            query_id: 77,
            exclude: vec![NodeId(1), NodeId(2)],
        },
    );
    case(
        "dir_query_no_excludes",
        Message::DirQuery { object, requester: NodeId(4), query_id: 78, exclude: vec![] },
    );
    case(
        "dir_query_reply_location",
        Message::DirQueryReply {
            object,
            query_id: 10,
            result: QueryResult::Location {
                node: NodeId(5),
                status: ObjectStatus::Complete,
                size: 4096,
            },
        },
    );
    case(
        "dir_query_reply_deleted",
        Message::DirQueryReply { object, query_id: 11, result: QueryResult::Deleted },
    );
    case("dir_subscribe", Message::DirSubscribe { object, subscriber: NodeId(7) });
    case("dir_unsubscribe", Message::DirUnsubscribe { object, subscriber: NodeId(7) });
    case(
        "dir_publish",
        Message::DirPublish {
            object,
            holder: NodeId(2),
            status: ObjectStatus::Complete,
            size: 1 << 30,
        },
    );
    case(
        "dir_transfer_done",
        Message::DirTransferDone { object, receiver: NodeId(8), sender: NodeId(9) },
    );
    case("dir_delete", Message::DirDelete { object });
    case("store_release", Message::StoreRelease { object });
    for (i, (name, op)) in dir_ops().into_iter().enumerate() {
        case(
            &format!("dir_replicate_{name}"),
            Message::DirReplicate { shard: i as u64, epoch: 3, seq: 100 + i as u64, op },
        );
    }
    case("dir_ack", Message::DirAck { shard: 3, epoch: 2, seq: 41 });
    case(
        "dir_snapshot_request_restart",
        Message::DirSnapshotRequest {
            shard: 7,
            requester: NodeId(4),
            restart: true,
            after: None,
            digest: vec![(NodeId(0), 1, true), (NodeId(2), 2, false)],
        },
    );
    case(
        "dir_snapshot_request_resume",
        Message::DirSnapshotRequest {
            shard: 8,
            requester: NodeId(5),
            restart: false,
            after: Some(obj("cursor")),
            digest: vec![],
        },
    );
    case(
        "dir_snapshot_empty",
        Message::DirSnapshot {
            shard: 1,
            epoch: 5,
            seq: 12,
            rank: 1,
            state: ShardSnapshot::default(),
        },
    );
    case(
        "dir_snapshot_full",
        Message::DirSnapshot { shard: 2, epoch: 1, seq: 9, rank: 0, state: full_snapshot() },
    );
    case(
        "dir_snapshot_chunk_full",
        Message::DirSnapshotChunk {
            shard: 2,
            epoch: 1,
            seq: 9,
            rank: 2,
            done: false,
            state: full_snapshot(),
        },
    );
    case(
        "dir_resync_delta_every_op",
        Message::DirResyncDelta {
            shard: 5,
            epoch: 4,
            ops: dir_ops()
                .into_iter()
                .enumerate()
                .map(|(i, (_, op))| (50 + i as u64, op))
                .collect(),
            done: false,
        },
    );
    case(
        "dir_resync_delta_empty_done",
        Message::DirResyncDelta { shard: 5, epoch: 4, ops: vec![], done: true },
    );
    case("dir_resynced", Message::DirResynced { node: NodeId(9), incarnation: 1 });
    case(
        "dir_confirm_location",
        Message::DirConfirm {
            object,
            kind: ConfirmKind::Location { status: ObjectStatus::Partial },
        },
    );
    case("dir_confirm_inline", Message::DirConfirm { object, kind: ConfirmKind::Inline });
    case(
        "dir_confirm_subscription",
        Message::DirConfirm { object, kind: ConfirmKind::Subscription },
    );
    case("pull_request", Message::PullRequest { object, requester: NodeId(1), offset: 512 });
    case("pull_cancel", Message::PullCancel { object, requester: NodeId(1) });
    case(
        "pull_error",
        Message::PullError { object, reason: "object deleted — gelöscht".to_string() },
    );
    case("pull_error_empty_reason", Message::PullError { object, reason: String::new() });
    for op in [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max] {
        for dtype in [DType::F32, DType::F64, DType::I32, DType::I64] {
            case(
                &format!("reduce_instruction_{op:?}_{dtype:?}").to_lowercase(),
                Message::ReduceInstruction(instruction(ReduceSpec { op, dtype })),
            );
        }
    }
    case(
        "reduce_instruction_root",
        Message::ReduceInstruction(ReduceInstruction {
            parent: None,
            children: vec![],
            is_root: true,
            total_slots: 1,
            ..instruction(ReduceSpec::sum_f32())
        }),
    );
    case("reduce_done", Message::ReduceDone { target: object, root: NodeId(3) });
    case("reduce_release", Message::ReduceRelease { target: object });
    case("peer_failure_notice", Message::PeerFailureNotice { node: NodeId(6), incarnation: 2 });
    case("membership_digest_empty", Message::MembershipDigest { entries: vec![] });
    case(
        "membership_digest",
        Message::MembershipDigest { entries: vec![(NodeId(0), 3, true), (NodeId(5), 1, false)] },
    );
    case("hello", Message::Hello { node: NodeId(11), incarnation: 4 });
    case("ping", Message::Ping { origin: NodeId(1), probe_id: 99, gossip: gossip.clone() });
    case("ack_no_gossip", Message::Ack { probe_id: 99, gossip: vec![] });
    case("ack", Message::Ack { probe_id: 100, gossip: gossip.clone() });
    case("ping_req", Message::PingReq { target: NodeId(2), probe_id: 101, gossip });
    cases
}

fn fixture() -> HashMap<&'static str, &'static str> {
    FIXTURE
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split_once(' ').expect("fixture line is `name value`"))
        .collect()
}

#[test]
fn golden_frames_encode_and_decode_exactly() {
    let fixture = fixture();
    let cases = golden_messages();
    assert_eq!(fixture.len(), cases.len(), "fixture and case list must name the same frames");
    let mut tags_seen = [false; 34];
    for (name, msg) in &cases {
        let frame = encode_frame_vectored(msg).unwrap().to_contiguous();
        let got = fixture_line(&frame);
        let want = fixture.get(name.as_str()).unwrap_or_else(|| panic!("no fixture for {name}"));
        assert_eq!(
            &got, want,
            "{name}: wire bytes changed; the encoder now produces\n{name} {got}"
        );
        // Short frames decode from the fixture's own bytes; long ones are pinned by
        // length and hash, which the encoder's output was just checked against.
        let wire = if frame.len() <= HEX_LIMIT { unhex(want) } else { frame };
        assert_eq!(u32::from_be_bytes(wire[..4].try_into().unwrap()) as usize, wire.len() - 4);
        tags_seen[wire[4] as usize] = true;
        let decoded = decode_body(&Bytes::from(wire[4..].to_vec())).unwrap();
        assert_eq!(&decoded, msg, "{name}: decode(fixture) != message");
    }
    let missing: Vec<usize> = (1..=33).filter(|&t| !tags_seen[t]).collect();
    assert!(missing.is_empty(), "tags without a golden frame: {missing:?}");
}

/// The same frames as one byte stream through the receive path proper.
#[test]
fn golden_stream_decodes_through_the_frame_reader() {
    let cases = golden_messages();
    let mut stream = Vec::new();
    for (_, msg) in &cases {
        stream.extend_from_slice(&encode_frame_vectored(msg).unwrap().to_contiguous());
    }
    let mut reader = FrameReader::with_slab_len(std::io::Cursor::new(stream), 1 << 16);
    for (name, msg) in &cases {
        assert_eq!(&reader.read_message().unwrap(), msg, "{name}");
    }
    assert_eq!(reader.read_message().unwrap_err().kind(), std::io::ErrorKind::UnexpectedEof);
}
