//! The frame codec of the socket transport: [`NetMsg`] and the fabric's
//! control frames, over the `borealis-types` wire primitives.
//!
//! Every frame is `[len:u32][from:u32][to:u32][kind:u8][payload]` (little
//! endian, `len` counting everything after itself — see
//! [`borealis_types::wire`] for the header and tuple layouts). The `kind`
//! byte selects the payload codec:
//!
//! | kind | frame | payload |
//! |---|---|---|
//! | `0x00` | `Data` | `stream:u32 batch` |
//! | `0x01` | `Subscribe` | `stream:u32 last_stable:u64 flags:u8` (bit 0 `saw_tentative`, bit 1 `fresh_only`) |
//! | `0x02` | `Unsubscribe` | `stream:u32` |
//! | `0x03` | `Ack` | `stream:u32 through:u64` |
//! | `0x04` | `HeartbeatReq` | empty |
//! | `0x05` | `HeartbeatResp` | `node_state:u8 count:u32 (stream:u32 state:u8)* stalled:u64` (µs) |
//! | `0x06`–`0x09` | `Reconcile{Request,Grant,Reject,Done}` | empty |
//! | `0xE0` | `CreditGrant` | empty (the link is the header's `from`/`to`) |
//! | `0xE1` | `Hello` | `proc:u32` |
//! | `0xE3` | `Goodbye` | empty |
//!
//! `0xE2` (a credit-stall report; the stall now rides `HeartbeatResp`) is
//! retired: like any unknown kind it decodes as `WireError::BadTag`.
//!
//! `Data` encodes **straight from the `Arc`'d batch view** into the
//! caller's reusable write buffer — no intermediate message buffer, no
//! per-tuple allocation. Node states are `Stable=0`, `UpFailure=1`,
//! `Stabilization=2`, `Failed=3`.
//!
//! Decoding rejects truncated or corrupted frames with a [`WireError`]; it
//! never panics on foreign bytes.

use crate::msg::NetMsg;
use borealis_types::wire::{begin_frame, end_frame, split_frame, Reader, Wire};
use borealis_types::{NodeId, WireError};

/// Frame kind bytes (the `NetMsg` range).
mod kind {
    pub const DATA: u8 = 0x00;
    pub const SUBSCRIBE: u8 = 0x01;
    pub const UNSUBSCRIBE: u8 = 0x02;
    pub const ACK: u8 = 0x03;
    pub const HEARTBEAT_REQ: u8 = 0x04;
    pub const HEARTBEAT_RESP: u8 = 0x05;
    pub const RECONCILE_REQUEST: u8 = 0x06;
    pub const RECONCILE_GRANT: u8 = 0x07;
    pub const RECONCILE_REJECT: u8 = 0x08;
    pub const RECONCILE_DONE: u8 = 0x09;
    pub const CREDIT_GRANT: u8 = 0xE0;
    pub const HELLO: u8 = 0xE1;
    pub const GOODBYE: u8 = 0xE3;
}

/// One decoded frame: either an actor-level protocol message or one of
/// the fabric's own control frames (which never reach a mailbox).
#[derive(Debug, Clone)]
pub enum WireMsg {
    /// An actor-to-actor protocol message for the header's `to` mailbox.
    Net(NetMsg),
    /// The receiver consumed a credit-controlled delivery on the header's
    /// `from → to` link: return one credit (the wire form of the
    /// in-process `Replenish` path).
    CreditGrant,
    /// Connection handshake: the dialing process identifies itself.
    Hello {
        /// Index of the dialing process in the deployment's process plan.
        proc: u32,
    },
    /// Clean shutdown: the peer is exiting on purpose, so the connection
    /// closing is not a crash.
    Goodbye,
}

impl WireMsg {
    fn kind(&self) -> u8 {
        match self {
            WireMsg::Net(NetMsg::Data { .. }) => kind::DATA,
            WireMsg::Net(NetMsg::Subscribe { .. }) => kind::SUBSCRIBE,
            WireMsg::Net(NetMsg::Unsubscribe { .. }) => kind::UNSUBSCRIBE,
            WireMsg::Net(NetMsg::Ack { .. }) => kind::ACK,
            WireMsg::Net(NetMsg::HeartbeatReq) => kind::HEARTBEAT_REQ,
            WireMsg::Net(NetMsg::HeartbeatResp { .. }) => kind::HEARTBEAT_RESP,
            WireMsg::Net(NetMsg::ReconcileRequest) => kind::RECONCILE_REQUEST,
            WireMsg::Net(NetMsg::ReconcileGrant) => kind::RECONCILE_GRANT,
            WireMsg::Net(NetMsg::ReconcileReject) => kind::RECONCILE_REJECT,
            WireMsg::Net(NetMsg::ReconcileDone) => kind::RECONCILE_DONE,
            WireMsg::CreditGrant => kind::CREDIT_GRANT,
            WireMsg::Hello { .. } => kind::HELLO,
            WireMsg::Goodbye => kind::GOODBYE,
        }
    }

    /// The payload: the variant's fields in declaration order, each in its
    /// own [`Wire`] format (`decode_payload` reads them back the same way).
    fn put_payload(&self, buf: &mut Vec<u8>) {
        match self {
            // `tuples` is encoded straight from the view's slice into the
            // write buffer: no intermediate batch on the send path.
            WireMsg::Net(NetMsg::Data { stream, tuples }) => {
                stream.put(buf);
                tuples.put(buf);
            }
            WireMsg::Net(NetMsg::Subscribe {
                stream,
                last_stable,
                saw_tentative,
                fresh_only,
            }) => {
                stream.put(buf);
                last_stable.put(buf);
                buf.push((*saw_tentative as u8) | ((*fresh_only as u8) << 1));
            }
            WireMsg::Net(NetMsg::Unsubscribe { stream }) => stream.put(buf),
            WireMsg::Net(NetMsg::Ack { stream, through }) => {
                stream.put(buf);
                through.put(buf);
            }
            WireMsg::Net(NetMsg::HeartbeatResp {
                node_state,
                stream_states,
                stalled,
            }) => {
                node_state.put(buf);
                stream_states.put(buf);
                stalled.put(buf);
            }
            WireMsg::Hello { proc } => proc.put(buf),
            _ => {}
        }
    }
}

/// Encodes one frame onto `buf` (the per-connection reusable write
/// buffer) and returns the number of bytes appended.
pub fn encode_frame(buf: &mut Vec<u8>, from: NodeId, to: NodeId, msg: &WireMsg) -> usize {
    let mark = begin_frame(buf, from, to, msg.kind());
    msg.put_payload(buf);
    end_frame(buf, mark);
    buf.len() - mark
}

/// Decodes a frame payload given its header `kind` byte.
pub fn decode_payload(kind_byte: u8, payload: &[u8]) -> Result<WireMsg, WireError> {
    let mut reader = Reader::new(payload);
    let r = &mut reader;
    let msg = match kind_byte {
        // The receiver sees one contiguous batch regardless of how
        // fragmented the sender's selection was.
        kind::DATA => WireMsg::Net(NetMsg::Data {
            stream: Wire::get(r)?,
            tuples: Wire::get(r)?,
        }),
        kind::SUBSCRIBE => {
            let (stream, last_stable, flags) = <(_, _, u8)>::get(r)?;
            if flags & !0b11 != 0 {
                return Err(WireError::BadTag {
                    what: "subscribe flags",
                    tag: flags,
                });
            }
            WireMsg::Net(NetMsg::Subscribe {
                stream,
                last_stable,
                saw_tentative: flags & 0b01 != 0,
                fresh_only: flags & 0b10 != 0,
            })
        }
        kind::UNSUBSCRIBE => WireMsg::Net(NetMsg::Unsubscribe {
            stream: Wire::get(r)?,
        }),
        kind::ACK => WireMsg::Net(NetMsg::Ack {
            stream: Wire::get(r)?,
            through: Wire::get(r)?,
        }),
        kind::HEARTBEAT_REQ => WireMsg::Net(NetMsg::HeartbeatReq),
        kind::HEARTBEAT_RESP => WireMsg::Net(NetMsg::HeartbeatResp {
            node_state: Wire::get(r)?,
            stream_states: Wire::get(r)?,
            stalled: Wire::get(r)?,
        }),
        kind::RECONCILE_REQUEST => WireMsg::Net(NetMsg::ReconcileRequest),
        kind::RECONCILE_GRANT => WireMsg::Net(NetMsg::ReconcileGrant),
        kind::RECONCILE_REJECT => WireMsg::Net(NetMsg::ReconcileReject),
        kind::RECONCILE_DONE => WireMsg::Net(NetMsg::ReconcileDone),
        kind::CREDIT_GRANT => WireMsg::CreditGrant,
        kind::HELLO => WireMsg::Hello {
            proc: Wire::get(r)?,
        },
        kind::GOODBYE => WireMsg::Goodbye,
        tag => {
            return Err(WireError::BadTag {
                what: "frame kind",
                tag,
            })
        }
    };
    reader.finish()?;
    Ok(msg)
}

/// Splits and decodes the next complete frame off a receive buffer.
///
/// `Ok(None)` means more bytes are needed; on success the result carries
/// the header's link endpoints, the decoded message, and the total bytes
/// to drain from the buffer.
#[allow(clippy::type_complexity)]
pub fn decode_frame(bytes: &[u8]) -> Result<Option<(NodeId, NodeId, WireMsg, usize)>, WireError> {
    match split_frame(bytes)? {
        None => Ok(None),
        Some((from, to, kind_byte, payload, consumed)) => {
            let msg = decode_payload(kind_byte, payload)?;
            Ok(Some((from, to, msg, consumed)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::NodeState;
    use borealis_types::{Duration, StreamId, Time, Tuple, TupleBatch, TupleId, Value};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_value(rng: &mut StdRng) -> Value {
        match rng.gen_range(0..4u32) {
            0 => Value::Int(rng.next_u64() as i64),
            1 => Value::Float(f64::from_bits(rng.next_u64())),
            2 => Value::Bool(rng.next_u64() & 1 == 1),
            _ => {
                let len = rng.gen_range(0..12usize);
                let s: String = (0..len)
                    .map(|_| char::from(rng.gen_range(32..127u32) as u8))
                    .collect();
                Value::str(s)
            }
        }
    }

    fn random_tuple(rng: &mut StdRng) -> Tuple {
        let id = TupleId(rng.gen_range(0..1_000_000u64));
        let stime = Time(rng.gen_range(0..u64::MAX / 2));
        match rng.gen_range(0..5u32) {
            0 | 1 => {
                let n = rng.gen_range(0..5usize);
                let values: Vec<Value> = (0..n).map(|_| random_value(rng)).collect();
                let mut t = if rng.next_u64() & 1 == 0 {
                    Tuple::insertion(id, stime, values)
                } else {
                    Tuple::tentative(id, stime, values)
                };
                t.origin = rng.gen_range(0..4u64) as u16;
                t
            }
            2 => Tuple::boundary(id, stime),
            3 => Tuple::undo(id, TupleId(rng.gen_range(0..1_000u64))),
            _ => Tuple::rec_done(id, stime),
        }
    }

    /// A random batch, sometimes a strict sub-view of a larger backing
    /// allocation (as produced by shard filters and ack truncation).
    fn random_batch(rng: &mut StdRng) -> TupleBatch {
        let n = rng.gen_range(0..20usize);
        let tuples: Vec<Tuple> = (0..n).map(|_| random_tuple(rng)).collect();
        let full = TupleBatch::from_vec(tuples);
        if n >= 4 && rng.next_u64() & 1 == 0 {
            let start = rng.gen_range(0..n / 2);
            let end = rng.gen_range(start + 1..n + 1);
            full.slice(start..end)
        } else {
            full
        }
    }

    fn random_state(rng: &mut StdRng) -> NodeState {
        match rng.gen_range(0..4u32) {
            0 => NodeState::Stable,
            1 => NodeState::UpFailure,
            2 => NodeState::Stabilization,
            _ => NodeState::Failed,
        }
    }

    fn random_net_msg(variant: u32, rng: &mut StdRng) -> NetMsg {
        match variant {
            0 => NetMsg::Data {
                stream: StreamId(rng.gen_range(0..64u32)),
                tuples: random_batch(rng).into(),
            },
            1 => NetMsg::Subscribe {
                stream: StreamId(rng.gen_range(0..64u32)),
                last_stable: TupleId(rng.gen_range(0..100_000u64)),
                saw_tentative: rng.next_u64() & 1 == 1,
                fresh_only: rng.next_u64() & 1 == 1,
            },
            2 => NetMsg::Unsubscribe {
                stream: StreamId(rng.gen_range(0..64u32)),
            },
            3 => NetMsg::Ack {
                stream: StreamId(rng.gen_range(0..64u32)),
                through: TupleId(rng.gen_range(0..100_000u64)),
            },
            4 => NetMsg::HeartbeatReq,
            5 => {
                let n = rng.gen_range(0..6usize);
                NetMsg::HeartbeatResp {
                    node_state: random_state(rng),
                    stream_states: (0..n)
                        .map(|_| (StreamId(rng.gen_range(0..64u32)), random_state(rng)))
                        .collect(),
                    stalled: Duration::from_micros(rng.gen_range(0..u64::MAX)),
                }
            }
            6 => NetMsg::ReconcileRequest,
            7 => NetMsg::ReconcileGrant,
            8 => NetMsg::ReconcileReject,
            _ => NetMsg::ReconcileDone,
        }
    }

    fn encode_one(from: NodeId, to: NodeId, msg: &WireMsg) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_frame(&mut buf, from, to, msg);
        buf
    }

    /// Property: every `NetMsg` variant — over random batch contents,
    /// shard-filtered sub-views, and control tuples — is **byte-identical**
    /// after an encode → decode → re-encode round trip.
    #[test]
    fn every_variant_round_trips_byte_identical() {
        let mut rng = StdRng::seed_from_u64(0xC0DEC);
        for iter in 0..400 {
            let variant = iter % 10;
            let msg = random_net_msg(variant, &mut rng);
            let from = NodeId(rng.gen_range(0..128u32));
            let to = NodeId(rng.gen_range(0..128u32));
            let bytes = encode_one(from, to, &WireMsg::Net(msg.clone()));
            let (dfrom, dto, decoded, consumed) = decode_frame(&bytes)
                .unwrap_or_else(|e| panic!("decode failed on {msg:?}: {e}"))
                .expect("complete frame");
            assert_eq!(consumed, bytes.len());
            assert_eq!((dfrom, dto), (from, to));
            let WireMsg::Net(decoded) = decoded else {
                panic!("decoded a control frame from a NetMsg");
            };
            assert_eq!(
                std::mem::discriminant(&decoded),
                std::mem::discriminant(&msg)
            );
            let re = encode_one(dfrom, dto, &WireMsg::Net(decoded));
            assert_eq!(re, bytes, "re-encode differs for {msg:?}");
        }
    }

    #[test]
    fn control_frames_round_trip() {
        let cases = [
            WireMsg::CreditGrant,
            WireMsg::Hello { proc: 3 },
            WireMsg::Goodbye,
        ];
        for msg in &cases {
            let bytes = encode_one(NodeId(1), NodeId(2), msg);
            let (from, to, decoded, consumed) = decode_frame(&bytes).unwrap().unwrap();
            assert_eq!((from, to, consumed), (NodeId(1), NodeId(2), bytes.len()));
            match (msg, &decoded) {
                (WireMsg::CreditGrant, WireMsg::CreditGrant) => {}
                (WireMsg::Goodbye, WireMsg::Goodbye) => {}
                (WireMsg::Hello { proc: a }, WireMsg::Hello { proc: b }) => assert_eq!(a, b),
                other => panic!("mismatched round trip: {other:?}"),
            }
        }
    }

    /// Property: decode rejects every truncation of a valid frame (by
    /// reporting "incomplete" on a short prefix after shrinking the length
    /// field, or an error) and never panics.
    #[test]
    fn truncated_frames_reject_without_panic() {
        let mut rng = StdRng::seed_from_u64(0xBAD);
        for variant in 0..10 {
            let msg = random_net_msg(variant, &mut rng);
            let bytes = encode_one(NodeId(5), NodeId(6), &WireMsg::Net(msg));
            for cut in 0..bytes.len() {
                // A plain prefix is indistinguishable from "not yet
                // arrived": must be Ok(None), never a panic.
                assert!(matches!(decode_frame(&bytes[..cut]), Ok(None)));
                // Lying length prefix: claim the truncated size is the
                // whole frame. Must error (or, for cuts inside the
                // header, keep waiting) — never panic.
                if cut >= 13 {
                    let mut lying = bytes[..cut].to_vec();
                    lying[..4].copy_from_slice(&((cut - 4) as u32).to_le_bytes());
                    assert!(
                        decode_frame(&lying).is_err(),
                        "lying length accepted at cut {cut}"
                    );
                }
            }
        }
    }

    /// Property: corrupting any single byte of the payload either still
    /// decodes (the mutation hit a don't-care bit) or errors — it never
    /// panics and never reads out of bounds.
    #[test]
    fn corrupted_payloads_never_panic() {
        let mut rng = StdRng::seed_from_u64(0xC0_FFEE);
        for variant in 0..10 {
            let msg = random_net_msg(variant, &mut rng);
            let bytes = encode_one(NodeId(1), NodeId(2), &WireMsg::Net(msg));
            for pos in 12..bytes.len() {
                for flip in [0x01u8, 0x80, 0xFF] {
                    let mut corrupt = bytes.clone();
                    corrupt[pos] ^= flip;
                    let _ = decode_frame(&corrupt); // must return, not panic
                }
            }
        }
    }

    /// The retired stall-report kind is rejected like any unassigned one,
    /// never reinterpreted.
    #[test]
    fn retired_and_unknown_kinds_are_bad_tags() {
        for tag in [0x0A, 0xE2, 0xE4, 0xFF] {
            let got = decode_payload(tag, &125_000u64.to_le_bytes());
            assert!(
                matches!(got, Err(WireError::BadTag { tag: t, .. }) if t == tag),
                "{tag:#x}"
            );
        }
    }

    #[test]
    fn oversized_length_prefix_is_corruption() {
        let mut bytes = encode_one(NodeId(1), NodeId(2), &WireMsg::CreditGrant);
        bytes[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_frame(&bytes), Err(WireError::BadLength(_))));
    }

    #[test]
    fn trailing_garbage_in_payload_is_rejected() {
        let mut buf = Vec::new();
        let mark = borealis_types::wire::begin_frame(&mut buf, NodeId(1), NodeId(2), 0x04);
        borealis_types::wire::put_u32(&mut buf, 99); // HeartbeatReq has no payload
        borealis_types::wire::end_frame(&mut buf, mark);
        assert!(matches!(decode_frame(&buf), Err(WireError::Trailing(4))));
    }

    #[test]
    fn data_frame_encodes_the_view_not_the_backing() {
        let tuples: Vec<Tuple> = (0..8)
            .map(|i| Tuple::insertion(TupleId(i), Time::from_millis(i), vec![Value::Int(i as i64)]))
            .collect();
        let full = TupleBatch::from_vec(tuples);
        let view = full.slice(2..5);
        let full_bytes = encode_one(
            NodeId(0),
            NodeId(1),
            &WireMsg::Net(NetMsg::Data {
                stream: StreamId(7),
                tuples: full.into(),
            }),
        );
        let view_bytes = encode_one(
            NodeId(0),
            NodeId(1),
            &WireMsg::Net(NetMsg::Data {
                stream: StreamId(7),
                tuples: view.clone().into(),
            }),
        );
        assert!(view_bytes.len() < full_bytes.len());
        let (_, _, decoded, _) = decode_frame(&view_bytes).unwrap().unwrap();
        let WireMsg::Net(NetMsg::Data { tuples, .. }) = decoded else {
            panic!("expected Data");
        };
        let got = tuples.to_batch();
        assert_eq!(got.as_slice(), view.as_slice());
        assert!(!got.shares_backing(&view), "decode rebuilds its own arc");
    }
}
