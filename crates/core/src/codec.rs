//! The frame codec of the socket transport: [`NetMsg`] and the fabric's
//! control frames, over the `borealis-types` wire primitives.
//!
//! Every frame is `[len:u32][from:u32][to:u32][kind:u8][payload]` (little
//! endian, `len` counting everything after itself — see
//! [`borealis_types::wire`] for the header and tuple layouts). The `kind`
//! byte and the payload are the message's own [`Wire`] encoding: the ten
//! `NetMsg` kinds (`0x00`–`0x09`) are declared once, with their fields in
//! order, by the `wire_enum!` beside [`NetMsg`] in `msg.rs`, and the
//! fabric's three control frames (`0xE0` `CreditGrant`, `0xE1` `Hello`,
//! `0xE3` `Goodbye`) by [`WireMsg`]'s impl below. `0xE2` (a credit-stall
//! report; the stall now rides `HeartbeatResp`) is retired: like any
//! unknown kind it decodes as `WireError::BadTag`.
//!
//! `Data` encodes **straight from the `Arc`'d batch view** into the
//! caller's reusable write buffer — no intermediate message buffer, no
//! per-tuple allocation.
//!
//! Decoding rejects truncated or corrupted frames with a [`WireError`]; it
//! never panics on foreign bytes.

use crate::msg::NetMsg;
use borealis_types::wire::{begin_frame, end_frame, split_frame, Reader, Wire};
use borealis_types::{NodeId, WireError};

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

const CREDIT_GRANT: u8 = 0xE0;
const HELLO: u8 = 0xE1;
const GOODBYE: u8 = 0xE3;

/// A `Net` frame is its message's encoding; a control frame is its kind
/// byte, then its fields.
impl Wire for WireMsg {
    const MIN_LEN: usize = 1;
    fn put(&self, buf: &mut Vec<u8>) {
        match self {
            WireMsg::Net(msg) => msg.put(buf),
            WireMsg::CreditGrant => buf.push(CREDIT_GRANT),
            WireMsg::Hello { proc } => {
                buf.push(HELLO);
                proc.put(buf);
            }
            WireMsg::Goodbye => buf.push(GOODBYE),
        }
    }
    /// `NetMsg`'s decoder reads the kind byte. A kind it has no variant
    /// for comes back as its `BadTag`, with the cursor just past that byte:
    /// one of the control kinds, or foreign.
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let kind = |tag| WireError::BadTag {
            what: "frame kind",
            tag,
        };
        Ok(match NetMsg::get(r) {
            Ok(msg) => WireMsg::Net(msg),
            Err(e) if e == kind(CREDIT_GRANT) => WireMsg::CreditGrant,
            Err(e) if e == kind(HELLO) => WireMsg::Hello {
                proc: Wire::get(r)?,
            },
            Err(e) if e == kind(GOODBYE) => WireMsg::Goodbye,
            Err(e) => return Err(e),
        })
    }
}

/// Encodes one frame onto `buf` (the per-connection reusable write
/// buffer) and returns the number of bytes appended.
pub fn encode_frame(buf: &mut Vec<u8>, from: NodeId, to: NodeId, msg: &WireMsg) -> usize {
    let mark = begin_frame(buf, from, to);
    msg.put(buf);
    end_frame(buf, mark);
    buf.len() - mark
}

/// Splits and decodes the next complete frame off a receive buffer.
///
/// `Ok(None)` means more bytes are needed; on success the result carries
/// the header's link endpoints, the decoded message, and the total bytes
/// to drain from the buffer.
#[allow(clippy::type_complexity)]
pub fn decode_frame(bytes: &[u8]) -> Result<Option<(NodeId, NodeId, WireMsg, usize)>, WireError> {
    let Some((from, to, body, consumed)) = split_frame(bytes)? else {
        return Ok(None);
    };
    let mut reader = Reader::new(body);
    let msg = WireMsg::get(&mut reader)?;
    reader.finish()?;
    Ok(Some((from, to, msg, consumed)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{NodeState, Resume};
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
                resume: [Resume::Replay, Resume::Undo, Resume::FreshOnly][rng.gen_range(0..3usize)],
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

    /// A whole frame: the header, then `body` as the kind byte and payload.
    fn raw_frame(body: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        let mark = borealis_types::wire::begin_frame(&mut buf, NodeId(1), NodeId(2));
        buf.extend_from_slice(body);
        borealis_types::wire::end_frame(&mut buf, mark);
        buf
    }

    /// The retired stall-report kind is rejected like any unassigned one,
    /// never reinterpreted.
    #[test]
    fn retired_and_unknown_kinds_are_bad_tags() {
        for tag in [0x0A, 0xE2, 0xE4, 0xFF] {
            let mut body = vec![tag];
            body.extend_from_slice(&125_000u64.to_le_bytes());
            let got = decode_frame(&raw_frame(&body));
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
        let mut body = vec![0x04]; // HeartbeatReq has no payload
        borealis_types::wire::put_u32(&mut body, 99);
        assert!(matches!(
            decode_frame(&raw_frame(&body)),
            Err(WireError::Trailing(4))
        ));
    }

    /// Each `Resume` is the byte the two flags it replaced made
    /// (`saw_tentative` bit 0, `fresh_only` bit 1), so no frame moved.
    #[test]
    fn resume_is_the_old_flag_byte() {
        let subscribe = |resume| {
            let msg = NetMsg::Subscribe {
                stream: StreamId(7),
                last_stable: TupleId(41),
                resume,
            };
            encode_one(NodeId(1), NodeId(2), &WireMsg::Net(msg))
        };
        for (resume, byte) in [
            (Resume::Replay, 0),
            (Resume::Undo, 1),
            (Resume::FreshOnly, 2),
        ] {
            let bytes = subscribe(resume);
            assert_eq!(bytes.len(), 26);
            assert_eq!((bytes[12], bytes[25]), (0x01, byte), "{resume:?}");
        }
        // Both old flags set — which the publisher served as fresh-only —
        // is no longer a subscription.
        let mut both = subscribe(Resume::Replay);
        both[25] = 3;
        assert_eq!(
            decode_frame(&both).unwrap_err(),
            WireError::BadTag {
                what: "resume",
                tag: 3
            }
        );
    }

    /// The receive path drains a buffer the way the socket reader does:
    /// decode at the front, drain what a frame consumed, wait on `Ok(None)`
    /// for more bytes, give up on an error. Several valid frames back to
    /// back (one of them twice) decode to exactly those frames, in order.
    /// With a second frame spliced into the first at any offset, every call
    /// returns `Ok(None)`, a typed error or a frame, never panics, and a
    /// frame is exactly its bytes: it re-encodes to what it consumed. A
    /// splice at a frame boundary yields only input frames. Inside one,
    /// a frame carries no checksum, so a splice that lands in its trailing
    /// fixed-width bytes can read as a different well-formed frame of the
    /// same length (23 of the 3,036 splices here): framing catches
    /// misalignment, not corruption, which the reliable, in-order socket
    /// rules out below it.
    #[test]
    fn reassembly_yields_whole_frames_or_typed_errors() {
        let mut rng = StdRng::seed_from_u64(0x5EA3);
        let net = |v, rng: &mut StdRng| WireMsg::Net(random_net_msg(v, rng));
        let mut frames: Vec<Vec<u8>> = (0..10)
            .map(|v| encode_one(NodeId(1), NodeId(2), &net(v, &mut rng)))
            .collect();
        for control in [WireMsg::CreditGrant, WireMsg::Hello { proc: 4 }] {
            frames.push(encode_one(NodeId(2), NodeId(1), &control));
        }
        frames.push(frames[0].clone());
        let drain = |buf: &[u8]| {
            let (mut used, mut got) = (0, Vec::new());
            loop {
                match decode_frame(&buf[used..]) {
                    Ok(Some((from, to, msg, len))) => {
                        let bytes = &buf[used..used + len];
                        assert_eq!(encode_one(from, to, &msg), bytes, "not its bytes");
                        got.push(bytes.to_vec());
                        used += len;
                    }
                    Ok(None) => return (got, Ok(used)),
                    Err(e) => return (got, Err(e)),
                }
            }
        };
        let stream = frames.concat();
        let (got, end) = drain(&stream);
        assert_eq!(got, frames);
        assert_eq!(end, Ok(stream.len()));
        let (mut splices, mut foreign) = (0, 0);
        for second in 1..frames.len() {
            for at in 0..=frames[0].len() {
                let mut spliced = frames[0][..at].to_vec();
                spliced.extend_from_slice(&frames[second]);
                spliced.extend_from_slice(&frames[0][at..]);
                spliced.extend(frames[1..].concat());
                let (got, _) = drain(&spliced);
                let whole = got.iter().all(|f| frames.contains(f));
                assert!(
                    whole || (0 < at && at < frames[0].len()),
                    "{second} at {at}"
                );
                splices += 1;
                foreign += usize::from(!whole);
            }
        }
        assert!(foreign * 100 < splices, "{foreign} of {splices} splices");
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
