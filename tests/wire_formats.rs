//! Every byte format this tree writes to a socket or a disk, pinned and
//! attacked.
//!
//! [`formats`] encodes one fixed value of each format through the public
//! entry points only (`encode_frame`, an operator's `SnapshotCodec`,
//! `NodeDisk`), so the same file runs on any commit:
//!
//! * `wire_formats_are_pinned` compares an FNV-1a digest of each encoding
//!   with the one captured when the formats were last changed on purpose —
//!   a refactor of the codecs must leave every byte where it was;
//! * `decode_never_panics_or_overallocates` feeds every strict prefix and
//!   2 000 seeded single-byte mutations of each encoding back through the
//!   matching decoder and demands `Ok` or a typed error, with no single
//!   allocation out of proportion to the input;
//! * `decoded_one_attribute_tuples_cost_no_allocation_each` counts what
//!   decoding a `Data` frame costs: a per-frame constant for one-attribute
//!   tuples (held inline), one allocation more per wider tuple.

use borealis::diagram::FragmentPlan;
use borealis::dpc::{
    decode_frame, encode_frame, ActorSpec, DurabilityConfig, NetMsg, NodeDisk, NodeState, Resume,
    WireMsg,
};
use borealis::engine::Fragment;
use borealis::ops::{AggFn, AggregateSpec, DelayMode, OperatorSpec, SJoinSpec, SUnionConfig};
use borealis::types::wire::{put_tuple, Reader};
use borealis::types::{
    BatchView, Duration, Expr, NodeId, Payload, StreamId, Time, Tuple, TupleBatch, TupleId,
    TupleKind, Value,
};
use borealis_workloads::{sharded_chain_builder, ShardedChainOptions};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::fs;
use std::path::{Path, PathBuf};

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

/// How the bytes of one format are decoded again.
enum Decoder {
    /// `decode_frame`: `split_frame`, then the body's one declaration
    /// (`NetMsg`'s `wire_enum!`, or a control frame of `WireMsg`).
    Frame,
    /// `Reader::tuple`, whose fixed header is read with one bounds check.
    Tuple,
    /// The `SnapshotCodec` of an operator instantiated from this spec.
    Snapshot(OperatorSpec),
    /// A checkpoint record: snapshot header, then the fragment's operators,
    /// framed as the log's first record.
    Checkpoint,
    /// A checkpoint payload, published as a record of its own: what the
    /// checkpoint record's checksum keeps mutations away from.
    Payload,
    /// An input record, behind the checkpoint record.
    Log,
}

struct Format {
    name: &'static str,
    bytes: Vec<u8>,
    decoder: Decoder,
}

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A data tuple with one attribute of every value type.
fn row(id: u64, ms: u64, origin: u16) -> Tuple {
    let mut t = Tuple::insertion(
        TupleId(id),
        Time::from_millis(ms),
        vec![
            Value::Int(id as i64 - 3),
            Value::Float(id as f64 / 4.0),
            Value::str(["ash", "elm"][id as usize % 2]),
            Value::Bool(id.is_multiple_of(3)),
        ],
    );
    t.origin = origin;
    t
}

fn tentative(id: u64, ms: u64, origin: u16) -> Tuple {
    Tuple {
        kind: TupleKind::Tentative,
        ..row(id, ms, origin)
    }
}

fn boundary(ms: u64) -> Tuple {
    Tuple::boundary(TupleId::NONE, Time::from_millis(ms))
}

/// Stable, tentative, boundary, UNDO and an empty payload in one
/// contiguous view.
fn mixed_view() -> BatchView {
    BatchView::whole(TupleBatch::from_vec(vec![
        row(1, 10, 0),
        row(2, 20, 0),
        tentative(4, 40, 1),
        boundary(50),
        Tuple::undo(TupleId(6), TupleId(2)),
        Tuple::insertion(TupleId(8), Time::from_millis(70), Vec::<Value>::new()),
    ]))
}

fn frame(name: &'static str, msg: WireMsg) -> Format {
    let mut bytes = Vec::new();
    encode_frame(&mut bytes, NodeId(3), NodeId(0x0102_0304), &msg);
    Format {
        name,
        bytes,
        decoder: Decoder::Frame,
    }
}

/// The encoded checkpoint of an operator built from `spec` and fed `feed`.
fn snapshot(name: &'static str, spec: OperatorSpec, feed: Vec<(usize, TupleBatch)>) -> Format {
    let mut op = spec.instantiate();
    let mut out = borealis::ops::BatchEmitter::new();
    for (port, batch) in &feed {
        op.process_batch(*port, batch, Time::from_millis(200), &mut out);
    }
    let mut bytes = Vec::new();
    (op.snapshot_codec().encode)(&op.checkpoint(), &mut bytes);
    Format {
        name,
        bytes,
        decoder: Decoder::Snapshot(spec),
    }
}

fn operator_snapshots() -> Vec<Format> {
    // Two ports, two buckets, one bucket holding three segments (one of
    // them a sub-view of its arrival batch, one out of stime order), a
    // boundary on one port only and tentative input on the other.
    let arrival = TupleBatch::from_vec(vec![
        row(1, 5, 0),
        row(2, 10, 0),
        row(3, 20, 0),
        row(4, 130, 0),
    ]);
    let sunion = snapshot(
        "snapshot sunion",
        OperatorSpec::SUnion(SUnionConfig {
            n_inputs: 2,
            bucket: Duration::from_millis(100),
            detect_delay: Duration::from_secs(2),
            delay_budget: Duration::from_secs(1),
            failure_mode: DelayMode::Delay,
            stabilization_mode: DelayMode::Process,
            is_input: true,
        }),
        vec![
            (0, arrival.slice(1..4)),
            (1, TupleBatch::from_vec(vec![row(5, 15, 0), row(7, 8, 0)])),
            (0, TupleBatch::single(boundary(100))),
            (1, TupleBatch::single(tentative(6, 60, 0))),
        ],
    );
    // One column per `Accum` variant (the float sum is a promoted integer
    // sum), two groups, one window closed by the boundary and two open.
    let aggregate = snapshot(
        "snapshot aggregate",
        OperatorSpec::Aggregate(AggregateSpec {
            window: Duration::from_millis(100),
            slide: Duration::from_millis(100),
            group_by: vec![Expr::field(2)],
            aggs: vec![
                AggFn::count(),
                AggFn::sum(Expr::field(0)),
                AggFn::sum(Expr::field(1)),
                AggFn::avg(Expr::field(0)),
                AggFn::min(Expr::field(2)),
                AggFn::max(Expr::field(1)),
            ],
        }),
        vec![(
            0,
            TupleBatch::from_vec(vec![
                row(1, 10, 0),
                boundary(100),
                row(2, 110, 0),
                row(3, 120, 0),
                row(4, 130, 0),
                row(5, 210, 0),
            ]),
        )],
    );
    let sjoin = snapshot(
        "snapshot sjoin",
        OperatorSpec::SJoin(SJoinSpec {
            window: Duration::from_millis(500),
            left_key: Expr::field(2),
            right_key: Expr::field(2),
            max_state: Some(64),
            left_split: 1,
        }),
        vec![(
            0,
            TupleBatch::from_vec(vec![
                row(1, 10, 0),
                row(2, 20, 1),
                row(3, 30, 0),
                row(4, 40, 1),
            ]),
        )],
    );
    let union = snapshot(
        "snapshot union",
        OperatorSpec::Union { n_inputs: 3 },
        vec![
            (0, TupleBatch::from_vec(vec![row(1, 10, 0), boundary(20)])),
            (2, TupleBatch::single(boundary(30))),
        ],
    );
    let soutput = snapshot(
        "snapshot soutput",
        OperatorSpec::SOutput,
        vec![(
            0,
            TupleBatch::from_vec(vec![row(1, 10, 0), row(2, 20, 0), tentative(3, 30, 0)]),
        )],
    );
    vec![sunion, aggregate, sjoin, union, soutput]
}

/// The chain job's ingest fragment (SUnion → SOutput).
fn ingest_plan() -> FragmentPlan {
    let layout = sharded_chain_builder(&ShardedChainOptions::default())
        .0
        .layout();
    match &layout.actors[layout.shard_replicas(0, 0)[0].index()] {
        ActorSpec::Node(cfg) => cfg.plan.clone(),
        _ => unreachable!("fragment replicas are node actors"),
    }
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "borealis-wire-formats-{}-{name}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn only_file(dir: &Path) -> PathBuf {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(files.len(), 1, "{files:?}");
    files.pop().unwrap()
}

/// One checkpoint of a warm ingest fragment and one logged input view,
/// through `NodeDisk`: the two records that leaves in the log.
fn durable_files(dir: &Path) -> Vec<Format> {
    let plan = ingest_plan();
    let mut fragment = Fragment::from_plan(&plan);
    let mut disk = NodeDisk::open(&DurabilityConfig::new(dir)).unwrap();
    let stream = plan.inputs[0].stream;
    let closed = TupleBatch::from_vec(vec![row(1, 10, 0), row(2, 20, 0), boundary(100)]);
    let open = TupleBatch::from_vec(vec![row(3, 110, 0), row(4, 120, 0)]);
    for input in &plan.inputs {
        fragment.push_batch(input.stream, &closed, Time::from_millis(100));
    }
    fragment.push_batch(stream, &open, Time::from_millis(130));
    let positions: Vec<(StreamId, TupleId, bool)> = plan
        .inputs
        .iter()
        .enumerate()
        .map(|(i, input)| (input.stream, TupleId(40 + i as u64), i % 2 == 1))
        .collect();
    let parts = fragment.capture_durable().expect("untainted fragment");
    disk.checkpoint(parts, &positions);
    let segment = only_file(&dir.join("log"));
    let checkpoint = fs::read(&segment).unwrap();
    disk.append_input(stream, &mixed_view());
    drop(disk);
    let input = fs::read(&segment).unwrap()[checkpoint.len()..].to_vec();
    let format = |name, bytes, decoder| Format {
        name,
        bytes,
        decoder,
    };
    vec![
        format("checkpoint record", checkpoint, Decoder::Checkpoint),
        format("input log", input, Decoder::Log),
    ]
}

fn formats(dir: &Path) -> Vec<Format> {
    let net = |name, msg| frame(name, WireMsg::Net(msg));
    let stream = StreamId(7);
    let mut all = vec![
        net(
            "frame data",
            NetMsg::Data {
                stream,
                tuples: mixed_view(),
            },
        ),
        net(
            "frame subscribe",
            NetMsg::Subscribe {
                stream,
                last_stable: TupleId(41),
                resume: Resume::Undo,
            },
        ),
        net(
            "frame subscribe fresh",
            NetMsg::Subscribe {
                stream,
                last_stable: TupleId::NONE,
                resume: Resume::FreshOnly,
            },
        ),
        net(
            "frame subscribe replay",
            NetMsg::Subscribe {
                stream,
                last_stable: TupleId(0x0102_0304),
                resume: Resume::Replay,
            },
        ),
        net("frame unsubscribe", NetMsg::Unsubscribe { stream }),
        net(
            "frame ack",
            NetMsg::Ack {
                stream,
                through: TupleId(0x0102_0304_0506),
            },
        ),
        net("frame heartbeat req", NetMsg::HeartbeatReq),
        net(
            "frame heartbeat resp",
            NetMsg::HeartbeatResp {
                node_state: NodeState::UpFailure,
                stream_states: vec![
                    (StreamId(3), NodeState::Stable),
                    (StreamId(4), NodeState::Stabilization),
                    (StreamId(5), NodeState::Failed),
                ],
                stalled: Duration::from_micros(125_000),
            },
        ),
        net("frame reconcile request", NetMsg::ReconcileRequest),
        net("frame reconcile grant", NetMsg::ReconcileGrant),
        net("frame reconcile reject", NetMsg::ReconcileReject),
        net("frame reconcile done", NetMsg::ReconcileDone),
        frame("frame credit grant", WireMsg::CreditGrant),
        frame("frame hello", WireMsg::Hello { proc: 2 }),
        frame("frame goodbye", WireMsg::Goodbye),
    ];
    let mut tuple = Vec::new();
    put_tuple(&mut tuple, &row(9, 90, 2));
    all.push(Format {
        name: "tuple",
        bytes: tuple,
        decoder: Decoder::Tuple,
    });
    all.extend(operator_snapshots());
    all.extend(durable_files(dir));
    all
}

/// `(format, encoded length, FNV-1a 64 of the encoding)`, captured at the
/// commit before the codecs moved onto `Wire` (PR 23's parent).
/// "frame heartbeat resp" was re-pinned when the reply gained its trailing
/// `stalled: u64`: the same bytes plus those eight. The durable formats
/// were re-pinned when the checkpoint moved into the log (snapshot version
/// 2): the `HEAD` pointer is gone, the checkpoint is a record of the log,
/// and a record's body holds a kind byte where its sequence number was.
/// "frame subscribe replay" was added when `Subscribe`'s two flags became
/// one `Resume`: the third form, byte 0, which the flags wrote as neither
/// set (its digest checked by hand against the layout).
const PINNED: &[(&str, usize, u64)] = &[
    ("frame data", 252, 0xb2dea32ddd52d0d2),
    ("frame subscribe", 26, 0x89809f1e41305990),
    ("frame subscribe fresh", 26, 0xfeb3a35fe4cbdb8e),
    ("frame subscribe replay", 26, 0x575bded30dbb6e54),
    ("frame unsubscribe", 17, 0x2f8697a900fb63fc),
    ("frame ack", 25, 0x81e775dfe4cbc3f6),
    ("frame heartbeat req", 13, 0x825e1c6e8ebf0ec9),
    ("frame heartbeat resp", 41, 0x832b2fa067fe43da),
    ("frame reconcile request", 13, 0x825e1a6e8ebf0b63),
    ("frame reconcile grant", 13, 0x825e196e8ebf09b0),
    ("frame reconcile reject", 13, 0x825e286e8ebf232d),
    ("frame reconcile done", 13, 0x825e276e8ebf217a),
    ("frame credit grant", 13, 0x825e006e8ebedf35),
    ("frame hello", 17, 0x1ddaa6a979717dcc),
    ("frame goodbye", 13, 0x825dfd6e8ebeda1c),
    ("tuple", 51, 0xe74da2f07f33ede8),
    ("snapshot sunion", 481, 0x22658a26280cbab1),
    ("snapshot aggregate", 291, 0xa5a556a797926f9b),
    ("snapshot sjoin", 252, 0xb9b230da923e8393),
    ("snapshot union", 32, 0xe82e11130b60fb77),
    ("snapshot soutput", 11, 0x214f15cc41059202),
    ("checkpoint record", 342, 0x34b8fa85908d97d8),
    ("input log", 256, 0xa58367cfd05a7e13),
];

/// One tuple per `Payload` variant (and both inline value layouts), for the
/// hostile-input test only: they are not pinned formats of their own.
fn payload_tuples() -> Vec<Format> {
    let payloads = [
        ("tuple, empty payload", vec![]),
        ("tuple, one int inline", vec![Value::Int(-7)]),
        ("tuple, one str inline", vec![Value::str("elm")]),
        (
            "tuple, shared payload",
            vec![Value::Bool(true), Value::Float(0.5)],
        ),
    ];
    payloads
        .into_iter()
        .map(|(name, values)| {
            let mut bytes = Vec::new();
            put_tuple(&mut bytes, &Tuple::tentative(TupleId(5), Time(77), values));
            Format {
                name,
                bytes,
                decoder: Decoder::Tuple,
            }
        })
        .collect()
}

/// The payload of the checkpoint record in `dir`, as recovery loads it —
/// for the hostile-input test only: the record's checksum turns away every
/// mutation of the record before the decoders behind it run, so the
/// payload is also attacked on its own, published whole.
fn checkpoint_payload(dir: &Path) -> Format {
    let disk = NodeDisk::open(&DurabilityConfig::new(dir)).unwrap();
    Format {
        name: "checkpoint payload",
        bytes: disk.store().load_latest().unwrap().unwrap().payload,
        decoder: Decoder::Payload,
    }
}

/// Allocator entries `decode_frame` makes for a `Data` frame of `n` tuples
/// of `width` integer attributes each.
fn data_frame_decode_allocs(n: u64, width: i64) -> u64 {
    let tuples = (1..=n)
        .map(|id| {
            let values: Payload = (0..width).map(Value::Int).collect();
            Tuple::insertion(TupleId(id), Time::from_millis(id), values)
        })
        .collect();
    let tuples = BatchView::from(TupleBatch::from_vec(tuples));
    let mut bytes = Vec::new();
    let msg = WireMsg::Net(NetMsg::Data {
        stream: StreamId(7),
        tuples,
    });
    encode_frame(&mut bytes, NodeId(3), NodeId(4), &msg);
    let before = counting_alloc::allocs();
    let decoded = decode_frame(&bytes);
    let allocs = counting_alloc::allocs() - before;
    assert!(matches!(decoded, Ok(Some(_))));
    allocs
}

#[test]
fn decoded_one_attribute_tuples_cost_no_allocation_each() {
    let one = [100, 200].map(|n| data_frame_decode_allocs(n, 1));
    let two = [100, 200].map(|n| data_frame_decode_allocs(n, 2));
    assert_eq!(one[0], one[1], "one attribute: a per-frame constant");
    assert_eq!(two[0] - one[0], 100, "two attributes: one allocation each");
    assert_eq!(two[1] - one[1], 200, "two attributes: one allocation each");
}

#[test]
fn wire_formats_are_pinned() {
    let dir = scratch("pinned");
    let got: Vec<(&str, usize, u64)> = formats(&dir)
        .iter()
        .map(|f| (f.name, f.bytes.len(), fnv64(&f.bytes)))
        .collect();
    let _ = fs::remove_dir_all(&dir);
    assert_eq!(got, PINNED);
}

/// A store holding a valid log, under an open `NodeDisk`: an attempt
/// overwrites the log's one segment, or publishes a checkpoint, and
/// recovers through it.
struct Store {
    dir: PathBuf,
    disk: NodeDisk,
    plan: FragmentPlan,
    segment: PathBuf,
    /// The valid checkpoint record an input record is attacked behind.
    checkpoint: Vec<u8>,
}

impl Store {
    fn new() -> Store {
        let dir = scratch("hostile");
        let checkpoint = durable_files(&dir).remove(0).bytes;
        Store {
            disk: NodeDisk::open(&DurabilityConfig::new(&dir)).unwrap(),
            plan: ingest_plan(),
            segment: only_file(&dir.join("log")),
            checkpoint,
            dir,
        }
    }

    /// Recovery as a restarting node runs it: the newest checkpoint record,
    /// its header, the input records behind it, then every operator's
    /// state.
    fn recover(&mut self) {
        let mut fragment = Fragment::from_plan(&self.plan);
        counting_alloc::take_largest();
        if let Ok(Some(image)) = self.disk.recover() {
            let _ = fragment.restore_durable(&image.ops_bytes);
        }
    }

    /// Writes `bytes` as the log's one segment and recovers; reopening the
    /// log scans it too, and cuts it at the first record that does not
    /// decode.
    fn recover_segment(&mut self, bytes: &[u8]) {
        fs::write(&self.segment, bytes).unwrap();
        self.recover();
        let _ = NodeDisk::open(&DurabilityConfig::new(&self.dir));
    }
}

/// Decodes `bytes` as `format` and returns the largest single reservation
/// the decoder made on the way.
fn largest_reservation(format: &Format, bytes: &[u8], store: &mut Store) -> usize {
    match &format.decoder {
        Decoder::Frame => {
            counting_alloc::take_largest();
            let _ = decode_frame(bytes);
        }
        Decoder::Tuple => {
            counting_alloc::take_largest();
            let _ = Reader::new(bytes).tuple();
        }
        Decoder::Snapshot(spec) => {
            let codec = spec.instantiate().snapshot_codec();
            counting_alloc::take_largest();
            let _ = (codec.decode)(&mut Reader::new(bytes));
        }
        Decoder::Checkpoint => store.recover_segment(bytes),
        Decoder::Log => store.recover_segment(&[&store.checkpoint[..], bytes].concat()),
        Decoder::Payload => {
            let _ = store.disk.store().publish(2, bytes);
            store.recover();
        }
    }
    counting_alloc::take_largest()
}

/// In-memory bytes a decoder may reserve per byte of input: the widest
/// element any sequence here holds per byte of its wire minimum (an
/// `Option<Time>`, 16 bytes behind a one-byte `None`). A count the input
/// could not hold never gets this far.
const RESERVE_PER_BYTE: usize = 16;
/// Room for what the disk-backed decoders build besides: paths, directory
/// listings, error strings.
const RESERVE_SLACK: usize = 4096;

#[test]
fn decode_never_panics_or_overallocates() {
    let mut rng = StdRng::seed_from_u64(0x0DD_B17E5);
    let mut store = Store::new();
    let fixture = scratch("hostile-fixture");
    let formats = formats(&fixture);
    let payload = checkpoint_payload(&fixture);
    for format in formats.into_iter().chain([payload]).chain(payload_tuples()) {
        let mut attempts: Vec<Vec<u8>> = (0..format.bytes.len())
            .map(|cut| format.bytes[..cut].to_vec())
            .collect();
        for _ in 0..2000 {
            let mut mutated = format.bytes.clone();
            let at = rng.gen_range(0..mutated.len());
            mutated[at] ^= rng.gen_range(1..256u32) as u8;
            attempts.push(mutated);
        }
        for bytes in &attempts {
            let largest = largest_reservation(&format, bytes, &mut store);
            assert!(
                largest <= RESERVE_PER_BYTE * bytes.len() + RESERVE_SLACK,
                "{}: a {}-byte input made the decoder reserve {largest} bytes",
                format.name,
                bytes.len()
            );
        }
        // Leave the store valid for the next format.
        if matches!(
            format.decoder,
            Decoder::Checkpoint | Decoder::Payload | Decoder::Log
        ) {
            store = Store::new();
        }
    }
    let _ = fs::remove_dir_all(&store.dir);
    let _ = fs::remove_dir_all(&fixture);
}
