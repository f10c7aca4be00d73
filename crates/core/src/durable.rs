//! Per-node durability: periodic durable checkpoints plus a replayable
//! input log, so a crashed node restarts from disk instead of from an
//! empty state (§4.5's recovery, supplemented with persistent storage).
//!
//! Layout (one [`borealis_store::NodeStore`] per node replica):
//!
//! * `objects/<hash>.obj` — immutable, content-addressed checkpoint
//!   objects: a small header (recovered subscription positions, the log
//!   prefix the snapshot covers) followed by every operator's
//!   [`SnapshotCodec`]-encoded state.
//! * `HEAD` / `HEAD.prev` — the atomically flipped pointer to the newest
//!   intact object (write–rename–fsync; a torn flip falls back).
//! * `log/` — the append-only input log, truncated by snapshot id: once a
//!   published snapshot covers a log prefix, the covered closed segments
//!   are removed.
//!
//! Capture stays off the hot path: the node hands the copy-on-write
//! [`OpSnapshot`] `Arc`s to a background flusher (or serializes inline in
//! deterministic simulator runs); encoding and fsync happen outside the
//! actor's message loop.

use borealis_engine::encode_durable_capture;
use borealis_ops::{OpSnapshot, SnapshotCodec};
use borealis_store::{LogWriter, NodeStore, StoreError};
use borealis_types::wire::{Reader, Wire};
use borealis_types::{wire_struct, BatchView, Duration, StreamId, TupleBatch, TupleId};
use std::path::PathBuf;
use std::sync::mpsc;
use std::thread;

/// Durability settings of one node replica (see
/// `SystemBuilder::durability` for deployment-wide wiring).
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Root directory of this node's store.
    pub dir: PathBuf,
    /// Checkpoint period.
    pub interval: Duration,
    /// Serialize and publish snapshots on a background flusher thread
    /// (real runtimes) instead of inline (deterministic simulator runs,
    /// where wall-clock work must not depend on scheduling).
    pub background: bool,
    /// `fsync` the input log after every append. Correctness does not
    /// require it: the log suffix past the last *published* snapshot is
    /// re-fetched from upstream on restart (the initial `Subscribe`
    /// carries the recovered position), so an unsynced tail only widens
    /// the replay window.
    pub sync_log: bool,
}

impl DurabilityConfig {
    /// Defaults: 250 ms interval, inline flush, no per-append fsync.
    pub fn new(dir: impl Into<PathBuf>) -> DurabilityConfig {
        DurabilityConfig {
            dir: dir.into(),
            interval: Duration::from_millis(250),
            background: false,
            sync_log: false,
        }
    }
}

/// Leads every checkpoint object, so a layout change can be told apart
/// before anything behind it is decoded.
const SNAPSHOT_VERSION: u32 = 1;

wire_struct! {
    /// What follows the version in a checkpoint object, ahead of the
    /// operator states. Both durable formats — this and the input-log
    /// record, `(stream, batch)` — store a stream id widened to 64 bits.
    struct SnapshotHeader {
        snapshot_id: u64,
        /// The log prefix the snapshot covers.
        covered_seq: u64,
        /// Per input stream: `(stream, last stable, saw tentative)`.
        positions: Vec<(u64, TupleId, bool)>,
    }
}

/// Everything a restarting node recovers from its store.
pub struct RecoveredImage {
    /// Id of the snapshot the image is based on.
    pub snapshot_id: u64,
    /// Per-input-stream subscription positions at capture time:
    /// `(stream, last_stable, saw_tentative)`.
    pub positions: Vec<(StreamId, TupleId, bool)>,
    /// The operator-state region (fed to `Fragment::restore_durable`).
    pub ops_bytes: Vec<u8>,
    /// Input-log suffix past the snapshot, in append order.
    pub replay: Vec<(StreamId, TupleBatch)>,
    /// True when `HEAD` was torn by a crash mid-flip and the previous
    /// snapshot was used instead.
    pub fell_back: bool,
}

/// One durable checkpoint handed to the flusher: the operator states are
/// still shared `Arc`s (serialized off the hot path).
struct FlushJob {
    header: SnapshotHeader,
    parts: Vec<(SnapshotCodec, OpSnapshot)>,
}

struct Flusher {
    tx: Option<mpsc::Sender<FlushJob>>,
    handle: Option<thread::JoinHandle<()>>,
}

/// A node's open durable state: the store, the input-log writer, and the
/// optional background flusher.
pub struct NodeDisk {
    store: NodeStore,
    log: LogWriter,
    /// The input-log record being encoded, reused by every append.
    record: Vec<u8>,
    next_snapshot_id: u64,
    flusher: Option<Flusher>,
}

fn publish_job(store: &NodeStore, job: FlushJob) {
    let mut payload = Vec::new();
    SNAPSHOT_VERSION.put(&mut payload);
    job.header.put(&mut payload);
    encode_durable_capture(&job.parts, &mut payload);
    // A full disk must not take the stream down: durability degrades, the
    // DPC replica protocol still covers the node.
    if store.publish(job.header.snapshot_id, &payload).is_ok() {
        let _ = store.prune_log(job.header.covered_seq);
    }
}

impl NodeDisk {
    /// Opens (or creates) the store and resumes the input log.
    pub fn open(cfg: &DurabilityConfig) -> Result<NodeDisk, StoreError> {
        let store = NodeStore::open(&cfg.dir)?;
        let log = LogWriter::open(&store, cfg.sync_log)?;
        let next_snapshot_id = store.head()?.map_or(1, |h| h.snapshot_id + 1);
        let flusher = if cfg.background {
            let own = NodeStore::open(&cfg.dir)?;
            let (tx, rx) = mpsc::channel::<FlushJob>();
            let handle = thread::Builder::new()
                .name("borealis-flusher".into())
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        publish_job(&own, job);
                    }
                })
                .map_err(StoreError::Io)?;
            Some(Flusher {
                tx: Some(tx),
                handle: Some(handle),
            })
        } else {
            None
        };
        Ok(NodeDisk {
            store,
            log,
            record: Vec::new(),
            next_snapshot_id,
            flusher,
        })
    }

    /// The underlying store (markers, diagnostics).
    pub fn store(&self) -> &NodeStore {
        &self.store
    }

    /// Appends one deduplicated input view to the log, encoding straight
    /// from the view (the record format is `wire::put_batch`'s, so
    /// recovery decodes batches) in a buffer every append reuses.
    pub fn append_input(&mut self, stream: StreamId, tuples: &BatchView) {
        self.record.clear();
        (stream.0 as u64).put(&mut self.record);
        tuples.put(&mut self.record);
        let _ = self.log.append(&self.record);
    }

    /// Captures one durable checkpoint. The CoW `Arc`s in `parts` are
    /// serialized by the flusher (or inline when none), so this returns in
    /// microseconds regardless of state size. The snapshot covers the
    /// current log prefix, which is synced first so recovery never resumes
    /// from a snapshot whose input basis is gone.
    pub fn checkpoint(
        &mut self,
        parts: Vec<(SnapshotCodec, OpSnapshot)>,
        positions: &[(StreamId, TupleId, bool)],
    ) -> u64 {
        let covered_seq = self.log.last_seq();
        let _ = self.log.sync();
        let snapshot_id = self.next_snapshot_id;
        self.next_snapshot_id += 1;
        let widened = |&(stream, last_stable, saw_tentative): &(StreamId, TupleId, bool)| {
            (stream.0 as u64, last_stable, saw_tentative)
        };
        let header = SnapshotHeader {
            snapshot_id,
            covered_seq,
            positions: positions.iter().map(widened).collect(),
        };
        let job = FlushJob { header, parts };
        match self.flusher.as_ref().and_then(|f| f.tx.as_ref()) {
            Some(tx) => {
                let _ = tx.send(job);
            }
            None => publish_job(&self.store, job),
        }
        snapshot_id
    }

    /// Loads the newest intact snapshot and the replayable log suffix past
    /// it. `Ok(None)` on a cold (empty) store. A torn log tail is expected
    /// after a crash — the valid prefix is kept, the rest is re-fetched
    /// from upstream.
    pub fn recover(&mut self) -> Result<Option<RecoveredImage>, StoreError> {
        let Some(loaded) = self.store.load_latest()? else {
            return Ok(None);
        };
        let fell_back = loaded.fell_back.is_some();
        let mut r = Reader::new(&loaded.payload);
        let version = u32::get(&mut r)?;
        if version != SNAPSHOT_VERSION {
            return Err(StoreError::Corrupt {
                what: "snapshot version",
                detail: format!("unsupported version {version}"),
            });
        }
        let header = SnapshotHeader::get(&mut r)?;
        let ops_bytes = r.bytes(r.remaining())?.to_vec();

        let (records, _torn_tail) = self.store.read_log(header.covered_seq)?;
        let mut replay = Vec::with_capacity(records.len());
        for (_seq, body) in records {
            let mut r = Reader::new(&body);
            let (stream, batch) = <(u64, TupleBatch)>::get(&mut r)?;
            r.finish()?;
            replay.push((StreamId(stream as u32), batch));
        }
        let narrowed = |(stream, last_stable, saw_tentative)| {
            (StreamId(stream as u32), last_stable, saw_tentative)
        };
        Ok(Some(RecoveredImage {
            snapshot_id: header.snapshot_id,
            positions: header.positions.into_iter().map(narrowed).collect(),
            ops_bytes,
            replay,
            fell_back,
        }))
    }

    /// Records the outcome of a recovery in a marker file (read by tests
    /// and the recovery benchmark): the snapshot restored, the wall-clock
    /// micros the load + replay took, and the number of log records
    /// replayed (kept last so simple suffix parsers keep working).
    pub fn write_recovery_marker(&self, snapshot_id: u64, recover_us: u64, replayed: usize) {
        let contents =
            format!("snapshot={snapshot_id} recover_us={recover_us} replayed={replayed}");
        let _ = self
            .store
            .write_marker("last_recovery", contents.as_bytes());
    }
}

impl Drop for NodeDisk {
    fn drop(&mut self) {
        // Queued snapshots reach disk before shutdown: close the channel,
        // then join the flusher.
        if let Some(mut f) = self.flusher.take() {
            drop(f.tx.take());
            if let Some(h) = f.handle.take() {
                let _ = h.join();
            }
        }
        let _ = self.log.sync();
    }
}
