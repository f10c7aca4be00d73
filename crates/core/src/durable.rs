//! Per-node durability: periodic durable checkpoints plus a replayable
//! input log, so a crashed node restarts from disk instead of from an
//! empty state (§4.5's recovery, supplemented with persistent storage).
//!
//! Each node replica owns one [`borealis_store::NodeStore`], whose one log
//! holds two record kinds in the order they happened:
//!
//! * input records — every deduplicated input view, `(stream, batch)`;
//! * checkpoint records — the format version, a `SnapshotHeader` (the
//!   subscription positions to recover), then every operator's
//!   [`SnapshotCodec`]-encoded state.
//!
//! A checkpoint covers exactly the input records before it, so recovery
//! loads the newest intact checkpoint record and replays the input records
//! after it: the ordering holds by position, with no protocol between a
//! snapshot and its log prefix to get wrong.
//!
//! Both kinds are encoded and appended on the actor's thread, through the
//! node's one [`LogWriter`] — a write into the page cache, which a killed
//! process does not lose. A checkpoint record is made durable by one
//! `fdatasync` of its segment, which also prunes the log: inline in
//! deterministic simulator runs, otherwise on the one flusher thread all
//! the process's nodes share, so that no actor waits for the disk. A
//! failed append, sync or prune is counted ([`NodeDisk::failures`]) and the
//! node keeps serving from memory: durability degrades, the DPC replica
//! protocol still covers the node.

use borealis_engine::encode_durable_capture;
use borealis_ops::{OpSnapshot, SnapshotCodec};
use borealis_store::{LogWriter, NodeStore, StoreError};
use borealis_types::wire::{Reader, Wire};
use borealis_types::{wire_struct, BatchView, Duration, StreamId, TupleBatch, TupleId};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::thread;

/// Durability settings of one node replica (see
/// `SystemBuilder::durability` for deployment-wide wiring).
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Root directory of this node's store.
    pub dir: PathBuf,
    /// Checkpoint period.
    pub interval: Duration,
    /// Sync checkpoint records (and prune the log) on the process's flusher
    /// thread (real runtimes) instead of inline (deterministic simulator
    /// runs, where wall-clock work must not depend on scheduling).
    pub background: bool,
    /// `fsync` the input log after every append. Correctness does not
    /// require it: the log suffix past the last durable checkpoint is
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

/// Leads every checkpoint payload, so a layout change can be told apart
/// before anything behind it is decoded.
const SNAPSHOT_VERSION: u32 = 2;

wire_struct! {
    /// What follows the version in a checkpoint payload, ahead of the
    /// operator states. Both durable formats — this and the input record,
    /// `(stream, batch)` — store a stream id widened to 64 bits.
    struct SnapshotHeader {
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
    /// Input logged after the snapshot, in append order.
    pub replay: Vec<(StreamId, TupleBatch)>,
    /// True when a newer checkpoint record was torn and this older one was
    /// used instead.
    pub fell_back: bool,
}

/// One job of the process's flusher: a checkpoint's seal together with
/// the failure counter of the node that queued it, or a closing node's
/// barrier.
type Job = Box<dyn FnOnce() + Send>;

/// The process's one flusher: a `borealis-flusher` thread, started on first
/// use, that runs the jobs of every node in the order they were queued.
fn flusher() -> &'static mpsc::Sender<Job> {
    static FLUSHER: OnceLock<mpsc::Sender<Job>> = OnceLock::new();
    FLUSHER.get_or_init(|| {
        let (jobs, queue) = mpsc::channel::<Job>();
        // Never joined: it lives as long as the process, and a closing node
        // waits for its own jobs instead. A thread that cannot start drops
        // `queue`: every hand-off then fails, and is counted by the node.
        let _ = thread::Builder::new()
            .name("borealis-flusher".into())
            .spawn(move || queue.into_iter().for_each(|job| job()));
        jobs
    })
}

/// Counts a failed durable operation in `failures`.
fn count<T, E>(failures: &AtomicU64, outcome: Result<T, E>) {
    if outcome.is_err() {
        failures.fetch_add(1, Ordering::Relaxed);
    }
}

/// A node's open durable state: the store and its log writer.
pub struct NodeDisk {
    store: NodeStore,
    log: LogWriter,
    /// Hand checkpoint seals to the process's flusher.
    background: bool,
    /// Durable operations that failed, shared with the flusher's jobs.
    failures: Arc<AtomicU64>,
}

impl NodeDisk {
    /// Opens (or creates) the store and resumes its log.
    pub fn open(cfg: &DurabilityConfig) -> Result<NodeDisk, StoreError> {
        let store = NodeStore::open(&cfg.dir)?;
        let log = LogWriter::open(&store, cfg.sync_log)?;
        Ok(NodeDisk {
            store,
            log,
            background: cfg.background,
            failures: Arc::new(AtomicU64::new(0)),
        })
    }

    /// The underlying store (markers, diagnostics).
    pub fn store(&self) -> &NodeStore {
        &self.store
    }

    /// Appends, syncs, prunes, hand-offs and marker writes that have failed
    /// so far. Each failure lost durability only: the node served on from
    /// memory.
    pub fn failures(&self) -> u64 {
        self.failures.load(Ordering::Relaxed)
    }

    /// Appends one deduplicated input view to the log, encoding straight
    /// from the view into the record (the format is `wire::put_batch`'s, so
    /// recovery decodes batches).
    pub fn append_input(&mut self, stream: StreamId, tuples: &BatchView) {
        let appended = self.log.append_with(|record| {
            (stream.0 as u64).put(record);
            tuples.put(record);
        });
        count(&self.failures, appended);
    }

    /// Appends one checkpoint record, which covers every input record
    /// before it, and makes it durable: inline, or — with `background` —
    /// on the process's flusher. The CoW `Arc`s in `parts` are encoded
    /// straight into the record.
    pub fn checkpoint(
        &mut self,
        parts: Vec<(SnapshotCodec, OpSnapshot)>,
        positions: &[(StreamId, TupleId, bool)],
    ) -> u64 {
        let snapshot_id = self.log.snapshot_id().map_or(1, |id| id + 1);
        let widened = |&(stream, last_stable, saw_tentative): &(StreamId, TupleId, bool)| {
            (stream.0 as u64, last_stable, saw_tentative)
        };
        let header = SnapshotHeader {
            positions: positions.iter().map(widened).collect(),
        };
        let sealed = self.log.checkpoint(snapshot_id, |payload| {
            SNAPSHOT_VERSION.put(payload);
            header.put(payload);
            encode_durable_capture(&parts, payload);
        });
        match sealed {
            Ok(seal) if self.background => {
                let failures = Arc::clone(&self.failures);
                let job = Box::new(move || count(&failures, seal.run()));
                count(&self.failures, flusher().send(job));
            }
            Ok(seal) => count(&self.failures, seal.run()),
            failed => count(&self.failures, failed),
        }
        snapshot_id
    }

    /// Loads the newest intact snapshot and the input logged after it.
    /// `Ok(None)` on a cold (empty) store. A torn log tail is expected
    /// after a crash — the valid prefix is kept, the rest is re-fetched
    /// from upstream.
    pub fn recover(&mut self) -> Result<Option<RecoveredImage>, StoreError> {
        let Some(loaded) = self.store.load_latest()? else {
            return Ok(None);
        };
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

        let (records, _torn_tail) = self.store.read_log(loaded.seq)?;
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
            snapshot_id: loaded.snapshot_id,
            positions: header.positions.into_iter().map(narrowed).collect(),
            ops_bytes,
            replay,
            fell_back: loaded.fell_back.is_some(),
        }))
    }

    /// Records the outcome of a recovery in a marker file (read by tests
    /// and the recovery benchmark): the snapshot restored, the wall-clock
    /// micros the load + replay took, and the number of log records
    /// replayed (kept last so simple suffix parsers keep working).
    pub fn write_recovery_marker(&self, snapshot_id: u64, recover_us: u64, replayed: usize) {
        let contents =
            format!("snapshot={snapshot_id} recover_us={recover_us} replayed={replayed}");
        let written = self
            .store
            .write_marker("last_recovery", contents.as_bytes());
        count(&self.failures, written);
    }
}

impl Drop for NodeDisk {
    fn drop(&mut self) {
        // The node's queued seals have run before it closes — so a restart
        // in this process never reopens the log under a running prune: queue
        // a barrier behind them, which ends `wait` when the flusher drops it.
        if self.background {
            let (reached, wait) = mpsc::channel::<()>();
            let _ = flusher().send(Box::new(move || drop(reached)));
            let _ = wait.recv();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use borealis_types::{Time, Tuple, Value};
    use std::fs;
    use std::path::Path;

    const STREAM: StreamId = StreamId(3);

    /// One record of the test log: an input tuple's id, or a checkpoint's
    /// snapshot id.
    #[derive(Clone, Copy, Debug)]
    enum Logged {
        Input(u64),
        Checkpoint(u64),
    }

    /// What a crash left of one record.
    #[derive(Clone, Copy, PartialEq)]
    enum Left {
        Intact,
        /// Some of its bytes are on disk, or its segment was created and
        /// is empty: recovery sees a record that does not decode.
        Damaged,
        Absent,
    }

    /// A record of the test log and its bytes `[start, end)` in the
    /// segments laid end to end; `first` if it begins its segment.
    struct Placed {
        logged: Logged,
        start: usize,
        end: usize,
        first: bool,
    }

    /// Recovery's result as the test states it: the snapshot id, the input
    /// tuple ids replayed after it, and whether it fell back.
    type Outcome = Option<(u64, Vec<u64>, bool)>;

    fn input(id: u64) -> BatchView {
        let t = Tuple::insertion(
            TupleId(id),
            Time::from_millis(id),
            vec![Value::Int(id as i64)],
        );
        BatchView::from(TupleBatch::single(t))
    }

    fn segments(dir: &Path) -> Vec<PathBuf> {
        let mut segs: Vec<PathBuf> = fs::read_dir(dir.join("log"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        segs.sort();
        segs
    }

    /// Replaces the store's log with `files`.
    fn lay_out(dir: &Path, files: impl Iterator<Item = (PathBuf, Vec<u8>)>) {
        let _ = fs::remove_dir_all(dir.join("log"));
        fs::create_dir_all(dir.join("log")).unwrap();
        for (path, bytes) in files {
            fs::write(path, bytes).unwrap();
        }
    }

    /// A restart: open the store (which cuts what does not decode) and
    /// recover. Neither may fail on a damaged log, let alone panic.
    fn restart(dir: &Path) -> Outcome {
        let mut disk = NodeDisk::open(&DurabilityConfig::new(dir)).unwrap();
        let image = disk.recover().unwrap()?;
        let mut ids = Vec::new();
        for (stream, batch) in &image.replay {
            assert_eq!(*stream, STREAM);
            ids.extend(batch.as_slice().iter().map(|t| t.id.0));
        }
        Some((image.snapshot_id, ids, image.fell_back))
    }

    /// A store directory of this test process, clean at entry.
    fn scratch(name: &str) -> PathBuf {
        let name = format!("borealis-durable-{name}-{}", std::process::id());
        let dir = std::env::temp_dir().join(name);
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn background(dir: &Path) -> DurabilityConfig {
        DurabilityConfig {
            background: true,
            ..DurabilityConfig::new(dir)
        }
    }

    /// However many background replicas a process hosts, their seals run
    /// on one `borealis-flusher` thread (Linux cuts a thread's name to 15
    /// bytes), and each replica's checkpoints reach its own disk.
    #[test]
    fn one_flusher_thread_seals_for_every_background_replica() {
        let dirs: Vec<PathBuf> = (0..32).map(|i| scratch(&format!("shared-{i}"))).collect();
        let open = |dir: &PathBuf| NodeDisk::open(&background(dir)).unwrap();
        let mut disks: Vec<NodeDisk> = dirs.iter().map(open).collect();
        for disk in &mut disks {
            for id in 1..=2 {
                disk.append_input(STREAM, &input(id));
                let positions = [(STREAM, TupleId(id), false)];
                assert_eq!(disk.checkpoint(Vec::new(), &positions), id);
            }
        }
        if let Ok(tasks) = fs::read_dir("/proc/self/task") {
            let flusher = |task: &fs::DirEntry| {
                let name = fs::read_to_string(task.path().join("comm"));
                name.is_ok_and(|name| name.trim_end() == "borealis-flushe")
            };
            let flushers = tasks.flatten().filter(flusher).count();
            assert_eq!(flushers, 1, "one flusher per process");
        }
        drop(disks);
        for dir in &dirs {
            let mut disk = open(dir);
            let image = disk.recover().unwrap().expect("two checkpoints were taken");
            assert_eq!((image.snapshot_id, image.fell_back), (2, false));
            assert_eq!(disk.failures(), 0);
            assert_eq!(segments(dir).len(), 2, "retention keeps two segments");
            drop(disk);
            let _ = fs::remove_dir_all(dir);
        }
    }

    /// Dropping a background disk waits for its own seals — the
    /// log is already pruned to what retention keeps — so a restart in the
    /// same process that reopens the log at once never races the prune of
    /// a checkpoint the old incarnation took.
    #[test]
    fn a_dropped_background_disk_has_run_its_seals() {
        let dir = scratch("drop-waits");
        let mut next = 0;
        for round in 0..100 {
            let mut disk = NodeDisk::open(&background(&dir)).unwrap();
            for k in 1..=3 {
                next += 1;
                disk.append_input(STREAM, &input(next));
                let positions = [(STREAM, TupleId(next), false)];
                assert_eq!(disk.checkpoint(Vec::new(), &positions), 3 * round + k);
            }
            next += 1;
            disk.append_input(STREAM, &input(next));
            drop(disk);
            let pruned = segments(&dir).len();
            assert_eq!(
                pruned, 2,
                "round {round}: the newest seal has pruned the log"
            );
            let newest = Some((3 * round + 3, vec![next], false));
            assert_eq!(restart(&dir), newest, "round {round}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// The newest intact checkpoint, the intact input after it up to the
    /// first record that is not, and whether a newer checkpoint left
    /// damaged bytes behind.
    fn expected(log: &[Placed], left: impl Fn(&Placed) -> Left) -> Outcome {
        let intact_checkpoint =
            |p: &Placed| matches!(p.logged, Logged::Checkpoint(_)) && left(p) == Left::Intact;
        let newest = log.iter().rposition(intact_checkpoint)?;
        let Logged::Checkpoint(id) = log[newest].logged else {
            unreachable!("a checkpoint was found")
        };
        let after = &log[newest + 1..];
        let replay = after
            .iter()
            .take_while(|p| left(p) == Left::Intact)
            .filter_map(|p| match p.logged {
                Logged::Input(id) => Some(id),
                Logged::Checkpoint(_) => None,
            })
            .collect();
        let fell_back = after
            .iter()
            .any(|p| matches!(p.logged, Logged::Checkpoint(_)) && left(p) == Left::Damaged);
        Some((id, replay, fell_back))
    }

    /// Satellite: every crash point of a log shaped inputs, checkpoint,
    /// inputs, checkpoint, inputs. Cut at every byte offset (a segment the
    /// cut begins at both not yet created and created empty), and with
    /// every byte corrupted in turn, a restart recovers exactly the newest
    /// checkpoint whose record is intact and the valid input after it —
    /// never a newer checkpoint than survives, and without panicking.
    #[test]
    fn every_crash_point_recovers_the_newest_intact_checkpoint_and_the_input_after_it() {
        use Logged::{Checkpoint, Input};
        let dir = std::env::temp_dir().join(format!(
            "borealis-durable-crash-points-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let script = [
            Input(1),
            Input(2),
            Checkpoint(1),
            Input(3),
            Input(4),
            Checkpoint(2),
            Input(5),
            Input(6),
        ];
        let mut disk = NodeDisk::open(&DurabilityConfig::new(&dir)).unwrap();
        // Where each record ends: its segment, and that segment's length.
        let mut ends = Vec::new();
        for logged in script {
            match logged {
                Input(id) => disk.append_input(STREAM, &input(id)),
                Checkpoint(id) => {
                    let positions = [(STREAM, TupleId(id), false)];
                    assert_eq!(disk.checkpoint(Vec::new(), &positions), id);
                }
            }
            let seg = segments(&dir).pop().unwrap();
            ends.push((seg.clone(), fs::metadata(&seg).unwrap().len() as usize));
        }
        assert_eq!(disk.failures(), 0);
        drop(disk);

        // What retention kept, laid end to end: the segments, each with its
        // offset, and the records in them.
        let mut files = Vec::new();
        let mut log = Vec::new();
        let mut total = 0;
        for path in segments(&dir) {
            let bytes = fs::read(&path).unwrap();
            let mut start = total;
            for (i, (_, end)) in ends.iter().enumerate().filter(|(_, (p, _))| *p == path) {
                log.push(Placed {
                    logged: script[i],
                    start,
                    end: total + end,
                    first: start == total,
                });
                start = total + end;
            }
            files.push((path, total, bytes.clone()));
            total += bytes.len();
        }
        assert_eq!(
            log.len(),
            6,
            "the first checkpoint dropped the first inputs"
        );

        for cut in 0..=total {
            for created in [false, true] {
                if created && !files.iter().any(|(_, start, _)| *start == cut) {
                    continue;
                }
                let present = |start: usize| start < cut || (created && start == cut);
                lay_out(
                    &dir,
                    files.iter().filter(|(_, start, _)| present(*start)).map(
                        |(path, start, bytes)| {
                            let kept = (cut - start).min(bytes.len());
                            (path.clone(), bytes[..kept].to_vec())
                        },
                    ),
                );
                let left = |p: &Placed| {
                    if p.end <= cut {
                        Left::Intact
                    } else if p.start < cut || (p.first && created && p.start == cut) {
                        Left::Damaged
                    } else {
                        Left::Absent
                    }
                };
                assert_eq!(
                    restart(&dir),
                    expected(&log, left),
                    "cut at byte {cut} of {total}, segment created: {created}"
                );
            }
        }
        for at in 0..total {
            lay_out(
                &dir,
                files.iter().map(|(path, start, bytes)| {
                    let mut bytes = bytes.clone();
                    if let Some(b) = at.checked_sub(*start).and_then(|i| bytes.get_mut(i)) {
                        *b ^= 1 << (at % 8);
                    }
                    (path.clone(), bytes)
                }),
            );
            let left = |p: &Placed| match (p.start..p.end).contains(&at) {
                true => Left::Damaged,
                false => Left::Intact,
            };
            assert_eq!(
                restart(&dir),
                expected(&log, left),
                "bit flipped in byte {at} of {total}"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
