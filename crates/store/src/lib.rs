//! # borealis-store
//!
//! The durability layer behind disk-based crash recovery: a restarted node
//! loads its last checkpoint and replays a bounded input-log suffix instead
//! of rebuilding from an empty state plus unbounded upstream replay (the
//! paper's §4.5 story).
//!
//! A node's durable state is **one append-only log** holding two record
//! kinds: *input records*, and *checkpoint records* carrying a snapshot,
//! appended after the input records it covers. What a checkpoint covers is
//! therefore decided by position, not by an ordering protocol: recovery
//! loads the newest intact checkpoint record and replays the input records
//! behind it.
//!
//! Layout under one [`NodeStore`] root:
//!
//! ```text
//! log/<segment>.log    the log, in numbered segments; each checkpoint record begins one
//! <name>.marker        small marker files (e.g. last_recovery)
//! ```
//!
//! A record is `[len u32][checksum u64][body]`, the body a kind byte and
//! then the payload (a checkpoint's starts with its snapshot id), checked
//! by [`borealis_types::wire::checksum`]. Its sequence number is its
//! position: segment number × 2³² + index in the segment. A crash at any
//! instant leaves a recoverable log:
//!
//! * a torn or corrupt record ends the readable log there: the input behind
//!   it is re-fetched from upstream, and the next writer cuts it off;
//! * a checkpoint record torn by a crash falls back to the one before it
//!   (reported in [`LoadedSnapshot::fell_back`]);
//! * a log holding no intact checkpoint record is a cold start.
//!
//! A checkpoint costs one `fdatasync`, of its own segment ([`Seal::run`]).
//! Once it is synced every segment older than the previous checkpoint's is
//! deleted, so the log holds the two checkpoints recovery can reach and the
//! input behind them. The segment's directory entry is left to the file
//! system's journal: a checkpoint whose segment a power cut loses falls
//! back to the previous one, which retention has kept.

#![warn(missing_docs)]

use std::fmt;
use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use borealis_types::wire::{checksum, Reader, Wire, WireError};
use borealis_types::wire_struct;

/// Record kinds: the first byte of a record's body.
const INPUT: u8 = 0;
const CHECKPOINT: u8 = 1;
/// A record's sequence number is `segment << SEGMENT_SHIFT | index`.
const SEGMENT_SHIFT: u32 = 32;

/// Typed durability errors. Corruption is always reported as
/// [`StoreError::Corrupt`] — never a panic, never silently-wrong state —
/// mirroring the decode-side [`WireError`] contract.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io(io::Error),
    /// A log record failed validation.
    Corrupt {
        /// Which on-disk structure was bad.
        what: &'static str,
        /// Human-readable detail (lengths, checksums, decode error).
        detail: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::Corrupt { what, detail } => write!(f, "corrupt {what}: {detail}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

impl From<WireError> for StoreError {
    fn from(e: WireError) -> StoreError {
        StoreError::Corrupt {
            what: "wire record",
            detail: e.to_string(),
        }
    }
}

wire_struct! {
    /// The fixed header of a log record; the body it describes (the kind
    /// byte, then the payload) follows.
    struct RecordHeader {
        /// Bytes in the body.
        len: u32,
        /// `wire::checksum` of the body.
        check: u64,
    }
}

/// One decoded record, borrowing from the bytes it was read from.
enum Record<'a> {
    /// An input record's payload.
    Input(&'a [u8]),
    /// A checkpoint record's snapshot id and payload.
    Checkpoint(u64, &'a [u8]),
}

/// A snapshot loaded back from disk.
#[derive(Debug)]
pub struct LoadedSnapshot {
    /// Snapshot id the checkpoint record was appended under.
    pub snapshot_id: u64,
    /// The checkpoint record's sequence number: `read_log(seq)` returns the
    /// input appended after it.
    pub seq: u64,
    /// The verified payload bytes.
    pub payload: Vec<u8>,
    /// If a newer checkpoint record was torn, the typed error that forced
    /// the fall back to this one. `None` means the newest loaded cleanly.
    pub fell_back: Option<StoreError>,
}

/// One decoded input record: `(sequence number, payload bytes)`.
pub type LogRecord = (u64, Vec<u8>);

/// A log segment: its number and path.
type Segment = (u64, PathBuf);

/// One node's durable state root: the log and the markers.
#[derive(Debug)]
pub struct NodeStore {
    root: PathBuf,
}

impl NodeStore {
    /// Opens (creating if necessary) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<NodeStore, StoreError> {
        let root = root.into();
        fs::create_dir_all(root.join("log"))?;
        Ok(NodeStore { root })
    }

    fn log_dir(&self) -> PathBuf {
        self.root.join("log")
    }

    /// Appends `payload` as checkpoint record `snapshot_id` and runs its
    /// [`Seal`] — for a store no [`LogWriter`] has open: a log has one
    /// writer.
    pub fn publish(&self, snapshot_id: u64, payload: &[u8]) -> Result<(), StoreError> {
        let (mut log, _, _) = LogWriter::at_end(self, false)?;
        log.checkpoint(snapshot_id, |body| body.extend_from_slice(payload))?
            .run()
    }

    /// Loads the newest intact checkpoint record, falling back past torn
    /// ones (the typed error reported in [`LoadedSnapshot::fell_back`]).
    /// `Ok(None)` means a cold store.
    pub fn load_latest(&self) -> Result<Option<LoadedSnapshot>, StoreError> {
        let newest = newest_checkpoint(&segments(&self.log_dir())?)?;
        Ok(newest.map(|(_, snapshot)| snapshot))
    }

    /// Writes a small named marker file (e.g. `last_recovery`).
    pub fn write_marker(&self, name: &str, contents: &[u8]) -> Result<(), StoreError> {
        Ok(fs::write(
            self.root.join(format!("{name}.marker")),
            contents,
        )?)
    }

    /// Reads every input record with `seq > after`, in order. A torn or
    /// corrupt record stops the scan; the valid prefix is returned together
    /// with the typed error that ended it.
    pub fn read_log(&self, after: u64) -> Result<(Vec<LogRecord>, Option<StoreError>), StoreError> {
        let segs = segments(&self.log_dir())?;
        let first = segs.partition_point(|(n, _)| *n < after >> SEGMENT_SHIFT);
        let mut out = Vec::new();
        for (n, path) in &segs[first..] {
            let (_, _, torn) = scan_segment(&fs::read(path)?, |index, record| {
                let seq = n << SEGMENT_SHIFT | index;
                if let (Record::Input(payload), true) = (record, seq > after) {
                    out.push((seq, payload.to_vec()));
                }
            });
            if torn.is_some() {
                return Ok((out, torn));
            }
        }
        Ok((out, None))
    }
}

/// The log's one writer: appends input records, and begins a segment with
/// each checkpoint record.
#[derive(Debug)]
pub struct LogWriter {
    dir: PathBuf,
    /// The segment being appended to, shared with the [`Seal`] of the
    /// checkpoint that began it; `None` until a record begins one.
    file: Option<Arc<fs::File>>,
    /// Number of the newest segment, and the index of its next record.
    segment: u64,
    index: u64,
    /// Segment and snapshot id of the newest checkpoint record: what the
    /// next checkpoint's retention keeps, and the id it follows.
    checkpoint: Option<(u64, u64)>,
    sync_each: bool,
    /// The record being written, reused append to append.
    rec: Vec<u8>,
}

impl LogWriter {
    /// Opens the log under `store`, resuming after its last intact record.
    /// `sync_each` forces an fsync per append (tests / strict mode); the
    /// default is OS-buffered appends — a crash may lose the un-synced
    /// tail, which upstream replay then covers.
    ///
    /// Recovery reads from the newest intact checkpoint record on, and that
    /// stretch is checked here before anything is appended: the segment
    /// holding its first undecodable record is cut to its valid prefix and
    /// the segments behind it (which no reader can reach across the hole)
    /// are removed. What recovery reads is therefore always "valid prefix +
    /// what was appended since".
    pub fn open(store: &NodeStore, sync_each: bool) -> Result<LogWriter, StoreError> {
        let (mut log, segs, start) = LogWriter::at_end(store, sync_each)?;
        let mut tail = None;
        for (k, (n, path)) in segs.iter().enumerate().skip(start) {
            let (valid, count, torn) = scan_segment(&fs::read(path)?, |_, _| {});
            (log.segment, log.index, tail) = (*n, count, Some(path));
            if torn.is_some() {
                let cut = fs::OpenOptions::new().write(true).open(path)?;
                cut.set_len(valid as u64)?;
                cut.sync_all()?;
                for (_, unreachable) in &segs[k + 1..] {
                    fs::remove_file(unreachable)?;
                }
                break;
            }
        }
        if let Some(path) = tail {
            let file = fs::OpenOptions::new().append(true).open(path)?;
            log.file = Some(Arc::new(file));
        }
        Ok(log)
    }

    /// A writer whose first record begins a new segment, reading no more
    /// of the log than its segments' first records; with the segments, and
    /// the index among them of the newest one an intact checkpoint record
    /// begins (0 when none does).
    fn at_end(
        store: &NodeStore,
        sync_each: bool,
    ) -> Result<(LogWriter, Vec<Segment>, usize), StoreError> {
        let dir = store.log_dir();
        let segs = segments(&dir)?;
        let newest = newest_checkpoint(&segs)?.map(|(i, s)| (i, s.snapshot_id));
        let log = LogWriter {
            dir,
            file: None,
            segment: segs.last().map_or(0, |(n, _)| *n),
            index: 0,
            checkpoint: newest.map(|(i, id)| (segs[i].0, id)),
            sync_each,
            rec: Vec::new(),
        };
        Ok((log, segs, newest.map_or(0, |(i, _)| i)))
    }

    /// Snapshot id of the newest intact checkpoint record: the one found
    /// when the writer opened, or the last one it appended since.
    pub fn snapshot_id(&self) -> Option<u64> {
        self.checkpoint.map(|(_, id)| id)
    }

    /// Appends one input record, returning its sequence number.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, StoreError> {
        self.append_with(|body| body.extend_from_slice(payload))
    }

    /// Appends one input record whose payload `encode` writes straight into
    /// the record, returning its sequence number.
    pub fn append_with(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> Result<u64, StoreError> {
        self.write(INPUT, encode)
    }

    /// Appends checkpoint record `snapshot_id`, whose payload `encode`
    /// writes, as the first record of a new segment. It is durable once the
    /// returned [`Seal`] has run.
    pub fn checkpoint(
        &mut self,
        snapshot_id: u64,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> Result<Seal, StoreError> {
        self.file = None;
        self.write(CHECKPOINT, |body| {
            snapshot_id.put(body);
            encode(body);
        })?;
        let keep_from = self
            .checkpoint
            .replace((self.segment, snapshot_id))
            .map_or(self.segment, |(segment, _)| segment);
        Ok(Seal {
            file: Arc::clone(self.file.as_ref().expect("the record began a segment")),
            dir: self.dir.clone(),
            keep_from,
        })
    }

    fn write(&mut self, kind: u8, encode: impl FnOnce(&mut Vec<u8>)) -> Result<u64, StoreError> {
        // Built once, in the writer's own buffer: a header placeholder, the
        // body, then the real header encoded behind the body and moved over
        // the placeholder.
        let rec = &mut self.rec;
        rec.clear();
        RecordHeader { len: 0, check: 0 }.put(rec);
        kind.put(rec);
        encode(rec);
        let (body, end) = (RecordHeader::MIN_LEN, rec.len());
        let too_long = || io::Error::new(io::ErrorKind::InvalidInput, "record over 4 GiB");
        let header = RecordHeader {
            len: u32::try_from(end - body).map_err(|_| too_long())?,
            check: checksum(&rec[body..]),
        };
        header.put(rec);
        rec.copy_within(end.., 0);
        rec.truncate(end);

        if self.file.is_none() || self.index >> SEGMENT_SHIFT != 0 {
            let segment = self.segment + 1;
            let path = self.dir.join(format!("{segment:020}.log"));
            let file = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?;
            (self.file, self.segment, self.index) = (Some(Arc::new(file)), segment, 0);
        }
        let mut file: &fs::File = self.file.as_ref().expect("segment just begun");
        file.write_all(&self.rec)?;
        if self.sync_each {
            file.sync_data()?;
        }
        self.index += 1;
        Ok(self.segment << SEGMENT_SHIFT | (self.index - 1))
    }
}

/// What makes a checkpoint record durable. It holds the record's segment
/// open, so it can run on the writer's thread or be handed to another one.
#[derive(Debug)]
#[must_use = "a checkpoint record is durable only once its seal has run"]
pub struct Seal {
    file: Arc<fs::File>,
    dir: PathBuf,
    /// Segments numbered below this are deleted once the record is synced.
    keep_from: u64,
}

impl Seal {
    /// Syncs the checkpoint record's segment — the one `fdatasync` a
    /// checkpoint costs — then deletes every segment older than the one
    /// holding the previous checkpoint (than this one's, for the first).
    pub fn run(self) -> Result<(), StoreError> {
        self.file.sync_data()?;
        for (n, path) in segments(&self.dir)? {
            if n >= self.keep_from {
                break;
            }
            fs::remove_file(path)?;
        }
        Ok(())
    }
}

/// Decodes the next record off `r`.
fn decode_record<'a>(r: &mut Reader<'a>) -> Result<Record<'a>, StoreError> {
    let torn = |detail: String| StoreError::Corrupt {
        what: "log record",
        detail,
    };
    let have = r.remaining();
    let header =
        RecordHeader::get(r).map_err(|_| torn(format!("truncated header ({have} bytes)")))?;
    let (len, have) = (header.len as usize, r.remaining());
    if len == 0 || have < len {
        return Err(torn(format!("torn body (want {len}, have {have})")));
    }
    let body = r.bytes(len)?;
    if checksum(body) != header.check {
        return Err(torn("checksum mismatch".into()));
    }
    let mut body = Reader::new(body);
    Ok(match body.u8()? {
        INPUT => Record::Input(body.bytes(body.remaining())?),
        CHECKPOINT => Record::Checkpoint(body.u64()?, body.bytes(body.remaining())?),
        tag => {
            let what = "log record kind";
            return Err(WireError::BadTag { what, tag }.into());
        }
    })
}

/// Decodes the records of one segment in order, handing each to `each`
/// with its index. Returns the length of the segment's valid prefix, the
/// number of records in it and, if a record would not decode, the typed
/// error that ended the scan there.
fn scan_segment<'a>(
    bytes: &'a [u8],
    mut each: impl FnMut(u64, Record<'a>),
) -> (usize, u64, Option<StoreError>) {
    let mut r = Reader::new(bytes);
    let mut count = 0;
    while r.remaining() > 0 {
        let valid = bytes.len() - r.remaining();
        match decode_record(&mut r) {
            Ok(record) => each(count, record),
            Err(e) => return (valid, count, Some(e)),
        }
        count += 1;
    }
    (bytes.len(), count, None)
}

/// The newest segment an intact checkpoint record begins — its index in
/// `segs` — and that snapshot. Newer segments whose first record does not
/// decode are passed over, the newest one's error reported as the reason
/// for the fall back.
fn newest_checkpoint(segs: &[Segment]) -> Result<Option<(usize, LoadedSnapshot)>, StoreError> {
    let mut fell_back = None;
    for (i, (n, path)) in segs.iter().enumerate().rev() {
        let bytes = first_record(path)?;
        match decode_record(&mut Reader::new(&bytes)) {
            Ok(Record::Checkpoint(snapshot_id, payload)) => {
                let snapshot = LoadedSnapshot {
                    snapshot_id,
                    seq: n << SEGMENT_SHIFT,
                    payload: payload.to_vec(),
                    fell_back,
                };
                return Ok(Some((i, snapshot)));
            }
            Ok(Record::Input(_)) => {}
            Err(e) => {
                fell_back.get_or_insert(e);
            }
        }
    }
    Ok(None)
}

/// The bytes of the first record of the segment at `path` — its header and
/// as much of the body it announces as the file holds — and no more.
fn first_record(path: &Path) -> Result<Vec<u8>, StoreError> {
    let mut file = fs::File::open(path)?;
    let mut bytes = Vec::new();
    let header = RecordHeader::MIN_LEN as u64;
    (&mut file).take(header).read_to_end(&mut bytes)?;
    if let Ok(header) = RecordHeader::get(&mut Reader::new(&bytes)) {
        file.take(header.len as u64).read_to_end(&mut bytes)?;
    }
    Ok(bytes)
}

/// The log's segments, in order.
fn segments(dir: &Path) -> Result<Vec<Segment>, StoreError> {
    let mut segs: Vec<Segment> = fs::read_dir(dir)?
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            let n = path.file_stem()?.to_str()?.parse().ok()?;
            (path.extension()? == "log").then_some((n, path))
        })
        .collect();
    segs.sort();
    Ok(segs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("borealis-store-{}-{}", std::process::id(), name));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn segment_paths(store: &NodeStore) -> Vec<PathBuf> {
        let segs = segments(&store.log_dir()).unwrap();
        segs.into_iter().map(|(_, path)| path).collect()
    }

    fn flip(path: &Path, at: usize) {
        let mut bytes = fs::read(path).unwrap();
        bytes[at] ^= 0xFF;
        fs::write(path, bytes).unwrap();
    }

    fn cut(path: &Path, len: u64) {
        fs::OpenOptions::new()
            .write(true)
            .open(path)
            .unwrap()
            .set_len(len)
            .unwrap();
    }

    fn payloads(records: &[LogRecord]) -> Vec<&[u8]> {
        records.iter().map(|(_, p)| p.as_slice()).collect()
    }

    #[test]
    fn publish_and_load_round_trip() {
        let store = NodeStore::open(scratch("round-trip")).unwrap();
        assert!(store.load_latest().unwrap().is_none(), "cold store is None");
        store.publish(1, b"first state").unwrap();
        store.publish(2, b"second state").unwrap();
        let snap = store.load_latest().unwrap().unwrap();
        assert_eq!(snap.snapshot_id, 2);
        assert_eq!(snap.payload, b"second state");
        assert!(snap.fell_back.is_none());
        // A checkpoint covers nothing appended after it.
        let mut w = LogWriter::open(&store, true).unwrap();
        w.append(b"after").unwrap();
        let (records, torn) = store.read_log(snap.seq).unwrap();
        assert!(torn.is_none());
        assert_eq!(payloads(&records), [b"after"]);
    }

    #[test]
    fn log_appends_read_back_in_order_and_survive_reopen() {
        let store = NodeStore::open(scratch("log-basic")).unwrap();
        let mut w = LogWriter::open(&store, true).unwrap();
        let seqs: Vec<u64> = (0..10u8).map(|i| w.append(&[i; 3]).unwrap()).collect();
        drop(w);
        assert!(seqs.windows(2).all(|s| s[0] < s[1]), "{seqs:?}");
        let (records, torn) = store.read_log(0).unwrap();
        assert!(torn.is_none());
        assert_eq!(records.len(), 10);
        assert_eq!(records[0], (seqs[0], vec![0u8; 3]));
        assert_eq!(records[9], (seqs[9], vec![9u8; 3]));
        // Reopening resumes the sequence behind the last record.
        let mut w2 = LogWriter::open(&store, true).unwrap();
        let more = w2.append(b"more").unwrap();
        assert!(more > seqs[9]);
        let (records, _) = store.read_log(seqs[9]).unwrap();
        assert_eq!(records, vec![(more, b"more".to_vec())]);
    }

    /// Satellite: torn log tail at random offsets — the valid prefix
    /// survives and the scan reports a typed error for the tail.
    #[test]
    fn torn_log_tail_keeps_valid_prefix_with_typed_error() {
        let mut rng = StdRng::seed_from_u64(0x1061);
        for trial in 0..20u64 {
            let store = NodeStore::open(scratch(&format!("torn-log-{trial}"))).unwrap();
            let mut w = LogWriter::open(&store, true).unwrap();
            for i in 0..8u8 {
                w.append(&[i; 16]).unwrap();
            }
            drop(w);
            let seg = segment_paths(&store).pop().unwrap();
            let full = fs::metadata(&seg).unwrap().len();
            // Damage somewhere inside the last record.
            let rec = 12 + 1 + 16; // header + kind + payload
            let tail_start = full - rec as u64;
            if trial % 2 == 0 {
                cut(&seg, rng.gen_range(tail_start + 1..full));
            } else {
                flip(&seg, rng.gen_range(tail_start..full) as usize);
            }
            let (records, torn) = store.read_log(0).unwrap();
            assert_eq!(records.len(), 7, "trial {trial}: prefix intact");
            assert!(
                matches!(
                    torn,
                    Some(StoreError::Corrupt {
                        what: "log record",
                        ..
                    })
                ),
                "trial {trial}: typed tail error"
            );
        }
    }

    /// A crash that tears the tail must not shadow what the restarted node
    /// appends: reopening cuts the torn record, so every later append is
    /// read back and no sequence number is handed out twice.
    #[test]
    fn appends_after_a_torn_tail_are_read_back() {
        let store = NodeStore::open(scratch("torn-append")).unwrap();
        let mut w = LogWriter::open(&store, true).unwrap();
        let mut seqs: Vec<u64> = (0..8u8).map(|i| w.append(&[i; 16]).unwrap()).collect();
        drop(w);
        for _ in 0..2 {
            let seg = segment_paths(&store).pop().unwrap();
            cut(&seg, fs::metadata(&seg).unwrap().len() - 5);
            seqs.pop();
            let mut w = LogWriter::open(&store, true).unwrap();
            seqs.push(w.append(b"after the tear").unwrap());
            seqs.push(w.append(b"and one more").unwrap());
            drop(w);
            let (records, torn) = store.read_log(0).unwrap();
            assert!(torn.is_none(), "reopening cut the torn tail: {torn:?}");
            let read: Vec<u64> = records.iter().map(|(s, _)| *s).collect();
            assert_eq!(read, seqs, "no sequence number handed out twice");
        }
        // A hole behind the newest intact checkpoint (bit rot): the segments
        // behind it — here one a torn checkpoint record begins — go.
        let store = NodeStore::open(scratch("log-hole")).unwrap();
        let mut w = LogWriter::open(&store, true).unwrap();
        w.checkpoint(1, |b| b.extend_from_slice(b"one"))
            .unwrap()
            .run()
            .unwrap();
        w.append(b"lost to rot").unwrap();
        w.checkpoint(2, |b| b.extend_from_slice(b"two"))
            .unwrap()
            .run()
            .unwrap();
        w.append(b"behind the hole").unwrap();
        drop(w);
        let segs = segment_paths(&store);
        flip(&segs[0], fs::metadata(&segs[0]).unwrap().len() as usize - 1);
        flip(&segs[1], 20);
        let mut w = LogWriter::open(&store, true).unwrap();
        w.append(b"after the hole").unwrap();
        drop(w);
        assert_eq!(segment_paths(&store), segs[..1]);
        let snap = store.load_latest().unwrap().unwrap();
        assert_eq!((snap.snapshot_id, snap.payload), (1, b"one".to_vec()));
        let (records, torn) = store.read_log(snap.seq).unwrap();
        assert!(torn.is_none(), "{torn:?}");
        assert_eq!(payloads(&records), [b"after the hole"]);
    }

    /// Retention: once a checkpoint is synced, only the segment holding the
    /// previous checkpoint and newer ones remain — so a torn newest
    /// checkpoint still has the previous one and the input behind it.
    #[test]
    fn each_checkpoint_keeps_the_previous_one_and_the_input_behind_it() {
        let store = NodeStore::open(scratch("retention")).unwrap();
        let mut w = LogWriter::open(&store, true).unwrap();
        w.append(b"a").unwrap();
        w.checkpoint(1, |b| b.push(1)).unwrap().run().unwrap();
        assert_eq!(
            segment_paths(&store).len(),
            1,
            "the first drops the input before it"
        );
        for id in 2..=5u64 {
            w.append(&[b'a' + id as u8]).unwrap();
            w.checkpoint(id, |b| b.push(id as u8))
                .unwrap()
                .run()
                .unwrap();
            assert_eq!(segment_paths(&store).len(), 2, "checkpoint {id}");
        }
        let segs = segment_paths(&store);
        cut(&segs[1], 10);
        let snap = store.load_latest().unwrap().unwrap();
        assert_eq!((snap.snapshot_id, snap.payload), (4, vec![4]));
        assert!(matches!(snap.fell_back, Some(StoreError::Corrupt { .. })));
        let (records, torn) = store.read_log(snap.seq).unwrap();
        assert_eq!(payloads(&records), [b"f"]);
        assert!(torn.is_some(), "the torn checkpoint ends the readable log");
        // `publish` keeps the same two.
        let store = NodeStore::open(scratch("retention-publish")).unwrap();
        for id in 1..=20u64 {
            store.publish(id, format!("state {id}").as_bytes()).unwrap();
        }
        let segs = segment_paths(&store);
        assert_eq!(segs.len(), 2);
        fs::remove_file(&segs[1]).unwrap();
        let snap = store.load_latest().unwrap().unwrap();
        assert_eq!((snap.snapshot_id, snap.payload), (19, b"state 19".to_vec()));
    }

    #[test]
    fn markers_round_trip() {
        let root = scratch("markers");
        let store = NodeStore::open(&root).unwrap();
        store.write_marker("last_recovery", b"snap=3").unwrap();
        store
            .write_marker("last_recovery", b"snap=4 replayed=17")
            .unwrap();
        let on_disk = fs::read(root.join("last_recovery.marker")).unwrap();
        assert_eq!(on_disk, b"snap=4 replayed=17", "replaced whole");
    }
}
