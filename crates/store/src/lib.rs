//! # borealis-store
//!
//! The durability layer behind disk-based crash recovery: a restarted node
//! loads its last checkpoint and replays a bounded input-log suffix instead
//! of rebuilding from an empty state plus unbounded upstream replay (the
//! paper's §4.5 story, ROADMAP open item 2).
//!
//! The on-disk design follows the accepted-plane pattern (SNIPPETS.md
//! snippet 1): all bulk state lives in **immutable, content-addressed
//! objects**, and the only mutable file is a **small `HEAD` pointer** that
//! is flipped atomically (write temp → fsync → rename). A crash at any
//! instant therefore leaves one of three recoverable states:
//!
//! * `HEAD` intact → load the object it names, verify its checksum;
//! * `HEAD` missing or its object corrupt (torn write) → fall back to
//!   `HEAD.prev`, the pointer that was current before the in-flight flip;
//! * neither pointer present → cold start (empty state + upstream replay).
//!
//! Layout under one [`NodeStore`] root:
//!
//! ```text
//! objects/<fnv64-hex>.obj    immutable checkpoint payloads (content-addressed)
//! HEAD, HEAD.prev            pointer files: {snapshot id, object hash, length}
//! log/<first-seq>.log        append-only input log, checksummed records
//! <name>.marker              small atomic marker files (e.g. last_recovery)
//! ```
//!
//! The input log is a sequence of fixed-header records
//! `[len u32][fnv64 of body][body = seq u64 + payload]`; a torn tail is
//! detected by length or checksum, the valid prefix survives, and the tail
//! is cut off when the log is next opened for writing. Whole
//! segments are pruned once a published snapshot covers them
//! (snapshot-id-scoped truncation), and a checkpoint object is unlinked
//! once neither pointer names it: `objects/` holds at most the two
//! snapshots recovery can reach (plus one leaked by a crash between a flip
//! and its unlink, which nothing needs to sweep).

#![warn(missing_docs)]

use std::fmt;
use std::fs;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use borealis_types::wire::{Reader, Wire, WireError};
use borealis_types::wire_struct;

/// Magic prefix of a `HEAD` pointer file.
const HEAD_MAGIC: u32 = 0x4252_4844; // "BRHD"
/// Maximum bytes in one log segment before the writer rotates.
pub const DEFAULT_SEGMENT_BYTES: u64 = 256 * 1024;

/// Typed durability errors. Corruption is always reported as
/// [`StoreError::Corrupt`] — never a panic, never silently-wrong state —
/// mirroring the decode-side [`WireError`] contract.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io(io::Error),
    /// A pointer, object, or log record failed validation.
    Corrupt {
        /// Which on-disk structure was bad.
        what: &'static str,
        /// Human-readable detail (lengths, hashes, decode error).
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

/// FNV-1a 64 — the content address and record checksum. Not cryptographic;
/// it guards against torn writes and bit rot, not adversaries.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

wire_struct! {
    /// A decoded `HEAD` pointer: which snapshot is current and which object
    /// holds it. The file is `HEAD_MAGIC:u32`, these fields, then the
    /// FNV-1a 64 of everything before it.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct HeadPointer {
        /// Monotonic snapshot id assigned by the publisher.
        pub snapshot_id: u64,
        /// Content address (FNV-1a 64) of the object file.
        pub object: u64,
        /// Payload length in bytes, double-checked against the object file.
        pub len: u64,
    }
}

wire_struct! {
    /// The fixed header of a log record; the body it describes
    /// (`seq:u64`, then the payload) follows.
    struct RecordHeader {
        /// Bytes in the body.
        len: u32,
        /// FNV-1a 64 of the body.
        check: u64,
    }
}

/// A snapshot loaded back from disk.
#[derive(Debug)]
pub struct LoadedSnapshot {
    /// Snapshot id recorded in the pointer that validated.
    pub snapshot_id: u64,
    /// The verified payload bytes.
    pub payload: Vec<u8>,
    /// If `HEAD` itself was unusable, the typed error that forced the fall
    /// back to `HEAD.prev`. `None` means `HEAD` loaded cleanly.
    pub fell_back: Option<StoreError>,
}

/// One decoded input-log record: `(sequence number, payload bytes)`.
pub type LogRecord = (u64, Vec<u8>);

/// One node's durable state root: checkpoint objects + HEAD pointers +
/// input log + markers.
#[derive(Debug)]
pub struct NodeStore {
    root: PathBuf,
}

impl NodeStore {
    /// Opens (creating if necessary) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<NodeStore, StoreError> {
        let root = root.into();
        fs::create_dir_all(root.join("objects"))?;
        fs::create_dir_all(root.join("log"))?;
        Ok(NodeStore { root })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn object_path(&self, hash: u64) -> PathBuf {
        self.root.join("objects").join(format!("{hash:016x}.obj"))
    }

    fn head_path(&self) -> PathBuf {
        self.root.join("HEAD")
    }

    fn prev_path(&self) -> PathBuf {
        self.root.join("HEAD.prev")
    }

    /// Directory holding the input-log segments.
    pub fn log_dir(&self) -> PathBuf {
        self.root.join("log")
    }

    /// Publishes `payload` as snapshot `snapshot_id`: writes the
    /// content-addressed object (temp + fsync + rename), then flips `HEAD`
    /// atomically, demoting the previous pointer to `HEAD.prev` — and
    /// unlinks the object only the pointer that demotion overwrote named.
    /// Returns the object's content address.
    pub fn publish(&self, snapshot_id: u64, payload: &[u8]) -> Result<u64, StoreError> {
        let hash = fnv64(payload);
        let obj = self.object_path(hash);
        if !obj.exists() {
            write_atomic(&obj, payload)?;
        }
        let pointer = HeadPointer {
            snapshot_id,
            object: hash,
            len: payload.len() as u64,
        };
        let mut head = Vec::with_capacity(40);
        (HEAD_MAGIC, pointer).put(&mut head);
        fnv64(&head).put(&mut head);
        // Demote the current pointer first: if we crash between the two
        // renames, recovery finds no HEAD and falls back to HEAD.prev.
        let demoted = self.load_pointer(&self.head_path());
        let mut retired = None;
        if !matches!(demoted, Ok(None)) {
            // The demotion overwrites HEAD.prev: the object it names is
            // garbage once the flip lands, unless a surviving pointer
            // names the same content. Unreadable pointers retire nothing.
            if let (Ok(Some(demoted)), Ok(Some(old))) =
                (demoted, self.load_pointer(&self.prev_path()))
            {
                retired = Some(old.object).filter(|&o| o != hash && o != demoted.object);
            }
            fs::rename(self.head_path(), self.prev_path())?;
        }
        write_atomic(&self.head_path(), &head)?;
        if let Some(old) = retired {
            // Best effort: a failed (or crashed-over) unlink leaks one
            // object, which recovery never reads.
            let _ = fs::remove_file(self.object_path(old));
        }
        Ok(hash)
    }

    fn load_pointer(&self, path: &Path) -> Result<Option<HeadPointer>, StoreError> {
        let bytes = match fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let mut r = Reader::new(&bytes);
        let (magic, pointer, check) = <(u32, HeadPointer, u64)>::get(&mut r)?;
        r.finish()?;
        if magic != HEAD_MAGIC {
            return Err(StoreError::Corrupt {
                what: "HEAD pointer",
                detail: format!("bad magic {magic:#x}"),
            });
        }
        if check != fnv64(&bytes[..bytes.len() - u64::MIN_LEN]) {
            return Err(StoreError::Corrupt {
                what: "HEAD pointer",
                detail: "checksum mismatch".into(),
            });
        }
        Ok(Some(pointer))
    }

    fn load_via(&self, ptr: HeadPointer) -> Result<Vec<u8>, StoreError> {
        let payload = fs::read(self.object_path(ptr.object))?;
        if payload.len() as u64 != ptr.len {
            return Err(StoreError::Corrupt {
                what: "snapshot object",
                detail: format!("length {} != pointer {}", payload.len(), ptr.len),
            });
        }
        if fnv64(&payload) != ptr.object {
            return Err(StoreError::Corrupt {
                what: "snapshot object",
                detail: "content hash mismatch".into(),
            });
        }
        Ok(payload)
    }

    /// Loads the newest recoverable snapshot: `HEAD` first, falling back to
    /// `HEAD.prev` (with the typed error that disqualified `HEAD` reported
    /// in [`LoadedSnapshot::fell_back`]). `Ok(None)` means a cold store.
    pub fn load_latest(&self) -> Result<Option<LoadedSnapshot>, StoreError> {
        let head_err = match self.try_load(&self.head_path()) {
            Ok(Some(snap)) => return Ok(Some(snap)),
            Ok(None) => None,
            Err(e) => Some(e),
        };
        match self.try_load(&self.prev_path()) {
            Ok(Some(mut snap)) => {
                snap.fell_back = Some(head_err.unwrap_or(StoreError::Corrupt {
                    what: "HEAD pointer",
                    detail: "missing (crash mid-flip)".into(),
                }));
                Ok(Some(snap))
            }
            Ok(None) => match head_err {
                // HEAD was corrupt and there is no fallback: surface it.
                Some(e) => Err(e),
                None => Ok(None),
            },
            Err(e) => Err(head_err.unwrap_or(e)),
        }
    }

    fn try_load(&self, path: &Path) -> Result<Option<LoadedSnapshot>, StoreError> {
        match self.load_pointer(path)? {
            None => Ok(None),
            Some(ptr) => {
                let payload = self.load_via(ptr)?;
                Ok(Some(LoadedSnapshot {
                    snapshot_id: ptr.snapshot_id,
                    payload,
                    fell_back: None,
                }))
            }
        }
    }

    /// Current `HEAD` pointer, if one validates (no object read).
    pub fn head(&self) -> Result<Option<HeadPointer>, StoreError> {
        self.load_pointer(&self.head_path())
    }

    /// Writes a small named marker file atomically (e.g. `last_recovery`).
    pub fn write_marker(&self, name: &str, contents: &[u8]) -> Result<(), StoreError> {
        write_atomic(&self.root.join(format!("{name}.marker")), contents)
    }

    /// Reads every log record with `seq > after`, in order. A torn or
    /// corrupt tail stops the scan; the valid prefix is returned together
    /// with the typed error that ended it.
    pub fn read_log(&self, after: u64) -> Result<(Vec<LogRecord>, Option<StoreError>), StoreError> {
        let mut out = Vec::new();
        for seg in sorted_segments(&self.log_dir())? {
            let keep = |seq, payload: &[u8]| {
                if seq > after {
                    out.push((seq, payload.to_vec()));
                }
            };
            if let (_, Some(tail_err)) = scan_segment(&fs::read(&seg)?, keep) {
                return Ok((out, Some(tail_err)));
            }
        }
        Ok((out, None))
    }

    /// Deletes every log segment fully covered by `covered_seq` (all its
    /// records have `seq <= covered_seq`) — the snapshot-id-scoped
    /// truncation: pruning is driven by what the published snapshot covers,
    /// never by wall-clock retention.
    pub fn prune_log(&self, covered_seq: u64) -> Result<usize, StoreError> {
        let segs = sorted_segments(&self.log_dir())?;
        let firsts: Vec<u64> = segs.iter().filter_map(|p| segment_first_seq(p)).collect();
        let mut removed = 0;
        for i in 0..segs.len() {
            // A segment is disposable iff the NEXT segment starts at or
            // below covered_seq + 1 — then every record here is covered.
            if i + 1 < firsts.len() && firsts[i + 1] <= covered_seq.saturating_add(1) {
                fs::remove_file(&segs[i])?;
                removed += 1;
            }
        }
        Ok(removed)
    }
}

/// Append side of the input log: rotating, checksummed segments.
#[derive(Debug)]
pub struct LogWriter {
    dir: PathBuf,
    file: Option<fs::File>,
    seg_bytes: u64,
    max_seg_bytes: u64,
    next_seq: u64,
    sync_each: bool,
    /// The record being written, reused append to append.
    rec: Vec<u8>,
}

impl LogWriter {
    /// Opens the log under `store`, resuming after the last durable record.
    /// `sync_each` forces an fsync per append (tests / strict mode); the
    /// default is OS-buffered appends — a crash may lose the un-synced
    /// tail, which upstream replay then covers.
    ///
    /// A tail torn by that crash is cut here, before anything is appended:
    /// the segment holding the first undecodable record is truncated to its
    /// valid prefix and the segments behind it (which no reader can reach
    /// across the hole) are removed, so the log on disk is always "valid
    /// prefix + what was appended since" and a sequence number is never
    /// handed out twice.
    pub fn open(store: &NodeStore, sync_each: bool) -> Result<LogWriter, StoreError> {
        let dir = store.log_dir();
        let mut next_seq = 1;
        let mut segments = sorted_segments(&dir)?.into_iter();
        for seg in segments.by_ref() {
            let bytes = fs::read(&seg)?;
            let (valid, tail_err) = scan_segment(&bytes, |seq, _| next_seq = seq + 1);
            if tail_err.is_some() {
                truncate_file(&seg, valid as u64)?;
                break;
            }
        }
        for unreachable in segments {
            fs::remove_file(unreachable)?;
        }
        Ok(LogWriter {
            dir,
            file: None,
            seg_bytes: 0,
            max_seg_bytes: DEFAULT_SEGMENT_BYTES,
            next_seq,
            sync_each,
            rec: Vec::new(),
        })
    }

    /// Overrides the rotation threshold (tests use tiny segments).
    pub fn set_segment_bytes(&mut self, bytes: u64) {
        self.max_seg_bytes = bytes.max(1);
    }

    /// Sequence number of the last appended record (0 if none).
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Appends one record, returning its sequence number.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, StoreError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        // Built once, in the writer's own buffer: a header placeholder, the
        // body, then the real header encoded behind the body and moved over
        // the placeholder.
        let rec = &mut self.rec;
        rec.clear();
        RecordHeader { len: 0, check: 0 }.put(rec);
        seq.put(rec);
        rec.extend_from_slice(payload);
        let (body, end) = (RecordHeader::MIN_LEN, rec.len());
        let header = RecordHeader {
            len: (end - body) as u32,
            check: fnv64(&rec[body..]),
        };
        header.put(rec);
        rec.copy_within(end.., 0);
        rec.truncate(end);

        if self.file.is_none() || self.seg_bytes >= self.max_seg_bytes {
            let path = self.dir.join(format!("{seq:020}.log"));
            self.file = Some(
                fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?,
            );
            self.seg_bytes = 0;
        }
        let f = self.file.as_mut().expect("segment just opened");
        f.write_all(&self.rec)?;
        if self.sync_each {
            f.sync_data()?;
        }
        self.seg_bytes += self.rec.len() as u64;
        Ok(seq)
    }

    /// Flushes (and fsyncs) the current segment — called when a snapshot is
    /// published so the covered prefix is durable before pruning.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        if let Some(f) = self.file.as_mut() {
            f.sync_data()?;
        }
        Ok(())
    }
}

/// Decodes the next record off `r`: its sequence number and payload.
fn decode_record<'a>(r: &mut Reader<'a>) -> Result<(u64, &'a [u8]), StoreError> {
    let torn = |detail: String| StoreError::Corrupt {
        what: "log record",
        detail,
    };
    let have = r.remaining();
    let header =
        RecordHeader::get(r).map_err(|_| torn(format!("truncated header ({have} bytes)")))?;
    let (len, have) = (header.len as usize, r.remaining());
    if len < u64::MIN_LEN || have < len {
        return Err(torn(format!("torn body (want {len}, have {have})")));
    }
    let body = r.bytes(len)?;
    if fnv64(body) != header.check {
        return Err(torn("checksum mismatch".into()));
    }
    let mut body = Reader::new(body);
    let seq = body.u64()?;
    Ok((seq, body.bytes(body.remaining())?))
}

/// Decodes the records of one segment in order, handing each to `each`.
/// Returns the length of the segment's valid prefix and, if a record would
/// not decode, the typed error that ended the scan there.
fn scan_segment(bytes: &[u8], mut each: impl FnMut(u64, &[u8])) -> (usize, Option<StoreError>) {
    let mut r = Reader::new(bytes);
    while r.remaining() > 0 {
        let valid = bytes.len() - r.remaining();
        match decode_record(&mut r) {
            Ok((seq, payload)) => each(seq, payload),
            Err(e) => return (valid, Some(e)),
        }
    }
    (bytes.len(), None)
}

fn sorted_segments(dir: &Path) -> Result<Vec<PathBuf>, StoreError> {
    let mut segs: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().map(|x| x == "log").unwrap_or(false))
        .collect();
    segs.sort();
    Ok(segs)
}

fn segment_first_seq(path: &Path) -> Option<u64> {
    path.file_stem()?.to_str()?.parse().ok()
}

fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let dir = path.parent().expect("store paths always have a parent");
    let tmp = dir.join(format!(
        ".tmp-{}",
        path.file_name().and_then(|n| n.to_str()).unwrap_or("obj")
    ));
    let mut f = fs::File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    fs::rename(&tmp, path)?;
    sync_dir(dir)?;
    Ok(())
}

fn sync_dir(dir: &Path) -> Result<(), StoreError> {
    // Directory fsync is best-effort on platforms where opening a directory
    // fails; Linux (the deployment target) supports it.
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Truncates `path` to `len` bytes, durably — how [`LogWriter::open`] cuts
/// a torn tail, and torn-write fault injection for tests.
pub fn truncate_file(path: &Path, len: u64) -> Result<(), StoreError> {
    let f = fs::OpenOptions::new().write(true).open(path)?;
    f.set_len(len)?;
    f.sync_all()?;
    Ok(())
}

/// Flips one byte at `offset` in `path` — bit-rot fault injection for tests.
pub fn corrupt_byte(path: &Path, offset: u64) -> Result<(), StoreError> {
    let mut f = fs::OpenOptions::new().read(true).write(true).open(path)?;
    let mut b = [0u8; 1];
    f.seek(SeekFrom::Start(offset))?;
    f.read_exact(&mut b)?;
    b[0] ^= 0xFF;
    f.seek(SeekFrom::Start(offset))?;
    f.write_all(&b)?;
    Ok(())
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
    }

    #[test]
    fn crash_mid_flip_falls_back_to_prev() {
        let store = NodeStore::open(scratch("mid-flip")).unwrap();
        store.publish(1, b"one").unwrap();
        store.publish(2, b"two").unwrap();
        // Simulate a crash after HEAD -> HEAD.prev but before the new HEAD
        // landed: remove HEAD entirely.
        fs::remove_file(store.root().join("HEAD")).unwrap();
        let snap = store.load_latest().unwrap().unwrap();
        assert_eq!(snap.snapshot_id, 1, "previous pointer wins");
        assert_eq!(snap.payload, b"one");
        assert!(matches!(
            snap.fell_back,
            Some(StoreError::Corrupt {
                what: "HEAD pointer",
                ..
            })
        ));
    }

    /// Satellite: torn-write recovery. Truncate or flip bytes of the newest
    /// checkpoint object at random offsets; recovery must fall back to the
    /// previous HEAD with a typed [`StoreError::Corrupt`] — never load the
    /// damaged object, never panic. Same harness style as the PR 7
    /// `WireError` corruption-rejection tests.
    #[test]
    fn torn_checkpoint_object_falls_back_to_prev_head() {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for trial in 0..20u64 {
            let store = NodeStore::open(scratch(&format!("torn-obj-{trial}"))).unwrap();
            let old: Vec<u8> = (0..200).map(|i| (i * 7) as u8).collect();
            let new: Vec<u8> = (0..300).map(|i| (i * 13 + 1) as u8).collect();
            store.publish(10, &old).unwrap();
            let hash = store.publish(11, &new).unwrap();
            let obj = store
                .root()
                .join("objects")
                .join(format!("{hash:016x}.obj"));
            if trial % 2 == 0 {
                let cut = rng.gen_range(0..new.len() as u64);
                truncate_file(&obj, cut).unwrap();
            } else {
                let off = rng.gen_range(0..new.len() as u64);
                corrupt_byte(&obj, off).unwrap();
            }
            let snap = store.load_latest().unwrap().unwrap();
            assert_eq!(snap.snapshot_id, 10, "trial {trial}: fell back to prev");
            assert_eq!(snap.payload, old);
            assert!(
                matches!(snap.fell_back, Some(StoreError::Corrupt { .. })),
                "trial {trial}: typed corruption error reported"
            );
        }
    }

    #[test]
    fn corrupt_head_pointer_is_a_typed_error_not_a_panic() {
        let store = NodeStore::open(scratch("bad-head")).unwrap();
        store.publish(1, b"alpha").unwrap();
        store.publish(2, b"beta").unwrap();
        corrupt_byte(&store.root().join("HEAD"), 6).unwrap();
        let snap = store.load_latest().unwrap().unwrap();
        assert_eq!(snap.payload, b"alpha");
        assert!(matches!(snap.fell_back, Some(StoreError::Corrupt { .. })));
    }

    #[test]
    fn log_appends_read_back_in_order_and_survive_reopen() {
        let store = NodeStore::open(scratch("log-basic")).unwrap();
        let mut w = LogWriter::open(&store, true).unwrap();
        for i in 0..10u8 {
            w.append(&[i; 3]).unwrap();
        }
        drop(w);
        let (records, torn) = store.read_log(0).unwrap();
        assert!(torn.is_none());
        assert_eq!(records.len(), 10);
        assert_eq!(records[0], (1, vec![0u8; 3]));
        assert_eq!(records[9], (10, vec![9u8; 3]));
        // Reopen resumes the sequence.
        let mut w2 = LogWriter::open(&store, true).unwrap();
        assert_eq!(w2.last_seq(), 10);
        w2.append(b"more").unwrap();
        let (records, _) = store.read_log(10).unwrap();
        assert_eq!(records, vec![(11, b"more".to_vec())]);
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
            let segs = sorted_segments(&store.log_dir()).unwrap();
            let seg = segs.last().unwrap();
            let full = fs::metadata(seg).unwrap().len();
            // Damage somewhere inside the last record.
            let rec = 12 + 8 + 16; // header + seq + payload
            let tail_start = full - rec as u64;
            if trial % 2 == 0 {
                let cut = rng.gen_range(tail_start + 1..full);
                truncate_file(seg, cut).unwrap();
            } else {
                let off = rng.gen_range(tail_start..full);
                corrupt_byte(seg, off).unwrap();
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
        for i in 0..8u8 {
            w.append(&[i; 16]).unwrap();
        }
        drop(w);
        for last_valid in [7u64, 8] {
            let segs = sorted_segments(&store.log_dir()).unwrap();
            let seg = segs.last().unwrap();
            truncate_file(seg, fs::metadata(seg).unwrap().len() - 5).unwrap();
            let mut w = LogWriter::open(&store, true).unwrap();
            assert_eq!(w.last_seq(), last_valid, "the torn record is gone");
            assert_eq!(w.append(b"after the tear").unwrap(), last_valid + 1);
            assert_eq!(w.append(b"and one more").unwrap(), last_valid + 2);
            drop(w);
            let (records, torn) = store.read_log(0).unwrap();
            assert!(torn.is_none(), "reopening cut the torn tail: {torn:?}");
            let seqs: Vec<u64> = records.iter().map(|(s, _)| *s).collect();
            assert_eq!(seqs, (1..=last_valid + 2).collect::<Vec<_>>());
        }
        // A hole in the middle (bit rot, or a store whose torn segment an
        // older writer left in place): the segments behind it are dropped.
        let store = NodeStore::open(scratch("log-hole")).unwrap();
        let mut w = LogWriter::open(&store, true).unwrap();
        w.set_segment_bytes(1); // one record per segment
        for i in 0..3u8 {
            w.append(&[i; 4]).unwrap();
        }
        drop(w);
        corrupt_byte(&sorted_segments(&store.log_dir()).unwrap()[1], 15).unwrap();
        let mut w = LogWriter::open(&store, true).unwrap();
        assert_eq!(w.append(b"two again").unwrap(), 2);
        drop(w);
        let (records, torn) = store.read_log(0).unwrap();
        assert!(torn.is_none(), "{torn:?}");
        assert_eq!(records, vec![(1, vec![0u8; 4]), (2, b"two again".to_vec())]);
    }

    #[test]
    fn snapshot_scoped_pruning_removes_covered_segments_only() {
        let store = NodeStore::open(scratch("prune")).unwrap();
        let mut w = LogWriter::open(&store, true).unwrap();
        w.set_segment_bytes(1); // one record per segment
        for i in 0..6u8 {
            w.append(&[i]).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        assert_eq!(sorted_segments(&store.log_dir()).unwrap().len(), 6);
        // Snapshot covers seqs 1..=4: segments 1..=4 become prunable except
        // the rule keeps a segment until its successor proves coverage.
        let removed = store.prune_log(4).unwrap();
        assert_eq!(removed, 4);
        let (records, _) = store.read_log(0).unwrap();
        assert_eq!(
            records.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![5, 6],
            "uncovered suffix survives"
        );
        // Nothing newly covered: no-op.
        assert_eq!(store.prune_log(4).unwrap(), 0);
    }

    #[test]
    fn publish_keeps_only_the_two_reachable_objects() {
        let store = NodeStore::open(scratch("gc")).unwrap();
        for id in 1..=20u64 {
            store.publish(id, format!("state {id}").as_bytes()).unwrap();
        }
        let objects = fs::read_dir(store.root().join("objects")).unwrap().count();
        assert_eq!(objects, 2, "HEAD's and HEAD.prev's, nothing else");
        assert_eq!(store.load_latest().unwrap().unwrap().payload, b"state 20");
        fs::remove_file(store.root().join("HEAD")).unwrap();
        let snap = store.load_latest().unwrap().unwrap();
        assert_eq!((snap.snapshot_id, snap.payload), (19, b"state 19".to_vec()));
        // Identical content shares one object: re-publishing it must not
        // unlink what the surviving pointers name.
        let store = NodeStore::open(scratch("gc-same")).unwrap();
        for (id, payload) in [(1, "a"), (2, "b"), (3, "b"), (4, "c"), (5, "b")] {
            store.publish(id, payload.as_bytes()).unwrap();
        }
        assert_eq!(store.load_latest().unwrap().unwrap().payload, b"b");
        fs::remove_file(store.root().join("HEAD")).unwrap();
        assert_eq!(store.load_latest().unwrap().unwrap().payload, b"c");
    }

    #[test]
    fn markers_round_trip() {
        let store = NodeStore::open(scratch("markers")).unwrap();
        store.write_marker("last_recovery", b"snap=3").unwrap();
        store
            .write_marker("last_recovery", b"snap=4 replayed=17")
            .unwrap();
        let on_disk = fs::read(store.root().join("last_recovery.marker")).unwrap();
        assert_eq!(on_disk, b"snap=4 replayed=17", "replaced whole");
    }
}
