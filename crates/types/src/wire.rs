//! The binary wire format shared by every socket link.
//!
//! The TCP transport moves [`Tuple`]s and protocol messages between OS
//! processes as length-prefixed binary **frames**. This module owns the
//! protocol-agnostic half: primitive little-endian put/get helpers over a
//! reusable byte buffer, the frame header, the tuple/value payload layout,
//! and the decode-side [`WireError`] (corrupted input is rejected, never a
//! panic). The `NetMsg`-specific codec lives in `borealis-dpc`.
//!
//! ## Frame layout
//!
//! ```text
//! +----------+----------+----------+--------+=============+
//! | len: u32 | from:u32 | to: u32  | kind:u8|   payload   |
//! +----------+----------+----------+--------+=============+
//!  `len` counts every byte after itself (from + to + kind + payload),
//!  so a frame occupies `4 + len` bytes on the wire. All integers are
//!  little-endian. `from`/`to` are the [`NodeId`]s of the sending and
//!  receiving actor; `kind` selects the payload codec.
//! ```
//!
//! ## Tuple layout
//!
//! ```text
//! tuple   := kind:u8  id:u64  stime:u64(µs)  origin:u16  nvalues:u32  value*
//! value   := 0x00 i64          (Int, two's complement)
//!          | 0x01 u64          (Float, IEEE-754 bit pattern — bit-exact)
//!          | 0x02 u8           (Bool, 0 or 1)
//!          | 0x03 len:u32 utf8 (Str)
//! batch   := count:u32 tuple*
//! ```
//!
//! Floats travel as raw bit patterns so a round trip is bit-identical
//! (including NaN payloads) — the same totality [`Value`]'s `Eq`/`Ord`
//! rely on.

use crate::batch::TupleBatch;
use crate::ids::NodeId;
use crate::time::Time;
use crate::tuple::{Tuple, TupleId, TupleKind};
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// Bytes of frame header that follow the length prefix: from (4) + to (4)
/// + kind (1).
pub const FRAME_OVERHEAD: usize = 9;

/// Hard ceiling on the `len` prefix. A frame longer than this is treated
/// as corruption (a desynchronized or malicious stream), not as a request
/// to allocate gigabytes.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Why a decode was rejected. Decoding never panics on foreign bytes: any
/// truncation, bad tag, or over-long length comes back as one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the announced structure did.
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME_LEN`] or is shorter than the
    /// frame header it must contain.
    BadLength(usize),
    /// An enum tag byte had no defined meaning.
    BadTag {
        /// Which tag space the byte came from ("frame kind", "tuple
        /// kind", "value").
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A string payload was not valid UTF-8.
    BadUtf8,
    /// A payload decoded cleanly but left unconsumed bytes behind.
    Trailing(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::BadLength(n) => write!(f, "bad frame length {n}"),
            WireError::BadTag { what, tag } => write!(f, "bad {what} tag {tag:#04x}"),
            WireError::BadUtf8 => write!(f, "string payload is not UTF-8"),
            WireError::Trailing(n) => write!(f, "{n} trailing bytes after payload"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------
// Encode side: append-only little-endian writers over a plain Vec<u8>.
// The Vec is caller-owned and reused flush to flush, so the steady state
// allocates nothing.
// ---------------------------------------------------------------------

/// Appends a `u8`.
#[inline]
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Appends a little-endian `u16`.
#[inline]
pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u32`.
#[inline]
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
#[inline]
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a length-prefixed UTF-8 string (`len:u32` + bytes).
#[inline]
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Opens a frame: writes a length placeholder plus the `from`/`to`/`kind`
/// header and returns the mark to pass to [`end_frame`]. The payload is
/// appended to `buf` between the two calls — straight from the source
/// structures, with no intermediate allocation.
#[inline]
pub fn begin_frame(buf: &mut Vec<u8>, from: NodeId, to: NodeId, kind: u8) -> usize {
    let mark = buf.len();
    put_u32(buf, 0); // patched by end_frame
    put_u32(buf, from.0);
    put_u32(buf, to.0);
    put_u8(buf, kind);
    mark
}

/// Closes the frame opened at `mark`, patching the length prefix.
#[inline]
pub fn end_frame(buf: &mut [u8], mark: usize) {
    let len = (buf.len() - mark - 4) as u32;
    buf[mark..mark + 4].copy_from_slice(&len.to_le_bytes());
}

/// Encodes one attribute value (see the module docs for the layout).
pub fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Int(i) => {
            put_u8(buf, 0x00);
            put_u64(buf, *i as u64);
        }
        Value::Float(x) => {
            put_u8(buf, 0x01);
            put_u64(buf, x.to_bits());
        }
        Value::Bool(b) => {
            put_u8(buf, 0x02);
            put_u8(buf, *b as u8);
        }
        Value::Str(s) => {
            put_u8(buf, 0x03);
            put_str(buf, s);
        }
    }
}

/// Encodes one tuple.
pub fn put_tuple(buf: &mut Vec<u8>, t: &Tuple) {
    let kind = match t.kind {
        TupleKind::Insertion => 0u8,
        TupleKind::Tentative => 1,
        TupleKind::Boundary => 2,
        TupleKind::Undo => 3,
        TupleKind::RecDone => 4,
    };
    put_u8(buf, kind);
    put_u64(buf, t.id.0);
    put_u64(buf, t.stime.as_micros());
    put_u16(buf, t.origin);
    put_u32(buf, t.values.len() as u32);
    for v in t.values.iter() {
        put_value(buf, v);
    }
}

/// Encodes a batch **view**: only the tuples visible through the view's
/// `[start, end)` window, iterated in place from the `Arc`'d backing slice
/// — the batch is never copied or re-collected before encoding.
pub fn put_batch(buf: &mut Vec<u8>, b: &TupleBatch) {
    put_u32(buf, b.len() as u32);
    for t in b.as_slice() {
        put_tuple(buf, t);
    }
}

/// Encodes a selection view straight into the write buffer — the count
/// header then each selected run's tuples in order. Wire-compatible with
/// [`put_batch`]/[`Reader::batch`]: the receiver decodes a contiguous
/// batch, so a fragmented selection is never materialized on the sender.
pub fn put_view(buf: &mut Vec<u8>, v: &crate::batch::BatchView) {
    put_u32(buf, v.len() as u32);
    for run in v.runs() {
        for t in run {
            put_tuple(buf, t);
        }
    }
}

// ---------------------------------------------------------------------
// Decode side: a bounds-checked cursor. Every read that would run off the
// end returns WireError::Truncated instead of slicing out of range.
// ---------------------------------------------------------------------

/// A bounds-checked decode cursor over a byte slice.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads `n` raw bytes — the escape hatch for nested records (the
    /// durable snapshot format length-prefixes each operator's state so a
    /// decoder can skip or sandbox it).
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| WireError::BadUtf8)
    }

    /// Reads one attribute value.
    pub fn value(&mut self) -> Result<Value, WireError> {
        match self.u8()? {
            0x00 => Ok(Value::Int(self.u64()? as i64)),
            0x01 => Ok(Value::Float(f64::from_bits(self.u64()?))),
            0x02 => match self.u8()? {
                0 => Ok(Value::Bool(false)),
                1 => Ok(Value::Bool(true)),
                tag => Err(WireError::BadTag { what: "bool", tag }),
            },
            0x03 => Ok(Value::Str(Arc::from(self.str()?))),
            tag => Err(WireError::BadTag { what: "value", tag }),
        }
    }

    /// Reads one tuple.
    pub fn tuple(&mut self) -> Result<Tuple, WireError> {
        // The fixed 23-byte header in one bounds check.
        let h: &[u8; 23] = self.take(23)?.try_into().expect("23 bytes");
        let kind = match h[0] {
            0 => TupleKind::Insertion,
            1 => TupleKind::Tentative,
            2 => TupleKind::Boundary,
            3 => TupleKind::Undo,
            4 => TupleKind::RecDone,
            tag => {
                return Err(WireError::BadTag {
                    what: "tuple kind",
                    tag,
                })
            }
        };
        let id = TupleId(u64::from_le_bytes(h[1..9].try_into().expect("8 bytes")));
        let stime = Time(u64::from_le_bytes(h[9..17].try_into().expect("8 bytes")));
        let origin = u16::from_le_bytes(h[17..19].try_into().expect("2 bytes"));
        let nvalues = u32::from_le_bytes(h[19..23].try_into().expect("4 bytes")) as usize;
        // A tuple value is at least 2 bytes on the wire; cap the
        // pre-allocation by what the buffer could actually hold so a
        // corrupted count cannot force a huge reservation.
        if nvalues > self.remaining() / 2 + 1 {
            return Err(WireError::Truncated);
        }
        let values = Tuple::try_values(nvalues, |_| self.value())?;
        Ok(Tuple {
            kind,
            id,
            stime,
            origin,
            values,
        })
    }

    /// Reads a tuple batch.
    pub fn batch(&mut self) -> Result<TupleBatch, WireError> {
        let count = self.u32()? as usize;
        // A wire tuple is at least 23 bytes; reject counts the buffer
        // cannot possibly satisfy before allocating for them.
        if count > self.remaining() / 23 + 1 {
            return Err(WireError::Truncated);
        }
        let mut tuples = Vec::with_capacity(count);
        for _ in 0..count {
            tuples.push(self.tuple()?);
        }
        Ok(TupleBatch::from_vec(tuples))
    }

    /// Asserts the payload was fully consumed.
    pub fn finish(self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(WireError::Trailing(n)),
        }
    }
}

/// Splits the next complete frame off `bytes`, if one has fully arrived.
///
/// Returns `Ok(None)` when more bytes are needed, and
/// `Ok(Some((from, to, kind, payload, consumed)))` for a complete frame —
/// `payload` borrows from `bytes` and `consumed` is the total frame size
/// to drain from the receive buffer. A length prefix outside
/// `[FRAME_OVERHEAD, MAX_FRAME_LEN]` is corruption ([`WireError::BadLength`]).
#[allow(clippy::type_complexity)]
pub fn split_frame(bytes: &[u8]) -> Result<Option<(NodeId, NodeId, u8, &[u8], usize)>, WireError> {
    if bytes.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes")) as usize;
    if !(FRAME_OVERHEAD..=MAX_FRAME_LEN).contains(&len) {
        return Err(WireError::BadLength(len));
    }
    if bytes.len() < 4 + len {
        return Ok(None);
    }
    let from = NodeId(u32::from_le_bytes(bytes[4..8].try_into().expect("4")));
    let to = NodeId(u32::from_le_bytes(bytes[8..12].try_into().expect("4")));
    let kind = bytes[12];
    Ok(Some((from, to, kind, &bytes[13..4 + len], 4 + len)))
}

// ---------------------------------------------------------------------
// Wire gauges.
// ---------------------------------------------------------------------

/// Point-in-time counters of the socket transport, surfaced next to
/// [`FlowGauges`](crate::FlowGauges) and [`SchedGauges`](crate::SchedGauges)
/// so wire behavior — bytes moved, how many frames each flush syscall
/// carried, grant traffic — is measurable, never silent.
///
/// All counters are cumulative over the run, summed across every
/// connection of the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireGauges {
    /// Connections currently established.
    pub conns: u64,
    /// Payload bytes written to sockets.
    pub bytes_sent: u64,
    /// Payload bytes read from sockets.
    pub bytes_recv: u64,
    /// Frames encoded and written.
    pub frames_sent: u64,
    /// Frames decoded from the receive stream.
    pub frames_recv: u64,
    /// Writer flushes (one gathered `write_vectored` pass over the swap
    /// buffer; `frames_sent / flushes` is the coalescing ratio).
    pub flushes: u64,
    /// `CreditGrant` frames sent (the wire replacement of the in-process
    /// `Replenish` path).
    pub grants_sent: u64,
    /// `CreditGrant` frames received.
    pub grants_recv: u64,
    /// `StallReport` frames received (remote credit stall telemetry).
    pub stall_reports: u64,
    /// Frames purged from send queues when a connection reset (counted as
    /// delivery drops, exactly like an in-process crash purge).
    pub purged_frames: u64,
    /// Connections torn down by reset or EOF.
    pub resets: u64,
}

impl WireGauges {
    /// Average frames carried per flush syscall (0 if nothing flushed).
    pub fn frames_per_flush(&self) -> f64 {
        if self.flushes == 0 {
            0.0
        } else {
            self.frames_sent as f64 / self.flushes as f64
        }
    }

    /// Adds `other`'s counters into `self` (summing per-connection gauges
    /// into a process-wide snapshot).
    pub fn absorb(&mut self, other: &WireGauges) {
        self.conns += other.conns;
        self.bytes_sent += other.bytes_sent;
        self.bytes_recv += other.bytes_recv;
        self.frames_sent += other.frames_sent;
        self.frames_recv += other.frames_recv;
        self.flushes += other.flushes;
        self.grants_sent += other.grants_sent;
        self.grants_recv += other.grants_recv;
        self.stall_reports += other.stall_reports;
        self.purged_frames += other.purged_frames;
        self.resets += other.resets;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Time;

    #[test]
    fn primitives_round_trip() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 0xAB);
        put_u16(&mut buf, 0xBEEF);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 1);
        put_str(&mut buf, "héllo");
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.str().unwrap(), "héllo");
        r.finish().unwrap();
    }

    #[test]
    fn values_round_trip_bit_exact() {
        let vals = [
            Value::Int(-42),
            Value::Float(f64::from_bits(0x7FF8_0000_DEAD_BEEF)), // NaN payload
            Value::Float(-0.0),
            Value::Bool(true),
            Value::str("stream"),
        ];
        let mut buf = Vec::new();
        for v in &vals {
            put_value(&mut buf, v);
        }
        let mut r = Reader::new(&buf);
        for v in &vals {
            // Eq on Value already compares floats by bits.
            assert_eq!(*v, r.value().unwrap());
        }
        r.finish().unwrap();
    }

    #[test]
    fn batch_view_encodes_only_the_window() {
        let tuples: Vec<Tuple> = (0..10)
            .map(|i| Tuple::insertion(TupleId(i), Time::from_millis(i), vec![Value::Int(i as i64)]))
            .collect();
        let full = TupleBatch::from_vec(tuples);
        let view = full.slice(3..7);
        let mut buf = Vec::new();
        put_batch(&mut buf, &view);
        let mut r = Reader::new(&buf);
        let back = r.batch().unwrap();
        r.finish().unwrap();
        assert_eq!(back.len(), 4);
        assert_eq!(back.as_slice(), view.as_slice());
    }

    #[test]
    fn frame_header_round_trips() {
        let mut buf = Vec::new();
        let mark = begin_frame(&mut buf, NodeId(3), NodeId(9), 0x42);
        put_u64(&mut buf, 77);
        end_frame(&mut buf, mark);
        let (from, to, kind, payload, consumed) = split_frame(&buf).unwrap().unwrap();
        assert_eq!((from, to, kind), (NodeId(3), NodeId(9), 0x42));
        assert_eq!(consumed, buf.len());
        let mut r = Reader::new(payload);
        assert_eq!(r.u64().unwrap(), 77);
        r.finish().unwrap();
    }

    #[test]
    fn partial_frames_wait_and_bad_lengths_reject() {
        let mut buf = Vec::new();
        let mark = begin_frame(&mut buf, NodeId(1), NodeId(2), 7);
        put_u32(&mut buf, 5);
        end_frame(&mut buf, mark);
        for cut in 0..buf.len() {
            assert_eq!(split_frame(&buf[..cut]).unwrap(), None, "cut at {cut}");
        }
        let mut corrupt = buf.clone();
        corrupt[..4].copy_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        assert!(matches!(
            split_frame(&corrupt),
            Err(WireError::BadLength(_))
        ));
        let mut short = buf;
        short[..4].copy_from_slice(&3u32.to_le_bytes());
        assert!(matches!(split_frame(&short), Err(WireError::BadLength(3))));
    }

    #[test]
    fn truncated_tuple_rejects_without_panic() {
        let t = Tuple::insertion(TupleId(5), Time::from_secs(1), vec![Value::str("abc")]);
        let mut buf = Vec::new();
        put_tuple(&mut buf, &t);
        for cut in 0..buf.len() {
            assert!(Reader::new(&buf[..cut]).tuple().is_err(), "cut at {cut}");
        }
        let mut r = Reader::new(&buf);
        assert_eq!(r.tuple().unwrap(), t);
        r.finish().unwrap();
    }

    #[test]
    fn wire_gauges_absorb_and_ratio() {
        let mut a = WireGauges {
            frames_sent: 30,
            flushes: 10,
            ..WireGauges::default()
        };
        let b = WireGauges {
            frames_sent: 10,
            flushes: 10,
            bytes_sent: 100,
            ..WireGauges::default()
        };
        a.absorb(&b);
        assert_eq!(a.frames_sent, 40);
        assert_eq!(a.bytes_sent, 100);
        assert_eq!(a.frames_per_flush(), 2.0);
        assert_eq!(WireGauges::default().frames_per_flush(), 0.0);
    }
}
