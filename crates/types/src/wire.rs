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
//! +----------+----------+----------+=====================+
//! | len: u32 | from:u32 | to: u32  | body: kind:u8 ...   |
//! +----------+----------+----------+=====================+
//!  `len` counts every byte after itself (from + to + body), so a frame
//!  occupies `4 + len` bytes on the wire. All integers are little-endian.
//!  `from`/`to` are the [`NodeId`]s of the sending and receiving actor.
//!  The body is one message in its own [`Wire`] encoding, whose first
//!  byte is the message's kind.
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
//!
//! ## One description per encoded type
//!
//! Every type that reaches a socket or a disk implements [`Wire`] once,
//! next to its definition — that impl is its encoder *and* its decoder.
//! Plain structs get both directions from one field list
//! ([`wire_struct!`](crate::wire_struct)), enums from one tag list
//! ([`wire_enum!`](crate::wire_enum)). Containers are laid out here only:
//!
//! ```text
//! bool                 := 0x00 | 0x01           usize := u64
//! Option<T>            := bool [T]              (A, B, ..) := A B ..
//! Vec<T>, VecDeque<T>  := count:u32 T*
//! BTreeMap<K, V>       := count:u32 (K V)*      (ascending key order)
//! nested record        := len:u32 byte*         (put_len_prefixed / Reader::nested)
//! ```
//!
//! **The one allocation rule.** Foreign bytes size a reservation only
//! through [`Reader::seq`], which rejects a count larger than
//! `remaining() / T::MIN_LEN` — more elements than the unread bytes could
//! hold — as [`WireError::Truncated`] before anything is reserved.

use crate::batch::{BatchView, TupleBatch};
use crate::ids::{NodeId, StreamId};
use crate::time::{Duration, Time};
use crate::tuple::{Payload, Tuple, TupleId, TupleKind};
use crate::value::Value;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::Arc;

/// The shortest `len` a frame can carry: from (4) + to (4) + the body's
/// kind byte (1).
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

/// Opens a frame: writes a length placeholder plus the `from`/`to` header
/// and returns the mark to pass to [`end_frame`]. The body is appended to
/// `buf` between the two calls — straight from the source structures, with
/// no intermediate allocation.
#[inline]
pub fn begin_frame(buf: &mut Vec<u8>, from: NodeId, to: NodeId) -> usize {
    let mark = buf.len();
    put_u32(buf, 0); // patched by end_frame
    put_u32(buf, from.0);
    put_u32(buf, to.0);
    mark
}

/// Closes the frame opened at `mark`, patching the length prefix.
#[inline]
pub fn end_frame(buf: &mut [u8], mark: usize) {
    let len = (buf.len() - mark - 4) as u32;
    buf[mark..mark + 4].copy_from_slice(&len.to_le_bytes());
}

/// Appends a nested record: a `len:u32` prefix, then whatever `body`
/// writes, the prefix patched once the body's length is known — no
/// intermediate buffer. Read back with [`Reader::nested`].
#[inline]
pub fn put_len_prefixed(buf: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let mark = buf.len();
    put_u32(buf, 0);
    body(buf);
    end_frame(buf, mark);
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
    put_seq(buf, b.as_slice().iter());
}

/// Encodes a message's view: the one slice it is, as [`put_batch`] does
/// (the receiver decodes it with [`Reader::batch`]).
pub fn put_view(buf: &mut Vec<u8>, v: &BatchView) {
    put_batch(buf, v);
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

    /// Reads `n` raw bytes.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.bytes(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(
            self.bytes(2)?.try_into().expect("2 bytes"),
        ))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.bytes(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.bytes(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a nested record written by [`put_len_prefixed`]: a cursor over
    /// exactly its bytes, so the inner decoder cannot read past the record
    /// and the caller can demand it consumed all of it.
    pub fn nested(&mut self) -> Result<Reader<'a>, WireError> {
        let len = self.u32()? as usize;
        Ok(Reader::new(self.bytes(len)?))
    }

    /// Accepts `count` as the length of a sequence of `T` about to be
    /// decoded — the only rule by which foreign bytes size an allocation
    /// (module docs): a count the unread bytes cannot hold is
    /// [`WireError::Truncated`] before anything is reserved.
    fn fits<T: Wire>(&self, count: usize) -> Result<usize, WireError> {
        let fits = count <= self.remaining() / T::MIN_LEN;
        fits.then_some(count).ok_or(WireError::Truncated)
    }

    /// The one sequence reader: `count:u32`, checked by that rule, then
    /// that many `T`s.
    pub fn seq<T: Wire>(&mut self) -> Result<Vec<T>, WireError> {
        let count = self.u32()? as usize;
        let mut items = Vec::with_capacity(self.fits::<T>(count)?);
        for _ in 0..count {
            items.push(T::get(self)?);
        }
        Ok(items)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.bytes(len)?;
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
    #[inline]
    pub fn tuple(&mut self) -> Result<Tuple, WireError> {
        // The fixed 23-byte header in one bounds check.
        let h: &[u8; 23] = self.bytes(23)?.try_into().expect("23 bytes");
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
        let values = match self.bytes.get(self.pos..self.pos + 9) {
            // One `Int` or `Float`, the payload of every data tuple the
            // shipped workloads send, in one bounds check.
            Some(&[tag @ (0x00 | 0x01), ref bits @ ..]) if nvalues == 1 => {
                self.pos += 9;
                let bits = u64::from_le_bytes(bits.try_into().expect("8 bytes"));
                Payload::One(match tag {
                    0x00 => Value::Int(bits as i64),
                    _ => Value::Float(f64::from_bits(bits)),
                })
            }
            _ => {
                let nvalues = self.fits::<Value>(nvalues)?;
                Tuple::try_values(nvalues, |_| self.value())?
            }
        };
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
        self.seq().map(TupleBatch::from_vec)
    }

    /// Asserts the payload was fully consumed.
    pub fn finish(self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(WireError::Trailing(n)),
        }
    }
}

/// The checksum of a durable record: one multiply per 8-byte little-endian
/// word (the last one zero-padded), then one for the length. Each step is a
/// bijection of the running state for a fixed word and of the word for a
/// fixed state, so two inputs of one length that differ within a single
/// word — any one corrupted byte — always check differently. Not
/// cryptographic: it guards against torn writes and bit rot, not
/// adversaries.
pub fn checksum(bytes: &[u8]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let step = |h: u64, word: u64| (h.rotate_left(5) ^ word).wrapping_mul(K);
    let mut words = bytes.chunks_exact(8);
    let h = words.by_ref().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        step(h, u64::from_le_bytes(w.try_into().expect("8 bytes")))
    });
    let mut last = [0u8; 8];
    last[..words.remainder().len()].copy_from_slice(words.remainder());
    step(step(h, u64::from_le_bytes(last)), bytes.len() as u64)
}

/// Splits the next complete frame off `bytes`, if one has fully arrived.
///
/// Returns `Ok(None)` when more bytes are needed, and
/// `Ok(Some((from, to, body, consumed)))` for a complete frame — `body`
/// (kind byte first) borrows from `bytes` and `consumed` is the total
/// frame size to drain from the receive buffer. A length prefix outside
/// `[FRAME_OVERHEAD, MAX_FRAME_LEN]` is corruption ([`WireError::BadLength`]).
#[allow(clippy::type_complexity)]
pub fn split_frame(bytes: &[u8]) -> Result<Option<(NodeId, NodeId, &[u8], usize)>, WireError> {
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
    Ok(Some((from, to, &bytes[12..4 + len], 4 + len)))
}

// ---------------------------------------------------------------------
// One description per encoded type (module docs).
// ---------------------------------------------------------------------

/// A type with a byte format. One impl is both the encoder and the
/// decoder, so the two cannot disagree about field order, and composite
/// formats are spelled by composing types.
pub trait Wire: Sized {
    /// A lower bound, never zero, on the bytes a value occupies — what
    /// [`Reader::seq`] divides the unread bytes by.
    const MIN_LEN: usize;
    /// Appends the encoding of `self`.
    fn put(&self, buf: &mut Vec<u8>);
    /// Decodes one value; foreign bytes yield a [`WireError`], not a panic.
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

/// `count:u32`, then each element.
fn put_seq<'a, T: Wire + 'a>(buf: &mut Vec<u8>, items: impl ExactSizeIterator<Item = &'a T>) {
    put_u32(buf, items.len() as u32);
    for item in items {
        item.put(buf);
    }
}

/// `impl Wire` from a minimum length and the two directions as functions:
/// the scalars and ids over the primitives above, the data types over
/// their named encoders (whose bodies are the hot path and stay where the
/// profiler knows them).
macro_rules! wire_fns {
    ($($ty:ty, $len:expr, $put:expr, $get:expr;)+) => {$(
        impl Wire for $ty {
            const MIN_LEN: usize = $len;
            fn put(&self, buf: &mut Vec<u8>) {
                let put: fn(&mut Vec<u8>, &Self) = $put;
                put(buf, self)
            }
            // Inlined, with `Reader::{tuple, bytes}`, into `Reader::seq`'s
            // loop: a batch decodes without a call per tuple.
            #[inline]
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                let get: fn(&mut Reader<'_>) -> Result<Self, WireError> = $get;
                get(r)
            }
        }
    )+};
}
wire_fns! {
    u8, 1, |b, v| put_u8(b, *v), |r| r.u8();
    u16, 2, |b, v| put_u16(b, *v), |r| r.u16();
    u32, 4, |b, v| put_u32(b, *v), |r| r.u32();
    u64, 8, |b, v| put_u64(b, *v), |r| r.u64();
    i64, 8, |b, v| put_u64(b, *v as u64), |r| Ok(r.u64()? as i64);
    usize, 8, |b, v| put_u64(b, *v as u64), |r| Ok(r.u64()? as usize);
    f64, 8, |b, v| put_u64(b, v.to_bits()), |r| r.u64().map(f64::from_bits);
    Time, 8, |b, v| put_u64(b, v.0), |r| r.u64().map(Time);
    Duration, 8, |b, v| put_u64(b, v.0), |r| r.u64().map(Duration);
    TupleId, 8, |b, v| put_u64(b, v.0), |r| r.u64().map(TupleId);
    StreamId, 4, |b, v| put_u32(b, v.0), |r| r.u32().map(StreamId);
    NodeId, 4, |b, v| put_u32(b, v.0), |r| r.u32().map(NodeId);
    bool, 1, |b, v| b.push(*v as u8), |r| match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        tag => Err(WireError::BadTag { what: "bool", tag }),
    };
    Value, 2, put_value, |r| r.value();
    Tuple, 23, put_tuple, |r| r.tuple();
    TupleBatch, 4, put_batch, |r| r.batch();
    BatchView, 4, put_view, |r| r.batch().map(BatchView::from);
}

/// Present or not, then the value.
impl<T: Wire> Wire for Option<T> {
    const MIN_LEN: usize = 1;
    fn put(&self, buf: &mut Vec<u8>) {
        self.is_some().put(buf);
        if let Some(v) = self {
            v.put(buf);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(if bool::get(r)? {
            Some(T::get(r)?)
        } else {
            None
        })
    }
}

/// A tuple is its fields, in order.
macro_rules! wire_tuple {
    ($($name:ident $idx:tt),+) => {
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            const MIN_LEN: usize = 0 $(+ $name::MIN_LEN)+;
            fn put(&self, buf: &mut Vec<u8>) {
                $(self.$idx.put(buf);)+
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(($($name::get(r)?,)+))
            }
        }
    };
}
wire_tuple!(A 0, B 1);
wire_tuple!(A 0, B 1, C 2);

impl<T: Wire> Wire for Vec<T> {
    const MIN_LEN: usize = 4;
    fn put(&self, buf: &mut Vec<u8>) {
        put_seq(buf, self.iter());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.seq()
    }
}

impl<T: Wire> Wire for VecDeque<T> {
    const MIN_LEN: usize = 4;
    fn put(&self, buf: &mut Vec<u8>) {
        put_seq(buf, self.iter());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.seq().map(VecDeque::from)
    }
}

/// Entries in ascending key order, each `(K, V)`.
impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    const MIN_LEN: usize = 4;
    fn put(&self, buf: &mut Vec<u8>) {
        put_u32(buf, self.len() as u32);
        for (key, value) in self {
            key.put(buf);
            value.put(buf);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.seq::<(K, V)>().map(BTreeMap::from_iter)
    }
}

/// Defines a plain struct **and** its [`Wire`] impl from one field list:
/// the fields travel in declaration order, so there is no second copy of
/// that order to keep in step.
#[macro_export]
macro_rules! wire_struct {
    ($(#[$meta:meta])* $vis:vis struct $name:ident {
        $($(#[$fmeta:meta])* $fvis:vis $field:ident: $fty:ty,)+
    }) => {
        $(#[$meta])* $vis struct $name {
            $($(#[$fmeta])* $fvis $field: $fty,)+
        }

        impl $crate::wire::Wire for $name {
            const MIN_LEN: usize = 0 $(+ <$fty as $crate::wire::Wire>::MIN_LEN)+;
            fn put(&self, buf: &mut Vec<u8>) {
                $($crate::wire::Wire::put(&self.$field, buf);)+
            }
            fn get(r: &mut $crate::wire::Reader<'_>) -> Result<Self, $crate::wire::WireError> {
                Ok($name {
                    $($field: $crate::wire::Wire::get(r)?,)+
                })
            }
        }
    };
}

/// Implements [`Wire`] for an enum as one tag byte, then the variant's
/// fields in the order written — both directions from one
/// `Variant(fields) = tag` list; `$what` names the tag space in
/// [`WireError::BadTag`].
#[macro_export]
macro_rules! wire_enum {
    ($name:ident, $what:literal, {
        $($variant:ident $(($($tf:ident),+))? $({$($sf:ident),+})? = $tag:literal,)+
    }) => {
        impl $crate::wire::Wire for $name {
            const MIN_LEN: usize = 1;
            fn put(&self, buf: &mut Vec<u8>) {
                match self {
                    $($name::$variant $(($($tf),+))? $({$($sf),+})? => {
                        buf.push($tag);
                        $($($crate::wire::Wire::put($tf, buf);)+)?
                        $($($crate::wire::Wire::put($sf, buf);)+)?
                    })+
                }
            }
            fn get(r: &mut $crate::wire::Reader<'_>) -> Result<Self, $crate::wire::WireError> {
                Ok(match r.u8()? {
                    $($tag => $name::$variant
                        $(($({ let $tf = $crate::wire::Wire::get(r)?; $tf }),+))?
                        $({$($sf: $crate::wire::Wire::get(r)?),+})?,)+
                    tag => return Err($crate::wire::WireError::BadTag { what: $what, tag }),
                })
            }
        }
    };
}

// ---------------------------------------------------------------------
// Wire gauges.
// ---------------------------------------------------------------------

/// Point-in-time counters of the socket transport, surfaced next to
/// [`FlowGauges`](crate::FlowGauges) and [`SchedGauges`](crate::SchedGauges)
/// so wire behavior — bytes moved, how many frames each flush syscall
/// carried, grant traffic — is measurable, never silent.
///
/// Every counter but `conns` is cumulative over the run, across every
/// connection the process has had.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireGauges {
    /// Connections currently established.
    pub conns: u64,
    /// Bytes written to sockets: whole frames, headers included.
    pub bytes_sent: u64,
    /// Bytes read from sockets: whole frames, headers included.
    pub bytes_recv: u64,
    /// Frames encoded and written.
    pub frames_sent: u64,
    /// Frames decoded from the receive stream.
    pub frames_recv: u64,
    /// Flushes (one drain of a connection's swapped-out write buffer with
    /// as few `write` calls as the kernel allows; `frames_sent / flushes`
    /// is the coalescing ratio).
    pub flushes: u64,
    /// `CreditGrant` frames sent (the wire replacement of the in-process
    /// `Replenish` path).
    pub grants_sent: u64,
    /// `CreditGrant` frames received.
    pub grants_recv: u64,
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
        let mark = begin_frame(&mut buf, NodeId(3), NodeId(9));
        put_u8(&mut buf, 0x42);
        put_u64(&mut buf, 77);
        end_frame(&mut buf, mark);
        let (from, to, body, consumed) = split_frame(&buf).unwrap().unwrap();
        assert_eq!((from, to), (NodeId(3), NodeId(9)));
        assert_eq!(consumed, buf.len());
        let mut r = Reader::new(body);
        assert_eq!(r.u8().unwrap(), 0x42);
        assert_eq!(r.u64().unwrap(), 77);
        r.finish().unwrap();
    }

    #[test]
    fn partial_frames_wait_and_bad_lengths_reject() {
        let mut buf = Vec::new();
        let mark = begin_frame(&mut buf, NodeId(1), NodeId(2));
        put_u8(&mut buf, 7);
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

    /// The general decode path alone: the header field by field, then
    /// each value through `Reader::value`.
    fn tuple_the_long_way(r: &mut Reader<'_>) -> Result<Tuple, WireError> {
        let kind = match r.u8()? {
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
        let (id, stime, origin) = (TupleId(r.u64()?), Time(r.u64()?), r.u16()?);
        let n = r.u32()? as usize;
        let values = (0..n).map(|_| r.value()).collect::<Result<Vec<_>, _>>()?;
        let values = values.into();
        Ok(Tuple {
            kind,
            id,
            stime,
            origin,
            values,
        })
    }

    #[test]
    fn one_pass_tuple_decode_matches_the_general_path() {
        let kinds = [
            TupleKind::Insertion,
            TupleKind::Tentative,
            TupleKind::Boundary,
            TupleKind::Undo,
            TupleKind::RecDone,
        ];
        let values = [
            Value::Int(-7),
            Value::Int(i64::MAX),
            Value::Float(f64::from_bits(0x7FF8_0000_DEAD_BEEF)),
            Value::Float(-0.0),
            Value::Bool(true),
            Value::str("a1"),
        ];
        for kind in kinds {
            for first in &values {
                for width in [0, 1, 2, 5] {
                    let payload: Vec<Value> = (0..width)
                        .map(|i| {
                            if i == 0 {
                                first.clone()
                            } else {
                                values[i % 6].clone()
                            }
                        })
                        .collect();
                    let t = Tuple {
                        kind,
                        id: TupleId(9),
                        stime: Time::from_millis(3),
                        origin: 2,
                        values: payload.into(),
                    };
                    let mut buf = Vec::new();
                    put_tuple(&mut buf, &t);
                    buf.push(0xEE); // whatever follows is not read
                    let (mut fast, mut slow) = (Reader::new(&buf), Reader::new(&buf));
                    let got = fast.tuple().unwrap();
                    assert_eq!(got, tuple_the_long_way(&mut slow).unwrap());
                    assert_eq!(got, t, "{kind:?} {first:?} width {width}");
                    assert_eq!(fast.remaining(), 1, "{kind:?} {first:?} width {width}");
                    assert_eq!(slow.remaining(), 1);
                }
            }
        }
    }

    #[test]
    fn one_attribute_tuples_truncated_anywhere_reject_without_panic() {
        let one = [
            Value::Int(-1),
            Value::Float(2.5),
            Value::Bool(false),
            Value::str("xy"),
        ];
        for v in one {
            let t = Tuple::tentative(TupleId(1), Time::from_millis(1), vec![v]);
            let mut buf = Vec::new();
            put_tuple(&mut buf, &t);
            for cut in 0..buf.len() {
                let got = Reader::new(&buf[..cut]).tuple();
                assert_eq!(got, Err(WireError::Truncated), "{t:?} cut at {cut}");
            }
            assert_eq!(Reader::new(&buf).tuple(), Ok(t));
        }
    }

    #[test]
    fn checksum_catches_every_single_byte_change() {
        let bytes: Vec<u8> = (0..37u8).map(|i| i.wrapping_mul(29)).collect();
        let check = checksum(&bytes);
        for at in 0..bytes.len() {
            for flip in [0x01, 0x80, 0xFF] {
                let mut changed = bytes.clone();
                changed[at] ^= flip;
                assert_ne!(checksum(&changed), check, "byte {at} ^ {flip:#04x}");
            }
        }
        assert_ne!(checksum(&bytes[..36]), check, "a torn tail");
        assert_ne!(
            checksum(&[0; 8]),
            checksum(&[0; 16]),
            "zeros of two lengths"
        );
    }

    #[test]
    fn wire_gauges_frames_per_flush() {
        let a = WireGauges {
            frames_sent: 40,
            flushes: 20,
            ..WireGauges::default()
        };
        assert_eq!(a.frames_per_flush(), 2.0);
        assert_eq!(WireGauges::default().frames_per_flush(), 0.0);
    }
}
