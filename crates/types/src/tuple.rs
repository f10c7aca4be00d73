//! The DPC data model (§4.1, Table I of the paper).
//!
//! A Borealis stream is an append-only sequence of tuples
//! `(tuple_type, tuple_id, tuple_stime, a1, ..., am)`. DPC extends the
//! traditional insertion-only model with four additional tuple types:
//!
//! * **TENTATIVE** — result of processing a subset of inputs; may later be
//!   amended with a stable version.
//! * **BOUNDARY** — punctuation + heartbeat: no later tuple on the stream
//!   will carry an `stime` smaller than the boundary's.
//! * **UNDO** — instructs consumers to roll back the suffix of the stream
//!   that follows the identified tuple.
//! * **REC_DONE** — marks the end of a reconciliation's correction sequence.
//!
//! The attributes `a1, ..., am` are an immutable [`Payload`]: the protocol
//! copies tuples constantly — SUnion renumbers them, a diverged operator's
//! output is relabelled tentative, output buffers and join windows keep
//! them, every replica gets its own — so a copy must not copy attributes.
//! Two or more attributes are one shared allocation (`Arc<[Value]>`), and
//! a copy is a new header over it. Zero or one attribute — boundaries,
//! markers, and every tuple of the shipped chain job — is held inline in
//! the header: a copy neither allocates nor counts references nor frees
//! on another thread (a string attribute still shares its text). Inline
//! stops at one attribute because two would grow a [`Tuple`] from 48 to
//! 72 bytes and put copied headers across cache-line boundaries.

use crate::time::Time;
use crate::value::Value;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// A tuple's attribute values, canonical by width whichever constructor
/// built it: no attribute is `Empty`, one is held inline, two or more
/// share one allocation. Reads go through `Deref<Target = [Value]>`;
/// equality and `Debug` are the slice's.
#[derive(Clone)]
pub enum Payload {
    /// No attributes (boundaries, REC_DONE markers).
    Empty,
    /// One attribute, inline.
    One(Value),
    /// Two or more attributes, shared by every copy.
    Shared(Arc<[Value]>),
}

const _: () = assert!(std::mem::size_of::<Payload>() == 24);
const _: () = assert!(std::mem::size_of::<Tuple>() == 48);

impl Deref for Payload {
    type Target = [Value];

    fn deref(&self) -> &[Value] {
        match self {
            Payload::Empty => &[],
            Payload::One(v) => std::slice::from_ref(v),
            Payload::Shared(vs) => vs,
        }
    }
}

impl From<Vec<Value>> for Payload {
    fn from(mut values: Vec<Value>) -> Payload {
        match values.len() {
            0 => Payload::Empty,
            1 => Payload::One(values.pop().expect("one value")),
            _ => Payload::Shared(values.into()),
        }
    }
}

impl<const N: usize> From<[Value; N]> for Payload {
    /// An array converts in place: at most one allocation, no `Vec`.
    fn from(values: [Value; N]) -> Payload {
        match N {
            0 => Payload::Empty,
            1 => values.into_iter().collect(),
            _ => Payload::Shared(Arc::from(values)),
        }
    }
}

impl FromIterator<Value> for Payload {
    /// An exact-size iterator is collected straight into the one shared
    /// allocation.
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Payload {
        let mut iter = iter.into_iter();
        let Some(first) = iter.next() else {
            return Payload::Empty;
        };
        let Some(second) = iter.next() else {
            return Payload::One(first);
        };
        Payload::Shared([first, second].into_iter().chain(iter).collect())
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Payload) -> bool {
        **self == **other
    }
}

impl Eq for Payload {}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Identifies a tuple uniquely within its stream.
///
/// The paper relies on reliable in-order transport so that a single tuple id
/// describes an exact stream position (§2.2); ids are assigned by the
/// producing source or operator from a monotone per-stream counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TupleId(pub u64);

impl TupleId {
    /// Sentinel meaning "before the first tuple of the stream"; used in
    /// subscriptions and undo targets for an empty stable prefix.
    pub const NONE: TupleId = TupleId(0);

    /// The next id after `self`.
    pub fn next(self) -> TupleId {
        TupleId(self.0 + 1)
    }
}

impl fmt::Display for TupleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// The tuple type tag (Table I, data streams).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TupleKind {
    /// Regular stable tuple.
    Insertion,
    /// Best-effort tuple produced from a subset of inputs.
    Tentative,
    /// Punctuation/heartbeat: all following tuples have `stime >=` this one's.
    Boundary,
    /// Roll back the stream suffix after [`Tuple::undo_target`].
    Undo,
    /// End of a reconciliation's corrections.
    RecDone,
}

impl TupleKind {
    /// True for the two data-carrying kinds (stable or tentative insertions).
    pub fn is_data(self) -> bool {
        matches!(self, TupleKind::Insertion | TupleKind::Tentative)
    }
}

/// A stream tuple.
#[derive(Debug, Clone, PartialEq)]
pub struct Tuple {
    /// Type tag.
    pub kind: TupleKind,
    /// Unique id within the producing stream.
    pub id: TupleId,
    /// Serialization timestamp (`tuple_stime`, §4.1): the attribute SUnion
    /// buckets and orders on. Assigned by data sources from their (loosely
    /// synchronized) clocks, and propagated deterministically by operators.
    pub stime: Time,
    /// Tag identifying which input stream of the upstream SUnion this tuple
    /// arrived on. SUnion sets it when serializing multiple streams into one
    /// so that a following SJoin can tell its two logical inputs apart.
    pub origin: u16,
    /// Attribute values `a1, ..., am`. Cloning or relabelling a tuple
    /// copies at most one inline value or bumps a reference count; only an
    /// operator that computes two or more attributes allocates.
    pub values: Payload,
}

impl Tuple {
    /// Builds an `n`-attribute payload from a fallible per-attribute
    /// producer. One attribute is held inline; two to four (every payload
    /// the shipped workloads carry) are built as an array, which converts
    /// in place: one allocation, no intermediate `Vec`. Wider payloads go
    /// through a `Vec` that is freed at once on the same thread — with a
    /// fallible producer that measured faster on the wire decoder than
    /// collecting an exact-size iterator into the final allocation.
    pub fn try_values<E>(
        n: usize,
        mut attr: impl FnMut(usize) -> Result<Value, E>,
    ) -> Result<Payload, E> {
        Ok(match n {
            0 => Payload::Empty,
            1 => Payload::One(attr(0)?),
            2 => [attr(0)?, attr(1)?].into(),
            3 => [attr(0)?, attr(1)?, attr(2)?].into(),
            4 => [attr(0)?, attr(1)?, attr(2)?, attr(3)?].into(),
            _ => {
                let mut values = Vec::with_capacity(n);
                for i in 0..n {
                    values.push(attr(i)?);
                }
                values.into()
            }
        })
    }

    /// A stable insertion.
    pub fn insertion(id: TupleId, stime: Time, values: impl Into<Payload>) -> Tuple {
        Tuple {
            kind: TupleKind::Insertion,
            id,
            stime,
            origin: 0,
            values: values.into(),
        }
    }

    /// A tentative insertion.
    pub fn tentative(id: TupleId, stime: Time, values: impl Into<Payload>) -> Tuple {
        Tuple {
            kind: TupleKind::Tentative,
            id,
            stime,
            origin: 0,
            values: values.into(),
        }
    }

    /// A boundary tuple promising that no later tuple on the stream carries
    /// `stime < stime`.
    pub fn boundary(id: TupleId, stime: Time) -> Tuple {
        Tuple {
            kind: TupleKind::Boundary,
            id,
            stime,
            origin: 0,
            values: Payload::Empty,
        }
    }

    /// An undo tuple: everything after `last_kept` (exclusive) is rolled
    /// back. `last_kept == TupleId::NONE` undoes the entire stream.
    pub fn undo(id: TupleId, last_kept: TupleId) -> Tuple {
        Tuple {
            kind: TupleKind::Undo,
            id,
            stime: Time::ZERO,
            origin: 0,
            values: Payload::One(Value::Int(last_kept.0 as i64)),
        }
    }

    /// A reconciliation-done marker.
    pub fn rec_done(id: TupleId, stime: Time) -> Tuple {
        Tuple {
            kind: TupleKind::RecDone,
            id,
            stime,
            origin: 0,
            values: Payload::Empty,
        }
    }

    /// For [`TupleKind::Undo`] tuples, the id of the last tuple *not* undone.
    pub fn undo_target(&self) -> Option<TupleId> {
        if self.kind != TupleKind::Undo {
            return None;
        }
        self.values
            .first()
            .and_then(Value::as_int)
            .map(|v| TupleId(v as u64))
    }

    /// True if this is a stable insertion.
    pub fn is_stable_data(&self) -> bool {
        self.kind == TupleKind::Insertion
    }

    /// True if this is a tentative insertion.
    pub fn is_tentative(&self) -> bool {
        self.kind == TupleKind::Tentative
    }

    /// True for the data-carrying kinds.
    pub fn is_data(&self) -> bool {
        self.kind.is_data()
    }

    /// Returns a copy relabelled tentative (used by operators that process a
    /// subset of inputs, §4.1: tentative in, tentative out — and any output
    /// produced while the node's state has diverged).
    pub fn as_tentative(&self) -> Tuple {
        let mut t = self.clone();
        t.kind = TupleKind::Tentative;
        t
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = match self.kind {
            TupleKind::Insertion => "S",
            TupleKind::Tentative => "T",
            TupleKind::Boundary => "B",
            TupleKind::Undo => "U",
            TupleKind::RecDone => "R",
        };
        write!(f, "{tag}{}@{}", self.id, self.stime)?;
        if let Some(target) = self.undo_target() {
            write!(f, "->{target}")?;
        }
        Ok(())
    }
}

/// Control signals sent by SUnion and SOutput operators to the node's
/// Consistency Manager (Table I, control streams).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlSignal {
    /// An SUnion entered an inconsistent state (produced or passed tentative
    /// data, or timed out waiting for a missing input).
    UpFailure,
    /// An SUnion on an input stream received corrections for all previously
    /// tentative data: the node may reconcile its state.
    RecRequest,
    /// An SOutput saw reconciliation complete on its output stream.
    RecDone,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kinds() {
        let t = Tuple::insertion(TupleId(1), Time::from_millis(5), vec![Value::Int(9)]);
        assert!(t.is_stable_data() && t.is_data() && !t.is_tentative());
        let t = Tuple::tentative(TupleId(2), Time::ZERO, vec![]);
        assert!(t.is_tentative() && t.is_data());
        let b = Tuple::boundary(TupleId(3), Time::from_secs(1));
        assert_eq!(b.kind, TupleKind::Boundary);
        assert!(!b.is_data());
    }

    #[test]
    fn undo_round_trips_target() {
        let u = Tuple::undo(TupleId(10), TupleId(7));
        assert_eq!(u.undo_target(), Some(TupleId(7)));
        let not_undo = Tuple::insertion(TupleId(1), Time::ZERO, vec![]);
        assert_eq!(not_undo.undo_target(), None);
    }

    #[test]
    fn relabelling_preserves_payload() {
        let t = Tuple::insertion(TupleId(4), Time::from_millis(10), vec![Value::Int(1)]);
        let tt = t.as_tentative();
        assert_eq!(tt.kind, TupleKind::Tentative);
        assert_eq!(tt.values, t.values);
        assert_eq!(tt.id, t.id);
        assert_eq!(tt.stime, t.stime);
    }

    #[test]
    fn clones_and_relabels_share_a_shared_payload_and_copy_an_inline_one() {
        let wide = vec![Value::str("k"), Value::Int(1)];
        let t = Tuple::insertion(TupleId(4), Time::from_millis(10), wide);
        let Payload::Shared(payload) = &t.values else {
            panic!("two attributes are shared");
        };
        for copy in [t.clone(), t.as_tentative()] {
            assert!(matches!(&copy.values, Payload::Shared(p) if Arc::ptr_eq(p, payload)));
        }
        // One attribute is copied into each header (a string attribute
        // still shares its own text).
        let t = Tuple::insertion(TupleId(4), Time::from_millis(10), vec![Value::str("k")]);
        for copy in [t.clone(), t.as_tentative()] {
            assert!(matches!(copy.values, Payload::One(_)));
            assert!(!std::ptr::eq(&copy.values[0], &t.values[0]));
            assert_eq!(copy.values, t.values);
        }
        // Attribute-free kinds carry no payload at all.
        let b = Tuple::boundary(TupleId::NONE, Time::ZERO);
        let r = Tuple::rec_done(TupleId::NONE, Time::ZERO);
        assert!(matches!(
            (b.values, r.values),
            (Payload::Empty, Payload::Empty)
        ));
    }

    #[test]
    fn every_constructor_normalizes_by_width() {
        let ints = |n: usize| (0..n as i64).map(Value::Int).collect::<Vec<_>>();
        let from_arrays: [(usize, Payload); 3] = [
            (0, Payload::from([] as [Value; 0])),
            (1, [Value::Int(0)].into()),
            (3, [Value::Int(0), Value::Int(1), Value::Int(2)].into()),
        ];
        let encoded = |values: &Payload| {
            let mut buf = Vec::new();
            let t = Tuple::insertion(TupleId(1), Time::ZERO, values.clone());
            crate::wire::put_tuple(&mut buf, &t);
            buf
        };
        for (n, from_array) in from_arrays {
            let built = [
                from_array,
                Payload::from(ints(n)),
                ints(n).into_iter().collect(),
                Tuple::try_values(n, |i| Ok::<_, ()>(Value::Int(i as i64))).unwrap(),
            ];
            let canonical = match n {
                0 => matches!(built[0], Payload::Empty),
                1 => matches!(built[0], Payload::One(_)),
                _ => matches!(built[0], Payload::Shared(_)),
            };
            assert!(canonical, "width {n}: {:?}", built[0]);
            for p in &built {
                let same = std::mem::discriminant(p) == std::mem::discriminant(&built[0]);
                assert!(same, "width {n}");
                assert_eq!(*p, built[0]);
                assert_eq!(**p, *ints(n));
                assert_eq!(encoded(p), encoded(&built[0]));
            }
        }
    }

    #[test]
    fn try_values_builds_every_width_and_stops_at_the_first_error() {
        for n in 0..8usize {
            let got = Tuple::try_values(n, |i| Ok::<_, ()>(Value::Int(i as i64))).unwrap();
            let want: Vec<Value> = (0..n as i64).map(Value::Int).collect();
            assert_eq!(*got, *want, "width {n}");
            if n > 0 {
                let mut calls = 0;
                let failed = Tuple::try_values(n, |i| {
                    calls += 1;
                    if i == n / 2 {
                        Err(i)
                    } else {
                        Ok(Value::Int(0))
                    }
                });
                assert_eq!(failed, Err(n / 2), "width {n}");
                assert_eq!(calls, n / 2 + 1, "producer not called past the error");
            }
        }
    }

    #[test]
    fn tuple_id_ordering_and_next() {
        assert!(TupleId(1) < TupleId(2));
        assert_eq!(TupleId(1).next(), TupleId(2));
        assert_eq!(TupleId::NONE.next(), TupleId(1));
    }
}
