//! Key-partitioned sharding of streams.
//!
//! A fragment deployed with `shards = K` is cloned into K physical
//! instances; every data tuple flowing into the fragment is routed to
//! exactly one instance by `hash(key) % K`, where `key` is a deterministic
//! [`Expr`] over the tuple's attributes. A [`PartitionSpec`] describes one
//! instance's slice of that routing: senders (data sources and upstream
//! fragments) apply it on the wire, so a shard replica receives only its
//! partition of each data stream.
//!
//! Non-data tuples — boundaries (§4.2.1 punctuation), UNDO and REC_DONE
//! markers — are control flow for *every* shard and always pass through;
//! only stable/tentative insertions are partitioned. The hash is a fixed
//! FNV-1a over the key value's canonical byte form, so the same tuple
//! routes to the same shard on every replica, every runtime, and every
//! replay — a requirement for DPC's replica determinism (§2.1).

use crate::batch::BatchView;
use crate::expr::Expr;
use crate::tuple::Tuple;
use crate::value::Value;
use std::sync::Arc;

#[cfg(debug_assertions)]
thread_local! {
    static ROUTE_KEY_EVALS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Debug-build routing gauge: how many shard-key evaluate+hash operations
/// this thread has performed. The one-pass partitioner's contract — the
/// key is hashed exactly once per tuple per producing link, regardless of
/// K·R — is asserted against this counter in tests and the `shard_route`
/// microbench. Always 0 in release builds (no counting on the hot path).
pub fn route_key_evals() -> u64 {
    #[cfg(debug_assertions)]
    {
        ROUTE_KEY_EVALS.with(|c| c.get())
    }
    #[cfg(not(debug_assertions))]
    {
        0
    }
}

/// One shard's slice of a key-partitioned stream: tuples whose
/// `hash(key) % shards == index` (plus all control tuples).
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionSpec {
    /// Key expression evaluated on each data tuple.
    pub key: Expr,
    /// Total number of shards (K).
    pub shards: u32,
    /// This shard's index in `[0, shards)`.
    pub index: u32,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1_0000_01b3;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// A stable, platform-independent hash of a [`Value`] for shard routing.
/// (Independent of `std`'s `Hash`, whose output may change across
/// releases; shard routing must be reproducible.)
pub fn route_hash(v: &Value) -> u64 {
    match v {
        Value::Int(i) => fnv(fnv(FNV_OFFSET, &[0]), &i.to_le_bytes()),
        Value::Float(f) => fnv(fnv(FNV_OFFSET, &[1]), &f.to_bits().to_le_bytes()),
        Value::Bool(b) => fnv(FNV_OFFSET, &[2, *b as u8]),
        Value::Str(s) => fnv(fnv(FNV_OFFSET, &[3]), s.as_bytes()),
    }
}

/// Evaluates the key and hashes it — the one place shard routing touches
/// tuple contents, so the debug routing gauge counts every call.
fn hash_shard(key: &Expr, t: &Tuple, shards: u64) -> u32 {
    #[cfg(debug_assertions)]
    ROUTE_KEY_EVALS.with(|c| c.set(c.get() + 1));
    let h = key.eval(t).map(|v| route_hash(&v)).unwrap_or(0);
    (h % shards) as u32
}

impl PartitionSpec {
    /// The shard a data tuple routes to. Tuples whose key expression fails
    /// to evaluate (missing field, type error) deterministically route to
    /// shard 0 — a planner-level key mismatch must not fork replicas.
    pub fn shard_of(&self, t: &Tuple) -> u32 {
        hash_shard(&self.key, t, self.shards.max(1) as u64)
    }

    /// True if this shard keeps `t`: every control tuple, plus the data
    /// tuples of its partition.
    pub fn keeps(&self, t: &Tuple) -> bool {
        !t.is_data() || self.shard_of(t) == self.index
    }

    /// One-pass K-way partition: evaluates the key expression and
    /// `route_hash` exactly once per data tuple, producing one selection
    /// view per shard over the input's backing allocation (index `i` is
    /// shard `i`'s view; `self.index` is ignored). Control tuples appear
    /// in every shard's view; contiguous selections collapse to zero-copy
    /// range slices. The result is shared — every replica of every shard
    /// clones `Arc`s out of it instead of rescanning the batch.
    pub fn split_views(&self, input: &BatchView) -> Arc<[BatchView]> {
        let k = self.shards.max(1) as usize;
        let mut runs: Vec<Vec<(u32, u32)>> = vec![Vec::new(); k];
        fn push_pos(runs: &mut Vec<(u32, u32)>, pos: u32) {
            match runs.last_mut() {
                Some(last) if last.1 == pos => last.1 = pos + 1,
                _ => runs.push((pos, pos + 1)),
            }
        }
        // `input` is usually contiguous (a producer's outgoing batch); when
        // it is itself fragmented the output views select from a compacted
        // copy so downstream runs stay dense.
        let base = input.to_batch();
        for (pos, t) in base.as_slice().iter().enumerate() {
            let pos = pos as u32;
            if t.is_data() {
                let s = hash_shard(&self.key, t, k as u64) as usize;
                push_pos(&mut runs[s], pos);
            } else {
                for r in runs.iter_mut() {
                    push_pos(r, pos);
                }
            }
        }
        runs.into_iter()
            .map(|r| BatchView::from_runs(base.clone(), r))
            .collect()
    }
}

/// Delivery-layer memo that makes fan-out routing one-pass: the first
/// receiver of a (batch, shard group) computes all K selection views via
/// [`PartitionSpec::split_views`]; the remaining K·R−1 receivers of the
/// same batch find the entry and clone their shard's view — no key
/// evaluation, no hashing, no copying.
///
/// The cache is identity-keyed ([`BatchView::same_view`]) and each entry
/// holds a clone of its input view, so a hit can never be a reused
/// allocation address. A handful of entries suffices: all receivers of one
/// batch are routed back-to-back by a single sender activation, so the
/// working set is the few batches currently fanning out, not history.
#[derive(Default)]
pub struct ShardRouter {
    entries: Vec<RouteEntry>,
}

struct RouteEntry {
    key: Expr,
    shards: u32,
    input: BatchView,
    views: Arc<[BatchView]>,
}

/// Entries kept per router (MRU order). Fan-out routes one batch to all
/// its receivers consecutively, so a small cache already captures the
/// K·R−1 follow-up lookups; interleavings of a few concurrent batches
/// (e.g. subscriber replay) still hit.
const ROUTER_CAP: usize = 4;

impl ShardRouter {
    /// An empty router.
    pub fn new() -> ShardRouter {
        ShardRouter::default()
    }

    /// Routes `input` for the receiver described by `spec`, computing the
    /// shard group's K views on the first call for this batch and serving
    /// `Arc` clones on every subsequent one.
    pub fn route(&mut self, spec: &PartitionSpec, input: &BatchView) -> BatchView {
        if spec.shards <= 1 {
            return input.clone();
        }
        if let Some(i) = self
            .entries
            .iter()
            .position(|e| e.shards == spec.shards && e.input.same_view(input) && e.key == spec.key)
        {
            self.entries.swap(0, i);
            return self.entries[0].views[spec.index as usize].clone();
        }
        let views = spec.split_views(input);
        let out = views[spec.index as usize].clone();
        self.entries.insert(
            0,
            RouteEntry {
                key: spec.key.clone(),
                shards: spec.shards,
                input: input.clone(),
                views,
            },
        );
        self.entries.truncate(ROUTER_CAP);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::TupleBatch;
    use crate::time::Time;
    use crate::tuple::TupleId;

    fn keyed(id: u64, key: i64) -> Tuple {
        Tuple::insertion(TupleId(id), Time::from_millis(id), vec![Value::Int(key)])
    }

    fn spec(shards: u32, index: u32) -> PartitionSpec {
        PartitionSpec {
            key: Expr::field(0),
            shards,
            index,
        }
    }

    #[test]
    fn partition_is_total_and_disjoint() {
        let tuples: Vec<Tuple> = (0..100).map(|i| keyed(i, i as i64)).collect();
        for t in &tuples {
            let owners: Vec<u32> = (0..4).filter(|&k| spec(4, k).keeps(t)).collect();
            assert_eq!(owners.len(), 1, "each data tuple has exactly one owner");
            assert_eq!(owners[0], spec(4, 0).shard_of(t));
        }
    }

    #[test]
    fn hash_spreads_sequential_keys() {
        let mut counts = [0usize; 4];
        for i in 0..1000 {
            counts[spec(4, 0).shard_of(&keyed(i, i as i64)) as usize] += 1;
        }
        for (k, &c) in counts.iter().enumerate() {
            assert!(c > 150, "shard {k} starved: {counts:?}");
        }
    }

    #[test]
    fn control_tuples_reach_every_shard() {
        let boundary = Tuple::boundary(TupleId::NONE, Time::from_secs(1));
        let undo = Tuple::undo(TupleId::NONE, TupleId(5));
        for k in 0..3 {
            assert!(spec(3, k).keeps(&boundary));
            assert!(spec(3, k).keeps(&undo));
        }
    }

    #[test]
    fn bad_key_routes_to_shard_zero() {
        let t = Tuple::insertion(TupleId(1), Time::ZERO, vec![]);
        let s = PartitionSpec {
            key: Expr::field(7),
            shards: 4,
            index: 0,
        };
        assert_eq!(s.shard_of(&t), 0);
        assert!(s.keeps(&t));
        assert!(!PartitionSpec { index: 2, ..s }.keeps(&t));
    }

    #[test]
    fn split_views_matches_per_link_keeps() {
        for k in [1u32, 2, 4, 8] {
            let mut tuples: Vec<Tuple> = (0..40).map(|i| keyed(i, (i * 7) as i64)).collect();
            tuples.insert(10, Tuple::boundary(TupleId::NONE, Time::from_secs(1)));
            tuples.push(Tuple::boundary(TupleId::NONE, Time::from_secs(2)));
            let b = TupleBatch::from_vec(tuples);
            let views = spec(k, 0).split_views(&b.clone().into());
            assert_eq!(views.len(), k as usize);
            for (i, v) in views.iter().enumerate() {
                let shard = spec(k, i as u32);
                let expect: Vec<Tuple> = b.iter().filter(|t| shard.keeps(t)).cloned().collect();
                let got: Vec<Tuple> = v.iter().cloned().collect();
                assert_eq!(got, expect, "K={k} shard {i}");
            }
        }
    }

    #[test]
    fn split_views_hashes_once_per_tuple() {
        let b = TupleBatch::from_vec((0..100).map(|i| keyed(i, i as i64)).collect());
        let before = route_key_evals();
        let views = spec(8, 0).split_views(&b.into());
        if cfg!(debug_assertions) {
            assert_eq!(
                route_key_evals() - before,
                100,
                "one hash per tuple for all 8 shards"
            );
        }
        let total: usize = views.iter().map(|v| v.len()).sum();
        assert_eq!(
            total, 100,
            "data tuples are partitioned totally and disjointly"
        );
    }

    #[test]
    fn split_views_contiguous_selection_is_zero_copy() {
        // All-one-shard keys: shard s gets the whole batch as a zero-copy
        // slice, the others get empty views.
        let b = TupleBatch::from_vec((0..16).map(|i| keyed(i, 42)).collect());
        let views = spec(4, 0).split_views(&b.clone().into());
        let owner = spec(4, 0).shard_of(&keyed(0, 42)) as usize;
        for (i, v) in views.iter().enumerate() {
            if i == owner {
                assert_eq!(v.len(), 16);
                assert!(
                    v.to_batch().shares_backing(&b),
                    "contiguous run stays zero-copy"
                );
            } else {
                assert!(v.is_empty());
            }
        }
    }

    #[test]
    fn router_serves_fanout_from_one_pass() {
        let b: BatchView =
            TupleBatch::from_vec((0..50).map(|i| keyed(i, i as i64)).collect()).into();
        let mut router = ShardRouter::new();
        let before = route_key_evals();
        // K=4, R=2: eight receiver links route the same batch.
        let mut outs = Vec::new();
        for shard in 0..4u32 {
            for _replica in 0..2 {
                outs.push(router.route(&spec(4, shard), &b));
            }
        }
        if cfg!(debug_assertions) {
            assert_eq!(
                route_key_evals() - before,
                50,
                "K·R fan-out still hashes once per tuple"
            );
        }
        for (n, out) in outs.iter().enumerate() {
            assert_eq!(
                out,
                &outs[(n / 2) * 2],
                "both replicas share the shard's view"
            );
        }
        let total: usize = outs.iter().step_by(2).map(|v| v.len()).sum();
        assert_eq!(total, 50);
    }

    #[test]
    fn router_distinguishes_batches_groups_and_unsharded() {
        let b1: BatchView =
            TupleBatch::from_vec((0..10).map(|i| keyed(i, i as i64)).collect()).into();
        let b2: BatchView = TupleBatch::from_vec((0..10).map(|i| keyed(i, 1)).collect()).into();
        let mut router = ShardRouter::new();
        let v1 = router.route(&spec(2, 0), &b1);
        let v2 = router.route(&spec(2, 0), &b2);
        assert_ne!(v1, v2, "different batches route independently");
        // A different shard count is a different group even for the same batch.
        let v3 = router.route(&spec(3, 0), &b1);
        assert_eq!(
            v3.len(),
            b1.iter().filter(|t| spec(3, 0).keeps(t)).count(),
            "group (key, K) is part of the cache identity"
        );
        // Unsharded links pass through untouched.
        let whole = router.route(&spec(1, 0), &b1);
        assert_eq!(whole.len(), b1.len());
    }

    #[test]
    fn route_hash_distinguishes_types_and_values() {
        assert_ne!(
            route_hash(&Value::Int(1)),
            route_hash(&Value::Int(2)),
            "values differ"
        );
        assert_ne!(
            route_hash(&Value::Int(1)),
            route_hash(&Value::Bool(true)),
            "types are domain-separated"
        );
        assert_eq!(route_hash(&Value::str("a")), route_hash(&Value::str("a")));
    }
}
