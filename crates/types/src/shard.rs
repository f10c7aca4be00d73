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
//!
//! Routing is one pass per produced batch, not per message: the
//! [`ShardRouter`] splits a batch's backing allocation once into one
//! contiguous batch per shard, and every chunk of it, sent to any replica
//! of any shard, is a slice of its shard's batch.

use crate::batch::{BatchView, TupleBatch};
use crate::expr::Expr;
use crate::tuple::Tuple;
use crate::value::Value;
use std::sync::Arc;

#[cfg(debug_assertions)]
thread_local! {
    static ROUTE_KEY_EVALS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Debug-build routing gauge: how many shard-key evaluate+hash operations
/// this thread has performed. The router's contract — the key is hashed
/// exactly once per data tuple of a produced batch, regardless of K·R and
/// of how the batch is chunked — is asserted against this counter in tests.
/// Always 0 in release builds (no counting on the hot path).
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
}

/// Delivery-layer memo that makes fan-out routing one pass per produced
/// batch, keyed by the input's backing allocation.
///
/// The first route of a backing for a shard group (key, K) evaluates the
/// key once per data tuple and copies the backing's tuples into K
/// contiguous batches — control tuples in every one — recording each
/// shard's backing positions. Any contiguous view of that backing (the
/// whole batch or any chunk of it, for any of the K·R receivers, in any
/// send order) then routes by two binary searches to a slice of its
/// shard's batch: no hashing, no allocation, and all R replicas of a shard
/// share it.
///
/// Each entry holds a clone of its backing, so a hit can never be a reused
/// allocation address. A handful of entries suffices: a producer's flush
/// sends each receiver in turn the few batches it emitted since the last
/// one, so the working set is those batches, not history.
#[derive(Default)]
pub struct ShardRouter {
    entries: Vec<RouteEntry>,
}

/// One backing, split for one shard group.
struct RouteEntry {
    key: Expr,
    backing: Arc<[Tuple]>,
    /// Index `i` is shard `i`: its tuples of the backing as one batch, and
    /// each one's position in the backing (ascending).
    shards: Vec<(TupleBatch, Vec<u32>)>,
}

/// Entries kept per router (most recently used first).
const ROUTER_CAP: usize = 4;

impl ShardRouter {
    /// An empty router.
    pub fn new() -> ShardRouter {
        ShardRouter::default()
    }

    /// Routes `input` for the receiver described by `spec`: splits its
    /// backing on the first call for the backing and group, then serves a
    /// slice of the shard's batch on this and every later call.
    pub fn route(&mut self, spec: &PartitionSpec, input: &BatchView) -> BatchView {
        if spec.shards <= 1 {
            return input.clone();
        }
        let (backing, range) = input.backing();
        let k = spec.shards as usize;
        let hit = self.entries.iter().position(|e| {
            Arc::ptr_eq(&e.backing, backing) && e.shards.len() == k && e.key == spec.key
        });
        match hit {
            Some(i) => self.entries.swap(0, i),
            None => {
                self.entries.truncate(ROUTER_CAP - 1);
                let entry = RouteEntry {
                    key: spec.key.clone(),
                    backing: Arc::clone(backing),
                    shards: split(&spec.key, k, backing),
                };
                self.entries.insert(0, entry);
            }
        }
        let (batch, positions) = &self.entries[0].shards[spec.index as usize];
        let at = |p: usize| positions.partition_point(|&q| (q as usize) < p);
        BatchView::whole(batch.slice(at(range.start)..at(range.end)))
    }
}

/// Splits `backing` for `k` shards: one key evaluation per data tuple, then
/// per shard its backing positions and its tuples copied into one batch —
/// every allocation sized by a counting pass first, so their number does
/// not grow with the backing.
fn split(key: &Expr, k: usize, backing: &[Tuple]) -> Vec<(TupleBatch, Vec<u32>)> {
    // `None`: a control tuple, which every shard keeps.
    let owners: Vec<Option<u32>> = backing
        .iter()
        .map(|t| t.is_data().then(|| hash_shard(key, t, k as u64)))
        .collect();
    let mut counts = vec![owners.iter().filter(|o| o.is_none()).count(); k];
    for &s in owners.iter().flatten() {
        counts[s as usize] += 1;
    }
    let mut positions: Vec<Vec<u32>> = counts.into_iter().map(Vec::with_capacity).collect();
    for (pos, owner) in owners.iter().enumerate() {
        match owner {
            Some(s) => positions[*s as usize].push(pos as u32),
            None => positions.iter_mut().for_each(|p| p.push(pos as u32)),
        }
    }
    positions
        .into_iter()
        .map(|p| (p.iter().map(|&i| backing[i as usize].clone()).collect(), p))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// `n` data tuples with a boundary after every thousandth.
    fn produced(n: u64) -> TupleBatch {
        let mut tuples = Vec::new();
        for i in 1..=n {
            tuples.push(keyed(i, i as i64));
            if i % 1000 == 0 {
                tuples.push(Tuple::boundary(TupleId::NONE, Time::from_millis(i)));
            }
        }
        TupleBatch::from_vec(tuples)
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
    fn route_matches_per_link_keeps() {
        for k in [1u32, 2, 4, 8] {
            let mut tuples: Vec<Tuple> = (0..40).map(|i| keyed(i, (i * 7) as i64)).collect();
            tuples.insert(10, Tuple::boundary(TupleId::NONE, Time::from_secs(1)));
            tuples.push(Tuple::boundary(TupleId::NONE, Time::from_secs(2)));
            let b = TupleBatch::from_vec(tuples);
            let mut router = ShardRouter::new();
            for view in [b.clone(), b.slice(5..30), b.slice(11..11)] {
                for i in 0..k {
                    let shard = spec(k, i);
                    let expect: Vec<Tuple> =
                        view.iter().filter(|t| shard.keeps(t)).cloned().collect();
                    let got = router.route(&shard, &view.clone().into());
                    assert_eq!(got.as_slice(), &expect[..], "K={k} shard {i}");
                }
            }
        }
    }

    /// The fan-out of a produced batch as `Publisher` sends it: a
    /// 9,000-tuple backing in chunks of 500 to K = 4 shards × R = 2
    /// replicas, subscriber by subscriber (a zero-cost flush) and chunk by
    /// chunk (the paced departure queue).
    #[test]
    fn fanout_evaluates_each_key_once_in_either_send_order() {
        const K: u32 = 4;
        const R: usize = 2;
        let backing = produced(9_000);
        let chunks: Vec<BatchView> = backing.chunks_shared(500).map(BatchView::whole).collect();
        let receivers: Vec<PartitionSpec> = (0..K)
            .flat_map(|s| std::iter::repeat_n(spec(K, s), R))
            .collect();
        let (n_recv, n_chunks) = (receivers.len(), chunks.len());
        let by_subscriber = (0..n_recv).flat_map(|r| (0..n_chunks).map(move |c| (r, c)));
        let by_chunk = (0..n_chunks).flat_map(|c| (0..n_recv).map(move |r| (r, c)));
        let orders: [(&str, Vec<(usize, usize)>); 2] = [
            ("subscriber by subscriber", by_subscriber.collect()),
            ("chunk by chunk", by_chunk.collect()),
        ];
        for (order, sends) in orders {
            let mut router = ShardRouter::new();
            let before = route_key_evals();
            let routed: Vec<(usize, usize, BatchView)> = sends
                .into_iter()
                .map(|(r, c)| (r, c, router.route(&receivers[r], &chunks[c])))
                .collect();
            if cfg!(debug_assertions) {
                assert_eq!(
                    route_key_evals() - before,
                    backing.data_count(),
                    "{order}: one key evaluation per data tuple for all K·R receivers"
                );
            }
            let mut shard_batches: Vec<Option<TupleBatch>> = vec![None; K as usize];
            for (r, c, view) in routed {
                let spec = &receivers[r];
                let expect: Vec<Tuple> = chunks[c]
                    .iter()
                    .filter(|t| spec.keeps(t))
                    .cloned()
                    .collect();
                assert_eq!(
                    view.as_slice(),
                    &expect[..],
                    "{order}: receiver {r}, chunk {c}"
                );
                let first =
                    shard_batches[spec.index as usize].get_or_insert_with(|| view.to_batch());
                assert!(
                    view.shares_backing(first),
                    "{order}: every view of shard {} slices one batch",
                    spec.index
                );
            }
        }
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
        assert!(whole.shares_backing(&b1) && whole.len() == b1.len());
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
