//! SUnion's emission order against a naive model. Whatever the bucket's
//! shape, the emitted data is every arrival stably sorted by
//! `(stime, port, id)` — buckets are `stime` intervals, so bucket by bucket
//! is the same order — and renumbered from 1, with the port as `origin`.
//! Seeded cases cover one to four ports, each port's stream cut into
//! random segments and interleaved with the others, `stime` ties within a
//! port and across ports, repeated ids, ports out of order on their own,
//! and both the stable (boundary) and the tentative (overdue) release.

use borealis_ops::{BatchEmitter, Operator, SUnion, SUnionConfig};
use borealis_types::{Time, Tuple, TupleBatch, TupleId, TupleKind, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One case: deliveries of `(port, segment)` in arrival order.
fn script(rng: &mut StdRng, ports: usize, seq: &mut i64) -> Vec<(usize, TupleBatch)> {
    let mut streams: Vec<Vec<TupleBatch>> = (0..ports)
        .map(|_| {
            // 5 ms steps over three 100 ms buckets: ties are frequent.
            let mut stimes: Vec<u64> = (0..rng.gen_range(0usize..60))
                .map(|_| 5 * rng.gen_range(0u64..60))
                .collect();
            if rng.gen_range(0u32..4) != 0 {
                stimes.sort_unstable();
            }
            let tuples: Vec<Tuple> = stimes
                .into_iter()
                .map(|ms| {
                    *seq += 1; // tells apart tuples with equal keys
                    let id = TupleId(rng.gen_range(1u64..20));
                    Tuple::insertion(id, Time::from_millis(ms), vec![Value::Int(*seq)])
                })
                .collect();
            let batch = TupleBatch::from_vec(tuples);
            let mut segments = Vec::new();
            let mut start = 0;
            while start < batch.len() {
                let end = (start + rng.gen_range(1usize..16)).min(batch.len());
                segments.push(batch.slice(start..end));
                start = end;
            }
            segments.reverse();
            segments
        })
        .collect();
    let mut deliveries = Vec::new();
    while streams.iter().any(|s| !s.is_empty()) {
        let port = rng.gen_range(0..ports);
        if let Some(segment) = streams[port].pop() {
            deliveries.push((port, segment));
        }
    }
    deliveries
}

/// The naive order: a stable sort of all arrivals, then renumbering.
fn model(deliveries: &[(usize, TupleBatch)], tentative: bool) -> Vec<Tuple> {
    let mut arrivals: Vec<(usize, &Tuple)> = deliveries
        .iter()
        .flat_map(|(port, b)| b.as_slice().iter().map(move |t| (*port, t)))
        .collect();
    arrivals.sort_by_key(|&(port, t)| (t.stime, port, t.id));
    let renumber = |(i, (port, t)): (usize, (usize, &Tuple))| {
        let mut t = t.clone();
        t.id = TupleId(i as u64 + 1);
        t.origin = port as u16;
        if tentative {
            t.kind = TupleKind::Tentative;
        }
        t
    };
    arrivals.into_iter().enumerate().map(renumber).collect()
}

/// The data an SUnion emits for `deliveries`, released stably by a
/// boundary on every port or tentatively once every bucket is overdue.
fn emitted(ports: usize, deliveries: &[(usize, TupleBatch)], tentative: bool) -> Vec<Tuple> {
    let mut s = SUnion::new(SUnionConfig::new(ports));
    let mut out = BatchEmitter::new();
    let now = Time::from_millis(1);
    for (port, segment) in deliveries {
        s.process_batch(*port, segment, now, &mut out);
    }
    if tentative {
        s.tick(Time::from_secs(100), true, &mut out);
    } else {
        for port in 0..ports {
            let boundary = Tuple::boundary(TupleId::NONE, Time::from_millis(300));
            s.process(port, &boundary, now, &mut out);
        }
    }
    out.tuples().into_iter().filter(|t| t.is_data()).collect()
}

#[test]
fn emission_equals_the_stable_sort_by_stime_port_id() {
    let mut rng = StdRng::seed_from_u64(0x5E_0D);
    let mut seq = 0;
    let mut cross_port_ties = 0;
    for case in 0..300 {
        let ports = 1 + case % 4;
        let deliveries = script(&mut rng, ports, &mut seq);
        for tentative in [false, true] {
            let expect = model(&deliveries, tentative);
            let got = emitted(ports, &deliveries, tentative);
            assert_eq!(
                got, expect,
                "case {case}, {ports} ports, tentative {tentative}"
            );
        }
        let order = model(&deliveries, false);
        cross_port_ties += order
            .windows(2)
            .filter(|w| w[0].stime == w[1].stime && w[0].origin != w[1].origin)
            .count();
    }
    assert!(cross_port_ties > 100, "{cross_port_ties} ties across ports");
}
