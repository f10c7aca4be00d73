//! # borealis-engine
//!
//! The single-node SPE execution engine: instantiates one fragment of a
//! query diagram (from a `borealis-diagram` physical plan) and executes it
//! against virtual time, implementing the node-local parts of DPC —
//! checkpoint-before-tentative, divergence tracking, and checkpoint/redo
//! reconciliation (§4.4 of the paper). The distributed protocol around it
//! (replica management, subscriptions, heartbeats) lives in `borealis-dpc`.

#![warn(missing_docs)]

pub mod fragment;

pub use fragment::{encode_durable_capture, Batch, Fragment};

#[cfg(test)]
mod tests {
    use super::*;
    use borealis_diagram::{plan_deployment, DeploymentSpec, DpcConfig, QueryBuilder};
    use borealis_types::{
        ControlSignal, Duration, Expr, StreamId, Time, Tuple, TupleId, TupleKind, Value,
    };

    /// A fragment merging three source streams through one SUnion into an
    /// SOutput — the Fig. 10 shape the paper's §5.1 experiments use.
    fn merge3_fragment(detect_secs: u64) -> (Fragment, Vec<StreamId>, StreamId) {
        let mut q = QueryBuilder::new();
        let s1 = q.source("s1");
        let s2 = q.source("s2");
        let s3 = q.source("s3");
        let u = q.union("merged", &[s1, s2, s3]);
        q.output(u);
        let d = q.build().unwrap();
        let cfg = DpcConfig {
            total_delay: Duration::from_secs(detect_secs),
            safety: 1.0,
            ..DpcConfig::default()
        };
        let p = plan_deployment(&d, &DeploymentSpec::single(1), &cfg).unwrap();
        let f = Fragment::from_plan(&p.fragments[0]);
        (f, vec![s1.id(), s2.id(), s3.id()], u.id())
    }

    fn data(id: u64, ms: u64) -> Tuple {
        Tuple::insertion(
            TupleId(id),
            Time::from_millis(ms),
            vec![Value::Int(id as i64)],
        )
    }

    fn boundary(ms: u64) -> Tuple {
        Tuple::boundary(TupleId::NONE, Time::from_millis(ms))
    }

    /// Pushes a healthy round of data + boundaries on all streams.
    fn healthy_round(f: &mut Fragment, streams: &[StreamId], ms: u64, next_id: &mut u64) -> Batch {
        let mut total = Batch::default();
        let now = Time::from_millis(ms);
        for (k, &s) in streams.iter().enumerate() {
            total.merge(f.push(s, &data(*next_id, ms + k as u64), now));
            *next_id += 1;
        }
        for &s in streams {
            total.merge(f.push(s, &boundary(ms + 140), now));
        }
        total
    }

    #[test]
    fn stable_flow_emits_stable_tuples_in_order() {
        let (mut f, streams, out_stream) = merge3_fragment(2);
        let mut id = 1;
        let mut all = Vec::new();
        for round in 0..5 {
            let b = healthy_round(&mut f, &streams, round * 100 + 10, &mut id);
            all.extend(b.tuples());
        }
        let data_tuples: Vec<_> = all
            .iter()
            .filter(|(s, t)| *s == out_stream && t.is_data())
            .collect();
        // Rounds 0..4 pushed 15 tuples; each round's trailing boundary
        // (ms + 140) closes that round's bucket, so all 15 are emitted.
        assert_eq!(data_tuples.len(), 15);
        assert!(data_tuples
            .iter()
            .all(|(_, t)| t.kind == TupleKind::Insertion));
        // stimes must be non-decreasing (serialized order).
        let stimes: Vec<u64> = data_tuples
            .iter()
            .map(|(_, t)| t.stime.as_micros())
            .collect();
        assert!(stimes.windows(2).all(|w| w[0] <= w[1]), "{stimes:?}");
        assert!(!f.is_tainted());
    }

    #[test]
    fn missing_stream_triggers_checkpoint_and_tentative_data() {
        let (mut f, streams, out_stream) = merge3_fragment(2);
        let mut id = 1;
        // One healthy round, then stream 3 goes silent.
        healthy_round(&mut f, &streams, 10, &mut id);
        let now = Time::from_millis(200);
        for &s in &streams[..2] {
            f.push(s, &data(id, 200), now);
            id += 1;
            f.push(s, &boundary(300), now);
        }
        assert!(!f.is_tainted());
        // Tick past the detection delay: checkpoint, UP_FAILURE, tentative.
        let b = f.tick(Time::from_millis(2500));
        assert!(f.is_tainted());
        assert!(b.signals.contains(&ControlSignal::UpFailure));
        let emitted = b.tuples();
        let tentative: Vec<_> = emitted
            .iter()
            .filter(|(s, t)| *s == out_stream && t.is_tentative())
            .collect();
        assert_eq!(tentative.len(), 2, "both live-stream tuples released");
        assert!(!f.can_reconcile(), "stream 3 still missing");
    }

    #[test]
    fn reconcile_corrects_undoes_and_emits_rec_done_without_duplicates() {
        let (mut f, streams, out_stream) = merge3_fragment(2);
        let mut id = 1;
        healthy_round(&mut f, &streams, 10, &mut id);
        // Failure on stream 3 at t=200: only streams 1, 2 deliver.
        for &s in &streams[..2] {
            f.push(s, &data(100 + id, 200), Time::from_millis(200));
            id += 1;
            f.push(s, &boundary(300), Time::from_millis(200));
        }
        let b = f.tick(Time::from_millis(2300));
        let n_tentative = b.tuples().iter().filter(|(_, t)| t.is_tentative()).count();
        assert_eq!(n_tentative, 2);

        // Heal: stream 3 replays its backlog with boundaries; streams 1, 2
        // keep their boundaries advancing.
        let heal = Time::from_millis(2400);
        f.push(streams[2], &data(999, 205), heal);
        for &s in &streams {
            f.push(s, &boundary(400), heal);
        }
        assert!(f.can_reconcile(), "all inputs corrected");

        let mut b = f.reconcile(Time::from_millis(2500));
        b.merge(f.finish_reconciliation(Time::from_millis(2600)));
        let emitted = b.tuples();
        let out: Vec<&Tuple> = emitted
            .iter()
            .filter(|(s, _)| *s == out_stream)
            .map(|(_, t)| t)
            .collect();
        // Expect: UNDO (rolling back the 2 tentative), stable corrections
        // (the 2 + the missing 1), REC_DONE.
        let undo_pos = out
            .iter()
            .position(|t| t.kind == TupleKind::Undo)
            .expect("undo");
        let rec_pos = out
            .iter()
            .position(|t| t.kind == TupleKind::RecDone)
            .expect("rec_done");
        assert!(undo_pos < rec_pos);
        let stable: Vec<_> = out.iter().filter(|t| t.is_stable_data()).collect();
        assert_eq!(stable.len(), 3, "corrections: {out:?}");
        assert!(b.signals.contains(&ControlSignal::RecDone));
        assert!(!f.is_tainted());

        // No duplicates: stable ids strictly increase across the undo.
        let mut last = TupleId::NONE;
        for (s, t) in healthy_round(&mut f, &streams, 500, &mut id).tuples() {
            if s == out_stream && t.is_stable_data() {
                assert!(t.id > last);
                last = t.id;
            }
        }
    }

    /// The Fig. 11(b) scenario: a second failure strikes during recovery.
    /// Reconciliation corrects only the first failure's data, emits
    /// REC_DONE, and the second failure's data is re-released tentatively
    /// afterwards (with a fresh checkpoint).
    #[test]
    fn failure_during_recovery_reconciles_partially() {
        let (mut f, streams, out_stream) = merge3_fragment(2);
        let mut id = 1;
        healthy_round(&mut f, &streams, 10, &mut id);
        // Failure 1: stream 1 silent; streams 2, 3 deliver at t=200.
        for &s in &streams[1..] {
            f.push(s, &data(10 + id, 200), Time::from_millis(200));
            id += 1;
            f.push(s, &boundary(300), Time::from_millis(200));
        }
        f.tick(Time::from_millis(2300)); // tentative release
        assert!(f.is_tainted());

        // Failure 1 heals (stream 1 backlog) but stream 3 dies at the same
        // moment: its boundaries stop at 280.
        let heal = Time::from_millis(2400);
        f.push(streams[0], &data(500, 210), heal);
        f.push(streams[0], &boundary(400), heal);
        f.push(streams[1], &boundary(400), heal);
        // Stream 3's boundary stays at 300: buckets beyond are uncovered,
        // but everything emitted so far (bucket 2, ending at 300) is
        // covered.
        assert!(f.can_reconcile());

        let mut b = f.reconcile(Time::from_millis(2500));
        b.merge(f.finish_reconciliation(Time::from_millis(2600)));
        let emitted = b.tuples();
        let out: Vec<&Tuple> = emitted
            .iter()
            .filter(|(s, _)| *s == out_stream)
            .map(|(_, t)| t)
            .collect();
        assert!(out.iter().any(|t| t.kind == TupleKind::Undo));
        assert!(out.iter().any(|t| t.kind == TupleKind::RecDone));
        assert!(!f.is_tainted(), "fresh after reconcile");

        // New data on live streams while stream 3 stays dead: after the
        // detection delay the fragment checkpoints again and goes tentative.
        for &s in &streams[..2] {
            f.push(s, &data(600 + id, 2600), Time::from_millis(2600));
            id += 1;
            f.push(s, &boundary(2700), Time::from_millis(2600));
        }
        let b = f.tick(Time::from_millis(4700));
        assert!(f.is_tainted());
        assert!(b.tuples().iter().any(|(_, t)| t.is_tentative()));
    }

    #[test]
    fn filter_chain_fragment_preserves_dpc_flow() {
        // source -> filter(keep odd values) -> output, with auto-inserted
        // SUnion/SOutput.
        let mut q = QueryBuilder::new();
        let s = q.source("in");
        let odd = Expr::eq(Expr::modulo(Expr::field(0), Expr::int(2)), Expr::int(1));
        let fz = q.filter("odd", s, odd);
        q.output(fz);
        let d = q.build().unwrap();
        let p = plan_deployment(&d, &DeploymentSpec::single(1), &DpcConfig::default()).unwrap();
        let mut f = Fragment::from_plan(&p.fragments[0]);
        let s = s.id();

        let mut out = Vec::new();
        for i in 1..=6u64 {
            let t = Tuple::insertion(
                TupleId(i),
                Time::from_millis(i * 10),
                vec![Value::Int(i as i64)],
            );
            out.extend(f.push(s, &t, Time::from_millis(i * 10)).tuples());
        }
        out.extend(f.push(s, &boundary(100), Time::from_millis(100)).tuples());
        let kept: Vec<i64> = out
            .iter()
            .filter(|(_, t)| t.is_data())
            .map(|(_, t)| t.values[0].as_int().unwrap())
            .collect();
        assert_eq!(kept, vec![1, 3, 5]);
    }

    #[test]
    fn work_accounting_counts_data_tuples() {
        let (mut f, streams, _) = merge3_fragment(2);
        let mut id = 1;
        let b = healthy_round(&mut f, &streams, 10, &mut id);
        // 3 data tuples processed by the SUnion, then the round's trailing
        // boundary closes the bucket and the 3 emissions pass the SOutput.
        assert_eq!(b.work, 6);
        assert_eq!(f.total_work(), 6);
        let b2 = healthy_round(&mut f, &streams, 200, &mut id);
        assert_eq!(b2.work, 6, "same shape every round");
    }

    #[test]
    fn deadline_reflects_oldest_pending_bucket() {
        let (mut f, streams, _) = merge3_fragment(2);
        assert_eq!(f.next_deadline(), None);
        f.push(streams[0], &data(1, 100), Time::from_millis(120));
        let d = f.next_deadline().expect("bucket pending");
        assert_eq!(d, Time::from_millis(2120), "arrival + detect delay");
    }
}
