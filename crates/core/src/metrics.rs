//! Client-side measurement of the paper's two metrics (§2.3):
//!
//! * **Availability** — `Procnew`, the maximum processing latency of *new*
//!   output tuples (tuples that advance the stream's stime frontier;
//!   corrections of previously tentative data do not count, §2.3.3).
//! * **Consistency** — `Ntentative`, the number of tentative tuples
//!   received (Definition 2).
//!
//! The collector also checks protocol invariants a correct DPC deployment
//! must uphold: stable tuple ids strictly increase (no duplicates, eventual
//! consistency) and every tentative run is eventually closed by an UNDO +
//! corrections.

use borealis_types::{Duration, Time, Tuple, TupleId, TupleKind};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// One recorded arrival (kept only when tracing is enabled).
#[derive(Debug, Clone)]
pub struct TraceEntry {
    /// Arrival time at the client.
    pub arrival: Time,
    /// Tuple type.
    pub kind: TupleKind,
    /// Tuple id.
    pub id: TupleId,
    /// Tuple stime.
    pub stime: Time,
    /// Undo target for UNDO entries.
    pub undo_target: Option<TupleId>,
}

/// Applies the DPC stream semantics to a client arrival trace and returns
/// the stream the application retains, as `(id, stime µs, kind)`: data
/// tuples append, an UNDO rolls back everything after the last stable tuple
/// at or before its target, and the corrections that follow take its
/// place. A tentative tuple still in the result was never corrected.
pub fn final_stream(trace: &[TraceEntry]) -> Vec<(u64, u64, TupleKind)> {
    let mut kept: Vec<(u64, u64, TupleKind)> = Vec::new();
    for e in trace {
        match e.kind {
            TupleKind::Insertion | TupleKind::Tentative => {
                kept.push((e.id.0, e.stime.as_micros(), e.kind));
            }
            TupleKind::Undo => {
                let target = e.undo_target.unwrap_or_default().0;
                let last_kept = kept
                    .iter()
                    .rposition(|&(id, _, kind)| kind == TupleKind::Insertion && id <= target);
                kept.truncate(last_kept.map_or(0, |i| i + 1));
            }
            TupleKind::RecDone | TupleKind::Boundary => {}
        }
    }
    kept
}

/// Metrics for one output stream.
#[derive(Debug, Default)]
pub struct StreamMetrics {
    /// Highest stime seen on any data tuple (the "new data" frontier).
    pub frontier: Time,
    /// Max `arrival - stime` over frontier-advancing tuples: `Procnew`.
    pub procnew: Duration,
    /// Tentative data tuples received (`Ntentative`).
    pub n_tentative: u64,
    /// Stable data tuples received.
    pub n_stable: u64,
    /// Stable data tuples that were *new* (not corrections).
    pub n_new_stable: u64,
    /// UNDO tuples received.
    pub n_undo: u64,
    /// REC_DONE markers received.
    pub n_rec_done: u64,
    /// Protocol violations: stable tuples whose id did not increase.
    pub dup_stable: u64,
    /// Maximum gap between consecutive new-data arrivals (Fig. 11's "the
    /// maximum gap between new tuples remains below the bound").
    pub max_gap: Duration,
    /// Minimum per-tuple latency over new data tuples.
    pub lat_min: Option<Duration>,
    /// Sum of per-tuple latencies (micros) over new data tuples.
    lat_sum: u128,
    /// Count of new data tuples with latency samples.
    lat_count: u64,
    /// Stable id frontier.
    last_stable_id: TupleId,
    /// Arrival time of the previous new data tuple.
    last_new_arrival: Option<Time>,
    /// Full arrival trace (enabled per stream for Fig. 11-style plots).
    pub trace: Option<Vec<TraceEntry>>,
}

impl StreamMetrics {
    /// Records one arriving tuple.
    pub fn record(&mut self, now: Time, t: &Tuple) {
        if let Some(trace) = &mut self.trace {
            trace.push(TraceEntry {
                arrival: now,
                kind: t.kind,
                id: t.id,
                stime: t.stime,
                undo_target: t.undo_target(),
            });
        }
        match t.kind {
            TupleKind::Insertion | TupleKind::Tentative => {
                if t.stime > self.frontier {
                    self.frontier = t.stime;
                    let lat = now.since(t.stime);
                    self.procnew = self.procnew.max(lat);
                    self.lat_min = Some(self.lat_min.map_or(lat, |m| m.min(lat)));
                    self.lat_sum += lat.as_micros() as u128;
                    self.lat_count += 1;
                    if let Some(prev) = self.last_new_arrival {
                        self.max_gap = self.max_gap.max(now.since(prev));
                    }
                    self.last_new_arrival = Some(now);
                    if t.kind == TupleKind::Insertion {
                        self.n_new_stable += 1;
                    }
                }
                if t.kind == TupleKind::Tentative {
                    self.n_tentative += 1;
                } else {
                    self.n_stable += 1;
                    if t.id <= self.last_stable_id {
                        self.dup_stable += 1;
                    } else {
                        self.last_stable_id = t.id;
                    }
                }
            }
            TupleKind::Undo => {
                self.n_undo += 1;
                if let Some(target) = t.undo_target() {
                    // Corrections will re-use ids after the target.
                    self.last_stable_id = self.last_stable_id.min(target);
                }
            }
            TupleKind::RecDone => self.n_rec_done += 1,
            TupleKind::Boundary => {}
        }
    }

    /// Stable id frontier (tests).
    pub fn last_stable_id(&self) -> TupleId {
        self.last_stable_id
    }

    /// Mean per-tuple latency over new data tuples.
    pub fn lat_avg(&self) -> Duration {
        if self.lat_count == 0 {
            return Duration::ZERO;
        }
        Duration::from_micros((self.lat_sum / self.lat_count as u128) as u64)
    }

    /// Number of latency samples.
    pub fn lat_count(&self) -> u64 {
        self.lat_count
    }
}

/// A contention-free per-stream recording handle (one shard of a
/// [`MetricsHub`]).
///
/// The client proxy resolves one recorder per watched stream at
/// subscription time and then records through it directly: the only lock
/// taken on the delivery hot path is this stream's own mutex — different
/// streams (and therefore different client actors in the thread runtime)
/// never serialize on a shared lock, and [`StreamRecorder::record_all`]
/// amortizes even that lock to once per delivered batch.
#[derive(Debug, Clone, Default)]
pub struct StreamRecorder {
    inner: Arc<Mutex<StreamMetrics>>,
}

impl StreamRecorder {
    /// Records one tuple arrival.
    pub fn record(&self, now: Time, t: &Tuple) {
        self.inner
            .lock()
            .expect("stream metrics lock")
            .record(now, t);
    }

    /// Records a batch of arrivals under a single lock acquisition — the
    /// per-message delivery path.
    pub fn record_all<'a>(&self, now: Time, tuples: impl IntoIterator<Item = &'a Tuple>) {
        let mut m = self.inner.lock().expect("stream metrics lock");
        for t in tuples {
            m.record(now, t);
        }
    }
}

/// Shared, per-stream metrics hub: the client proxies write, the experiment
/// harness reads after (or during) the run.
///
/// The hub is **sharded per stream**: a registry mutex guards only the
/// `stream → shard` map (touched at subscription time and by readers),
/// while every shard is its own `Arc<Mutex<StreamMetrics>>` handed out as
/// a [`StreamRecorder`]. Actors on the thread runtime therefore never
/// contend on one global mutex per tuple — the seed design locked a single
/// `Mutex<HashMap>` once per delivered tuple on every client's hot path.
#[derive(Debug, Default, Clone)]
pub struct MetricsHub {
    streams: Arc<Mutex<HashMap<u32, Arc<Mutex<StreamMetrics>>>>>,
}

impl MetricsHub {
    /// Creates an empty hub.
    pub fn new() -> MetricsHub {
        MetricsHub::default()
    }

    fn shard(&self, stream: borealis_types::StreamId) -> Arc<Mutex<StreamMetrics>> {
        let mut map = self.streams.lock().expect("metrics registry lock");
        Arc::clone(map.entry(stream.0).or_default())
    }

    /// The per-stream recording handle — resolve once, then record without
    /// touching the registry again.
    pub fn recorder(&self, stream: borealis_types::StreamId) -> StreamRecorder {
        StreamRecorder {
            inner: self.shard(stream),
        }
    }

    /// Enables full arrival tracing for `stream`.
    pub fn enable_trace(&self, stream: borealis_types::StreamId) {
        let shard = self.shard(stream);
        let mut m = shard.lock().expect("stream metrics lock");
        m.trace = Some(Vec::new());
    }

    /// Records one tuple arrival on `stream` (convenience wrapper; hot
    /// paths hold a [`StreamRecorder`] instead).
    pub fn record(&self, stream: borealis_types::StreamId, now: Time, t: &Tuple) {
        self.recorder(stream).record(now, t);
    }

    /// Runs `f` with the metrics of `stream` (no-op default if absent).
    pub fn with<R>(
        &self,
        stream: borealis_types::StreamId,
        f: impl FnOnce(&StreamMetrics) -> R,
    ) -> R {
        let shard = self.shard(stream);
        let m = shard.lock().expect("stream metrics lock");
        f(&m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use borealis_types::{StreamId, Value};

    fn stable(id: u64, stime_ms: u64) -> Tuple {
        Tuple::insertion(
            TupleId(id),
            Time::from_millis(stime_ms),
            vec![Value::Int(0)],
        )
    }

    fn tentative(id: u64, stime_ms: u64) -> Tuple {
        Tuple::tentative(TupleId(id), Time::from_millis(stime_ms), vec![])
    }

    #[test]
    fn procnew_tracks_only_frontier_advancing_tuples() {
        let mut m = StreamMetrics::default();
        m.record(Time::from_millis(150), &stable(1, 100)); // 50 ms
        m.record(Time::from_millis(400), &stable(2, 200)); // 200 ms
                                                           // A correction of old data arrives very late; it must not count.
        m.record(Time::from_millis(5000), &stable(3, 150));
        assert_eq!(m.procnew, Duration::from_millis(200));
        assert_eq!(m.n_new_stable, 2);
    }

    #[test]
    fn tentative_counted_and_corrections_tracked() {
        let mut m = StreamMetrics::default();
        m.record(Time::from_millis(100), &stable(1, 90));
        m.record(Time::from_millis(200), &tentative(2, 190));
        m.record(Time::from_millis(210), &tentative(3, 205));
        assert_eq!(m.n_tentative, 2);
        // Undo rolls the stable frontier back to 1; corrections reuse 2, 3.
        m.record(
            Time::from_millis(300),
            &Tuple::undo(TupleId::NONE, TupleId(1)),
        );
        m.record(Time::from_millis(310), &stable(2, 190));
        m.record(Time::from_millis(311), &stable(3, 205));
        assert_eq!(m.n_undo, 1);
        assert_eq!(m.dup_stable, 0, "corrections are not duplicates");
        assert_eq!(m.last_stable_id(), TupleId(3));
    }

    #[test]
    fn duplicate_stable_detected() {
        let mut m = StreamMetrics::default();
        m.record(Time::from_millis(100), &stable(5, 90));
        m.record(Time::from_millis(110), &stable(5, 91));
        assert_eq!(m.dup_stable, 1);
    }

    #[test]
    fn max_gap_between_new_tuples() {
        let mut m = StreamMetrics::default();
        m.record(Time::from_millis(100), &stable(1, 90));
        m.record(Time::from_millis(2100), &tentative(2, 2000));
        m.record(Time::from_millis(2200), &tentative(3, 2150));
        assert_eq!(m.max_gap, Duration::from_millis(2000));
    }

    #[test]
    fn hub_aggregates_streams() {
        let hub = MetricsHub::new();
        let s0 = StreamId(0);
        let s1 = StreamId(1);
        hub.record(s0, Time::from_millis(100), &tentative(1, 50));
        hub.record(s1, Time::from_millis(100), &tentative(1, 80));
        hub.record(s1, Time::from_millis(120), &stable(2, 110));
        let of = |s| hub.with(s, |m| (m.n_tentative, m.procnew));
        assert_eq!(of(s0), (1, Duration::from_millis(50)));
        assert_eq!(of(s1), (1, Duration::from_millis(20)));
        hub.record(s0, Time::from_millis(130), &stable(3, 120));
        hub.record(s0, Time::from_millis(140), &stable(3, 120));
        hub.record(s1, Time::from_millis(140), &stable(2, 110));
        let dups = |s| hub.with(s, |m| m.dup_stable);
        assert_eq!((dups(s0), dups(s1)), (1, 1), "kept per stream");
    }

    #[test]
    fn recorders_are_per_stream_shards() {
        let hub = MetricsHub::new();
        let r0 = hub.recorder(StreamId(0));
        let r1 = hub.recorder(StreamId(1));
        // Same stream resolves to the same shard; different streams to
        // different shards (no shared lock between them).
        assert!(Arc::ptr_eq(&r0.inner, &hub.recorder(StreamId(0)).inner));
        assert!(!Arc::ptr_eq(&r0.inner, &r1.inner));
        // Batch recording lands in the hub's view of the stream.
        let batch = [stable(1, 10), tentative(2, 20)];
        r0.record_all(Time::from_millis(30), batch.iter());
        hub.with(StreamId(0), |m| {
            assert_eq!(m.n_stable, 1);
            assert_eq!(m.n_tentative, 1);
        });
    }

    #[test]
    fn trace_records_everything_when_enabled() {
        let hub = MetricsHub::new();
        let s = StreamId(0);
        hub.enable_trace(s);
        hub.record(s, Time::from_millis(10), &stable(1, 5));
        hub.record(
            s,
            Time::from_millis(20),
            &Tuple::undo(TupleId::NONE, TupleId(1)),
        );
        hub.with(s, |m| {
            let trace = m.trace.as_ref().unwrap();
            assert_eq!(trace.len(), 2);
            assert_eq!(trace[1].undo_target, Some(TupleId(1)));
        });
    }
}
