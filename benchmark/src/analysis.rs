//! Turning one episode's samples and client trace into its end-to-end
//! figures.

use crate::adapter::Faults;
use crate::episode::{Episode, Sample, WARMUP_US};
use crate::oracle::{Arrival, FinalStream, Kind};
use crate::stats::percentile;

/// The end-to-end view of one episode.
#[derive(Debug, Clone, PartialEq)]
pub struct EndToEnd {
    /// CPU of the process tree between the window's edges ÷ stable tuples
    /// first delivered between them.
    pub cpu_us_per_stable_tuple: f64,
    /// Median `arrival − stime` over stable tuples due in the window.
    pub lat_p50_ms: f64,
    /// 99th percentile of the same samples.
    pub lat_p99_ms: f64,
    /// Latency samples behind the percentiles.
    pub lat_samples: u64,
    /// Stable tuples delivered inside the window.
    pub delivered_in_window: u64,
}

/// CPU microseconds of the process tree between two samples: from the
/// scheduler's nanosecond accounting where available, else from the 10 ms
/// ticks of `stat` (±0.7 % on a 3 s window at this load).
pub fn cpu_between(a: &Sample, b: &Sample) -> f64 {
    match (a.run_ns, b.run_ns) {
        (Some(from), Some(to)) if to >= from => (to - from) as f64 / 1000.0,
        _ => b.cpu.total_us().saturating_sub(a.cpu.total_us()) as f64,
    }
}

/// Computes the episode's end-to-end figures.
///
/// `stime` is the instant a tuple was *due* at its source (the generator
/// is open-loop), so `arrival − stime` already charges generator lateness
/// and every queue on the way.
pub fn end_to_end(ep: &Episode, stream: &FinalStream) -> Result<EndToEnd, String> {
    let [opened, closed] = &ep.window;
    let delivered = stream
        .tuples
        .iter()
        .filter(|t| t.arrival_us >= opened.at_us && t.arrival_us < closed.at_us)
        .count() as u64;
    let mut latencies: Vec<u64> = stream
        .tuples
        .iter()
        .filter(|t| t.stime_us >= WARMUP_US && t.stime_us < ep.input_us)
        .map(|t| t.arrival_us.saturating_sub(t.stime_us))
        .collect();
    if delivered == 0 || latencies.is_empty() {
        return Err(format!(
            "no stable tuple in the window ({} delivered, {} due)",
            delivered,
            latencies.len()
        ));
    }
    let lat_samples = latencies.len() as u64;
    Ok(EndToEnd {
        cpu_us_per_stable_tuple: cpu_between(opened, closed) / delivered as f64,
        lat_p50_ms: percentile(&mut latencies, 50.0) as f64 / 1000.0,
        lat_p99_ms: percentile(&mut latencies, 99.0) as f64 / 1000.0,
        lat_samples,
        delivered_in_window: delivered,
    })
}

/// The recovery phases of an episode with scripted failures, as the
/// client saw them (milliseconds).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Recovery {
    /// Start of the outage → first tentative tuple.
    pub detect_ms: f64,
    /// Heal instant → last `REC_DONE` (the output is final again).
    pub stabilize_ms: f64,
    /// Longest silence between two arrivals of new tuples in the two
    /// seconds after the replica was killed.
    pub restart_gap_ms: f64,
}

/// Reads the recovery phases off the client's arrival trace. A phase that
/// never happened (no tentative tuple, no `REC_DONE`) reads 0 and fails the
/// oracle elsewhere.
pub fn recovery(trace: &[Arrival], faults: &Faults) -> Recovery {
    let (cut, heal) = faults.outage_us;
    let ms_since =
        |from: u64, at: Option<u64>| at.map_or(0.0, |at| at.saturating_sub(from) as f64 / 1000.0);
    let first_tentative = trace
        .iter()
        .find(|a| a.kind == Kind::Tentative && a.arrival_us >= cut)
        .map(|a| a.arrival_us);
    let last_rec_done = trace
        .iter()
        .rev()
        .find(|a| a.kind == Kind::RecDone)
        .map(|a| a.arrival_us);
    let kill = faults.restart_at_us;
    let mut gap = 0u64;
    let mut prev = kill;
    for a in trace {
        let new = matches!(a.kind, Kind::Stable | Kind::Tentative);
        if new && a.arrival_us >= kill && a.arrival_us < kill + 2_000_000 {
            gap = gap.max(a.arrival_us - prev);
            prev = a.arrival_us;
        }
    }
    Recovery {
        detect_ms: ms_since(cut, first_tentative),
        stabilize_ms: ms_since(heal, last_rec_done),
        restart_gap_ms: gap as f64 / 1000.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::{Counters, Finished, Gauges};
    use crate::episode::Workload;
    use crate::oracle::StableTuple;
    use crate::procfs::{CpuTimes, StatusCounters};

    fn sample(at_us: u64, cpu_us: u64) -> Sample {
        Sample {
            at_us,
            cpu: CpuTimes {
                user_us: cpu_us,
                ..CpuTimes::default()
            },
            run_ns: None,
            status: StatusCounters::default(),
        }
    }

    #[test]
    fn window_edges_bound_both_cpu_and_tuples() {
        // 1000 tuples/s, 100 ms latency, except 2 % of them at 300 ms.
        let tuples: Vec<StableTuple> = (0..4000u64)
            .map(|i| {
                let stime = i * 1000;
                let lat = if i % 50 == 0 { 300_000 } else { 100_000 };
                StableTuple {
                    id: i + 1,
                    stime_us: stime,
                    arrival_us: stime + lat,
                }
            })
            .collect();
        let ep = Episode {
            job: Workload::Threads.job(7),
            traced: false,
            setup_s: 0.1,
            input_us: 4_000_000,
            // The marks land a little late, as sleeps do; CPU and tuples
            // are both counted between the *actual* instants.
            window: [sample(1_000_400, 50_000), sample(4_000_900, 59_000)],
            drained_us: 4_100_000,
            gauge_series: Vec::new(),
            finished: Finished {
                trace: Vec::new(),
                counters: Counters::default(),
                gauges: Gauges::default(),
            },
            _stores: None,
        };
        let stream = FinalStream {
            tuples,
            ..FinalStream::default()
        };
        let e = end_to_end(&ep, &stream).expect("computes");
        assert_eq!(e.lat_samples, 3000, "tuples due in [1 s, 4 s)");
        assert_eq!(e.lat_p50_ms, 100.0);
        assert_eq!(e.lat_p99_ms, 300.0);
        // Arrivals in [1.0004 s, 4.0009 s): 3000 or 3001 of them.
        assert!((2999..=3001).contains(&e.delivered_in_window));
        let expect = 9000.0 / e.delivered_in_window as f64;
        assert_eq!(e.cpu_us_per_stable_tuple, expect);

        // The scheduler's nanosecond figure wins over the ticks when both
        // edges have it.
        let mut precise = ep.window;
        precise[0].run_ns = Some(1_000_000_000);
        precise[1].run_ns = Some(1_009_123_456);
        assert_eq!(cpu_between(&precise[0], &precise[1]), 9123.456);
        precise[1].run_ns = None;
        assert_eq!(cpu_between(&precise[0], &precise[1]), 9000.0);

        let empty = FinalStream::default();
        assert!(end_to_end(&ep, &empty).is_err());
    }

    #[test]
    fn recovery_phases_are_read_off_the_arrival_trace() {
        let a = |kind, arrival_us| Arrival {
            arrival_us,
            stime_us: 0,
            id: 0,
            kind,
        };
        let faults = Faults {
            outage_us: (2_000_000, 5_000_000),
            restart_at_us: 7_000_000,
        };
        let trace = [
            a(Kind::Stable, 1_900_000),
            a(Kind::Tentative, 2_950_000),
            a(Kind::Tentative, 4_000_000),
            a(Kind::Undo, 5_100_000),
            a(Kind::Stable, 5_200_000),
            a(Kind::RecDone, 5_300_000),
            a(Kind::Stable, 6_990_000),
            // Killed at 7.0 s: silence until 7.25 s, then 10 ms steps.
            a(Kind::Stable, 7_250_000),
            a(Kind::Boundary, 7_400_000),
            a(Kind::Stable, 7_260_000),
            // Outside the two seconds after the kill: not a restart gap.
            a(Kind::Stable, 9_500_000),
        ];
        assert_eq!(
            recovery(&trace, &faults),
            Recovery {
                detect_ms: 950.0,
                stabilize_ms: 300.0,
                restart_gap_ms: 250.0,
            }
        );
        // No tentative tuple, no REC_DONE: the phases read 0.
        assert_eq!(recovery(&trace[..1], &faults), Recovery::default());
    }
}
