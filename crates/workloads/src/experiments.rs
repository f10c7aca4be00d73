//! Experiment runners: one function per table/figure of the paper's
//! evaluation (§5–§7). Each runner adds the paper's failure scenario, as
//! [`FaultSpec`]s, to a deployment from [`crate::setups`], runs it under the
//! simulator and returns structured rows; `tests/reproduce.rs` asserts the
//! paper's claims on them.

use crate::setups::{
    chain_builder, overhead_builder, single_node_builder, ChainOptions, OverheadOptions,
    PolicyVariant, SingleNodeOptions, DISTRIBUTED_VARIANTS, SINGLE_NODE_OUT, VARIANTS,
};
use borealis_diagram::DelayAssignment;
use borealis_dpc::{CrashDomain, FaultSpec};
use borealis_types::{Duration, StreamId, Time};

/// When failures start in every scenario (after warm-up).
const FAILURE_START: Time = Time::from_secs(15);

/// The §5/§6.1 failure: `stream`'s source unreachable from the (single)
/// fragment's replicas for `lasting`, without stopping the source.
fn disconnect(stream: StreamId, from: Time, lasting: Duration) -> FaultSpec {
    FaultSpec::DisconnectSource {
        stream,
        frag: 0,
        from,
        to: from + lasting,
    }
}

/// Result of one Fig. 11 run: the client's summary counters.
#[derive(Debug)]
pub struct Fig11Result {
    /// Tentative tuples received.
    pub n_tentative: u64,
    /// Stable tuples received.
    pub n_stable: u64,
    /// UNDO markers received.
    pub n_undo: u64,
    /// REC_DONE markers received.
    pub n_rec_done: u64,
    /// Duplicate stable tuples (must be 0).
    pub dup_stable: u64,
    /// Maximum gap between new tuples.
    pub max_gap: Duration,
}

/// Fig. 11: eventual consistency under simultaneous failures (a) and a
/// failure during recovery (b). Single unreplicated node, D = 2 s,
/// failures on input streams 1 and 3.
pub fn run_fig11(failure_during_recovery: bool) -> Fig11Result {
    let o = SingleNodeOptions {
        replication: 1,
        total_rate: 300.0,
        delay: Duration::from_secs(2),
        ..Default::default()
    };
    let (s1, s3) = (StreamId(0), StreamId(2));
    let lasting = Duration::from_secs(8);
    let f2_start = if failure_during_recovery {
        // Failure 2 begins exactly as failure 1 heals (Fig. 11(b)).
        FAILURE_START + lasting
    } else {
        // Overlapping failures (Fig. 11(a)).
        FAILURE_START + Duration::from_secs(4)
    };
    let mut sys = single_node_builder(&o)
        .fault(disconnect(s1, FAILURE_START, lasting))
        .fault(disconnect(s3, f2_start, lasting))
        .build();
    sys.run_until(Time::from_secs(45));
    sys.metrics.with(SINGLE_NODE_OUT, |m| Fig11Result {
        n_tentative: m.n_tentative,
        n_stable: m.n_stable,
        n_undo: m.n_undo,
        n_rec_done: m.n_rec_done,
        dup_stable: m.dup_stable,
        max_gap: m.max_gap,
    })
}

/// One row of Table III / Fig. 13.
#[derive(Debug, Clone)]
pub struct AvailabilityRow {
    /// Policy variant name.
    pub variant: &'static str,
    /// Failure duration in seconds.
    pub failure_secs: f64,
    /// Measured `Procnew` (max processing latency of new tuples).
    pub procnew: Duration,
    /// Measured `Ntentative`.
    pub ntentative: u64,
    /// Protocol violations (must be 0).
    pub dup_stable: u64,
}

fn run_single_node_failure(o: &SingleNodeOptions, failure: Duration) -> AvailabilityRow {
    let mut sys = single_node_builder(o)
        .fault(disconnect(StreamId(2), FAILURE_START, failure))
        .build();
    // Warm-up + failure + generous recovery/settle time.
    sys.run_until(FAILURE_START + failure + Duration::from_secs(25));
    sys.metrics.with(SINGLE_NODE_OUT, |m| AvailabilityRow {
        variant: o.variant.name,
        failure_secs: failure.as_secs_f64(),
        procnew: m.procnew,
        ntentative: m.n_tentative,
        dup_stable: m.dup_stable,
    })
}

/// Table III: `Procnew` for different failure durations, replicated node
/// pair running SUnion + SJoin(100) + SOutput under Process & Process with
/// a 3 s budget. The paper's result: constant ≈ 2.8 s, below the bound,
/// independent of failure duration.
pub fn run_table3(failure_secs: &[f64]) -> Vec<AvailabilityRow> {
    failure_secs
        .iter()
        .map(|&f| {
            let o = SingleNodeOptions {
                with_join: true,
                total_rate: 900.0,
                delay: Duration::from_secs(3),
                variant: VARIANTS[0], // Process & Process
                ..Default::default()
            };
            run_single_node_failure(&o, Duration::from_secs_f64(f))
        })
        .collect()
}

/// Fig. 13: `Procnew` and `Ntentative` for the six §6.1 policy variants on
/// a replicated single-node deployment at 4500 tuples/s with a 3 s budget.
pub fn run_fig13(variants: &[PolicyVariant], failure_secs: &[f64]) -> Vec<AvailabilityRow> {
    let mut rows = Vec::new();
    for &variant in variants {
        for &f in failure_secs {
            let o = SingleNodeOptions {
                with_join: false,
                total_rate: 4500.0,
                delay: Duration::from_secs(3),
                variant,
                ..Default::default()
            };
            rows.push(run_single_node_failure(&o, Duration::from_secs_f64(f)));
        }
    }
    rows
}

/// One row of the chain experiments (Figs. 15, 16, 18, 19, 20).
#[derive(Debug, Clone)]
pub struct ChainRow {
    /// Configuration label.
    pub label: String,
    /// Chain depth.
    pub depth: usize,
    /// Failure duration (seconds).
    pub failure_secs: f64,
    /// Measured `Procnew`.
    pub procnew: Duration,
    /// Measured `Ntentative` on the final output.
    pub ntentative: u64,
    /// Protocol violations (must be 0).
    pub dup_stable: u64,
}

fn run_chain_failure(o: &ChainOptions, failure: Duration, label: String) -> ChainRow {
    let (builder, out) = chain_builder(o);
    // §6.2 failure: mute only the boundary tuples of one input stream so
    // the output rate stays unchanged.
    let mut sys = builder
        .fault(FaultSpec::MuteBoundaries {
            stream: StreamId(2),
            from: FAILURE_START,
            to: FAILURE_START + failure,
        })
        .build();
    sys.run_until(FAILURE_START + failure + Duration::from_secs(25));
    sys.metrics.with(out, |m| ChainRow {
        label,
        depth: o.depth,
        failure_secs: failure.as_secs_f64(),
        procnew: m.procnew,
        ntentative: m.n_tentative,
        dup_stable: m.dup_stable,
    })
}

/// Figs. 15/16/18: chains of depth 1–4 with D = 2 s per SUnion, comparing
/// Delay & Delay against Process & Process for the given failure durations.
pub fn run_chain(depths: &[usize], failure_secs: &[f64]) -> Vec<ChainRow> {
    let mut rows = Vec::new();
    for &variant in &DISTRIBUTED_VARIANTS {
        for &depth in depths {
            for &f in failure_secs {
                let o = ChainOptions {
                    depth,
                    variant,
                    ..Default::default()
                };
                rows.push(run_chain_failure(
                    &o,
                    Duration::from_secs_f64(f),
                    variant.name.to_string(),
                ));
            }
        }
    }
    rows
}

/// Figs. 19/20: delay assignment on a chain of four nodes with an 8 s
/// total budget — uniform 2 s per SUnion (Delay & Delay and Process &
/// Process) versus the full budget (6.5 s after the queueing safety margin)
/// at every SUnion with Process & Process.
pub fn run_delay_assignment(failure_secs: &[f64]) -> Vec<ChainRow> {
    let mut rows = Vec::new();
    let configs: [(String, ChainOptions); 3] = [
        (
            "Delay & Delay, D=2s".to_string(),
            ChainOptions {
                variant: DISTRIBUTED_VARIANTS[0],
                ..Default::default()
            },
        ),
        (
            "Process & Process, D=2s".to_string(),
            ChainOptions {
                variant: DISTRIBUTED_VARIANTS[1],
                ..Default::default()
            },
        ),
        (
            "Process & Process, D=6.5s".to_string(),
            ChainOptions {
                variant: DISTRIBUTED_VARIANTS[1],
                assignment: DelayAssignment::Full {
                    effective: Duration::from_secs_f64(6.5),
                },
                ..Default::default()
            },
        ),
    ];
    for (label, o) in configs {
        for &f in failure_secs {
            rows.push(run_chain_failure(
                &o,
                Duration::from_secs_f64(f),
                label.clone(),
            ));
        }
    }
    rows
}

/// One row of Tables IV / V.
#[derive(Debug, Clone)]
pub struct OverheadRow {
    /// The swept parameter value in milliseconds (0 = Union baseline).
    pub param_ms: u64,
    /// Minimum per-tuple latency.
    pub min: Duration,
    /// Maximum per-tuple latency.
    pub max: Duration,
    /// Mean per-tuple latency.
    pub avg: Duration,
    /// Number of tuples measured.
    pub count: u64,
}

fn run_overhead(o: &OverheadOptions, param_ms: u64) -> OverheadRow {
    let mut sys = overhead_builder(o).build();
    // §7: five-minute runs, ~25,000 tuples.
    sys.run_until(Time::from_secs(300));
    sys.metrics
        .with(crate::setups::OVERHEAD_OUT, |m| OverheadRow {
            param_ms,
            min: m.lat_min.unwrap_or(Duration::ZERO),
            max: m.procnew,
            avg: m.lat_avg(),
            count: m.lat_count(),
        })
}

/// Table IV: serialization latency versus SUnion bucket size, with a fixed
/// 10 ms boundary interval. `bucket_ms = 0` runs the plain-Union baseline.
pub fn run_table4(bucket_ms: &[u64]) -> Vec<OverheadRow> {
    bucket_ms
        .iter()
        .map(|&b| {
            let o = OverheadOptions {
                bucket: (b > 0).then(|| Duration::from_millis(b)),
                boundary_interval: Duration::from_millis(10),
                ..Default::default()
            };
            run_overhead(&o, b)
        })
        .collect()
}

/// Table V: serialization latency versus boundary interval, with a fixed
/// 10 ms bucket size. `boundary_ms = 0` runs the plain-Union baseline.
pub fn run_table5(boundary_ms: &[u64]) -> Vec<OverheadRow> {
    boundary_ms
        .iter()
        .map(|&b| {
            let o = OverheadOptions {
                bucket: (b > 0).then_some(Duration::from_millis(10)),
                boundary_interval: Duration::from_millis(b.max(1)),
                ..Default::default()
            };
            run_overhead(&o, b)
        })
        .collect()
}

/// Result of the §5.1 switchover experiment.
#[derive(Debug, Clone)]
pub struct SwitchoverResult {
    /// Largest gap between new-data arrivals at the client (contains the
    /// detection + switch + replay window).
    pub max_gap: Duration,
    /// Stable tuples delivered (stream must continue).
    pub n_stable: u64,
    /// Protocol violations (must be 0).
    pub dup_stable: u64,
}

/// §5.1: crash the replica the client is reading from and measure the data
/// gap until the other replica takes over (the paper: ≤ keep-alive period +
/// ~40 ms switch ≈ 140 ms).
pub fn run_switchover() -> SwitchoverResult {
    let mut sys = single_node_builder(&SingleNodeOptions::default())
        .fault(FaultSpec::Crash {
            domain: CrashDomain::Replica {
                frag: 0,
                shard: 0,
                replica: 0,
            },
            from: FAILURE_START,
            to: None,
        })
        .build();
    sys.run_until(Time::from_secs(30));
    sys.metrics.with(SINGLE_NODE_OUT, |m| SwitchoverResult {
        max_gap: m.max_gap,
        n_stable: m.n_stable,
        dup_stable: m.dup_stable,
    })
}
