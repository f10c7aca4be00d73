//! The traced run's per-layer metrics: replay costs (median of
//! [`REPLAY_REPS`] single-threaded repetitions), in-situ gauge and `/proc`
//! deltas of the traced episode, and the cost budget that reconciles the
//! two against the end-to-end CPU figure.

use crate::adapter::layers::Replay;
use crate::episode::{TempDir, Workload};
use crate::json::Json;
use crate::run::{episode_median, EpisodeSummary, Metric};
use crate::spans::Tracer;
use crate::stats::median;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Repetitions of every replay; the median is reported.
pub const REPLAY_REPS: usize = 30;

/// Every per-layer metric of `BENCHMARK.json` — name, unit, which way is
/// better — in the order they are printed. A layer that does no work on a
/// workload reports 0.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("types.shard_route_ns_per_tuple", "ns", "lower"),
    ("types.shard_route_memo_hit_ns_per_batch", "ns", "lower"),
    ("types.wire_put_view_ns_per_tuple", "ns", "lower"),
    ("types.wire_read_batch_ns_per_tuple", "ns", "lower"),
    ("types.wire_bytes_per_tuple", "bytes", "lower"),
    ("core.codec_encode_ns_per_tuple", "ns", "lower"),
    ("core.codec_decode_ns_per_tuple", "ns", "lower"),
    ("ops.sunion_stable_ns_per_tuple", "ns", "lower"),
    ("ops.sunion_tentative_ns_per_tuple", "ns", "lower"),
    ("ops.soutput_ns_per_tuple", "ns", "lower"),
    ("ops.map_ns_per_tuple", "ns", "lower"),
    ("ops.union_ns_per_tuple", "ns", "lower"),
    ("engine.fragment_push_ns_per_tuple", "ns", "lower"),
    ("engine.checkpoint_us", "us", "lower"),
    ("engine.reconcile_us_per_ktuple", "us", "lower"),
    ("engine.capture_durable_us", "us", "lower"),
    ("engine.capture_durable_bytes", "bytes", "lower"),
    ("core.durable_append_ns_per_tuple", "ns", "lower"),
    ("core.durable_checkpoint_us", "us", "lower"),
    ("core.durable_recover_us", "us", "lower"),
    ("core.restart_recover_us", "us", "lower"),
    ("core.restart_replayed_records", "count", "lower"),
    ("core.client_record_ns_per_tuple", "ns", "lower"),
    ("core.outbuf_append_ns_per_tuple", "ns", "lower"),
    ("store.log_append_us", "us", "lower"),
    ("store.publish_us", "us", "lower"),
    ("store.load_latest_us", "us", "lower"),
    ("store.read_log_us_per_record", "us", "lower"),
    ("store.disk_bytes_per_tuple", "bytes", "lower"),
    ("sim.flow_admit_replenish_ns", "ns", "lower"),
    ("sim.cpu_us_per_stable_tuple", "us", "lower"),
    ("diagram.plan_us", "us", "lower"),
    ("core.procnew_ms", "ms", "lower"),
    ("core.detect_ms", "ms", "lower"),
    ("core.stabilize_ms", "ms", "lower"),
    ("core.restart_gap_ms", "ms", "lower"),
    ("core.ntentative", "count", "lower"),
    ("core.undo_count", "count", "lower"),
    ("core.rec_done_count", "count", "lower"),
    ("runtime.msgs_per_stable_tuple", "ratio", "lower"),
    (
        "runtime.sched_activations_per_stable_tuple",
        "ratio",
        "lower",
    ),
    ("runtime.sched_steal_share", "ratio", "lower"),
    ("runtime.sched_parks_per_s", "1/s", "lower"),
    ("runtime.sched_run_ge_1ms_share", "ratio", "lower"),
    ("runtime.sched_local_peak", "count", "lower"),
    ("runtime.ctx_switches_per_stable_tuple", "ratio", "lower"),
    ("runtime.sys_cpu_share", "ratio", "lower"),
    ("runtime.flow_inflight_peak", "count", "lower"),
    ("runtime.flow_stall_ms", "ms", "lower"),
    ("runtime.wire_grants_per_s", "1/s", "lower"),
    ("runtime.wire_frames_per_flush", "ratio", "higher"),
    ("runtime.wire_bytes_per_stable_tuple", "bytes", "lower"),
    ("runtime.peak_rss_mb", "MB", "lower"),
    ("runtime.drops", "count", "lower"),
    ("runtime.stable_per_s_at_300k", "1/s", "higher"),
    ("budget.sum_us_per_tuple", "us", "lower"),
    ("runtime.unattributed_us_per_tuple", "us", "lower"),
    ("trace.cpu_us_per_stable_tuple", "us", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
];

/// One row of the cost budget.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetRow {
    pub layer: &'static str,
    /// Replay cost of one crossing, in nanoseconds.
    pub ns_per_unit: f64,
    /// Crossings per stable tuple on this workload.
    pub crossings: f64,
}

impl BudgetRow {
    pub fn us_per_stable_tuple(&self) -> f64 {
        self.ns_per_unit * self.crossings / 1000.0
    }
}

/// Which layers a stable tuple crosses on `workload`, how often, and at
/// what replay cost. `v` holds the per-layer values measured so far.
///
/// Replica fan-out is part of the crossing counts: the job runs every
/// fragment twice, so a tuple that reaches the client was pushed through
/// 3 stages × 2 replicas, buffered for replay 6 times, and routed once by
/// each of the two ingest replicas.
pub fn budget_rows(workload: Workload, v: &BTreeMap<&'static str, f64>) -> Vec<BudgetRow> {
    let get = |name: &str| v.get(name).copied().unwrap_or(0.0);
    let mut rows = vec![
        BudgetRow {
            layer: "engine.fragment_push (ops inside)",
            ns_per_unit: get("engine.fragment_push_ns_per_tuple"),
            crossings: 6.0,
        },
        BudgetRow {
            layer: "types.shard_route",
            ns_per_unit: get("types.shard_route_ns_per_tuple"),
            crossings: 2.0,
        },
        BudgetRow {
            layer: "core.outbuf_append",
            ns_per_unit: get("core.outbuf_append_ns_per_tuple"),
            crossings: 6.0,
        },
        BudgetRow {
            layer: "core.client_record",
            ns_per_unit: get("core.client_record_ns_per_tuple"),
            crossings: 1.0,
        },
    ];
    match workload {
        Workload::Threads => {}
        Workload::Tcp => {
            // How many times a stable tuple's bytes went over a socket:
            // measured, not assumed (process placement decides it).
            let bytes_per_tuple = get("types.wire_bytes_per_tuple");
            let wire_crossings = if bytes_per_tuple > 0.0 {
                get("runtime.wire_bytes_per_stable_tuple") / bytes_per_tuple
            } else {
                0.0
            };
            rows.push(BudgetRow {
                layer: "core.codec_encode (wire put inside)",
                ns_per_unit: get("core.codec_encode_ns_per_tuple"),
                crossings: wire_crossings,
            });
            rows.push(BudgetRow {
                layer: "core.codec_decode (wire read inside)",
                ns_per_unit: get("core.codec_decode_ns_per_tuple"),
                crossings: wire_crossings,
            });
            rows.push(BudgetRow {
                layer: "sim.flow admit+replenish (per message)",
                ns_per_unit: get("sim.flow_admit_replenish_ns"),
                crossings: get("runtime.msgs_per_stable_tuple"),
            });
        }
        // Same crossings as the thread runtime; what the simulator adds
        // instead of handoff and parking is its event queue.
        Workload::Sim => {}
        // Every replica logs its input before processing it. (Tentative
        // processing, checkpoints, redo and the restart are episodes, not
        // per-tuple crossings: they stay in the unattributed remainder.)
        Workload::Faults => rows.push(BudgetRow {
            layer: "core.durable_append",
            ns_per_unit: get("core.durable_append_ns_per_tuple"),
            crossings: 6.0,
        }),
    }
    rows
}

/// The budget table: layer, ns per crossing, crossings, µs per stable
/// tuple, share of the measured CPU — with the unattributed remainder as
/// its own row so the column adds up to the end-to-end figure.
pub fn budget_table(workload: Workload, rows: &[BudgetRow], cpu_us_per_tuple: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "cost budget — {} (traced episode: {:.3} µs CPU per stable tuple)",
        workload.name(),
        cpu_us_per_tuple
    );
    let _ = writeln!(
        out,
        "{:<44} {:>12} {:>10} {:>14} {:>7}",
        "layer", "ns/crossing", "crossings", "µs/stable tup", "share"
    );
    let sum: f64 = rows.iter().map(BudgetRow::us_per_stable_tuple).sum();
    let share = |us: f64| 100.0 * us / cpu_us_per_tuple;
    for r in rows {
        let _ = writeln!(
            out,
            "{:<44} {:>12.1} {:>10.3} {:>14.3} {:>6.1}%",
            r.layer,
            r.ns_per_unit,
            r.crossings,
            r.us_per_stable_tuple(),
            share(r.us_per_stable_tuple())
        );
    }
    let rest = cpu_us_per_tuple - sum;
    let _ = writeln!(
        out,
        "{:<44} {:>12} {:>10} {:>14.3} {:>6.1}%",
        "runtime.unattributed (handoff, parking, timers…)",
        "-",
        "-",
        rest,
        share(rest)
    );
    let _ = writeln!(
        out,
        "{:<44} {:>12} {:>10} {:>14.3} {:>6.1}%",
        "total = cpu_us_per_stable_tuple", "-", "-", cpu_us_per_tuple, 100.0
    );
    out
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Gauge and `/proc` deltas of one episode, by metric name. Gauges cover
/// the whole episode (they are read once, at teardown, from every
/// process); `/proc` deltas cover the window.
fn in_situ(e: &EpisodeSummary) -> Vec<(&'static str, f64)> {
    let n = e.verdict.attempted;
    let g = &e.ep.finished.gauges;
    let c = &e.ep.finished.counters;
    let secs = e.ep.drained_us as f64 / 1e6;
    let [opened, closed] = &e.ep.window;
    let switches = (closed.status.voluntary_ctxt + closed.status.nonvoluntary_ctxt)
        .saturating_sub(opened.status.voluntary_ctxt + opened.status.nonvoluntary_ctxt);
    vec![
        ("core.procnew_ms", c.procnew_us as f64 / 1000.0),
        ("core.detect_ms", e.recovery.detect_ms),
        ("core.stabilize_ms", e.recovery.stabilize_ms),
        ("core.restart_gap_ms", e.recovery.restart_gap_ms),
        ("core.ntentative", c.n_tentative as f64),
        ("core.undo_count", c.n_undo as f64),
        ("core.rec_done_count", c.n_rec_done as f64),
        (
            "runtime.msgs_per_stable_tuple",
            ratio(g.messages_delivered, n),
        ),
        (
            "runtime.sched_activations_per_stable_tuple",
            ratio(g.activations, n),
        ),
        ("runtime.sched_steal_share", ratio(g.steals, g.activations)),
        ("runtime.sched_parks_per_s", g.parks as f64 / secs),
        (
            "runtime.sched_run_ge_1ms_share",
            ratio(g.runs_ge_1ms, g.activations),
        ),
        ("runtime.sched_local_peak", g.local_peak as f64),
        (
            "runtime.ctx_switches_per_stable_tuple",
            ratio(switches, e.e2e.delivered_in_window),
        ),
        (
            "runtime.sys_cpu_share",
            ratio(
                closed
                    .cpu
                    .sys_total_us()
                    .saturating_sub(opened.cpu.sys_total_us()),
                closed.cpu.total_us().saturating_sub(opened.cpu.total_us()),
            ),
        ),
        ("runtime.flow_inflight_peak", g.flow_inflight_peak as f64),
        ("runtime.flow_stall_ms", g.flow_stall_us as f64 / 1000.0),
        (
            "runtime.wire_grants_per_s",
            g.wire_grants_sent as f64 / secs,
        ),
        (
            "runtime.wire_frames_per_flush",
            ratio(g.wire_frames_sent, g.wire_flushes),
        ),
        (
            "runtime.wire_bytes_per_stable_tuple",
            ratio(g.wire_bytes_sent, n),
        ),
        (
            "runtime.peak_rss_mb",
            closed.status.vm_hwm_kb as f64 / 1024.0,
        ),
        ("runtime.drops", g.drops as f64),
    ]
}

/// CPU per stable tuple of the traced episodes over that of the untraced
/// episodes of the same run, minus one.
fn overhead_share(episodes: &[EpisodeSummary]) -> f64 {
    let cpu_of = |traced: bool| -> Vec<f64> {
        episodes
            .iter()
            .filter(|e| e.ep.traced == traced)
            .map(|e| e.e2e.cpu_us_per_stable_tuple)
            .collect()
    };
    let (traced, untraced) = (cpu_of(true), cpu_of(false));
    if traced.is_empty() || untraced.is_empty() {
        return 0.0;
    }
    median(&traced) / median(&untraced) - 1.0
}

/// Runs the replays, reduces the episodes' in-situ figures, builds the
/// budget, writes the span file and the budget table, and returns every
/// per-layer metric in [`PER_LAYER`] order.
pub fn per_layer_metrics(
    workload: Workload,
    seed: u64,
    episodes: &[EpisodeSummary],
    sim_cpu_us_per_tuple: f64,
    out_dir: &Path,
) -> Result<Vec<Metric>, String> {
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();

    // Replays: median over repetitions, spans of the last one kept.
    let replay = Replay::prepare(&workload.job(seed));
    let scratch = TempDir::new(out_dir).map_err(|e| format!("temp dir: {e}"))?;
    let mut tracer = Tracer::new();
    for rep in 0..REPLAY_REPS {
        tracer.set_recording(rep + 1 == REPLAY_REPS);
        for (name, value) in replay.run_once(&mut tracer, &scratch.0)? {
            samples.entry(name).or_default().push(value);
        }
    }
    drop(scratch);
    // In-situ: median over episodes.
    for e in episodes {
        for (name, value) in in_situ(e) {
            samples.entry(name).or_default().push(value);
        }
    }
    for (name, values) in &samples {
        v.insert(name, median(values));
    }

    let cpu = episode_median(episodes, |e| e.e2e.cpu_us_per_stable_tuple);
    v.insert("sim.cpu_us_per_stable_tuple", sim_cpu_us_per_tuple);
    v.insert("trace.cpu_us_per_stable_tuple", cpu);
    v.insert("trace.overhead_share", overhead_share(episodes));
    if workload == Workload::Threads {
        v.insert(
            "runtime.stable_per_s_at_300k",
            crate::episode::overload_probe(seed)?,
        );
    }

    let rows = budget_rows(workload, &v);
    let sum: f64 = rows.iter().map(BudgetRow::us_per_stable_tuple).sum();
    v.insert("budget.sum_us_per_tuple", sum);
    v.insert("runtime.unattributed_us_per_tuple", cpu - sum);

    let table = budget_table(workload, &rows, cpu);
    eprint!("{table}");
    let stem = format!("{}-seed{seed}", workload.name());
    let write = |name: String, contents: String| {
        let path = out_dir.join(name);
        std::fs::write(&path, contents).map_err(|e| format!("{}: {e}", path.display()))
    };
    write(format!("{stem}-budget.txt"), table)?;
    let gauge_series = episodes
        .iter()
        .enumerate()
        .flat_map(|(i, e)| {
            e.ep.gauge_series.iter().map(move |p| {
                Json::Arr(vec![
                    Json::Int(i as u64),
                    Json::Int(p.at_us),
                    Json::Int(p.gauges.activations),
                    Json::Int(p.gauges.parks),
                    Json::Int(p.gauges.messages_delivered),
                ])
            })
        })
        .collect();
    write(
        format!("{stem}-spans.json"),
        Json::obj([
            ("workload", Json::str(workload.name())),
            ("seed", Json::Int(seed)),
            ("replay", tracer.to_json()),
            (
                "gauge_series_columns",
                Json::Arr(
                    [
                        "episode",
                        "at_us",
                        "activations",
                        "parks",
                        "messages_delivered",
                    ]
                    .into_iter()
                    .map(Json::str)
                    .collect(),
                ),
            ),
            ("gauge_series", Json::Arr(gauge_series)),
        ])
        .render()
            + "\n",
    )?;

    Ok(PER_LAYER
        .iter()
        .map(|(name, unit, _)| Metric::new(*name, v.get(name).copied().unwrap_or(0.0), unit))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_adds_up_to_the_end_to_end_figure() {
        let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
        v.insert("engine.fragment_push_ns_per_tuple", 150.0);
        v.insert("types.shard_route_ns_per_tuple", 40.0);
        v.insert("core.outbuf_append_ns_per_tuple", 5.0);
        v.insert("core.client_record_ns_per_tuple", 20.0);
        v.insert("core.codec_encode_ns_per_tuple", 30.0);
        v.insert("core.codec_decode_ns_per_tuple", 90.0);
        v.insert("types.wire_bytes_per_tuple", 40.0);
        v.insert("runtime.wire_bytes_per_stable_tuple", 200.0);
        let threads = budget_rows(Workload::Threads, &v);
        let tcp = budget_rows(Workload::Tcp, &v);
        assert_eq!(threads.len(), 4);
        let sum = |rows: &[BudgetRow]| rows.iter().map(BudgetRow::us_per_stable_tuple).sum::<f64>();
        // 150·6 + 40·2 + 5·6 + 20 = 1030 ns.
        assert!((sum(&threads) - 1.03).abs() < 1e-9);
        // Five wire crossings: + (30 + 90)·5 = 600 ns; flow row is 0 here.
        assert!((sum(&tcp) - 1.63).abs() < 1e-9, "{}", sum(&tcp));
        let table = budget_table(Workload::Tcp, &tcp, 4.5);
        assert!(table.contains("runtime.unattributed"));
        assert!(table.contains("2.870"), "remainder row: {table}");
        // Every metric name is unique and well-formed for BENCHMARK.json.
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
        assert!(PER_LAYER.len() <= 128);
        for (name, unit, better) in PER_LAYER {
            assert!(matches!(*better, "lower" | "higher"));
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }
}
