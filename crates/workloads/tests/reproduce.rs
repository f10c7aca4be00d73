//! The paper scorecard: every qualitative claim of the evaluation (§5–§7:
//! Fig. 11, Table III, Fig. 13, Figs. 15–20, Tables IV–V, §5.1) asserted
//! over the `experiments` runners under the deterministic simulator — one
//! `#[test]` per figure, each a table of `(claim, rows, predicate)`.
//!
//! A claim the tree misses is not loosened until it passes: it is named in
//! [`KNOWN_DEVIATIONS`], where it must keep *failing*. An unlisted claim
//! that fails and a listed one that starts to hold both fail the test, so
//! the list can only shrink. `-- --nocapture` prints every measured row.

use borealis_types::Duration;
use borealis_workloads::{
    run_chain, run_delay_assignment, run_fig11, run_fig13, run_switchover, run_table3, run_table4,
    run_table5, AvailabilityRow, ChainRow, OverheadRow, VARIANTS,
};
use std::fmt::Debug;

/// Claims the tree is known to miss, with the measured values that miss
/// them. Leads for ROADMAP items 1 and 2, not tolerances.
const KNOWN_DEVIATIONS: &[&str] = &[
    // Delay & Process and Delay & Delay: Procnew 3.01 → 4.45 s on 6–30 s
    // failures against the 3 s budget (it grows 60 ms per failure second).
    "fig13/delay_variants_within_budget",
    // Delaying in UP_FAILURE yields *more* tentative tuples than processing
    // (22186 vs 21286 at 4 s; +900 to +3600 at every duration ≥ 4 s).
    "fig13/delaying_failure_cuts_ntentative",
    // Delay & Delay on a chain: 4.20 / 6.06 s at depth 2 / 3 against
    // depth × 2 s.
    "fig15/delay_delay_within_budget",
    // Delay & Delay, D = 2 s, depth 4: 8.47 s on the 60 s failure against
    // X = 8 s.
    "fig19_20/delay_delay_within_budget",
];

/// One paper claim and the measured rows that contradict it.
struct Claim {
    name: &'static str,
    offending: Vec<String>,
}

/// Evaluates `holds` on every row; the claim fails on the rows where it
/// does not.
fn claim<'a, R: Debug + ?Sized + 'a>(
    name: &'static str,
    rows: impl IntoIterator<Item = &'a R>,
    holds: impl Fn(&R) -> bool,
) -> Claim {
    let offending = rows
        .into_iter()
        .filter(|r| !holds(r))
        .map(|r| format!("{r:?}"))
        .collect();
    Claim { name, offending }
}

/// Checks one figure's claims against [`KNOWN_DEVIATIONS`].
fn score(figure: &str, claims: Vec<Claim>) {
    let mut wrong = Vec::new();
    let names: Vec<String> = claims
        .iter()
        .map(|c| format!("{figure}/{}", c.name))
        .collect();
    for (c, name) in claims.iter().zip(&names) {
        let listed = KNOWN_DEVIATIONS.contains(&name.as_str());
        let rows = c.offending.join("\n    ");
        match (c.offending.is_empty(), listed) {
            (true, false) => println!("ok        {name}"),
            (false, true) => println!("deviation {name}\n    {rows}"),
            (false, false) => wrong.push(format!("{name} does not hold:\n    {rows}")),
            (true, true) => {
                wrong.push(format!("{name} now holds: remove it from KNOWN_DEVIATIONS"))
            }
        }
    }
    for d in KNOWN_DEVIATIONS {
        if d.split('/').next() == Some(figure) && !names.iter().any(|n| n == d) {
            wrong.push(format!("KNOWN_DEVIATIONS names no claim of {figure}: {d}"));
        }
    }
    assert!(wrong.is_empty(), "\n{}", wrong.join("\n"));
}

/// Consecutive pairs of the rows selected by `pick`, in row order.
fn pairs<R>(rows: &[R], pick: impl Fn(&R) -> bool) -> Vec<[&R; 2]> {
    let picked: Vec<&R> = rows.iter().filter(|r| pick(r)).collect();
    picked.windows(2).map(|w| [w[0], w[1]]).collect()
}

/// The rows selected by `a` paired, in row order, with those selected by `b`.
fn versus<R>(rows: &[R], a: impl Fn(&R) -> bool, b: impl Fn(&R) -> bool) -> Vec<[&R; 2]> {
    let (a, b) = (rows.iter().filter(|r| a(r)), rows.iter().filter(|r| b(r)));
    a.zip(b).map(|(x, y)| [x, y]).collect()
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn show<R: Debug>(rows: &[R]) {
    for r in rows {
        println!("{r:?}");
    }
}

/// Fig. 11: a single unreplicated node, D = 2 s. Overlapping failures are
/// corrected in one wave, a failure during recovery in two, and the gap
/// between new tuples stays within D throughout.
#[test]
fn fig11_simultaneous_failures() {
    let (a, b) = (run_fig11(false), run_fig11(true));
    show(&[&a, &b]);
    score(
        "fig11",
        vec![
            claim("no_duplicate_stable", [&a, &b], |r| r.dup_stable == 0),
            claim("overlapping_failures_one_correction_wave", [&a], |r| {
                r.n_tentative > 0 && r.n_undo == 1 && r.n_rec_done == 1
            }),
            claim("failure_during_recovery_two_waves", [&b], |r| {
                r.n_tentative > a.n_tentative && r.n_undo == 2 && r.n_rec_done == 2
            }),
            claim("gap_within_delay", [&a, &b], |r| secs(r.max_gap) <= 2.0),
            claim("same_stable_stream_either_way", [&b], |r| {
                r.n_stable == a.n_stable
            }),
        ],
    );
}

/// Table III: replicated SUnion + SJoin(100), Process & Process, X = 3 s.
/// `Procnew` stays below the budget and flat from the first failure that
/// outlasts the delay; `Ntentative` grows linearly with the duration.
#[test]
fn table3_procnew_vs_duration() {
    let rows = run_table3(&[2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 30.0, 45.0, 60.0]);
    show(&rows);
    let rate = |w: &[&AvailabilityRow; 2]| {
        (w[1].ntentative - w[0].ntentative) as f64 / (w[1].failure_secs - w[0].failure_secs)
    };
    let steps = pairs(&rows, |r| r.failure_secs >= 4.0);
    let overall = rate(&[&rows[1], &rows[rows.len() - 1]]);
    score(
        "table3",
        vec![
            claim("no_duplicate_stable", &rows, |r| r.dup_stable == 0),
            claim("procnew_within_budget", &rows, |r| secs(r.procnew) <= 3.0),
            claim("procnew_flat_in_duration", &steps, |w| {
                (secs(w[1].procnew) - secs(w[0].procnew)).abs() <= 0.01
            }),
            claim("short_failure_is_masked", &rows[..1], |r| r.ntentative == 0),
            claim("ntentative_linear_in_duration", &steps, |w| {
                (rate(w) / overall - 1.0).abs() <= 0.05
            }),
        ],
    );
}

/// Fig. 13: the six §6.1 variants at 4500 tuples/s, X = 3 s. Processing or
/// delaying keeps `Procnew` within the budget at every failure duration;
/// suspending during stabilization breaks it once reconciliation outlasts
/// the budget, and buys the lowest `Ntentative`.
#[test]
fn fig13_policy_variants() {
    let rows = run_fig13(&VARIANTS, &[2.0, 4.0, 6.0, 8.0, 10.0, 14.0, 30.0]);
    show(&rows);
    let suspends = |r: &AvailabilityRow| r.variant.ends_with("Suspend");
    // In UP_FAILURE mode `failure`, not suspending during stabilization.
    let keeps_going = |failure: &'static str| {
        let pick = move |r: &&AvailabilityRow| r.variant.starts_with(failure) && !suspends(r);
        rows.iter().filter(pick)
    };
    // `a` against `b` at each failure duration a 3 s budget cannot mask.
    let ntentative = |a: &'static str, b: &'static str| {
        let is = |v| move |r: &AvailabilityRow| r.variant == v && r.failure_secs >= 4.0;
        versus(&rows, is(a), is(b))
    };
    let fewer = |w: &[&AvailabilityRow; 2]| w[0].ntentative <= w[1].ntentative;
    let by_duration: Vec<_> = VARIANTS
        .iter()
        .flat_map(|v| pairs(&rows, |r| r.variant == v.name))
        .collect();
    score(
        "fig13",
        vec![
            claim("no_duplicate_stable", &rows, |r| r.dup_stable == 0),
            claim(
                "process_variants_within_budget",
                keeps_going("Process"),
                |r| secs(r.procnew) <= 3.0,
            ),
            claim("delay_variants_within_budget", keeps_going("Delay"), |r| {
                secs(r.procnew) <= 3.0
            }),
            claim(
                "suspend_breaks_budget_past_8s",
                rows.iter().filter(|r| suspends(r)),
                |r| match r.failure_secs {
                    f if f <= 4.0 => secs(r.procnew) <= 3.0,
                    f if f >= 8.0 => secs(r.procnew) > 3.0,
                    _ => true,
                },
            ),
            claim("short_failure_is_masked", &rows, |r| {
                r.failure_secs > 2.0 || r.ntentative == 0
            }),
            claim("ntentative_grows_with_duration", &by_duration, fewer),
            claim(
                "delaying_failure_cuts_ntentative",
                [
                    ntentative("Delay & Process", "Process & Process"),
                    ntentative("Delay & Delay", "Process & Delay"),
                    ntentative("Delay & Suspend", "Process & Suspend"),
                ]
                .iter()
                .flatten(),
                fewer,
            ),
            claim(
                "delaying_stabilization_cuts_ntentative",
                [
                    ntentative("Process & Delay", "Process & Process"),
                    ntentative("Delay & Delay", "Delay & Process"),
                ]
                .iter()
                .flatten(),
                fewer,
            ),
            claim(
                "suspending_cuts_ntentative_most",
                [
                    ntentative("Process & Suspend", "Process & Delay"),
                    ntentative("Delay & Suspend", "Delay & Delay"),
                ]
                .iter()
                .flatten(),
                fewer,
            ),
        ],
    );
}

const DD: &str = "Delay & Delay";
const PP: &str = "Process & Process";

/// Selects the chain rows of one configuration at one failure duration
/// (in row order: by increasing depth).
fn config(label: &'static str, failure: f64) -> impl Fn(&ChainRow) -> bool {
    move |r| r.label == label && r.failure_secs == failure
}

/// Consecutive depths of `label` at each of `failures`.
fn hops<'a>(rows: &'a [ChainRow], label: &'static str, failures: &[f64]) -> Vec<[&'a ChainRow; 2]> {
    let at = |&f| pairs(rows, config(label, f));
    failures.iter().flat_map(at).collect()
}

/// `[Delay & Delay, Process & Process]` at the same depth and duration.
fn dd_vs_pp<'a>(rows: &'a [ChainRow], failures: &[f64]) -> Vec<[&'a ChainRow; 2]> {
    let at = |&f| versus(rows, config(DD, f), config(PP, f));
    failures.iter().flat_map(at).collect()
}

/// Fig. 15: `Procnew` on chains of 1–4 replicated nodes, D = 2 s each,
/// 30 s failure. Process & Process stays near one node's delay; Delay &
/// Delay pays the delay again at every node, within depth × D.
#[test]
fn fig15_chain_latency() {
    let rows = run_chain(&[1, 2, 3, 4], &[30.0]);
    show(&rows);
    let grew = |w: &[&ChainRow; 2]| secs(w[1].procnew) - secs(w[0].procnew);
    let within = |r: &ChainRow| secs(r.procnew) <= 2.0 * r.depth as f64;
    score(
        "fig15",
        vec![
            claim("no_duplicate_stable", &rows, |r| r.dup_stable == 0),
            claim(
                "process_process_within_budget",
                rows.iter().filter(|r| r.label == PP),
                within,
            ),
            claim(
                "process_process_near_one_node_delay",
                &hops(&rows, PP, &[30.0]),
                |w| grew(w) <= 0.5,
            ),
            claim(
                "delay_delay_pays_each_node",
                &hops(&rows, DD, &[30.0]),
                |w| grew(w) >= 1.8,
            ),
            claim(
                "delay_delay_within_budget",
                rows.iter().filter(|r| r.label == DD),
                within,
            ),
        ],
    );
}

/// Fig. 16: `Ntentative` versus depth. Delaying trades it against the
/// accumulated chain delay: on 5–15 s failures Delay & Delay's count falls
/// with depth while Process & Process's grows slightly.
#[test]
fn fig16_chain_tentative() {
    let failures = [5.0, 10.0, 15.0, 30.0];
    let rows = run_chain(&[1, 2, 3, 4], &failures);
    show(&rows);
    score(
        "fig16",
        vec![
            claim("no_duplicate_stable", &rows, |r| r.dup_stable == 0),
            claim(
                "delay_delay_falls_with_depth",
                &hops(&rows, DD, &failures[..3]),
                |w| w[1].ntentative < w[0].ntentative,
            ),
            claim(
                "process_process_grows_slightly_with_depth",
                &hops(&rows, PP, &failures),
                |w| {
                    w[1].ntentative > w[0].ntentative
                        && w[1].ntentative as f64 <= 1.15 * w[0].ntentative as f64
                },
            ),
            claim(
                "delaying_cuts_ntentative",
                &dd_vs_pp(&rows, &failures),
                |w| w[0].ntentative < w[1].ntentative,
            ),
        ],
    );
}

/// Fig. 18: on a 60 s failure the benefit of delaying almost disappears —
/// it is the last node's delay only, whatever the depth.
#[test]
fn fig18_long_failure_chain() {
    let rows = run_chain(&[1, 2, 3, 4], &[60.0]);
    show(&rows);
    let by_depth = dd_vs_pp(&rows, &[60.0]);
    let gain = |w: &[&ChainRow; 2]| w[1].ntentative.saturating_sub(w[0].ntentative);
    score(
        "fig18",
        vec![
            claim("no_duplicate_stable", &rows, |r| r.dup_stable == 0),
            claim("delay_benefit_under_5_percent", &by_depth, |w| {
                gain(w) > 0 && gain(w) as f64 <= 0.05 * w[1].ntentative as f64
            }),
            claim("delay_benefit_does_not_grow_with_depth", &by_depth, |w| {
                gain(w) <= gain(&by_depth[0])
            }),
        ],
    );
}

/// Figs. 19/20: dividing X = 8 s over a chain of four. Giving every SUnion
/// the full budget still meets it (all SUnions suspend simultaneously) and
/// masks a 5 s failure, which the uniform 2 s assignment cannot under
/// Process & Process.
#[test]
fn fig19_20_delay_assignment() {
    let rows = run_delay_assignment(&[5.0, 10.0, 30.0, 60.0]);
    show(&rows);
    let of = |label: &'static str| rows.iter().filter(move |r| r.label == label);
    let within = |r: &ChainRow| secs(r.procnew) <= 8.0;
    score(
        "fig19_20",
        vec![
            claim("no_duplicate_stable", &rows, |r| r.dup_stable == 0),
            claim(
                "uniform_process_process_within_budget",
                of("Process & Process, D=2s"),
                within,
            ),
            claim(
                "full_assignment_within_budget",
                of("Process & Process, D=6.5s"),
                within,
            ),
            claim(
                "delay_delay_within_budget",
                of("Delay & Delay, D=2s"),
                within,
            ),
            claim(
                "full_assignment_masks_5s_failure",
                of("Process & Process, D=6.5s"),
                |r| r.failure_secs > 5.0 || r.ntentative == 0,
            ),
            claim(
                "uniform_process_process_does_not_mask",
                of("Process & Process, D=2s"),
                |r| r.ntentative > 0,
            ),
        ],
    );
}

/// Tables IV/V: per-tuple latency of SUnion serialization is smallest for
/// the plain-Union baseline (row 0), grows monotonically with the swept
/// parameter, and is proportional to it (mean ≈ half the parameter).
fn overhead_claims(rows: &[OverheadRow]) -> Vec<Claim> {
    show(rows);
    let steps = pairs(rows, |_| true);
    vec![
        claim("measures_25k_tuples", rows, |r| r.count >= 25_000),
        claim("avg_latency_monotone", &steps, |w| w[0].avg < w[1].avg),
        claim("max_latency_monotone", &steps, |w| w[0].max < w[1].max),
        claim(
            "avg_latency_proportional",
            rows.iter().filter(|r| r.param_ms >= 50),
            |r| {
                let over_half = r.avg.as_millis() as f64 - r.param_ms as f64 / 2.0;
                (0.0..=15.0).contains(&over_half)
            },
        ),
    ]
}

const SWEEP_MS: [u64; 8] = [0, 10, 50, 100, 150, 200, 300, 500];

#[test]
fn table4_bucket_size_overhead() {
    score("table4", overhead_claims(&run_table4(&SWEEP_MS)));
}

#[test]
fn table5_boundary_interval_overhead() {
    score("table5", overhead_claims(&run_table5(&SWEEP_MS)));
}

/// §5.1: crashing the replica the client reads from costs one failure
/// detection (250 ms stale timeout) plus the switch (within one 100 ms
/// keep-alive period), and the stable stream carries on.
#[test]
fn switchover_latency() {
    let r = run_switchover();
    show(&[&r]);
    score(
        "switchover",
        vec![
            claim("no_duplicate_stable", [&r], |r| r.dup_stable == 0),
            claim("gap_within_detection_plus_switch", [&r], |r| {
                r.max_gap.as_millis() <= 350
            }),
            // 900 tuples/s for 30 s, less the gap.
            claim("stable_stream_continues", [&r], |r| r.n_stable >= 26_000),
        ],
    );
}
