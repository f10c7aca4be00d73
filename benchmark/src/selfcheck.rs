//! `bench selfcheck`: two sets of runs of the same code must agree within
//! the benchmark's own bounds. The table it prints — both values and the
//! gap between them, per workload and metric — is the observed spread the
//! bounds are re-derived from after a change.

use crate::episode::{Workload, WORKLOADS};
use crate::run::{self, Metric, END_TO_END};
use crate::watchdog::Watchdog;
use std::path::Path;

/// The two seeds: the default and the held-out one.
pub const SEEDS: [u64; 2] = [7, 11];

/// How far `b` is from `a`, as a share of the smaller of the two (the
/// direction-free reading of "worse by more than the bound").
pub fn relative_gap(a: f64, b: f64) -> f64 {
    let low = a.abs().min(b.abs());
    if low == 0.0 {
        if a == b {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (a - b).abs() / low
    }
}

/// One row of the report: a metric of a workload in both sets.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: &'static str,
    pub metric: &'static str,
    pub values: [f64; 2],
    pub bound: f64,
}

impl Row {
    pub fn gap(&self) -> f64 {
        relative_gap(self.values[0], self.values[1])
    }

    pub fn within_bound(&self) -> bool {
        self.gap() <= self.bound
    }
}

/// Pairs up the two sets' metrics of one workload with their bounds.
pub fn rows_for(workload: &'static str, first: &[Metric], second: &[Metric]) -> Vec<Row> {
    END_TO_END
        .iter()
        .filter_map(|&(name, _, bound)| {
            let of = |set: &[Metric]| set.iter().find(|m| m.name == name).map(|m| m.value);
            Some(Row {
                workload,
                metric: name,
                values: [of(first)?, of(second)?],
                bound,
            })
        })
        .collect()
}

pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<14} {:<26} {:>12} {:>12} {:>8} {:>7}\n",
        "workload",
        "metric",
        format!("seed {}", SEEDS[0]),
        format!("seed {}", SEEDS[1]),
        "gap",
        "bound"
    );
    for r in rows {
        out += &format!(
            "{:<14} {:<26} {:>12.5} {:>12.5} {:>7.1}% {:>6.0}%{}\n",
            r.workload,
            r.metric,
            r.values[0],
            r.values[1],
            100.0 * r.gap(),
            100.0 * r.bound,
            if r.within_bound() { "" } else { "  <- outside" }
        );
    }
    out
}

/// Runs every workload once per seed (seed-major, so the two sets are
/// separated in time), prints the table, and reports whether every metric
/// agreed and every output was correct.
pub fn selfcheck(seconds: u64, out_dir: &Path) -> Result<bool, String> {
    let mut sets: Vec<Vec<(Workload, Vec<Metric>)>> = Vec::new();
    let mut all_correct = true;
    for seed in SEEDS {
        let mut set = Vec::new();
        for w in WORKLOADS {
            let _watchdog = Watchdog::arm(format!("selfcheck {} seed {seed}", w.name()));
            let outcome = run::execute(w, seed, seconds, false, out_dir)?;
            eprintln!("{} seed {seed}: {}", w.name(), outcome.result_line());
            all_correct &= outcome.correct && outcome.failed == 0;
            set.push((w, outcome.metrics));
        }
        sets.push(set);
    }
    let rows: Vec<Row> = sets[0]
        .iter()
        .zip(&sets[1])
        .flat_map(|((w, a), (_, b))| rows_for(w.name(), a, b))
        .collect();
    print!("{}", render(&rows));
    let agree = rows.iter().all(Row::within_bound);
    println!(
        "selfcheck: outputs {}, metrics {}",
        if all_correct { "correct" } else { "INCORRECT" },
        if agree {
            "agree within their bounds"
        } else {
            "DISAGREE"
        }
    );
    Ok(all_correct && agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_is_symmetric_and_relative_to_the_smaller_value() {
        assert_eq!(relative_gap(100.0, 110.0), 0.1);
        assert_eq!(relative_gap(110.0, 100.0), 0.1);
        assert_eq!(relative_gap(0.0, 0.0), 0.0);
        assert_eq!(relative_gap(0.0, 1.0), f64::INFINITY);
    }

    #[test]
    fn rows_pair_metrics_with_their_bounds() {
        let set = |cpu: f64| {
            vec![
                Metric::new("cpu_us_per_stable_tuple", cpu, "us"),
                Metric::new("lat_p50_ms", 120.0, "ms"),
                Metric::new("lat_p99_ms", 160.0, "ms"),
                Metric::new("setup_s", 0.13, "s"),
            ]
        };
        let rows = rows_for("chain_threads", &set(2.7), &set(2.8));
        assert_eq!(rows.len(), END_TO_END.len());
        assert!(rows.iter().all(Row::within_bound));
        let rows = rows_for("chain_threads", &set(2.0), &set(4.0));
        assert!(!rows[0].within_bound());
        assert!(render(&rows).contains("<- outside"));
    }
}
