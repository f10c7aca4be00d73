//! Running one finite episode of a workload and sampling it from outside:
//! process-tree CPU at one-second marks of the runtime clock, the client's
//! counters for completion, and the gauges for the traced run.

use crate::adapter::{Deployment, Faults, Finished, Gauges, Job};
use crate::procfs::{self, CpuTimes, StatusCounters};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Warm-up of every episode before its measurement window opens:
/// subscriptions settle, the first buckets close, the allocator warms up.
pub const WARMUP_US: u64 = 1_000_000;
/// How long past the end of input (on the runtime's clock) the client may
/// take to see everything.
const DRAIN_BUDGET_US: u64 = 25_000_000;
/// Gauge polling period of a traced episode.
const TRACE_POLL_US: u64 = 50_000;

/// The workloads. All run the same job (see [`Job`]); the first three at
/// the same offered load on different runtimes, so they differ in which
/// layers carry it, the fourth through two scripted failures, so the same
/// layers work in their other mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Threads,
    Tcp,
    Sim,
    Faults,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload::Threads,
    Workload::Tcp,
    Workload::Sim,
    Workload::Faults,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::Threads => "chain_threads",
            Workload::Tcp => "chain_tcp",
            Workload::Sim => "chain_sim",
            Workload::Faults => "chain_faults",
        }
    }

    /// One line on why the workload is in the benchmark.
    pub fn why(self) -> &'static str {
        match self {
            Workload::Threads => {
                "in-process worker pool: scheduler handoff, shard routing, SUnion/SOutput and \
                 fragment execution do all the work; wire, codec and credit ledger do none"
            }
            Workload::Tcp => {
                "same job over 3 OS processes on loopback with a 64-message credit window: adds \
                 wire encode/flush/decode and credit grants, so a wire or codec gain shows here only"
            }
            Workload::Sim => {
                "same job under the single-threaded simulator: no scheduler, no sockets; the \
                 baseline of pure data-plane CPU, with exactly repeatable virtual-time latencies"
            }
            Workload::Faults => {
                "simulator, durable stores, a 3 s source outage and a replica restart from disk: \
                 the same layers in tentative mode, checkpoint/redo, upstream switch, log replay"
            }
        }
    }

    /// Length of one episode's input in runtime-clock microseconds: the
    /// warm-up, then the measurement window up to the last tuple.
    pub fn input_us(self) -> u64 {
        match self {
            Workload::Faults => 12_000_000,
            _ => 4_000_000,
        }
    }

    /// Aggregate offered load before the seed's ±1 % jitter: about half of
    /// the K=4 capacity knee on two cores; a quarter of it through the
    /// failures, where reconciliation has to catch up on top of the input.
    fn base_rate(self) -> f64 {
        match self {
            Workload::Faults => 45_000.0,
            _ => 90_000.0,
        }
    }

    /// What the episode injects: `s1` away from 2 s to 5 s (the tentative
    /// output starts after the detection delay, the corrections after the
    /// heal), one `work` replica killed at 8 s and back from disk 300 ms
    /// later, four more seconds of input to stabilize under. The input runs
    /// to 12 s so that the tuples the outage delays — those due between its
    /// start and the end of reconciliation, 4.4 s later — are two fifths of
    /// the window: with half of them delayed (a 10 s episode), `lat_p50_ms`
    /// sat on the edge between the two populations and flipped between
    /// 117 ms and 162 ms from seed to seed.
    fn faults(self) -> Option<Faults> {
        (self == Workload::Faults).then_some(Faults {
            outage_us: (2_000_000, 5_000_000),
            restart_at_us: 8_000_000,
        })
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// One episode of this workload for `seed`.
    ///
    /// The seed makes the inputs: it jitters the offered rate by up to
    /// ±1 % — so every tuple's `stime` (and the reference digest) is a
    /// function of the seed — and seeds the deployment's RNGs.
    pub fn job(self, seed: u64) -> Job {
        let jitter = (splitmix64(seed) % 2001) as f64 / 100_000.0 - 0.01;
        let total_rate = (self.base_rate() * (1.0 + jitter)).round();
        Job {
            total_rate,
            per_source_limit: (total_rate / 3.0 * self.input_us() as f64 / 1e6).round() as u64,
            seed,
            window: (self == Workload::Tcp).then_some(64),
            faults: self.faults(),
        }
    }
}

fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Resource reading of the whole process tree at one runtime-clock instant.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub at_us: u64,
    /// User and system time in 10 ms ticks (kept for the user/sys split).
    pub cpu: CpuTimes,
    /// On-CPU time at nanosecond resolution, where the kernel offers it.
    pub run_ns: Option<u64>,
    /// Context switches (summed over every thread of every process) and
    /// peak RSS.
    pub status: StatusCounters,
}

/// One gauge reading of a traced episode's time series.
#[derive(Debug, Clone, Copy)]
pub struct GaugePoint {
    pub at_us: u64,
    pub gauges: Gauges,
}

/// Everything observed about one episode.
pub struct Episode {
    pub job: Job,
    /// Whether the gauges were polled during the window.
    pub traced: bool,
    /// Wall clock: start of planning → first stable tuple at the client.
    pub setup_s: f64,
    /// Runtime-clock instant the input ends and the window closes.
    pub input_us: u64,
    /// The process tree at the window's opening and closing marks.
    pub window: [Sample; 2],
    /// Runtime-clock instant the client held every tuple — or, if it never
    /// did, the instant the wait was given up (the oracle then says what is
    /// missing).
    pub drained_us: u64,
    /// Gauge time series (traced episodes only; empty otherwise).
    pub gauge_series: Vec<GaugePoint>,
    pub finished: Finished,
    /// The durable stores of a `chain_faults` episode. They stay until the
    /// run ends: removing an episode's 65 MB of input logs right after it
    /// put the file system to work just when the next episode's set-up was
    /// being timed, and those 15 ms then read anything from 10 to 100.
    pub _stores: Option<TempDir>,
}

/// A scratch directory under `out/`, unique to this process and call,
/// removed on drop (so also on every error path).
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn new(out_dir: &Path) -> std::io::Result<TempDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = out_dir.join(format!("tmp-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn deploy(workload: Workload, job: &Job, store: Option<&Path>) -> Result<Deployment, String> {
    match workload {
        Workload::Threads => Ok(Deployment::threads(job)),
        Workload::Sim | Workload::Faults => Ok(Deployment::sim(job, store)),
        Workload::Tcp => {
            let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
            Deployment::tcp(job, &exe, &["tcp-child"]).map_err(|e| format!("tcp deploy: {e}"))
        }
    }
}

/// Deploys and blocks until the client holds its first stable tuple;
/// returns the deployment and the wall-clock set-up time (planning, spawn
/// or fork, mesh, subscriptions, opening the stores, first bucket).
fn deploy_until_first_stable(
    workload: Workload,
    job: &Job,
    store: Option<&Path>,
) -> Result<(Deployment, f64), String> {
    let t0 = Instant::now();
    let mut dep = deploy(workload, job, store)?;
    while dep.counters().n_stable == 0 {
        if dep.now_us() > DRAIN_BUDGET_US {
            return Err("no stable tuple reached the client".into());
        }
        dep.advance_to(dep.now_us() + 1000);
    }
    Ok((dep, t0.elapsed().as_secs_f64()))
}

/// Runs one episode to completion: deploy, warm up, sample the process
/// tree at both edges of the window, wait until the client holds every
/// tuple, tear down. A traced episode also polls the gauges every
/// [`TRACE_POLL_US`] during the window. The durable stores of
/// `chain_faults` live in a scratch directory under `out_dir`, which the
/// returned episode owns.
///
/// An episode whose output never completes is still returned — the oracle
/// counts what is missing as failed operations; `Err` is for faults of the
/// harness itself.
pub fn run_episode(
    workload: Workload,
    seed: u64,
    traced: bool,
    out_dir: &Path,
) -> Result<Episode, String> {
    let job = workload.job(seed);
    let store = match job.faults {
        Some(_) => Some(TempDir::new(out_dir).map_err(|e| format!("store directory: {e}"))?),
        None => None,
    };
    let (mut dep, setup_s) =
        deploy_until_first_stable(workload, &job, store.as_ref().map(|d| d.0.as_path()))?;
    let pids = dep.worker_pids().to_vec();
    let read = |dep: &Deployment| Sample {
        at_us: dep.now_us(),
        cpu: procfs::cpu_of_tree(&pids),
        run_ns: procfs::run_ns_of_tree(&pids),
        status: procfs::status_of_tree(&pids),
    };
    let input_us = workload.input_us();

    dep.advance_to(WARMUP_US);
    let opened = read(&dep);
    let mut gauge_series = Vec::new();
    if traced {
        while dep.now_us() + TRACE_POLL_US < input_us {
            dep.advance_to(dep.now_us() + TRACE_POLL_US);
            gauge_series.push(GaugePoint {
                at_us: dep.now_us(),
                gauges: dep.gauges(),
            });
        }
    }
    dep.advance_to(input_us);
    let closed = read(&dep);

    // Drain: every tuple offered must come out stable.
    while dep.counters().n_stable < job.attempted() && dep.now_us() <= input_us + DRAIN_BUDGET_US {
        dep.advance_to(dep.now_us() + 2000);
    }
    let drained_us = dep.now_us();
    let finished = dep.finish().map_err(|e| format!("teardown: {e}"))?;
    Ok(Episode {
        job,
        traced,
        setup_s,
        input_us,
        window: [opened, closed],
        drained_us,
        gauge_series,
        finished,
        _stores: store,
    })
}

/// The reference run of an episode's job under the simulator
/// (single-threaded, no credit window, no failure), with the CPU it took.
pub struct ReferenceRun {
    pub trace: Vec<crate::oracle::Arrival>,
    pub cpu_us: u64,
}

pub fn reference_run(workload: Workload, job: &Job) -> Result<ReferenceRun, String> {
    let before = procfs::cpu_of(std::process::id());
    let mut dep = Deployment::sim(
        &Job {
            window: None,
            faults: None,
            ..job.clone()
        },
        None,
    );
    // Three SUnion hops of at most 0.5 s each: three virtual seconds past
    // the end of input drain anything.
    dep.advance_to(workload.input_us() + 3_000_000);
    let finished = dep.finish().map_err(|e| format!("reference run: {e}"))?;
    let after = procfs::cpu_of(std::process::id());
    Ok(ReferenceRun {
        trace: finished.trace,
        cpu_us: (after.user_us + after.sys_us) - (before.user_us + before.sys_us),
    })
}

/// The overload probe of a traced `chain_threads` run: five seconds of the
/// fault-free job offered 300 000 tuples/s — far past the knee — on the
/// thread runtime; returns the stable tuples per second the client saw
/// after the first second. Nothing is drained or checked: the figure is a
/// diagnostic, and it swings with the host's CPU allotment.
pub fn overload_probe(seed: u64) -> Result<f64, String> {
    const OFFERED: f64 = 300_000.0;
    const PROBE_US: u64 = 5_000_000;
    let mut dep = Deployment::threads(&Job {
        total_rate: OFFERED,
        per_source_limit: (OFFERED / 3.0 * PROBE_US as f64 / 1e6) as u64,
        seed,
        window: None,
        faults: None,
    });
    dep.advance_to(WARMUP_US);
    let (from_us, from) = (dep.now_us(), dep.counters().n_stable);
    dep.advance_to(PROBE_US);
    let (to_us, to) = (dep.now_us(), dep.counters().n_stable);
    dep.finish().map_err(|e| format!("overload probe: {e}"))?;
    Ok((to - from) as f64 * 1e6 / (to_us - from_us) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_is_a_function_of_the_seed() {
        let a = Workload::Threads.job(7);
        let b = Workload::Threads.job(7);
        let c = Workload::Threads.job(11);
        assert_eq!(a, b, "same seed, same inputs");
        assert_ne!(a.total_rate, c.total_rate, "another seed, other stimes");
        for w in WORKLOADS {
            for seed in 0..200 {
                let j = w.job(seed);
                assert!(
                    (j.total_rate - w.base_rate()).abs() <= w.base_rate() / 100.0 + 0.5,
                    "{}",
                    j.total_rate
                );
                assert_eq!(j.attempted(), 3 * j.per_source_limit);
                // The last tuple is due at the end of the window, not after it.
                assert!(j.stime_us_of(j.per_source_limit) <= w.input_us() + 40);
            }
        }
    }

    #[test]
    fn fault_free_workloads_differ_in_layers_not_in_job() {
        let threads = Workload::Threads.job(7);
        let tcp = Workload::Tcp.job(7);
        let sim = Workload::Sim.job(7);
        assert_eq!(tcp.window, Some(64));
        assert_eq!(threads.window, None);
        assert_eq!(sim, threads, "the simulator runs the very same job");
        assert_eq!(
            Job {
                window: None,
                ..tcp
            },
            threads
        );
        for w in WORKLOADS {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert_eq!(w.job(7).faults.is_some(), w == Workload::Faults);
        }
        assert_eq!(Workload::from_name("chain"), None);
    }

    #[test]
    fn failures_fall_inside_the_window_and_leave_time_to_stabilize() {
        let w = Workload::Faults;
        let f = w.faults().expect("scripted");
        assert!(WARMUP_US < f.outage_us.0 && f.outage_us.0 < f.outage_us.1);
        assert!(f.outage_us.1 < f.restart_at_us);
        assert!(f.restart_at_us + 2_000_000 <= w.input_us());
    }

    #[test]
    fn scratch_directories_are_unique_and_removed_on_drop() {
        let base = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/episode-test");
        let (a, b) = (
            TempDir::new(&base).expect("creates"),
            TempDir::new(&base).expect("creates"),
        );
        assert_ne!(a.0, b.0);
        let kept = a.0.clone();
        assert!(kept.is_dir());
        drop(a);
        assert!(!kept.exists());
        drop(b);
        let _ = std::fs::remove_dir_all(&base);
    }
}
