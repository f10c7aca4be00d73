//! The **only** module that touches the repository's crates. Everything
//! the benchmark needs from the system under test goes through here, so a
//! refactor of the product can see at a glance which public surface the
//! benchmark depends on (listed in `benchmark/README.md`).
//!
//! Two halves: deploying and observing the chain job on each runtime
//! (this file), and the single-threaded per-layer replays
//! ([`layers`]).

pub mod layers;

use crate::oracle::{Arrival, Kind};
use borealis_dpc::{
    FaultSpec, MetricsHub, RunningSystem, StreamMetrics, SystemBuilder, SystemLayout,
};
use borealis_runtime::{
    deploy_tcp, deploy_threads, plan_processes, RunningTcp, RunningThreads, StatsSnapshot,
    TcpFabric,
};
use borealis_types::{CreditPolicy, Duration, StreamId, Time, TupleKind};
use borealis_workloads::{sharded_chain_builder, ShardedChainOptions};
use std::io::{BufReader, Read};
use std::net::TcpListener;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;

/// Shard fan-out of the work stage (every workload).
pub const SHARDS: u32 = 4;
/// Replicas per fragment (every workload).
pub const REPLICATION: usize = 2;
/// Worker-pool threads per process — the box has two cores.
pub const WORKERS: usize = 2;
/// OS processes of the socket deployment (process 0 = sources + client).
pub const TCP_PROCS: u32 = 3;

/// One finite episode of the chain job: three sequence sources → `ingest`
/// Union → `work` Map × 4 key-partitioned shards → `deliver` Map → client,
/// every fragment replicated twice.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Aggregate offered rate over the three sources (tuples/second).
    pub total_rate: f64,
    /// Each source stops after this many tuples.
    pub per_source_limit: u64,
    /// Determinism seed of the deployment.
    pub seed: u64,
    /// Credit window per link (`None` = unbounded, no accounting).
    pub window: Option<u32>,
    /// The failures scripted into the episode (`chain_faults` only).
    pub faults: Option<Faults>,
}

/// The failures `chain_faults` scripts, in microseconds on the runtime's
/// clock — the paper's two kinds: an input stream that goes away and comes
/// back, and a node that crashes and restarts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Faults {
    /// Source `s1` is cut off from both `ingest` replicas between these
    /// two instants (it keeps producing; the backlog is replayed on heal).
    pub outage_us: (u64, u64),
    /// Replica 0 of `work` shard 1 is killed at this instant and respawned
    /// 300 ms later from its durable store.
    pub restart_at_us: u64,
}

impl Job {
    /// Tuples the client must eventually see as stable.
    pub fn attempted(&self) -> u64 {
        3 * self.per_source_limit
    }

    /// The `stime` the source stamps on its `id`-th tuple — `id / rate`,
    /// the instant the tuple was *due* (the load generator is open-loop).
    /// Restated here, independently of the program under test, so the
    /// oracle can say which tuples must come out.
    pub fn stime_us_of(&self, id: u64) -> u64 {
        (id as f64 * 1_000_000.0 / (self.total_rate / 3.0)) as u64
    }

    /// The `stime` of every tuple the three sources will produce, sorted:
    /// what the client must end up holding, one stable tuple each.
    pub fn expected_stimes(&self) -> Vec<u64> {
        (1..=self.per_source_limit)
            .flat_map(|id| [self.stime_us_of(id); 3])
            .collect()
    }

    /// `key=value` argv tokens for the worker processes, which rebuild the
    /// identical layout from them. (Only the fault-free job is ever run
    /// across processes, so `faults` is not carried.)
    pub fn to_args(&self) -> Vec<String> {
        vec![
            format!("rate={}", self.total_rate),
            format!("limit={}", self.per_source_limit),
            format!("seed={}", self.seed),
            format!("window={}", self.window.unwrap_or(0)),
        ]
    }

    /// Inverse of [`Job::to_args`]; unknown tokens are ignored, a missing
    /// or malformed token is an error.
    pub fn parse_args<'a>(args: impl Iterator<Item = &'a str>) -> Result<Job, String> {
        let (mut rate, mut limit, mut seed, mut window) = (None, None, None, None);
        for arg in args {
            let Some((key, val)) = arg.split_once('=') else {
                continue;
            };
            let bad = || format!("malformed worker argument {arg:?}");
            match key {
                "rate" => rate = Some(val.parse::<f64>().map_err(|_| bad())?),
                "limit" => limit = Some(val.parse::<u64>().map_err(|_| bad())?),
                "seed" => seed = Some(val.parse::<u64>().map_err(|_| bad())?),
                "window" => window = Some(val.parse::<u32>().map_err(|_| bad())?),
                _ => {}
            }
        }
        Ok(Job {
            total_rate: rate.ok_or("missing rate=")?,
            per_source_limit: limit.ok_or("missing limit=")?,
            seed: seed.ok_or("missing seed=")?,
            window: Some(window.ok_or("missing window=")?).filter(|w| *w > 0),
            faults: None,
        })
    }

    /// The deployment description of the fault-free job:
    /// `sharded_chain_builder` with the *modelled* per-tuple CPU cost
    /// switched off, so the real data plane, not the cost model, is what
    /// the benchmark measures. (Zero rather than the 1 µs of the
    /// repository's capacity study: any non-zero cost makes a node defer
    /// its sends through the timer wheel of whichever worker ran the
    /// activation, and on this tree two wheels can deliver one link's
    /// messages out of order when the host stalls a worker — a boundary
    /// then overtakes the data it closes and the SUnion silently discards
    /// the late tuples; see the README.) The client arrival trace is always
    /// on — it is the benchmark's measurement.
    ///
    /// Failure detection is stretched — keep-alives every 500 ms (stale
    /// after 1.25 s, the ratio the paper uses) and a 2 s delay per SUnion —
    /// because these workloads inject no failure, and with the 100 ms /
    /// 500 ms defaults about one clean wall-clock episode in a hundred saw
    /// the host stall an actor long enough to be declared failed; the
    /// switch-over that follows loses tuples on this tree (see the README).
    /// Neither knob is on the healthy data path: buckets are released as
    /// their boundaries arrive, not after the delay.
    ///
    /// A job with [`Faults`] runs with the repository's own parameters
    /// instead — 1 µs modelled cost, 100 ms keep-alives, 500 ms per SUnion —
    /// and, given a `store` directory, with a durable store per replica
    /// (checkpoint every 250 ms, flushed inline: it only ever runs under
    /// the simulator, where neither a host stall nor an `fsync` can be
    /// mistaken for a failure).
    fn builder(&self, store: Option<&Path>) -> (SystemBuilder, StreamId) {
        let (delay, keep_alive, cost) = match self.faults {
            None => (
                Duration::from_secs(2),
                Duration::from_millis(500),
                Duration::ZERO,
            ),
            Some(_) => (
                Duration::from_millis(500),
                Duration::from_millis(100),
                Duration::from_micros(1),
            ),
        };
        let (mut builder, out) = self.chain(delay, keep_alive, cost);
        if let Some(f) = self.faults {
            // The builder does not hand out its source streams; a layout of
            // the same diagram does.
            let s1 = builder.layout().source_ids[0].0;
            builder = self.chain(delay, keep_alive, cost).0.faults([
                FaultSpec::DisconnectSource {
                    stream: s1,
                    frag: 0,
                    from: Time(f.outage_us.0),
                    to: Time(f.outage_us.1),
                },
                FaultSpec::RestartReplica {
                    frag: 1,
                    shard: 1,
                    replica: 0,
                    after: Time(f.restart_at_us),
                },
            ]);
        }
        if let Some(dir) = store {
            builder = builder.durability(dir, Duration::from_millis(250), false);
        }
        (builder, out)
    }

    /// The job's diagram, sources, metrics hub and worker count, planned
    /// with the given delay per SUnion, keep-alive period and modelled cost
    /// per tuple.
    fn chain(
        &self,
        per_node_delay: Duration,
        heartbeat_period: Duration,
        cost: Duration,
    ) -> (SystemBuilder, StreamId) {
        let (mut builder, out) = sharded_chain_builder(&ShardedChainOptions {
            shards: SHARDS,
            replication: REPLICATION,
            total_rate: self.total_rate,
            per_node_delay,
            heartbeat_period,
            light_cost: cost,
            work_cost: cost,
            source_limit: Some(self.per_source_limit),
            seed: self.seed,
            ..ShardedChainOptions::default()
        });
        let metrics = MetricsHub::new();
        metrics.enable_trace(out);
        builder = builder.metrics(metrics).workers(WORKERS);
        if let Some(w) = self.window {
            builder = builder.credit_policy(CreditPolicy::Window(w));
        }
        (builder, out)
    }

    pub(crate) fn layout(&self) -> (SystemLayout, StreamId) {
        let (builder, out) = self.builder(None);
        (builder.layout(), out)
    }
}

/// Client-side counters of the watched output stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub n_stable: u64,
    pub n_tentative: u64,
    pub n_undo: u64,
    pub n_rec_done: u64,
    pub dup_stable: u64,
    /// The paper's `Procnew`: max latency of frontier-advancing tuples.
    pub procnew_us: u64,
}

fn counters_of(m: &StreamMetrics) -> Counters {
    Counters {
        n_stable: m.n_stable,
        n_tentative: m.n_tentative,
        n_undo: m.n_undo,
        n_rec_done: m.n_rec_done,
        dup_stable: m.dup_stable,
        procnew_us: m.procnew.0,
    }
}

/// The gauges of one process (or a sum over processes), flattened to
/// plain numbers so nothing outside this module names a repository type.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Gauges {
    pub messages_delivered: u64,
    pub drops: u64,
    pub activations: u64,
    pub steals: u64,
    pub parks: u64,
    pub local_peak: u64,
    /// Activations that ran for 1 ms or longer.
    pub runs_ge_1ms: u64,
    pub flow_inflight_peak: u64,
    pub flow_stall_us: u64,
    pub wire_bytes_sent: u64,
    pub wire_frames_sent: u64,
    pub wire_flushes: u64,
    pub wire_grants_sent: u64,
}

impl Gauges {
    fn from_snapshot(s: &StatsSnapshot) -> Gauges {
        let (sched, flow, wire) = (&s.sched, &s.flow, &s.wire);
        Gauges {
            messages_delivered: s.messages_delivered,
            drops: s.total_drops(),
            activations: sched.activations(),
            steals: sched.steals,
            parks: sched.parks,
            local_peak: sched.local_peak,
            runs_ge_1ms: sched.run_hist[3] + sched.run_hist[4],
            flow_inflight_peak: flow.inflight_peak,
            flow_stall_us: flow.stall_time.0,
            wire_bytes_sent: wire.bytes_sent,
            wire_frames_sent: wire.frames_sent,
            wire_flushes: wire.flushes,
            wire_grants_sent: wire.grants_sent,
        }
    }

    /// Sums counters and takes the maximum of the peaks.
    pub fn absorb(&mut self, o: &Gauges) {
        self.messages_delivered += o.messages_delivered;
        self.drops += o.drops;
        self.activations += o.activations;
        self.steals += o.steals;
        self.parks += o.parks;
        self.local_peak = self.local_peak.max(o.local_peak);
        self.runs_ge_1ms += o.runs_ge_1ms;
        self.flow_inflight_peak = self.flow_inflight_peak.max(o.flow_inflight_peak);
        self.flow_stall_us += o.flow_stall_us;
        self.wire_bytes_sent += o.wire_bytes_sent;
        self.wire_frames_sent += o.wire_frames_sent;
        self.wire_flushes += o.wire_flushes;
        self.wire_grants_sent += o.wire_grants_sent;
    }

    /// One `key=value` line a worker process reports at exit.
    fn to_line(self) -> String {
        format!(
            "STATS delivered={} drops={} activations={} steals={} parks={} local_peak={} \
             runs_ge_1ms={} inflight_peak={} stall_us={} bytes_sent={} frames_sent={} \
             flushes={} grants_sent={}",
            self.messages_delivered,
            self.drops,
            self.activations,
            self.steals,
            self.parks,
            self.local_peak,
            self.runs_ge_1ms,
            self.flow_inflight_peak,
            self.flow_stall_us,
            self.wire_bytes_sent,
            self.wire_frames_sent,
            self.wire_flushes,
            self.wire_grants_sent,
        )
    }

    fn parse_line(line: &str) -> Option<Gauges> {
        let rest = line.strip_prefix("STATS ")?;
        let get = |key: &str| -> Option<u64> {
            rest.split_whitespace()
                .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
                .and_then(|v| v.parse().ok())
        };
        Some(Gauges {
            messages_delivered: get("delivered")?,
            drops: get("drops")?,
            activations: get("activations")?,
            steals: get("steals")?,
            parks: get("parks")?,
            local_peak: get("local_peak")?,
            runs_ge_1ms: get("runs_ge_1ms")?,
            flow_inflight_peak: get("inflight_peak")?,
            flow_stall_us: get("stall_us")?,
            wire_bytes_sent: get("bytes_sent")?,
            wire_frames_sent: get("frames_sent")?,
            wire_flushes: get("flushes")?,
            wire_grants_sent: get("grants_sent")?,
        })
    }
}

/// Worker processes the benchmark has started and not yet reaped. The
/// watchdog kills whatever is still in here before it exits, so no path
/// out of the program leaves a worker behind.
pub static WORKER_PROCESSES: Mutex<Vec<Child>> = Mutex::new(Vec::new());

/// Kills and reaps every registered worker process.
pub fn kill_worker_processes() {
    let mut procs = match WORKER_PROCESSES.lock() {
        Ok(g) => g,
        // A panic while the list was held leaves it usable: entries are
        // only pushed or drained whole.
        Err(poisoned) => poisoned.into_inner(),
    };
    for mut child in procs.drain(..) {
        let _ = child.kill();
        let _ = child.wait();
    }
}

enum Running {
    Threads(RunningThreads),
    Tcp(RunningTcp),
    /// The deterministic simulator: single-threaded, virtual time.
    Sim(Box<RunningSystem>),
}

/// The chain job running on one of the three runtimes.
pub struct Deployment {
    running: Running,
    out: StreamId,
    /// Pids of the worker processes (socket runtime only).
    worker_pids: Vec<u32>,
}

/// What a finished deployment hands back.
pub struct Finished {
    pub trace: Vec<Arrival>,
    pub counters: Counters,
    /// Summed over every process of the deployment.
    pub gauges: Gauges,
}

impl Deployment {
    /// Deploys `job` on the in-process worker pool.
    pub fn threads(job: &Job) -> Deployment {
        let (layout, out) = job.layout();
        Deployment {
            running: Running::Threads(deploy_threads(layout)),
            out,
            worker_pids: Vec::new(),
        }
    }

    /// Deploys `job` under the simulator, with a durable store per replica
    /// under `store` if one is given. Nothing runs until
    /// [`Deployment::advance_to`] is called.
    pub fn sim(job: &Job, store: Option<&Path>) -> Deployment {
        let (builder, out) = job.builder(store);
        Deployment {
            running: Running::Sim(Box::new(builder.build())),
            out,
            worker_pids: Vec::new(),
        }
    }

    /// Deploys `job` across [`TCP_PROCS`] OS processes on loopback: this
    /// process keeps the sources and the client, `program` is re-executed
    /// with `child_prefix` + the job's argv for each worker process.
    /// Ports are ephemeral: the listeners are bound here to allocate them,
    /// this process keeps its own, and each worker rebinds its entry.
    pub fn tcp(job: &Job, program: &Path, child_prefix: &[&str]) -> std::io::Result<Deployment> {
        let (layout, out) = job.layout();
        let plan = plan_processes(&layout, TCP_PROCS);
        let mut addrs = Vec::new();
        let mut listeners = Vec::new();
        for _ in 0..TCP_PROCS {
            let l = TcpListener::bind("127.0.0.1:0")?;
            addrs.push(l.local_addr()?.to_string());
            listeners.push(l);
        }
        let listener = listeners.swap_remove(0);
        drop(listeners);
        let mut worker_pids = Vec::new();
        for p in 1..TCP_PROCS {
            let child = Command::new(program)
                .args(child_prefix)
                .arg(format!("proc={p}"))
                .arg(format!("addrs={}", addrs.join(",")))
                .args(job.to_args())
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .spawn()?;
            worker_pids.push(child.id());
            WORKER_PROCESSES
                .lock()
                .expect("worker registry lock")
                .push(child);
        }
        let fabric = TcpFabric::establish(0, listener, &addrs, plan)?;
        Ok(Deployment {
            running: Running::Tcp(deploy_tcp(layout, fabric)),
            out,
            worker_pids,
        })
    }

    /// Pids of the live worker processes.
    pub fn worker_pids(&self) -> &[u32] {
        &self.worker_pids
    }

    fn metrics(&self) -> &MetricsHub {
        match &self.running {
            Running::Threads(s) => &s.metrics,
            Running::Tcp(s) => &s.metrics,
            Running::Sim(s) => &s.metrics,
        }
    }

    /// Microseconds on the runtime's clock — the clock every `stime` and
    /// arrival is expressed in (wall time since start on the thread and
    /// socket runtimes, virtual time under the simulator).
    pub fn now_us(&self) -> u64 {
        match &self.running {
            Running::Threads(s) => s.runtime.now().0,
            Running::Tcp(s) => s.runtime.now().0,
            Running::Sim(s) => s.sim.now().0,
        }
    }

    /// Lets the deployment run until its clock reads `at_us`: sleeps on
    /// the wall-clock runtimes, simulates under the simulator.
    pub fn advance_to(&mut self, at_us: u64) {
        match &mut self.running {
            Running::Sim(s) => s.run_until(Time(at_us)),
            _ => {
                let now = self.now_us();
                if at_us > now {
                    std::thread::sleep(std::time::Duration::from_micros(at_us - now));
                }
            }
        }
    }

    /// The client's counters right now.
    pub fn counters(&self) -> Counters {
        self.metrics().with(self.out, counters_of)
    }

    /// This process's gauges right now (workers report theirs at exit).
    /// The simulator has no scheduler, ledger or wire gauges: it reports
    /// its dispatched events as `messages_delivered` and its drops.
    pub fn gauges(&self) -> Gauges {
        match &self.running {
            Running::Threads(s) => Gauges::from_snapshot(&s.runtime.stats()),
            Running::Tcp(s) => Gauges::from_snapshot(&s.stats()),
            Running::Sim(s) => Gauges {
                messages_delivered: s.sim.events_dispatched(),
                drops: s.sim.stats().total_drops(),
                ..Gauges::default()
            },
        }
    }

    /// Stops the deployment and collects the trace and the final gauges.
    /// Worker processes are told to stop (their stdin closes), report one
    /// `STATS` line, and are reaped here.
    pub fn finish(self) -> std::io::Result<Finished> {
        let sim_gauges = self.gauges();
        let Deployment {
            running,
            out,
            worker_pids,
        } = self;
        let mut workers: Vec<Child> = {
            let mut reg = WORKER_PROCESSES.lock().expect("worker registry lock");
            let (mine, others) = reg.drain(..).partition(|c| worker_pids.contains(&c.id()));
            *reg = others;
            mine
        };
        // Closing stdin is the stop signal; it must precede our own
        // shutdown, which waits for every peer's Goodbye.
        for w in &mut workers {
            drop(w.stdin.take());
        }
        let (metrics, mut gauges) = match running {
            Running::Threads(s) => (s.metrics.clone(), Gauges::from_snapshot(&s.shutdown())),
            Running::Tcp(s) => (s.metrics.clone(), Gauges::from_snapshot(&s.shutdown())),
            Running::Sim(s) => (s.metrics.clone(), sim_gauges),
        };
        let mut failure = None;
        for mut w in workers {
            let mut report = String::new();
            if let Some(stdout) = w.stdout.take() {
                BufReader::new(stdout).read_to_string(&mut report)?;
            }
            let status = w.wait()?;
            match report.lines().find_map(Gauges::parse_line) {
                Some(g) if status.success() => gauges.absorb(&g),
                _ => {
                    failure = Some(format!(
                        "worker process {} ended with {status} and report {report:?}",
                        w.id()
                    ))
                }
            }
        }
        if let Some(msg) = failure {
            return Err(std::io::Error::other(msg));
        }
        let (counters, trace) = metrics.with(out, |m| (counters_of(m), arrivals_of(m)));
        Ok(Finished {
            trace,
            counters,
            gauges,
        })
    }
}

fn arrivals_of(m: &StreamMetrics) -> Vec<Arrival> {
    let entries = m.trace.as_deref().unwrap_or(&[]);
    entries
        .iter()
        .map(|e| {
            let kind = match e.kind {
                TupleKind::Insertion => Kind::Stable,
                TupleKind::Tentative => Kind::Tentative,
                TupleKind::Undo => Kind::Undo,
                TupleKind::RecDone => Kind::RecDone,
                TupleKind::Boundary => Kind::Boundary,
            };
            Arrival {
                arrival_us: e.arrival.0,
                stime_us: e.stime.0,
                // An UNDO's own id is empty; its payload is the target.
                id: e.undo_target.map_or(e.id.0, |t| t.0),
                kind,
            }
        })
        .collect()
}

/// Entry point of a worker process (`bench tcp-child proc=<i> addrs=…
/// <job args>`): rebuilds the layout, joins the mesh, runs its share of
/// the actors until stdin closes, then prints its `STATS` line.
pub fn run_worker_process<'a>(args: impl Iterator<Item = &'a str> + Clone) -> Result<(), String> {
    let proc: u32 = args
        .clone()
        .find_map(|a| a.strip_prefix("proc=")?.parse().ok())
        .ok_or("missing proc=<i>")?;
    let addrs: Vec<String> = args
        .clone()
        .find_map(|a| a.strip_prefix("addrs="))
        .ok_or("missing addrs=")?
        .split(',')
        .map(str::to_string)
        .collect();
    if addrs.len() != TCP_PROCS as usize || proc == 0 || proc >= TCP_PROCS {
        return Err(format!("process {proc} does not fit address map {addrs:?}"));
    }
    let job = Job::parse_args(args)?;
    let (layout, _) = job.layout();
    let plan = plan_processes(&layout, TCP_PROCS);
    let io = |e: std::io::Error| format!("worker process {proc}: {e}");
    let listener = TcpListener::bind(addrs[proc as usize].as_str()).map_err(io)?;
    let fabric = TcpFabric::establish(proc, listener, &addrs, plan).map_err(io)?;
    let sys = deploy_tcp(layout, fabric);
    // Run until the parent closes our stdin — which also happens if the
    // parent dies, so a worker never outlives its benchmark.
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    // If teardown hangs on a vanished peer, do not linger.
    std::thread::spawn(|| {
        std::thread::sleep(std::time::Duration::from_secs(20));
        std::process::exit(3);
    });
    let stats = sys.shutdown();
    println!("{}", Gauges::from_snapshot(&stats).to_line());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_round_trips_through_argv() {
        let job = Job {
            total_rate: 45_123.5,
            per_source_limit: 330_000,
            seed: 11,
            window: Some(64),
            faults: None,
        };
        let args = job.to_args();
        let parsed = Job::parse_args(args.iter().map(String::as_str)).expect("parses");
        assert_eq!(parsed, job);
        assert_eq!(job.attempted(), 990_000);
        let unbounded = Job {
            window: None,
            ..job.clone()
        };
        let args = unbounded.to_args();
        assert_eq!(
            Job::parse_args(args.iter().map(String::as_str)),
            Ok(unbounded)
        );
        assert!(Job::parse_args(["rate=1", "seed=2"].into_iter()).is_err());
        assert!(Job::parse_args(["rate=x", "limit=1", "seed=2", "window=0"].into_iter()).is_err());
    }

    #[test]
    fn stime_restates_the_source_schedule() {
        let job = Job {
            total_rate: 90_000.0,
            per_source_limit: 10,
            seed: 7,
            window: None,
            faults: None,
        };
        // 30 000 tuples/s per source: one every 33.3 µs, truncated.
        assert_eq!(job.stime_us_of(1), 33);
        assert_eq!(job.stime_us_of(3), 100);
        assert_eq!(job.stime_us_of(30_000), 1_000_000);
    }

    #[test]
    fn gauges_round_trip_through_the_stats_line() {
        let g = Gauges {
            messages_delivered: 1,
            drops: 2,
            activations: 3,
            steals: 4,
            parks: 5,
            local_peak: 6,
            runs_ge_1ms: 7,
            flow_inflight_peak: 8,
            flow_stall_us: 9,
            wire_bytes_sent: 10,
            wire_frames_sent: 11,
            wire_flushes: 12,
            wire_grants_sent: 13,
        };
        assert_eq!(Gauges::parse_line(&g.to_line()), Some(g));
        assert_eq!(Gauges::parse_line("DONE"), None);
        let mut sum = g;
        sum.absorb(&g);
        assert_eq!(sum.activations, 6);
        assert_eq!(sum.local_peak, 6, "peaks take the maximum");
    }
}
