//! Multi-process launcher for the sharded chain workload over the socket
//! transport ([`borealis_runtime::tcp`]).
//!
//! One parent process (process 0: sources + client, where the metrics
//! live) forks `procs - 1` worker processes hosting the fragment
//! replicas. Every process builds the **identical** [`TcpChainSpec`]
//! layout — the spec serializes to `key=value` argv tokens — so the
//! process plan, the id space, and the scripted fault script agree
//! everywhere without further coordination.
//!
//! Addressing is explicit: the spec carries the full `host:port` map
//! ([`TcpChainSpec::addrs`], one entry per process). The parent fills it
//! in up front when the caller leaves it empty — it binds ephemeral
//! loopback listeners to allocate the ports, keeps its own, and hands the
//! map to every child as an `addrs=` argv token — so each child binds its
//! *own* entry and calls [`TcpFabric::establish`] directly, with no stdio
//! handshake. An explicit map is also what a respawned worker needs to
//! re-dial the survivors ([`TcpChainSpec::restart`]), and the first step
//! toward placing processes on different machines.

use crate::setups::{sharded_chain_builder, ShardedChainOptions};
use borealis_dpc::{FaultSpec, MetricsHub, SystemBuilder, TraceEntry};
use borealis_runtime::{deploy_tcp, plan_processes, TcpFabric};
use borealis_types::{Duration, StreamId, Time, WireGauges};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};

/// The sharded-chain deployment every process of a multi-process run
/// rebuilds from argv — one spec, one layout, `procs` processes.
#[derive(Debug, Clone, PartialEq)]
pub struct TcpChainSpec {
    /// Shard fan-out of the work stage.
    pub shards: u32,
    /// Input rate per source (tuples/second); three sources.
    pub per_source_rate: f64,
    /// Wall-clock run length in milliseconds.
    pub wall_ms: u64,
    /// Script the mid-run crash of work-stage shard 1's replica 0 at
    /// t=1.5 s (the reference failover scenario).
    pub crash: bool,
    /// Total process count (process 0 = sources + client).
    pub procs: u32,
    /// Worker-pool threads per process.
    pub workers: usize,
    /// Determinism seed.
    pub seed: u64,
    /// Stop each source after this many tuples (`None` = unbounded).
    pub source_limit: Option<u64>,
    /// Explicit `host:port` listen address per process. Empty = the
    /// parent allocates loopback ports up front and passes the full map
    /// to every child via the `addrs=` argv token.
    pub addrs: Vec<String>,
    /// Root directory for per-node durable stores (`None` = no
    /// durability): checkpoints + input logs land under
    /// `<dir>/node-<id>/`, and a killed-then-respawned worker recovers
    /// its fragment state from there.
    pub durable_dir: Option<String>,
    /// Kill worker process `p` at `t = ms` into the run and respawn it
    /// (`rejoin=true`): the respawned process re-dials the mesh and its
    /// nodes restart from their durable stores.
    pub restart: Option<(u32, u64)>,
    /// Keep-alive period in milliseconds (stale timeout follows at 2.5×).
    /// Wall-clock equivalence tests stretch it so a scheduling hiccup on
    /// a starved host cannot trip spurious staleness.
    pub heartbeat_ms: u64,
}

impl Default for TcpChainSpec {
    fn default() -> Self {
        TcpChainSpec {
            shards: 2,
            per_source_rate: 100.0,
            wall_ms: 4000,
            crash: false,
            procs: 3,
            workers: 2,
            seed: 7,
            source_limit: None,
            addrs: Vec::new(),
            durable_dir: None,
            restart: None,
            heartbeat_ms: 100,
        }
    }
}

impl TcpChainSpec {
    /// The deployment description, identical in every process (a caller
    /// may still add to it before resolving the layout).
    pub fn builder(&self) -> (SystemBuilder, StreamId) {
        let o = ShardedChainOptions {
            shards: self.shards,
            replication: 2,
            total_rate: self.per_source_rate * 3.0,
            per_node_delay: Duration::from_millis(500),
            light_cost: Duration::from_micros(2),
            work_cost: Duration::from_micros(40),
            source_limit: self.source_limit,
            heartbeat_period: Duration::from_millis(self.heartbeat_ms),
            seed: self.seed,
            ..Default::default()
        };
        let (mut builder, out) = sharded_chain_builder(&o);
        builder = builder.workers(self.workers);
        if let Some(dir) = &self.durable_dir {
            // Background flusher: each node appends its checkpoint records
            // itself, and their fsync and the log's pruning run on this
            // process's one flusher thread, shared by the nodes it hosts.
            builder = builder.durability(dir, Duration::from_millis(250), true);
        }
        if self.crash {
            builder = builder.fault(FaultSpec::CrashReplica {
                frag: 1,
                shard: 1,
                replica: 0,
                from: Time::from_millis(1500),
                to: None,
            });
        }
        (builder, out)
    }

    /// Serializes the spec as `key=value` argv tokens for the child
    /// processes.
    pub fn to_args(&self) -> Vec<String> {
        let mut args = vec![
            format!("shards={}", self.shards),
            format!("rate={}", self.per_source_rate),
            format!("wall_ms={}", self.wall_ms),
            format!("crash={}", self.crash),
            format!("procs={}", self.procs),
            format!("workers={}", self.workers),
            format!("seed={}", self.seed),
            format!("limit={}", self.source_limit.unwrap_or(0)),
            format!("hb={}", self.heartbeat_ms),
        ];
        if !self.addrs.is_empty() {
            args.push(format!("addrs={}", self.addrs.join(",")));
        }
        if let Some(dir) = &self.durable_dir {
            args.push(format!("durable={dir}"));
        }
        if let Some((p, ms)) = self.restart {
            args.push(format!("restart={p}@{ms}"));
        }
        args
    }

    /// Parses `key=value` tokens produced by [`TcpChainSpec::to_args`]
    /// (unknown keys are ignored, so launchers can carry extra tokens).
    pub fn parse_args<'a>(args: impl Iterator<Item = &'a str>) -> TcpChainSpec {
        let mut spec = TcpChainSpec::default();
        for arg in args {
            let Some((key, val)) = arg.split_once('=') else {
                continue;
            };
            match key {
                "shards" => spec.shards = val.parse().unwrap_or(spec.shards),
                "rate" => spec.per_source_rate = val.parse().unwrap_or(spec.per_source_rate),
                "wall_ms" => spec.wall_ms = val.parse().unwrap_or(spec.wall_ms),
                "crash" => spec.crash = val == "true",
                "procs" => spec.procs = val.parse().unwrap_or(spec.procs),
                "workers" => spec.workers = val.parse().unwrap_or(spec.workers),
                "seed" => spec.seed = val.parse().unwrap_or(spec.seed),
                "limit" => {
                    spec.source_limit = match val.parse::<u64>() {
                        Ok(0) | Err(_) => None,
                        Ok(n) => Some(n),
                    }
                }
                "addrs" => {
                    spec.addrs = val
                        .split(',')
                        .filter(|a| !a.is_empty())
                        .map(str::to_string)
                        .collect();
                }
                "durable" => {
                    spec.durable_dir = (!val.is_empty()).then(|| val.to_string());
                }
                "hb" => spec.heartbeat_ms = val.parse().unwrap_or(spec.heartbeat_ms),
                "restart" => {
                    spec.restart = val.split_once('@').and_then(|(p, ms)| {
                        Some((p.parse::<u32>().ok()?, ms.parse::<u64>().ok()?))
                    });
                }
                _ => {}
            }
        }
        spec
    }
}

/// What process 0 observed: the client's metrics, the loss accounting,
/// and the wire gauges of its own connections.
#[derive(Debug)]
pub struct TcpReport {
    /// Duplicate stable tuples (must be zero).
    pub dup: u64,
    /// Total messages lost to faults, summed across **all** processes
    /// (process 0's stats plus each child's reported `STATS` line).
    pub drops: u64,
    /// Wire gauges of process 0's connections.
    pub wire: WireGauges,
    /// The client arrival trace, if requested.
    pub trace: Option<Vec<TraceEntry>>,
    /// Contents of every `last_recovery.marker` found under the durable
    /// root after the run — one entry per node that restarted from disk.
    pub recoveries: Vec<String>,
}

fn invalid(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// Reads every node store's `last_recovery.marker` under `root` (a
/// durability root: one store directory per node), sorted.
pub fn read_recovery_markers(root: &Path) -> Vec<String> {
    let mut found = Vec::new();
    let Ok(entries) = std::fs::read_dir(root) else {
        return found;
    };
    for e in entries.flatten() {
        let marker = e.path().join("last_recovery.marker");
        if let Ok(s) = std::fs::read_to_string(&marker) {
            found.push(s.trim().to_string());
        }
    }
    found.sort();
    found
}

/// Runs the multi-process deployment as process 0: allocates the address
/// map (unless the spec carries one), forks `procs - 1` children
/// (`worker_exe proc=<i> key=value...`) with the full map on their argv,
/// establishes the mesh, hosts the sources and the client for
/// `spec.wall_ms`, and reaps the children. With [`TcpChainSpec::restart`]
/// set, the named worker is killed hard mid-run and respawned with
/// `rejoin=true` — it re-dials the survivors and (with
/// [`TcpChainSpec::durable_dir`]) restarts its nodes from disk.
pub fn run_tcp_parent(spec: &TcpChainSpec, worker_exe: &str) -> std::io::Result<TcpReport> {
    let mut spec = spec.clone();
    let (builder, out) = spec.builder();
    // The client lives here, in process 0: keep its arrival trace.
    let metrics = MetricsHub::new();
    metrics.enable_trace(out);
    let layout = builder.metrics(metrics).layout();
    let plan = plan_processes(&layout, spec.procs);
    // Explicit address map: bind an ephemeral loopback listener per
    // process to allocate the ports, keep our own, free the children's
    // (each child rebinds its own entry; `SO_REUSEADDR` — set by the
    // standard library on Unix — also lets a respawned worker rebind).
    let listener = if spec.addrs.is_empty() {
        let mut listeners = Vec::new();
        for _ in 0..spec.procs {
            let l = TcpListener::bind("127.0.0.1:0")?;
            spec.addrs.push(l.local_addr()?.to_string());
            listeners.push(l);
        }
        listeners.into_iter().next().expect("procs >= 1")
    } else {
        if spec.addrs.len() != spec.procs as usize {
            return Err(invalid(format!(
                "address map must cover all {} processes: {:?}",
                spec.procs, spec.addrs
            )));
        }
        TcpListener::bind(spec.addrs[0].as_str())?
    };

    let spawn =
        |p: u32, wall_ms: u64, rejoin: bool| -> std::io::Result<(BufReader<ChildStdout>, Child)> {
            let mut s = spec.clone();
            s.wall_ms = wall_ms;
            let mut cmd = Command::new(worker_exe);
            cmd.arg(format!("proc={p}"));
            if rejoin {
                cmd.arg("rejoin=true");
            }
            cmd.args(s.to_args())
                .stdin(Stdio::null())
                .stdout(Stdio::piped());
            let mut c = cmd.spawn()?;
            let reader = BufReader::new(c.stdout.take().expect("child stdout piped"));
            Ok((reader, c))
        };
    let mut children: Vec<Option<(BufReader<ChildStdout>, Child)>> = Vec::new();
    for p in 1..spec.procs {
        children.push(Some(spawn(p, spec.wall_ms, false)?));
    }

    let fabric = TcpFabric::establish(0, listener, &spec.addrs, plan)?;
    let sys = deploy_tcp(layout, fabric);
    match spec.restart {
        Some((victim, at_ms)) if victim >= 1 && victim < spec.procs => {
            let at_ms = at_ms.min(spec.wall_ms);
            sys.run_for(std::time::Duration::from_millis(at_ms));
            // Kill the worker hard (no Goodbye — survivors see a crash),
            // then respawn it as a rejoiner for the remaining wall time.
            if let Some((_, mut c)) = children[victim as usize - 1].take() {
                let _ = c.kill();
                let _ = c.wait();
            }
            children[victim as usize - 1] = Some(spawn(victim, spec.wall_ms - at_ms, true)?);
            sys.run_for(std::time::Duration::from_millis(spec.wall_ms - at_ms));
        }
        _ => sys.run_for(std::time::Duration::from_millis(spec.wall_ms)),
    }
    let (dup, trace) = sys.metrics.with(out, |m| (m.dup_stable, m.trace.clone()));
    // Wire gauges before teardown, while the connections still count as
    // alive (the post-shutdown snapshot would report `conns == 0`).
    let wire = sys.wire_gauges();
    let stats = sys.shutdown();

    let mut drops = stats.total_drops();
    for (i, entry) in children.into_iter().enumerate() {
        let Some((mut reader, mut c)) = entry else {
            continue;
        };
        let mut line = String::new();
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 || line.trim() == "DONE" {
                break;
            }
            // Fold each child's loss accounting into the cluster total.
            if line.starts_with("STATS ") {
                drops += line
                    .split_whitespace()
                    .find_map(|tok| tok.strip_prefix("drops="))
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or(0);
            }
        }
        let status = c.wait()?;
        if !status.success() {
            return Err(invalid(format!("child {} exited with {status}", i + 1)));
        }
    }

    let recoveries = spec
        .durable_dir
        .as_deref()
        .map(Path::new)
        .map(read_recovery_markers)
        .unwrap_or_default();
    Ok(TcpReport {
        dup,
        drops,
        wire,
        trace,
        recoveries,
    })
}

/// Runs one worker process: binds its own entry of the explicit address
/// map, establishes the mesh (dial-lower/accept-higher for an initial
/// start, full re-dial for a `rejoin`), runs its share of the layout, and
/// prints a `STATS` line plus `DONE`.
pub fn run_tcp_child(my_proc: u32, spec: &TcpChainSpec, rejoin: bool) -> std::io::Result<()> {
    if spec.addrs.len() != spec.procs as usize {
        return Err(invalid(format!(
            "worker needs the full address map (addrs=h:p,...), got {:?}",
            spec.addrs
        )));
    }
    let layout = spec.builder().0.layout();
    let plan = plan_processes(&layout, spec.procs);
    let listener = TcpListener::bind(spec.addrs[my_proc as usize].as_str())?;
    let fabric = if rejoin {
        TcpFabric::establish_rejoin(my_proc, listener, &spec.addrs, plan)?
    } else {
        TcpFabric::establish(my_proc, listener, &spec.addrs, plan)?
    };
    let sys = deploy_tcp(layout, fabric);
    sys.run_for(std::time::Duration::from_millis(spec.wall_ms));
    let stats = sys.shutdown();
    println!(
        "STATS delivered={} drops={} frames_sent={} frames_recv={} flushes={} grants_sent={}",
        stats.messages_delivered,
        stats.total_drops(),
        stats.wire.frames_sent,
        stats.wire.frames_recv,
        stats.wire.flushes,
        stats.wire.grants_sent,
    );
    println!("DONE");
    std::io::stdout().flush()?;
    Ok(())
}

/// Entry point of the `tcp_node` binary: parses `proc=<i>` (plus the optional
/// `rejoin=true` respawn flag) and the spec tokens from `args`, then runs
/// the worker process.
pub fn run_tcp_child_args<'a>(args: impl Iterator<Item = &'a str> + Clone) -> std::io::Result<()> {
    let my_proc = args
        .clone()
        .find_map(|a| a.strip_prefix("proc=").and_then(|v| v.parse::<u32>().ok()))
        .ok_or_else(|| invalid("missing proc=<i> argument".into()))?;
    let rejoin = args.clone().any(|a| a == "rejoin=true");
    let spec = TcpChainSpec::parse_args(args);
    run_tcp_child(my_proc, &spec, rejoin)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_through_argv() {
        let spec = TcpChainSpec {
            shards: 4,
            per_source_rate: 2500.0,
            wall_ms: 8000,
            crash: true,
            procs: 4,
            workers: 3,
            seed: 99,
            source_limit: Some(1000),
            addrs: vec!["127.0.0.1:4001".into(), "10.0.0.2:4002".into()],
            durable_dir: Some("/tmp/borealis-durable".into()),
            restart: Some((2, 1500)),
            heartbeat_ms: 250,
        };
        let args = spec.to_args();
        let parsed = TcpChainSpec::parse_args(args.iter().map(|s| s.as_str()));
        assert_eq!(parsed, spec);
        // Defaults survive empty/foreign tokens.
        let d = TcpChainSpec::parse_args(["proc=2", "noise"].into_iter());
        assert_eq!(d, TcpChainSpec::default());
    }

    #[test]
    fn layout_is_identical_across_rebuilds() {
        // Parent and children must derive the same id space and plan.
        let spec = TcpChainSpec::default();
        let ((a, out_a), (b, out_b)) = (spec.builder(), spec.builder());
        let (a, b) = (a.layout(), b.layout());
        assert_eq!(out_a, out_b);
        assert_eq!(a.actors.len(), b.actors.len());
        assert_eq!(a.source_ids, b.source_ids);
        assert_eq!(a.fragment_replicas, b.fragment_replicas);
        assert_eq!(a.client, b.client);
        assert_eq!(
            plan_processes(&a, spec.procs),
            plan_processes(&b, spec.procs)
        );
    }
}
