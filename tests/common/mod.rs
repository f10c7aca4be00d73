//! Fixtures shared by the root integration tests. Every test binary
//! compiles its own copy and none uses all of it.
#![allow(dead_code)]

use borealis::dpc::StreamMetrics;
use borealis::prelude::*;
use borealis::runtime::StatsSnapshot;
use std::net::TcpListener;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The deployment most fault tests script against: three sequence sources
/// of `rate` tuples/s each → union → client, the one fragment replicated
/// `replication` times under a 2 s delay budget. Returns the description —
/// add the test's [`FaultSpec`]s, then `build()` — and the output stream;
/// `trace` turns the client's arrival trace on.
pub fn merge3(seed: u64, replication: usize, rate: f64, trace: bool) -> (SystemBuilder, StreamId) {
    let mut q = QueryBuilder::new();
    let s1 = q.source("s1");
    let s2 = q.source("s2");
    let s3 = q.source("s3");
    let u = q.union("merged", &[s1, s2, s3]);
    q.output(u);
    let d = q.build().unwrap();
    let cfg = DpcConfig {
        total_delay: Duration::from_secs(2),
        ..DpcConfig::default()
    };
    let p = plan_deployment(&d, &DeploymentSpec::single(replication), &cfg).unwrap();
    let hub = MetricsHub::new();
    if trace {
        hub.enable_trace(u.id());
    }
    let mut builder = SystemBuilder::new(seed, Duration::from_millis(1))
        .plan(p)
        .client_streams(vec![u.id()])
        .metrics(hub);
    for s in [s1, s2, s3] {
        builder = builder.source(SourceConfig::seq(s.id(), rate));
    }
    (builder, u.id())
}

/// A source of `[key, seq]` tuples over `keys` keys at `rate` tuples/s,
/// with 100 ms boundaries.
fn keyed(stream: StreamHandle, rate: f64, keys: i64) -> SourceConfig {
    SourceConfig {
        values: ValueGen::Keyed { keys },
        ..SourceConfig::seq(stream.id(), rate)
    }
}

/// Network monitoring (§1): three monitors' flow records `[prefix, seq]`
/// (streams 0–2, 200 tuples/s over 16 prefixes each); per-monitor filters
/// keep the suspicious fifth (`seq % 1000 > 800`: one second in five) and
/// a union merges them on an edge fragment, and a second fragment counts
/// suspicious flows per prefix every second. Two replicas each, a 4 s delay budget; returns the
/// alert-count stream.
pub fn network_monitoring(seed: u64) -> (SystemBuilder, StreamId) {
    let mut q = QueryBuilder::new();
    let (a, b, c) = (
        q.source("monitor-A"),
        q.source("monitor-B"),
        q.source("monitor-C"),
    );
    let suspicious = Expr::gt(
        Expr::modulo(Expr::field(1), Expr::int(1000)),
        Expr::int(800),
    );
    let sa = q.filter("suspicious-A", a, suspicious.clone());
    let sb = q.filter("suspicious-B", b, suspicious.clone());
    let sc = q.filter("suspicious-C", c, suspicious);
    let all = q.union("suspicious-all", &[sa, sb, sc]);
    let alerts = q.aggregate(
        "alert-counts",
        all,
        AggregateSpec {
            window: Duration::from_secs(1),
            slide: Duration::from_secs(1),
            group_by: vec![Expr::field(0)],
            aggs: vec![AggFn::count(), AggFn::max(Expr::field(1))],
        },
    );
    q.output(alerts);
    let d = q.build().unwrap();
    let edge = [
        "suspicious-A",
        "suspicious-B",
        "suspicious-C",
        "suspicious-all",
    ];
    let spec = DeploymentSpec::new()
        .fragment(FragmentSpec::named("edge").ops(edge))
        .fragment(FragmentSpec::named("analytics").op("alert-counts"));
    let cfg = DpcConfig {
        total_delay: Duration::from_secs(4),
        ..DpcConfig::default()
    };
    let mut builder = SystemBuilder::new(seed, Duration::from_millis(1))
        .plan(plan_deployment(&d, &spec, &cfg).unwrap())
        .client_streams(vec![alerts.id()]);
    for m in [a, b, c] {
        builder = builder.source(keyed(m, 200.0, 16));
    }
    (builder, alerts.id())
}

/// A financial feed (§1): two exchange gateways' trades `[instrument,
/// seq]` (streams 0 and 1, 400 tuples/s over 12 instruments each, 50 ms
/// boundaries) merged by a union; a per-instrument 2 s window sliding every
/// 500 ms counts and averages them, and a filter keeps the instruments
/// with more than 30 trades in a window. One fragment, two replicas, a
/// 1.5 s delay budget; returns the burst stream.
pub fn financial_feed(seed: u64) -> (SystemBuilder, StreamId) {
    let mut q = QueryBuilder::new();
    let gateways = [q.source("gateway-1"), q.source("gateway-2")];
    let trades = q.union("trades", &gateways);
    let analytics = q.aggregate(
        "per-instrument",
        trades,
        AggregateSpec {
            window: Duration::from_secs(2),
            slide: Duration::from_millis(500),
            group_by: vec![Expr::field(0)],
            aggs: vec![AggFn::count(), AggFn::avg(Expr::field(1))],
        },
    );
    // [instrument, count, avg]
    let bursts = q.filter("bursts", analytics, Expr::gt(Expr::field(1), Expr::int(30)));
    q.output(bursts);
    let d = q.build().unwrap();
    let cfg = DpcConfig {
        total_delay: Duration::from_secs_f64(1.5),
        ..DpcConfig::default()
    };
    let mut builder = SystemBuilder::new(seed, Duration::from_millis(1))
        .plan(plan_deployment(&d, &DeploymentSpec::single(2), &cfg).unwrap())
        .client_streams(vec![bursts.id()]);
    for g in gateways {
        builder = builder.source(SourceConfig {
            boundary_interval: Duration::from_millis(50),
            ..keyed(g, 400.0, 12)
        });
    }
    (builder, bursts.id())
}

/// Sensor-based pipeline monitoring (§1): temperature and pressure
/// readings `[segment, seq]` (streams 0 and 1, 150 tuples/s over 8
/// segments each). A blocking path joins them per segment within 200 ms
/// and alerts when both readings sit in the top quarter of their band
/// (`seq % 100 > 75`); a non-blocking path counts the union of both feeds
/// every second. One fragment, two replicas, a 5 s delay budget; returns
/// the alert stream and the liveness stream, both delivered to the client.
pub fn sensor_pipeline(seed: u64) -> (SystemBuilder, StreamId, StreamId) {
    let mut q = QueryBuilder::new();
    let (temperature, pressure) = (q.source("temperature"), q.source("pressure"));
    let joined = q.join(
        "temp-pressure",
        temperature,
        pressure,
        JoinSpec {
            window: Duration::from_millis(200),
            left_key: Expr::field(0),
            right_key: Expr::field(0),
            max_state: Some(500),
        },
    );
    // [segment, temperature, segment, pressure]
    let high = |f| Expr::gt(Expr::modulo(Expr::field(f), Expr::int(100)), Expr::int(75));
    let alerts = q.filter("anomalies", joined, Expr::and(high(1), high(3)));
    q.output(alerts);
    let both = q.union("all-readings", &[temperature, pressure]);
    let liveness = q.aggregate(
        "liveness",
        both,
        AggregateSpec {
            window: Duration::from_secs(1),
            slide: Duration::from_secs(1),
            group_by: vec![],
            aggs: vec![AggFn::count()],
        },
    );
    q.output(liveness);
    let d = q.build().unwrap();
    let cfg = DpcConfig {
        total_delay: Duration::from_secs(5),
        ..DpcConfig::default()
    };
    let (alerts, liveness) = (alerts.id(), liveness.id());
    let builder = SystemBuilder::new(seed, Duration::from_millis(1))
        .plan(plan_deployment(&d, &DeploymentSpec::single(2), &cfg).unwrap())
        .client_streams(vec![alerts, liveness])
        .source(keyed(temperature, 150.0, 8))
        .source(keyed(pressure, 150.0, 8));
    (builder, alerts, liveness)
}

/// Shorthand for the instants of a fault schedule.
pub fn secs(s: u64) -> Time {
    Time::from_secs(s)
}

/// As [`secs`], in milliseconds.
pub fn ms(n: u64) -> Time {
    Time::from_millis(n)
}

/// Replica 0 of shard `shard` of fragment `frag` dies at `at`, for good.
pub fn crash(frag: usize, shard: usize, at: Time) -> FaultSpec {
    FaultSpec::Crash {
        domain: CrashDomain::Replica {
            frag,
            shard,
            replica: 0,
        },
        from: at,
        to: None,
    }
}

/// `stream`'s source unreachable from every replica of the (single)
/// fragment between `from` and `to`.
pub fn disconnect(stream: u32, from: Time, to: Time) -> FaultSpec {
    FaultSpec::DisconnectSource {
        stream: StreamId(stream),
        frag: 0,
        from,
        to,
    }
}

/// The drivers one deployment description runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Runtime {
    /// The deterministic simulator, in virtual time.
    Sim,
    /// One worker pool in this process, on the wall clock.
    Threads,
    /// [`TCP_SHARES`] worker pools in this process, each running its share
    /// of the layout (`plan_processes`; share 0 keeps sources and client)
    /// and reaching the others over loopback sockets: the wire codec, the
    /// credit grants, the readers and the senders' flushes of a multi-process
    /// deployment, for any builder, in this process. A scripted crash of a
    /// share (`CrashDomain::Share` over [`TCP_SHARES`]) is carried out as a
    /// process kill, and kept out of every share's script: the share's
    /// connections tear without a `Goodbye` (`TcpFabric::crash`) and its
    /// engine stops; at the restart a fresh share of the same scenario
    /// rejoins the mesh (`TcpFabric::establish_rejoin`), its nodes
    /// restarting from their durable stores, if any.
    Tcp,
}

/// Shares of a [`Runtime::Tcp`] run.
pub const TCP_SHARES: u32 = 3;

/// What one run left at its horizon.
#[derive(Debug)]
pub struct Outcome {
    /// The output stream the client watched.
    pub stream: StreamId,
    /// The stream the client retains after applying UNDOs, as
    /// `(id, stime µs, kind)`.
    pub final_stream: Vec<(u64, u64, TupleKind)>,
    /// Stable arrivals at the client.
    pub n_stable: u64,
    /// Tentative arrivals at the client.
    pub n_tentative: u64,
    /// Stable tuples delivered twice (the invariant: 0).
    pub dup_stable: u64,
    /// Longest silence between two tuples carrying new data.
    pub max_gap: Duration,
    /// Loss, flow, scheduler and wire statistics — under [`Runtime::Tcp`]
    /// share 0's, read before the mesh is torn down.
    pub stats: StatsSnapshot,
    /// The actors share 0's link fabric holds down at the horizon (socket
    /// runs only).
    pub down: Vec<NodeId>,
}

impl Outcome {
    /// The stable tuples of [`Outcome::final_stream`], as `(id, stime µs)`.
    pub fn stable(&self) -> Vec<(u64, u64)> {
        let stable = self.final_stream.iter();
        let stable = stable.filter(|&&(_, _, kind)| kind == TupleKind::Insertion);
        stable.map(|&(id, stime, _)| (id, stime)).collect()
    }

    /// Tentative tuples left standing: never undone, never corrected.
    pub fn tentative_left(&self) -> usize {
        self.final_stream.len() - self.stable().len()
    }
}

/// Deploys `scenario` on `runtime`, lets it run to `horizon` (virtual time
/// under the simulator, wall clock otherwise) and reads the client's view
/// of the output stream. `scenario` describes the deployment — options and
/// `FaultSpec`s included — and is called once per deployment, and once per
/// share under [`Runtime::Tcp`]; the arrival trace is switched on here.
pub fn run_on(
    runtime: Runtime,
    scenario: &dyn Fn() -> (SystemBuilder, StreamId),
    horizon: Time,
) -> Outcome {
    run_while(runtime, scenario, horizon, |_| true)
}

/// [`run_on`], except that a wall-clock run ends as soon as `more` says no
/// (asked every 20 ms); the simulator always runs to `horizon`.
pub fn run_while(
    runtime: Runtime,
    scenario: &dyn Fn() -> (SystemBuilder, StreamId),
    horizon: Time,
    more: impl Fn(&StreamMetrics) -> bool,
) -> Outcome {
    let traced = || {
        let (builder, out) = scenario();
        let hub = MetricsHub::new();
        hub.enable_trace(out);
        (builder.metrics(hub.clone()), hub, out)
    };
    let wait = |hub: &MetricsHub, out, start: Instant, until: Time| {
        let end = start + std::time::Duration::from_micros(until.as_micros());
        while Instant::now() < end && hub.with(out, &more) {
            let left = end.saturating_duration_since(Instant::now());
            std::thread::sleep(left.min(std::time::Duration::from_millis(20)));
        }
    };
    let read = |hub: &MetricsHub, out, stats| {
        hub.with(out, |m| Outcome {
            stream: out,
            final_stream: final_stream(m.trace.as_ref().expect("trace enabled")),
            n_stable: m.n_stable,
            n_tentative: m.n_tentative,
            dup_stable: m.dup_stable,
            max_gap: m.max_gap,
            stats,
            down: Vec::new(),
        })
    };
    match runtime {
        Runtime::Sim => {
            let (builder, hub, out) = traced();
            let mut sys = builder.build();
            sys.run_until(horizon);
            read(&hub, out, sys.sim.stats())
        }
        Runtime::Threads => {
            let (builder, hub, out) = traced();
            let sys = deploy_threads(builder.layout());
            wait(&hub, out, Instant::now(), horizon);
            let outcome = read(&hub, out, StatsSnapshot::default());
            let stats = sys.shutdown();
            Outcome { stats, ..outcome }
        }
        Runtime::Tcp => {
            let bind = || TcpListener::bind("127.0.0.1:0").expect("loopback port");
            let listeners: Vec<TcpListener> = (0..TCP_SHARES).map(|_| bind()).collect();
            let addr = |l: &TcpListener| l.local_addr().expect("bound").to_string();
            let mut addrs: Vec<String> = listeners.iter().map(addr).collect();
            let layout = scenario().0.layout();
            let plan = plan_processes(&layout, TCP_SHARES);
            let (actors, mut kills) = (layout.actors.len(), layout.script);
            kills.retain(|(_, f)| f.process().is_some());
            type Join =
                fn(u32, TcpListener, &[String], Vec<u32>) -> std::io::Result<Arc<TcpFabric>>;
            // Share `p` of the scenario, admitted to the mesh by `join`.
            let share = |p: u32, listener, addrs: &[String], join: Join| {
                let (builder, hub, out) = traced();
                let mut layout = builder.layout();
                layout.script.retain(|(_, f)| f.process().is_none());
                let mesh = join(p, listener, addrs, plan.clone()).expect("loopback mesh");
                (layout, mesh, hub, out)
            };
            // Highest share first: a share dials the lower ones, whose
            // listeners hold the connection in their backlog until their
            // own `establish` starts its acceptor and admits it — so one
            // thread can bring the whole mesh up.
            let mut shares = Vec::new();
            for (p, listener) in listeners.into_iter().enumerate().rev() {
                shares.push(share(p as u32, listener, &addrs, TcpFabric::establish));
            }
            let deploy = |(layout, mesh, hub, out)| Some((deploy_tcp(layout, mesh), hub, out));
            let mut running: Vec<Option<(RunningTcp, MetricsHub, StreamId)>> =
                shares.into_iter().map(deploy).collect(); // share 0 deploys last
            running.reverse();
            let (_, hub, out) = running[0].as_ref().expect("share 0 runs");
            let (hub, out) = (hub.clone(), *out);
            let start = Instant::now();
            for (at, kill) in kills {
                let (nodes, up) = kill.process().expect("a process fault");
                let p = plan[nodes[0].index()];
                wait(&hub, out, start, at);
                if up {
                    let listener = bind();
                    addrs[p as usize] = addr(&listener);
                    let fresh = share(p, listener, &addrs, TcpFabric::establish_rejoin);
                    running[p as usize] = deploy(fresh);
                } else {
                    let (victim, ..) = running[p as usize].take().expect("share up");
                    victim.fabric.crash();
                    victim.shutdown();
                }
            }
            wait(&hub, out, start, horizon);
            let front = &running[0].as_ref().expect("share 0 never crashes").0;
            let fabric = front.runtime.fabric();
            let ids = (0..actors as u32).map(NodeId);
            let down = ids.filter(|&id| !fabric.node_up(id)).collect();
            drop(fabric);
            let outcome = read(&hub, out, front.stats()); // before teardown
            for (share, ..) in running.into_iter().flatten() {
                share.shutdown();
            }
            Outcome { down, ..outcome }
        }
    }
}

/// Reads every node store's `last_recovery.marker` under `root` (a
/// durability root: one store directory per node), sorted — one entry per
/// node that restarted from disk.
pub fn read_recovery_markers(root: &Path) -> Vec<String> {
    let mut found = Vec::new();
    for e in std::fs::read_dir(root).into_iter().flatten().flatten() {
        if let Ok(s) = std::fs::read_to_string(e.path().join("last_recovery.marker")) {
            found.push(s.trim().to_string());
        }
    }
    found.sort();
    found
}

/// Neither run delivered a stable tuple twice, and `other` watched the
/// stream `reference` did and retains the same stable tuples, in order,
/// over their common prefix — the shorter run is a prefix of the longer —
/// which holds at least `min_common` tuples.
#[track_caller]
pub fn assert_same_stable_prefix(reference: &Outcome, other: &Outcome, min_common: usize) {
    assert_eq!(reference.dup_stable, 0, "reference run: duplicate stable");
    assert_eq!(other.dup_stable, 0, "other run: duplicate stable tuples");
    assert_eq!(reference.stream, other.stream, "same diagram, same output");
    let (a, b) = (reference.stable(), other.stable());
    let common = a.len().min(b.len());
    assert!(
        common >= min_common,
        "both runs must deliver a substantial stable stream: reference={} other={}",
        a.len(),
        b.len()
    );
    assert_eq!(a[..common], b[..common], "stable streams diverge");
}
