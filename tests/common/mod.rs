//! Fixtures shared by the root integration tests. Every test binary
//! compiles its own copy and none uses all of it.
#![allow(dead_code)]

use borealis::dpc::StreamMetrics;
use borealis::prelude::*;
use borealis::runtime::StatsSnapshot;
use std::net::TcpListener;
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
    FaultSpec::CrashReplica {
        frag,
        shard,
        replica: 0,
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
    /// deployment, for any builder, without forking.
    Tcp,
}

/// Shares of a [`Runtime::Tcp`] run.
pub const TCP_SHARES: u32 = 3;

/// What one run left at its horizon.
#[derive(Debug, Default)]
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
    let wait = |hub: &MetricsHub, out| {
        let end = Instant::now() + std::time::Duration::from_micros(horizon.as_micros());
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
            wait(&hub, out);
            let outcome = read(&hub, out, StatsSnapshot::default());
            let stats = sys.shutdown();
            Outcome { stats, ..outcome }
        }
        Runtime::Tcp => {
            let bind = |_| TcpListener::bind("127.0.0.1:0").expect("loopback port");
            let listeners: Vec<TcpListener> = (0..TCP_SHARES).map(bind).collect();
            let addr = |l: &TcpListener| l.local_addr().expect("bound").to_string();
            let addrs: Vec<String> = listeners.iter().map(addr).collect();
            // Highest share first: a share dials the lower ones, whose
            // listeners hold the connection in their backlog until their
            // own `establish` starts its acceptor and admits it — so one
            // thread can bring the whole mesh up.
            let mut shares = Vec::new();
            for (p, listener) in listeners.into_iter().enumerate().rev() {
                let (builder, hub, out) = traced();
                let layout = builder.layout();
                let plan = plan_processes(&layout, TCP_SHARES);
                let mesh = TcpFabric::establish(p as u32, listener, &addrs, plan);
                shares.push((layout, mesh.expect("loopback mesh"), hub, out));
            }
            let deploy = |(layout, mesh, hub, out)| (deploy_tcp(layout, mesh), hub, out);
            let mut running: Vec<(RunningTcp, MetricsHub, StreamId)> =
                shares.into_iter().map(deploy).collect();
            let (front, hub, out) = running.pop().expect("share 0 deploys last");
            wait(&hub, out);
            let outcome = read(&hub, out, front.stats()); // before teardown
            front.shutdown();
            for (share, ..) in running {
                share.shutdown();
            }
            outcome
        }
    }
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
