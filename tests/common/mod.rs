//! Fixtures shared by the root integration tests. Every test binary
//! compiles its own copy and none uses all of it.
#![allow(dead_code)]

use borealis::prelude::*;

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

/// The stable tuples, as `(id, stime µs)`, of the stream a client retains
/// after applying UNDOs to its arrival trace.
pub fn stable_stream(trace: &[TraceEntry]) -> Vec<(u64, u64)> {
    let retained = final_stream(trace).into_iter();
    let stable = retained.filter(|&(_, _, kind)| kind == TupleKind::Insertion);
    stable.map(|(id, stime, _)| (id, stime)).collect()
}
