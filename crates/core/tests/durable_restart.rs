//! Durable restart under the deterministic simulator: a replica killed and
//! respawned mid-run recovers from its on-disk store (latest checkpoint +
//! bounded input-log replay) and the system's stable output stays exactly
//! the stream a failure-free run delivers — no duplicates, no gaps.

use borealis_diagram::{plan_deployment, DeploymentSpec, DpcConfig, QueryBuilder};
use borealis_dpc::{final_stream, FaultSpec, MetricsHub, SourceConfig, SystemBuilder, TraceEntry};
use borealis_types::{Duration, StreamId, Time, TupleKind};
use std::path::{Path, PathBuf};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "borealis-durable-restart-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The stable tuples of the stream a durable consumer retains.
fn stable_stream(trace: &[TraceEntry]) -> Vec<(u64, u64)> {
    let stable = |&(_, _, kind): &(u64, u64, TupleKind)| kind == TupleKind::Insertion;
    let retained = final_stream(trace).into_iter().filter(stable);
    retained.map(|(id, stime, _)| (id, stime)).collect()
}

/// Two sources → union fragment (replication 2) → client.
fn merge_system(durable_root: Option<&Path>, faults: Vec<FaultSpec>) -> (SystemBuilder, StreamId) {
    let mut q = QueryBuilder::new();
    let s1 = q.source("s1");
    let s2 = q.source("s2");
    let u = q.union("merged", &[s1, s2]);
    q.output(u);
    let d = q.build().unwrap();
    let cfg = DpcConfig {
        total_delay: Duration::from_secs(2),
        ..DpcConfig::default()
    };
    let p = plan_deployment(&d, &DeploymentSpec::single(2), &cfg).unwrap();
    let mut builder = SystemBuilder::new(11, Duration::from_millis(1))
        .source(SourceConfig::seq(s1.id(), 100.0))
        .source(SourceConfig::seq(s2.id(), 100.0))
        .plan(p)
        .client_streams(vec![u.id()])
        .faults(faults);
    if let Some(root) = durable_root {
        builder = builder.durability(root, Duration::from_millis(250), false);
    }
    (builder, u.id())
}

/// Reads every node store's `last_recovery` marker under `root`.
fn recovery_markers(root: &Path) -> Vec<String> {
    let mut found = Vec::new();
    let Ok(entries) = std::fs::read_dir(root) else {
        return found;
    };
    for e in entries.flatten() {
        let marker = e.path().join("last_recovery.marker");
        if let Ok(s) = std::fs::read_to_string(&marker) {
            found.push(s);
        }
    }
    found
}

/// Kill-and-respawn with durability: the restarted replica loads its
/// latest snapshot, replays the log suffix, rejoins — and the delivered
/// stable stream equals the failure-free run's, tuple for tuple.
#[test]
fn restarted_replica_recovers_from_disk_with_identical_stable_output() {
    let horizon = Time::from_secs(10);

    // Failure-free reference.
    let (builder, out) = merge_system(None, Vec::new());
    let metrics = MetricsHub::new();
    metrics.enable_trace(out);
    let mut clean = builder.metrics(metrics).build();
    clean.run_until(horizon);
    let clean_stable = clean
        .metrics
        .with(out, |m| stable_stream(m.trace.as_ref().expect("trace")));

    // Same deployment, durable stores, one replica killed and respawned.
    let root = scratch("restart");
    let (builder, out2) = merge_system(
        Some(&root),
        vec![FaultSpec::RestartReplica {
            frag: 0,
            shard: 0,
            replica: 0,
            after: Time::from_secs(3),
        }],
    );
    assert_eq!(out, out2);
    let metrics = MetricsHub::new();
    metrics.enable_trace(out);
    let mut sys = builder.metrics(metrics).build();
    sys.run_until(horizon);
    let (stable, dups) = sys.metrics.with(out, |m| {
        (
            stable_stream(m.trace.as_ref().expect("trace")),
            m.dup_stable,
        )
    });

    assert_eq!(dups, 0, "restart must not re-deliver stable tuples");
    let markers = recovery_markers(&root);
    assert_eq!(
        markers.len(),
        1,
        "exactly the respawned replica recovers from disk: {markers:?}"
    );
    assert!(
        markers[0].starts_with("snapshot="),
        "marker records the snapshot id: {}",
        markers[0]
    );
    let snap_id: u64 = markers[0]
        .split(['=', ' '])
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("snapshot id in marker");
    assert!(
        snap_id >= 3,
        "3 s of 250 ms checkpoints must have published several snapshots, recovered #{snap_id}"
    );

    // Eventual consistency across the restart: the durable run's stable
    // stream is byte-identical to the failure-free run's common prefix.
    let common = stable.len().min(clean_stable.len());
    assert!(common >= 1500, "substantial stream: {common}");
    assert_eq!(
        stable[..common],
        clean_stable[..common],
        "disk recovery changed the stable output"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// The same scripted restart *without* durability still converges (the
/// §4.5 empty-state + upstream-replay path this PR supplements) — and with
/// durability the restarted node replays a bounded suffix instead: the log
/// is pruned by snapshot coverage, so recovery work is proportional to the
/// checkpoint interval, not to the run length.
#[test]
fn durable_restart_replays_a_bounded_suffix() {
    let root = scratch("bounded");
    let (builder, out) = merge_system(
        Some(&root),
        vec![FaultSpec::RestartReplica {
            frag: 0,
            shard: 0,
            replica: 1,
            after: Time::from_secs(6),
        }],
    );
    let metrics = MetricsHub::new();
    metrics.enable_trace(out);
    let mut sys = builder.metrics(metrics).build();
    sys.run_until(Time::from_secs(9));
    let dups = sys.metrics.with(out, |m| m.dup_stable);
    assert_eq!(dups, 0);

    let markers = recovery_markers(&root);
    assert_eq!(markers.len(), 1, "markers: {markers:?}");
    let replayed: u64 = markers[0]
        .split("replayed=")
        .nth(1)
        .and_then(|s| s.trim().parse().ok())
        .expect("replay count in marker");
    // 6 s × 2 sources × 100 tuples/s ≈ 1200 input tuples total; a 250 ms
    // checkpoint interval leaves at most a few hundred log records (data
    // batches + boundaries) past the last snapshot. The bound is loose but
    // rules out a full-history replay.
    assert!(
        replayed > 0,
        "a restart mid-stream must replay some logged input"
    );
    assert!(
        replayed < 400,
        "replay must be bounded by the checkpoint interval, got {replayed} records"
    );
    let _ = std::fs::remove_dir_all(&root);
}
