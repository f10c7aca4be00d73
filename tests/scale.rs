//! Wall-clock scale measurements of the worker-pool runtime — `#[ignore]`d
//! (they want an optimized build and an otherwise quiet machine):
//!
//! `cargo test --release --test scale -- --ignored --nocapture`
//!
//! Two things no other test exercises: thousands of actors multiplexed
//! onto a fixed pool of OS threads, and the capacity knee of the sharded
//! chain (the highest offered load it still delivers as stable output).

use borealis::prelude::*;
use borealis_workloads::{
    scale_grid_actors, scale_grid_builder, sharded_chain_builder, ScaleOptions, ShardedChainOptions,
};

/// Both tests measure the wall clock; they must not share the cores.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// OS threads of this process (`None` where procfs is unavailable).
fn os_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:"))?;
    line.trim().parse().ok()
}

const WORKERS: usize = 8;
const CHAINS: u32 = 16;

/// One run of the 16-chain × K=64 grid (1040 fragments, 2097 actors) on
/// [`WORKERS`] pool threads; with `crash`, replica 0 of chain 1's work
/// shard 1 dies at t = 1.5 s and never returns.
fn run_grid(wall_secs: u64, crash: bool) -> (u64, u64, borealis::sim::StatsSnapshot) {
    let o = ScaleOptions {
        chains: CHAINS,
        shards: 64,
        rate_per_chain: 50.0,
        ..Default::default()
    };
    assert_eq!(scale_grid_actors(&o), 2097);
    let (mut builder, outs) = scale_grid_builder(&o);
    builder = builder.workers(WORKERS);
    if crash {
        builder = builder.fault(FaultSpec::Crash {
            domain: CrashDomain::Replica {
                frag: 2,
                shard: 1,
                replica: 0,
            },
            from: Time::from_millis(1500),
            to: None,
        });
    }
    let before = os_threads();
    let sys = deploy_threads(builder.layout());
    let deployed = os_threads();
    sys.run_for(std::time::Duration::from_secs(wall_secs));
    // The pool stays fixed-size however many actors exist: the engine adds
    // its workers, and nothing else, to the caller's own thread — neither
    // while the fault script is pending (the pool wheel replays it) nor
    // after.
    for now in [deployed, os_threads()] {
        if let (Some(before), Some(now)) = (before, now) {
            assert!(
                now <= before + WORKERS,
                "2097 actors may not cost more than {WORKERS} worker threads: {before} → {now}"
            );
        }
    }
    let (mut stable, mut dup) = (0, 0);
    for out in outs {
        sys.metrics.with(out, |m| {
            stable += m.n_stable;
            dup += m.dup_stable;
        });
    }
    (stable, dup, sys.shutdown())
}

#[test]
#[ignore = "wall-clock measurement: run with --release -- --ignored"]
fn grid_of_2097_actors_runs_on_8_workers_and_survives_a_crash() {
    let _serial = serial();
    let (stable, dup, stats) = run_grid(4, false);
    println!("clean: {stable} stable, {:?}", stats.sched);
    assert_eq!(dup, 0, "no duplicate stable tuples");
    assert_eq!(stats.total_drops(), 0, "a healthy run loses nothing");
    assert!(
        stable > CHAINS as u64 * 20,
        "every chain must flow: {stable}"
    );
    assert!(
        stats.sched.parks > 0,
        "idle workers park, not spin: {:?}",
        stats.sched
    );
    assert!(
        stats.sched.steals > 0,
        "work moves between workers: {:?}",
        stats.sched
    );

    let (stable, dup, stats) = run_grid(6, true);
    println!("crash: {stable} stable, {} drops", stats.total_drops());
    assert_eq!(dup, 0, "failover at scale must not duplicate");
    assert!(
        stats.total_drops() > 0,
        "the scripted crash must sever traffic"
    );
    assert!(
        stable > CHAINS as u64 * 20,
        "stable output flows on: {stable}"
    );
}

/// One 1 s probe of the K = 4 sharded chain at `per_source` tuples/s per
/// source, modelled CPU at 1 µs/tuple so the real data plane — shard
/// routing, scheduler handoff, SUnion merge — is what saturates. Returns
/// stable tuples/s and duplicates.
fn probe(per_source: f64) -> (f64, u64) {
    let (builder, out) = sharded_chain_builder(&ShardedChainOptions {
        shards: 4,
        total_rate: per_source * 3.0,
        light_cost: Duration::from_micros(1),
        work_cost: Duration::from_micros(1),
        seed: 7,
        ..Default::default()
    });
    let sys = deploy_threads(builder.layout());
    let started = std::time::Instant::now();
    sys.run_for(std::time::Duration::from_secs(1));
    let elapsed = started.elapsed().as_secs_f64();
    let (stable, dup) = sys.metrics.with(out, |m| (m.n_stable, m.dup_stable));
    sys.shutdown();
    (stable as f64 / elapsed, dup)
}

/// The capacity knee: a geometric ramp of the offered load until a probe
/// no longer sustains it, then two bisection steps. "Sustained" is
/// duplicate-free stable output at ≥ 95 % of the delivery efficiency
/// (stable/offered) measured at the 12k/s floor — which normalizes out the
/// subscription ramp and drain at a run's edges. A miss counts only when a
/// second probe confirms it: one slow probe is scheduling noise.
#[test]
#[ignore = "wall-clock measurement: run with --release -- --ignored"]
fn k4_capacity_knee_clears_10k_stable_per_s() {
    let _serial = serial();
    let mut floor_eff = 0.0;
    let mut best = 0.0;
    let mut sustains = |per_source: f64| {
        let offered = per_source * 3.0;
        for attempt in 0..2 {
            let (stable_per_s, dup) = probe(per_source);
            let eff = stable_per_s / offered;
            println!(
                "  offered {offered:>8.0}/s -> stable {stable_per_s:>8.0}/s ({:.1}%) try {attempt}",
                100.0 * eff
            );
            if floor_eff == 0.0 {
                floor_eff = eff;
            }
            if dup == 0 && eff >= 0.95 * floor_eff {
                best = stable_per_s;
                return true;
            }
        }
        false
    };
    let mut lo = 4_000.0;
    assert!(sustains(lo), "the 12k/s floor probe is duplicate-free");
    let mut hi = lo * 1.6;
    while hi < 700_000.0 && sustains(hi) {
        (lo, hi) = (hi, hi * 1.6);
    }
    for _ in 0..2 {
        let mid = (lo + hi) / 2.0;
        if sustains(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    println!(
        "K=4 clean knee: offered {:.0}/s, {best:.0} stable/s",
        lo * 3.0
    );
    assert!(
        floor_eff > 0.70,
        "the floor must deliver most of its load: {floor_eff:.2}"
    );
    assert!(
        best > 10_000.0,
        "the K=4 knee must clear 10k stable/s: {best:.0}"
    );
}
