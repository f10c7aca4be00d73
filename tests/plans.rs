//! The physical plans the planner produces, pinned.
//!
//! [`cases`] plans 256 seeded random topologies — 1–3 sources, 2–8
//! operators of every logical kind over earlier streams, 1–3 client
//! outputs, cut into contiguous slices of the operator order (so every cut
//! is acyclic) with per-fragment replication 1–3 and shards 1–4, under
//! either protection and either delay assignment — plus the layout of every
//! `borealis_workloads` setup, and fingerprints each plan (or its
//! `DiagramError`). Only public names are used, so the same file runs on
//! any commit: a refactor of the planner must leave every plan where it
//! was, field for field.
//!
//! The generator is also the seed of the topology half of a generated
//! fault-schedule search: [`topology`] turns a seed into a diagram and a
//! deployment.

use borealis::diagram::{
    plan_deployment, DelayAssignment, DeploymentSpec, Diagram, DpcConfig, FragmentPlan,
    FragmentSpec, JoinSpec, PhysicalPlan, Protection, QueryBuilder, StreamHandle,
};
use borealis::dpc::{ActorSpec, SystemBuilder};
use borealis::ops::{AggFn, AggregateSpec};
use borealis::types::{Duration, Expr, Value};
use borealis_workloads::{
    chain_builder, overhead_builder, scale_grid_builder, sharded_chain_builder,
    single_node_builder, ChainOptions, OverheadOptions, ScaleOptions, ShardedChainOptions,
    SingleNodeOptions,
};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::fmt::Write;

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn join_spec(rng: &mut StdRng) -> JoinSpec {
    JoinSpec {
        window: Duration::from_millis(rng.gen_range(10..200)),
        left_key: Expr::field(0),
        right_key: Expr::field(0),
        max_state: [None, Some(100)][rng.gen_range(0..2)],
    }
}

/// `n` streams drawn (with repetition) from `pool`.
fn pick(rng: &mut StdRng, pool: &[StreamHandle], n: usize) -> Vec<StreamHandle> {
    (0..n).map(|_| pool[rng.gen_range(0..pool.len())]).collect()
}

fn one_in(rng: &mut StdRng, n: u64) -> bool {
    rng.gen_range(0..n) == 0
}

/// The random topology of `seed`: a diagram (or the error `build` gave)
/// and a deployment cutting its operators into contiguous fragments.
fn topology(seed: u64) -> (Option<Diagram>, DeploymentSpec, DpcConfig) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut q = QueryBuilder::new();
    let mut streams: Vec<StreamHandle> = (0..rng.gen_range(1..4usize))
        .map(|i| q.source(&format!("s{i}")))
        .collect();
    let n_ops = rng.gen_range(2..9);
    let mut ops = Vec::new();
    for i in 0..n_ops {
        let name = format!("o{i}");
        let one = pick(&mut rng, &streams, 1)[0];
        let out = match rng.gen_range(0..7u32) {
            0 => q.filter(&name, one, Expr::Const(Value::Bool(true))),
            1 => q.map(&name, one, vec![Expr::field(0)]),
            2 => q.aggregate(
                &name,
                one,
                AggregateSpec {
                    window: Duration::from_millis(100),
                    slide: Duration::from_millis(100),
                    group_by: vec![Expr::field(0)],
                    aggs: vec![AggFn::count()],
                },
            ),
            3 => {
                let n = rng.gen_range(2..4);
                let inputs = pick(&mut rng, &streams, n);
                q.union(&name, &inputs)
            }
            4 => {
                let right = pick(&mut rng, &streams, 1)[0];
                let spec = join_spec(&mut rng);
                q.join(&name, one, right, spec)
            }
            5 => {
                let rights = pick(&mut rng, &streams, 2);
                let spec = join_spec(&mut rng);
                q.join_many(&name, one, &rights, spec)
            }
            _ => q.relay(&name, one),
        };
        streams.push(out);
        ops.push(name);
    }
    let produced = &streams[streams.len() - n_ops..];
    let n_outputs = rng.gen_range(1..4);
    for out in pick(&mut rng, produced, n_outputs) {
        q.output(out);
    }

    // Contiguous slices of the insertion order, itself a topological order.
    let mut spec = DeploymentSpec::new();
    let mut start = 0;
    while start < n_ops {
        let end = rng.gen_range(start + 1..n_ops + 1);
        let shards = if one_in(&mut rng, 3) {
            rng.gen_range(2..5)
        } else {
            1
        };
        spec = spec.fragment(
            FragmentSpec::named(format!("f{start}"))
                .ops(ops[start..end].iter().cloned())
                .replication(rng.gen_range(1..4))
                .shards(shards, Expr::field(0)),
        );
        start = end;
    }
    let total_delay = Duration::from_millis(rng.gen_range(500..8_000));
    let cfg = DpcConfig {
        total_delay,
        assignment: if one_in(&mut rng, 2) {
            DelayAssignment::Uniform
        } else {
            DelayAssignment::Full {
                effective: Duration::from_micros(total_delay.as_micros() * 3 / 4),
            }
        },
        protection: if one_in(&mut rng, 4) {
            Protection::Baseline
        } else {
            Protection::Dpc
        },
        ..DpcConfig::default()
    };
    (q.build().ok(), spec, cfg)
}

/// Every field of one physical fragment the runtimes read.
fn fragment(out: &mut String, fp: &FragmentPlan) {
    writeln!(out, "fragment {:?} shard {:?}", fp.id, fp.shard).unwrap();
    for op in &fp.ops {
        let (spec, fanout, ext) = (&op.spec, &op.fanout, op.external_output);
        writeln!(out, "  op {spec:?} fanout {fanout:?} out {ext:?}").unwrap();
    }
    for i in &fp.inputs {
        writeln!(out, "  in {:?} -> {}:{}", i.stream, i.target, i.port).unwrap();
    }
    for o in &fp.outputs {
        writeln!(out, "  out {:?} <- {}", o.stream, o.op).unwrap();
    }
}

fn plan(out: &mut String, p: &PhysicalPlan) {
    p.fragments.iter().for_each(|fp| fragment(out, fp));
    for g in &p.groups {
        let (name, r, frags) = (&g.name, g.replication, &g.fragments);
        let (cost, buffer) = (g.per_tuple_cost, g.buffer_policy);
        writeln!(out, "group {name} x{r} {frags:?} {cost:?} {buffer:?}").unwrap();
    }
    let (depth, delay) = (p.max_sunion_depth, p.per_sunion_delay);
    writeln!(out, "depth {depth} delay {delay:?}").unwrap();
}

/// A setup's deployed plans: each physical fragment's plan as its first
/// replica runs it, with its replica count, and the shard groups.
fn layout(out: &mut String, builder: SystemBuilder) {
    let l = builder.layout();
    for replicas in &l.fragment_replicas {
        match &l.actors[replicas[0].index()] {
            ActorSpec::Node(cfg) => fragment(out, &cfg.plan),
            _ => unreachable!("fragment replicas are node actors"),
        }
        writeln!(out, "  x{}", replicas.len()).unwrap();
    }
    writeln!(out, "groups {:?}", l.groups).unwrap();
}

/// One fingerprint text per case, named.
fn cases() -> Vec<(String, String)> {
    let mut all = Vec::new();
    for seed in 0..256 {
        let (Some(d), spec, cfg) = topology(seed) else {
            continue;
        };
        let mut text = String::new();
        match plan_deployment(&d, &spec, &cfg) {
            Ok(p) => plan(&mut text, &p),
            Err(e) => writeln!(text, "error {e:?}").unwrap(),
        }
        all.push((format!("seed {seed}"), text));
    }

    let mut setups: Vec<(String, SystemBuilder)> = Vec::new();
    for (replication, with_join) in [(1, false), (2, false), (2, true)] {
        let o = SingleNodeOptions {
            replication,
            with_join,
            ..SingleNodeOptions::default()
        };
        setups.push((format!("single {o:?}"), single_node_builder(&o)));
    }
    for depth in 1..5 {
        for assignment in [
            DelayAssignment::Uniform,
            DelayAssignment::Full {
                effective: Duration::from_millis(6_500),
            },
        ] {
            let o = ChainOptions {
                depth,
                assignment,
                ..ChainOptions::default()
            };
            setups.push((format!("chain {o:?}"), chain_builder(&o).0));
        }
    }
    for (shards, replication) in [(1, 2), (2, 2), (4, 2), (3, 3)] {
        let o = ShardedChainOptions {
            shards,
            replication,
            ..ShardedChainOptions::default()
        };
        setups.push((format!("sharded {o:?}"), sharded_chain_builder(&o).0));
    }
    let o = ScaleOptions::default();
    setups.push((format!("scale {o:?}"), scale_grid_builder(&o).0));
    for bucket in [Some(Duration::from_millis(10)), None] {
        let o = OverheadOptions {
            bucket,
            ..OverheadOptions::default()
        };
        setups.push((format!("overhead {o:?}"), overhead_builder(&o)));
    }
    for (name, builder) in setups {
        let mut text = String::new();
        layout(&mut text, builder);
        all.push((name, text));
    }
    all
}

/// `(cases, FNV-1a 64 of every case's fingerprint in order)`, captured by
/// running this file against the planner before it became one pass.
const PINNED: (usize, u64) = (274, 0xd135_6113_10ec_5eef);

#[test]
fn plans_are_pinned() {
    let cases = cases();
    let all: String = cases.iter().map(|(_, text)| text.as_str()).collect();
    let got = (cases.len(), fnv64(all.as_bytes()));
    if got != PINNED {
        for (name, text) in &cases {
            println!("{name}: {:#018x}", fnv64(text.as_bytes()));
        }
    }
    assert_eq!(got, PINNED, "per-case digests above");
}

/// The generator reaches what the pin is for: plans that succeed, sharded
/// ones, baseline ones, and the planner's rejections.
#[test]
fn generated_topologies_cover_the_planner() {
    let (mut planned, mut sharded, mut baseline, mut rejected) = (0, 0, 0, 0);
    for seed in 0..256 {
        let (Some(d), spec, cfg) = topology(seed) else {
            continue;
        };
        match plan_deployment(&d, &spec, &cfg) {
            Ok(p) => {
                planned += 1;
                sharded += usize::from(p.fragments.iter().any(|f| f.shard.is_some()));
                baseline += usize::from(cfg.protection == Protection::Baseline);
            }
            Err(_) => rejected += 1,
        }
    }
    assert!(
        planned >= 96 && sharded >= 16 && baseline >= 8 && rejected >= 32,
        "planned {planned}, sharded {sharded}, baseline {baseline}, rejected {rejected}"
    );
}
