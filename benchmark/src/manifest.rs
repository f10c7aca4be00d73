//! `BENCHMARK.json`, generated from the tables the code itself uses, so
//! the manifest and the program cannot drift apart (a unit test compares
//! the checked-in file with this rendering).

use crate::episode::WORKLOADS;
use crate::json::Json;
use crate::layers::PER_LAYER;
use crate::run::END_TO_END;

/// `run_seconds`: five 4-second episodes per run.
pub const RUN_SECONDS: u64 = 20;

/// The command the acceptance driver appends `--workload … --seed …
/// --seconds … --trace …` to, from the repository root.
pub const COMMAND: [&str; 10] = [
    "cargo",
    "run",
    "--quiet",
    "--release",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--bin",
    "bench",
    "--",
];

pub fn manifest() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(COMMAND.into_iter().map(Json::str).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Int(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .into_iter()
                    .map(|w| {
                        Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|&(name, unit, bound)| {
                        Json::obj([
                            ("name", Json::str(name)),
                            ("unit", Json::str(unit)),
                            ("better", Json::str("lower")),
                            ("bound", Json::Num(bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|&(name, unit, better)| {
                        Json::obj([
                            ("name", Json::str(name)),
                            ("unit", Json::str(unit)),
                            ("better", Json::str(better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The manifest, one entry per line so diffs stay readable.
pub fn render() -> String {
    let Json::Obj(pairs) = manifest() else {
        unreachable!("the manifest is an object");
    };
    let mut out = String::from("{\n");
    for (i, (key, value)) in pairs.iter().enumerate() {
        let last = i + 1 == pairs.len();
        match value {
            Json::Arr(items) if matches!(items.first(), Some(Json::Obj(_))) => {
                out += &format!("  \"{key}\": [\n");
                for (j, item) in items.iter().enumerate() {
                    let comma = if j + 1 == items.len() { "" } else { "," };
                    out += &format!("    {}{comma}\n", item.render());
                }
                out += "  ]";
            }
            other => out += &format!("  \"{key}\": {}", other.render()),
        }
        out += if last { "\n" } else { ",\n" };
    }
    out + "}\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_in_manifest_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            render(),
            "regenerate with `bench manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn manifest_stays_inside_the_contract() {
        assert!(COMMAND.len() <= 32 && COMMAND.iter().all(|c| c.len() <= 200));
        assert!((2..=8).contains(&WORKLOADS.len()));
        for w in WORKLOADS {
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.why()
            );
            assert!(w.name().len() <= 64);
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!(END_TO_END.iter().all(|&(_, _, b)| b > 0.0 && b <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|&(n, u, _)| n == "setup_s" && u == "s"));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(render().len() < 64 * 1024);
        // Names are unique across both lists.
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|e| e.0)
            .chain(PER_LAYER.iter().map(|p| p.0))
            .chain(WORKLOADS.iter().map(|w| w.name()))
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
