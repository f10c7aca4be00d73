//! The self-describing part of a record: which code, on which machine.

use crate::json::Json;
use std::path::Path;
use std::process::Command;

fn command_line(program: &str, args: &[&str], cwd: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(cwd)
        .stdin(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// Lines and `#[test]` attributes in every `.rs` file under `dir`
/// (skipping build output).
fn scan(dir: &Path, lines: &mut u64, tests: &mut u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let path = e.path();
        let name = e.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !name.starts_with('.') && name != "target" {
                scan(&path, lines, tests);
            }
        } else if name.ends_with(".rs") {
            if let Ok(src) = std::fs::read_to_string(&path) {
                *lines += src.lines().count() as u64;
                *tests += src
                    .lines()
                    .filter(|l| l.trim_start().starts_with("#[test]"))
                    .count() as u64;
            }
        }
    }
}

/// Git revision, core count, compiler, and the size of the workspace the
/// benchmark was built against (`repo_root` = the directory holding
/// `crates/`). Outside a git checkout the revision reads `unknown`.
pub fn describe(repo_root: &Path) -> Json {
    let (mut loc, mut tests) = (0, 0);
    for sub in ["crates", "src", "tests", "examples"] {
        scan(&repo_root.join(sub), &mut loc, &mut tests);
    }
    Json::obj([
        (
            "git_rev",
            Json::str(
                // Only ask git about this tree: without the check it would
                // walk up and describe whatever repository sits above.
                repo_root
                    .join(".git")
                    .exists()
                    .then(|| command_line("git", &["rev-parse", "HEAD"], repo_root))
                    .flatten()
                    .unwrap_or_else(|| "unknown".into()),
            ),
        ),
        (
            "nproc",
            Json::Int(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        (
            "rustc",
            Json::str(
                command_line("rustc", &["--version"], repo_root)
                    .unwrap_or_else(|| "unknown".into()),
            ),
        ),
        ("workspace_loc", Json::Int(loc)),
        ("workspace_tests", Json::Int(tests)),
    ])
}
