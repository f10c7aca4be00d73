#!/usr/bin/env bash
# Workspace size, tracked next to throughput (ROADMAP "Quality of design"):
# all Rust lines outside benchmark/, and the non-test share of them —
# everything outside tests/ and benches/ directories, *_tests.rs files and
# the `#[cfg(test)] mod … {` block that ends a source file — so a
# simplification cannot pay for itself by moving code into tests. The
# non-test figure is then broken down by workspace member (plus the facade
# `src`), so a CHANGES entry can say where lines went.
# Run from any directory of a checkout; counts what git tracks there.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

echo "rust lines:     $(git ls-files '*.rs' ':!benchmark' | xargs cat | wc -l)"
git ls-files '*.rs' ':!benchmark' | grep -vE '(^|/)(tests|benches)/|_tests\.rs$' | xargs awk '
    FNR == 1 { skip = 0; pending = 0
               split(FILENAME, dir, "/")
               member = dir[1] == "crates" ? dir[2] == "shims" ? dir[3] : dir[2] : dir[1] }
    skip { next }
    pending { pending = 0
              if ($0 ~ /^(pub(\([a-z]+\))? )?mod [a-z_]+ \{/) { skip = 1; next }
              n++; per[member]++ }
    /^#\[cfg\((all\()?test/ { pending = 1; next }
    { n++; per[member]++ }
    END { print "non-test lines: " n
          for (m in per) printf "  %-10s %5d\n", m, per[m] | "sort" }'
