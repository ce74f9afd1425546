#!/usr/bin/env bash
# Prints the added, removed and net lines of `git diff --numstat
# <base>...HEAD` per group, as a Markdown table: docs (`*.md`), code
# (`crates/`, `src/`, `examples/`, `vendor/`, `perfbench/`), tests
# (`tests/`), CI (`.github/`) and everything else.  Binary files count 0.
#
# Usage: bash .github/net-lines.sh <base>
set -euo pipefail
base=${1:?usage: net-lines.sh <base>}
git diff --numstat "$base...HEAD" | awk -F '\t' '
  function group(path) {
    if (path ~ /\.md$/) return "docs"
    if (path ~ /^(crates|src|examples|vendor|perfbench)\//) return "code"
    if (path ~ /^tests\//) return "tests"
    if (path ~ /^\.github\//) return "CI"
    return "other"
  }
  {
    g = group($3)
    added[g] += ($1 == "-" ? 0 : $1)
    removed[g] += ($2 == "-" ? 0 : $2)
  }
  END {
    print "| group | added | removed | net |"
    print "|---|---:|---:|---:|"
    n = split("code tests CI docs other", order, " ")
    for (i = 1; i <= n; i++) {
      g = order[i]
      printf "| %s | %d | %d | %+d |\n", g, added[g], removed[g], added[g] - removed[g]
      total_added += added[g]
      total_removed += removed[g]
    }
    printf "| total | %d | %d | %+d |\n", total_added, total_removed, total_added - total_removed
  }'
