#!/usr/bin/env bash
# Regenerates the golden stdout of the paper harness: runs each fig*/table*
# binary with its default arguments and writes its stdout to
# crates/bench/tests/golden/<name>.txt, which
# crates/bench/tests/paper_outputs.rs compares byte for byte.
#
# Run it only in a change that means to move the reproduction's numbers,
# and say in CHANGES.md which outputs moved and why.  The outputs are the
# same in debug and release builds; this script uses the debug build the
# test itself runs.
#
#   scripts/bless_paper_outputs.sh
set -euo pipefail
cd "$(dirname "$0")/.."

bins=(fig10 fig11 fig12 fig13 fig14 fig15 fig16 table1 table2 table3 table4 table5)
golden=crates/bench/tests/golden

cargo build -q -p quanto-bench --bins
mkdir -p "$golden"
for bin in "${bins[@]}"; do
  "target/debug/$bin" >"$golden/$bin.txt"
done
git status --short -- "$golden"
