#!/usr/bin/env bash
# A/A check: two interleaved sets of N full runs of the same build must agree
# within the benchmark's own bounds. Usage: benchmark/aa.sh [N] [SEED]
set -euo pipefail
cd "$(dirname "$0")"
echo "host: $(nproc) cores, $(uname -m)"
exec cargo run --release --offline --quiet -- --seed "${2:-1}" --aa "${1:-3}"
