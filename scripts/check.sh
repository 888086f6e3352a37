#!/usr/bin/env sh
# Local CI: lint (when ruff is available) + the tier-1 test suite + the
# core/parallel perf smoke (writes BENCH_parallel.json and BENCH_core.json
# and fails on result divergence or telemetry stat drift).
#
# Usage: scripts/check.sh [--no-bench]
# Exit status is nonzero on the first failing step.
set -eu

cd "$(dirname "$0")/.."

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff check =="
    ruff check src tests scripts
else
    echo "== ruff not installed; skipping lint =="
fi

echo "== tier-1 tests =="
PYTHONPATH=src python -m pytest -x -q

if [ "${1:-}" != "--no-bench" ]; then
    echo "== perf smoke (BENCH_parallel.json + BENCH_core.json) =="
    PYTHONPATH=src python scripts/perf_smoke.py
fi
