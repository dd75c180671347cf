#!/bin/sh
# Opt-in full benchmark harness. CI only smoke-tests the benchmarks (one
# iteration, crash check — see ci.sh); this script produces the numbers
# that are actually published in BENCH_interp.json, using the full
# protocol benchjson enforces:
#
#   - a fixed -benchtime (iteration count, not wall time, so every sample
#     does identical work and samples are comparable),
#   - at least 3 samples per benchmark (-count; default 6 here),
#   - min/mean/stddev/max recorded per benchmark, speedups computed from
#     the min (scheduler noise on a shared box is strictly additive, so
#     the smallest sample is the least-contaminated estimate).
#
# Environment knobs: COUNT (samples per benchmark), BENCHTIME (go test
# -benchtime value). Run on an otherwise-idle machine.
set -eu

cd "$(dirname "$0")"

COUNT=${COUNT:-6}
BENCHTIME=${BENCHTIME:-2000000x}

echo "== bench: ${COUNT} samples x ${BENCHTIME}"
go test -bench=. -benchtime="$BENCHTIME" -count="$COUNT" -run '^$' \
    ./internal/machine/ ./internal/irexec/ |
    go run ./cmd/benchjson -mode full -o BENCH_interp.json

echo "== bench: artifact sections (vsa, static, types, guards)"
go run ./cmd/benchjson -vsa -o BENCH_interp.json
go run ./cmd/benchjson -static -o BENCH_interp.json
go run ./cmd/benchjson -types -o BENCH_interp.json
go run ./cmd/benchjson -guards -o BENCH_interp.json

echo "== bench: validate"
go run ./cmd/benchjson -check -o BENCH_interp.json

echo "bench: BENCH_interp.json updated"
