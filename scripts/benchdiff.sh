#!/bin/sh
# Compare a fresh benchmark run against the committed baseline in
# BENCH_kernels.json and warn on per-benchmark ns/op regressions above
# the threshold (default 10%). Both sides hold -count 5 samples per
# benchmark (the `make bench` setting); each benchmark's median is
# compared with the baseline's median, so one noisy sample cannot flag
# or hide a regression. Advisory by default: the script always exits 0
# so a noisy CI box cannot fail the gate — set BENCHDIFF_STRICT=1 to
# turn regressions into a failure locally.
#
# Environment:
#   BENCHDIFF_BASE       baseline file       (default BENCH_kernels.json)
#   BENCHDIFF_BENCHTIME  fresh-run benchtime (default 1s, the `make bench`
#                        setting; lower it for a quick smoke diff)
#   BENCHDIFF_THRESHOLD  warn percentage     (default 10)
#   BENCHDIFF_STRICT     exit 1 on regressions when set to 1
set -eu

BASE=${BENCHDIFF_BASE:-BENCH_kernels.json}
BENCHTIME=${BENCHDIFF_BENCHTIME:-1s}
THRESHOLD=${BENCHDIFF_THRESHOLD:-10}
STRICT=${BENCHDIFF_STRICT:-0}

if [ ! -f "$BASE" ]; then
    echo "benchdiff: baseline $BASE not found (run 'make bench' and commit it)" >&2
    exit 1
fi

fresh=$(mktemp) && base_tbl=$(mktemp) && fresh_tbl=$(mktemp)
trap 'rm -f "$fresh" "$base_tbl" "$fresh_tbl"' EXIT

echo "benchdiff: fresh run (benchtime $BENCHTIME, count 5)..." >&2
# Mirror the `make bench` package set, count, filters, and volatile-field
# strip.
filter=$(dirname "$0")/benchfilter.sh
go test -json -bench=. -benchmem -run='^$' -benchtime "$BENCHTIME" -count 5 \
    ./internal/la ./internal/expr ./internal/sim ./internal/hybrid | "$filter" > "$fresh"
go test -json -bench='^Benchmark(OP|TranSettle|ACSweep|Study13b|Study13bRacing)$' \
    -benchmem -run='^$' -benchtime "$BENCHTIME" -count 5 . | "$filter" >> "$fresh"

medians=$(dirname "$0")/benchmedians.sh
"$medians" "$BASE" > "$base_tbl"
"$medians" "$fresh" > "$fresh_tbl"

awk -v thresh="$THRESHOLD" '
    NR == FNR { base[$1] = $2; bn[$1] = $3; next }
    {
        if (!($1 in base)) { printf "  new      %-60s %12.0f ns/op (median of %d)\n", $1, $2, $3; next }
        b = base[$1]; f = $2
        pct = (f - b) / b * 100
        tag = "ok"
        if (pct > thresh)  { tag = "REGRESSED"; bad++ }
        if (pct < -thresh) { tag = "improved" }
        printf "  %-9s %-60s %12.0f -> %12.0f ns/op  %+6.1f%%  (medians of %d, %d)\n", tag, $1, b, f, pct, bn[$1], $3
        seen[$1] = 1
    }
    END {
        for (k in base) if (!(k in seen))
            printf "  gone     %-60s (in baseline, not in fresh run)\n", k
        if (bad) printf "benchdiff: %d benchmark(s) regressed more than %s%%\n", bad, thresh
        else printf "benchdiff: no regressions above %s%%\n", thresh
        exit bad ? 3 : 0
    }' "$base_tbl" "$fresh_tbl" || status=$?

if [ "${status:-0}" -eq 3 ] && [ "$STRICT" = "1" ]; then
    exit 1
fi
exit 0
