#!/bin/sh
# Print one "pkg/BenchmarkName median_ns_op samples" line per benchmark
# from a file of go-test JSON benchmark events (BENCH_kernels.json, or a
# fresh run piped through benchfilter.sh). `make bench` prints the
# ledger with it and scripts/benchdiff.sh compares two such tables.
#
# Under -count, test2json tags only the first sample with its "Test",
# and a result line may follow its name in a separate event, so each
# package's current benchmark is tracked from the last event that names
# one.
set -eu

awk '
    {
        if (!match($0, /"Package":"[^"]*"/)) next
        pkg = substr($0, RSTART + 11, RLENGTH - 12)
        if (match($0, /"Test":"Benchmark[^"]*"/)) {
            cur[pkg] = substr($0, RSTART + 8, RLENGTH - 9)
        } else if (match($0, /"Output":"Benchmark[^ \\"]*/)) {
            name = substr($0, RSTART + 10, RLENGTH - 10)
            sub(/-[0-9]+$/, "", name)
            cur[pkg] = name
        }
        if (!(pkg in cur) || !match($0, /[0-9][0-9.]* ns\/op/)) next
        print pkg "/" cur[pkg], substr($0, RSTART, RLENGTH - 6)
    }' "$1" | LC_ALL=C sort -k1,1 -k2,2g | awk '
    function flush() {
        if (n) print key, (n % 2 ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2), n
    }
    $1 != key { flush(); key = $1; n = 0 }
    { v[++n] = $2 }
    END { flush() }'
