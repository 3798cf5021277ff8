#!/usr/bin/env bash
# Prints one row of the repository's exact cost counters as one line of
# JSON (ROADMAP item 23; BENCH_COUNTERS.json keeps the rows):
#   commit        `git describe --always --dirty` of the tree measured
#   go            the Go version
#   table3_*      the Table-3 cell's delay recorders after 600 s at seed
#                 1992 (TestTable3RecorderBytesPerSample): bytes per sample
#                 held outside the runs, and the samples in runs, in blocks
#                 and in tails
#   million_flows_bytes_per_flow      BenchmarkMillionFlows' resident bytes
#   churn_retention_bytes_per_sample  TestChurnRetention's retained bytes
# A counter repeats from run to run; a test whose gate fails still prints
# its counter, so the script also measures a tree that misses a budget.
# Run from anywhere: `make counters` or `bash scripts/counters.sh`.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
GO=${GO:-go}

table3=$($GO test -count=1 -v -run '^TestTable3RecorderBytesPerSample$' ./internal/experiments 2>&1 |
	sed -n 's/.* \([0-9]*\) samples: \([0-9]*\) in runs, \([0-9]*\) in blocks, \([0-9]*\) in tails; [0-9]* B, \([0-9.]*\) B per chunked sample.*/\5 \2 \3 \4/p' || true)
million=$($GO test -count=1 -run '^$' -bench '^BenchmarkMillionFlows$' -benchtime 1x . 2>&1 |
	sed -n 's/.* \([0-9.]*\) bytes\/flow.*/\1/p' || true)
churn=$($GO test -count=1 -v -run '^TestChurnRetention$' ./internal/scenario 2>&1 |
	sed -n 's/.*(\([0-9.]*\) B per sample).*/\1/p' || true)
if [ -z "$table3" ] || [ -z "$million" ] || [ -z "$churn" ]; then
	echo "counters: a counter printed nothing (table3='$table3' million='$million' churn='$churn')" >&2
	exit 1
fi
read -r per runs blocks tails <<<"$table3"
printf '{"commit": "%s", "go": "%s", "table3_bytes_per_chunked_sample": %s, "table3_samples_in_runs": %s, "table3_samples_in_blocks": %s, "table3_samples_in_tails": %s, "million_flows_bytes_per_flow": %s, "churn_retention_bytes_per_sample": %s}\n' \
	"$(git describe --always --dirty)" "$($GO env GOVERSION)" "$per" "$runs" "$blocks" "$tails" "$million" "$churn"
