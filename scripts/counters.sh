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
#   churn_retention_bytes_per_sample  TestChurnRetention's retained bytes,
#                 the fewest of five runs: its heap reading now and then
#                 holds a stray runtime object of about 2 kB (2.19 against
#                 2.14), which would trip the check below
#   packet_bytes, flow_bytes, member_slot_bytes  unsafe.Sizeof of
#                 packet.Packet, core.Flow and core.memberSlot, as
#                 TestPacketSize and TestFlowSize log them
# A counter repeats from run to run; a test whose gate fails still prints
# its counter, so the script also measures a tree that misses a budget.
# Run from anywhere: `make counters` or `bash scripts/counters.sh`.
#
# `scripts/counters.sh check` (`make counters-check`, part of `make ci`)
# measures the same row and holds it to the newest row of
# BENCH_COUNTERS.json measured with the same Go release: it fails when a
# cost counter (bytes per chunked sample, per flow and per retained sample,
# and the three sizes) rises more than 1 % above that row, and prints a
# line asking for a new row when one falls. Without a row of the same Go
# release it says so and compares nothing.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
GO=${GO:-go}
mode=${1:-row}
case $mode in
row | check) ;;
*)
	echo "usage: scripts/counters.sh [check]" >&2
	exit 2
	;;
esac

table3=$($GO test -count=1 -v -run '^TestTable3RecorderBytesPerSample$' ./internal/experiments 2>&1 |
	sed -n 's/.* \([0-9]*\) samples: \([0-9]*\) in runs, \([0-9]*\) in blocks, \([0-9]*\) in tails; [0-9]* B, \([0-9.]*\) B per chunked sample.*/\5 \2 \3 \4/p' | head -n 1 || true)
million=$($GO test -count=1 -run '^$' -bench '^BenchmarkMillionFlows$' -benchtime 1x . 2>&1 |
	sed -n 's/.* \([0-9.]*\) bytes\/flow.*/\1/p' | head -n 1 || true)
churn=$($GO test -count=5 -v -run '^TestChurnRetention$' ./internal/scenario 2>&1 |
	sed -n 's/.*(\([0-9.]*\) B per sample).*/\1/p' | sort -n | head -n 1 || true)
packet=$($GO test -count=1 -v -run '^TestPacketSize$' ./internal/packet 2>&1 |
	sed -n 's/.*Packet is \([0-9]*\) bytes.*/\1/p' | head -n 1 || true)
sizes=$($GO test -count=1 -v -run '^TestFlowSize$' ./internal/core 2>&1 |
	sed -n 's/.*Flow is \([0-9]*\) bytes, memberSlot \([0-9]*\) bytes.*/\1 \2/p' | head -n 1 || true)
if [ -z "$table3" ] || [ -z "$million" ] || [ -z "$churn" ] || [ -z "$packet" ] || [ -z "$sizes" ]; then
	echo "counters: a counter printed nothing (table3='$table3' million='$million' churn='$churn' packet='$packet' sizes='$sizes')" >&2
	exit 1
fi
read -r per runs blocks tails <<<"$table3"
read -r flow member <<<"$sizes"
row=$(printf '{"commit": "%s", "go": "%s", "table3_bytes_per_chunked_sample": %s, "table3_samples_in_runs": %s, "table3_samples_in_blocks": %s, "table3_samples_in_tails": %s, "million_flows_bytes_per_flow": %s, "churn_retention_bytes_per_sample": %s, "packet_bytes": %s, "flow_bytes": %s, "member_slot_bytes": %s}' \
	"$(git describe --always --dirty)" "$($GO env GOVERSION)" "$per" "$runs" "$blocks" "$tails" "$million" "$churn" "$packet" "$flow" "$member")
echo "$row"
[ "$mode" = check ] || exit 0

# release prints a row's Go release (go1.24 of go1.24.0); field prints the
# value of one key of a row.
release() { sed -n 's/.*"go": "\(go[0-9]*\.[0-9]*\).*/\1/p' <<<"$1"; }
field() { sed -n "s/.*\"$2\": \([0-9.]*\).*/\1/p" <<<"$1"; }
go=$(release "$row")
base=$(grep '^{' BENCH_COUNTERS.json | while read -r r; do [ "$(release "$r")" = "$go" ] && echo "$r"; done | tail -n 1)
if [ -z "$base" ]; then
	echo "counters check: BENCH_COUNTERS.json has no row measured with $go; nothing compared"
	exit 0
fi
echo "counters check: against commit $(sed -n 's/.*"commit": "\([^"]*\)".*/\1/p' <<<"$base")"
status=0
for key in table3_bytes_per_chunked_sample million_flows_bytes_per_flow churn_retention_bytes_per_sample packet_bytes flow_bytes member_slot_bytes; do
	was=$(field "$base" "$key")
	now=$(field "$row" "$key")
	if [ -z "$was" ]; then
		echo "counters check: $key = $now has no committed value; append this row to BENCH_COUNTERS.json"
		continue
	fi
	case $(awk -v now="$now" -v was="$was" 'BEGIN { print (now > was * 1.01) ? "rose" : (now < was) ? "fell" : "held" }') in
	rose)
		echo "counters check: FAIL $key rose from $was to $now, more than 1 %" >&2
		status=1
		;;
	fell)
		echo "counters check: $key fell from $was to $now; append this row to BENCH_COUNTERS.json"
		;;
	esac
done
exit $status
