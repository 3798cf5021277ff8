#!/bin/sh
# unreached.sh — list the functions no workload executes.
#
# Builds cmd/ispnsim, the five examples and the bench binary with every
# package of the module instrumented for coverage (-cover -coverpkg=ispn/...)
# and runs the workload set under one GOCOVERDIR:
#
#   - the scenario library: run (one worker), run -check, check, and the
#     `scenarios` listing;
#   - every catalogue experiment (`all`) at -duration 30;
#   - ispnsim fuzz -n 200;
#   - one repeat of each of the bench binary's five workloads (-child run);
#   - the five examples.
#
# It merges the counters with `go tool covdata` and lists every function of a
# non-test file outside bench/ that never ran, spelled the way
# scripts/unlinked.allow spells a symbol (a main package by its import path).
# scripts/unreached.allow explains some of them, one "symbol category: reason"
# per line, the category being one of diagnostic, guard, probe, facade,
# reference, interface or fuzz-failure. What no entry explains is
# unexplained: the report lists it, and the run fails when the unexplained
# count differs from the ceiling the allow file records ("ceiling: N") — above
# it, prune the function or explain it; below it, lower the ceiling. An allow
# entry whose function ran, is not declared, or gives no known category is
# stale and fails the run too.
#
# usage: unreached.sh [module-root]   (default: the repo this script is in)
set -eu

GO="${GO:-go}"
root="$(cd "${1:-$(dirname "$0")/..}" && pwd)"
allow="$root/scripts/unreached.allow"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
start=$(date +%s)

cd "$root"
module="$(awk '$1 == "module" { print $2; exit }' go.mod)"
$GO build -cover -coverpkg="$module/..." -o "$tmp/bin/" ./cmd/ispnsim ./examples/...
(cd bench && $GO build -cover -coverpkg="$module/..." -o "$tmp/bin/bench" .)

mkdir -p "$tmp/raw" "$tmp/merged" "$tmp/bench"
# workload runs one workload with its counters going to the shared directory;
# a workload that fails fails the census.
workload() {
	GOCOVERDIR="$tmp/raw" "$@" >"$tmp/workload.log" 2>&1 || {
		echo "unreached: workload failed: $*" >&2
		tail -20 "$tmp/workload.log" >&2
		exit 1
	}
}
sim="$tmp/bin/ispnsim"
workload "$sim" -parallel 1 run scenarios/*.ispn
workload "$sim" -check run scenarios/*.ispn
workload "$sim" check scenarios/*.ispn
workload "$sim" scenarios
workload "$sim" -duration 30 all
workload "$sim" -n 200 -corpus "$tmp/corpus" fuzz
for w in chain_batch mesh_sharded churn_control million_members serve_live; do
	workload "$tmp/bin/bench" -child run -workload "$w" -out "$tmp/bench/$w.json"
done
for ex in admission mixedservices quickstart scenariofile videoconf; do
	workload "$tmp/bin/$ex"
done
$GO tool covdata merge -i="$tmp/raw" -o="$tmp/merged"

# Statement share: every basic block once (several binaries carry the same
# package), executed if any run executed it.
$GO tool covdata textfmt -i="$tmp/merged" -o="$tmp/profile.txt"
share="$(awk -v b="$module/bench/" 'NR > 1 && index($1, b) != 1 {
		if (!($1 in n)) { n[$1] = $2; total += $2 }
		if ($3 > 0 && !($1 in hit)) { hit[$1]; run += $2 } }
	END { printf "%.1f", 100 * run / total }' "$tmp/profile.txt")"

# Per function: "ispn/internal/core/network.go:233: *Network.SetLink 0.0%"
# becomes "ispn/internal/core.(*Network).SetLink internal/core/network.go:233".
$GO tool covdata func -i="$tmp/merged" |
	awk -v m="$module" -v b="$module/bench/" '$1 != "total" && index($1, b) != 1 {
		file = $1; sub(/:[0-9]+:$/, "", file); line = $1; sub(/:$/, "", line)
		pkg = file; sub(/\/[^\/]*$/, "", pkg)
		name = $2; if (name ~ /^\*/) { sub(/^\*/, "", name); sub(/\./, ").", name); name = "(*" name }
		sub("^" m "/", "", line)
		print pkg "." name, line, $3 }' | sort -u >"$tmp/funcs"
awk '$3 == "0.0%" { print $1, $2 }' "$tmp/funcs" >"$tmp/zero"
sed -e 's/[[:space:]]*#.*//' -e '/^[[:space:]]*$/d' "$allow" >"$tmp/allow.all"
ceiling="$(awk '$1 == "ceiling:" { print $2 }' "$tmp/allow.all")"
grep -v '^ceiling:' "$tmp/allow.all" | sort >"$tmp/allow"

fail=0
awk 'FILENAME == ARGV[1] { allowed[$1]; next } !($1 in allowed)' "$tmp/allow" "$tmp/zero" >"$tmp/unexplained"
sed 's/^/unreached: unexplained: /' "$tmp/unexplained"
awk 'FILENAME == ARGV[1] { zero[$1]; next }
	!($1 in zero) || $2 !~ /^(diagnostic|guard|probe|facade|reference|interface|fuzz-failure):$/ || NF < 3' \
	"$tmp/zero" "$tmp/allow" >"$tmp/stale"
if [ -s "$tmp/stale" ]; then
	echo "unreached: scripts/unreached.allow entries whose function ran, is not declared, or gives no category and reason:" >&2
	sed 's/^/unreached: stale: /' "$tmp/stale" >&2
	fail=1
fi
n="$(wc -l <"$tmp/unexplained" | tr -d ' ')"
if [ -z "$ceiling" ]; then
	echo "unreached: scripts/unreached.allow records no \"ceiling: N\" line" >&2
	fail=1
elif [ "$n" -gt "$ceiling" ]; then
	echo "unreached: $n unexplained functions, above the ceiling of $ceiling: delete what no workload runs, or explain it in scripts/unreached.allow" >&2
	fail=1
elif [ "$n" -lt "$ceiling" ]; then
	echo "unreached: $n unexplained functions, below the ceiling of $ceiling: lower the ceiling in scripts/unreached.allow to $n" >&2
	fail=1
fi
echo "unreached: $(wc -l <"$tmp/funcs" | tr -d ' ') functions, $share% of statements executed, $(wc -l <"$tmp/zero" | tr -d ' ') never ran: $(($(wc -l <"$tmp/zero") - n)) explained, $n unexplained (ceiling ${ceiling:-none}); $(($(date +%s) - start)) s"
exit "$fail"
