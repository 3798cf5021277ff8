#!/bin/sh
# unreached.sh — the dead-code gate: fail on any function, or any branch of a
# function that runs, that no workload executes.
#
# Builds cmd/ispnsim, cmd/ispnvet, the five examples and the bench binary
# with every package of the module instrumented for coverage
# (-cover -coverpkg=ispn/...) and runs the workload set under one GOCOVERDIR:
#
#   - the scenario library: run, run -check, run -check of copies with
#     shards 3 written into each file's Net line (a Net(shards 3) added
#     where a file has none) and the seed and horizon overridden, check,
#     and the `scenarios` listing;
#   - every catalogue experiment (`all`) at -horizon 30;
#   - ispnsim fuzz -n 200;
#   - scripts/serve-smoke.sh against the covered ispnsim;
#   - go vet -vettool=<the covered ispnvet> ./..., and one dependency-only
#     unit sent to it directly (whether go vet sends any depends on its
#     build cache);
#   - one repeat of each of the bench binary's five workloads (-child run);
#   - the five examples.
#
# It merges the counters with `go tool covdata` and lists every function of a
# non-test file outside bench/ that never ran: a function of a covered binary
# with no count, and a function scripts/listfuncs declares that no covered
# binary carries, so a package nothing imports cannot hide. A symbol is
# spelled the way `go tool nm` spells it (a main package by its import path).
# scripts/unreached.allow explains some of them, one "symbol category: reason"
# per line, the category being one of diagnostic, guard, probe, facade,
# reference, interface or fuzz-failure. What no entry explains is
# unexplained and fails the run: delete the function, or explain it. An allow
# entry whose function ran, is not declared, or gives no known category is
# stale and fails the run too.
#
# The branch census does the same for blocks: `listfuncs blocks` lists every
# basic block of a non-test file outside bench/ that never ran although its
# function did, and that does not end in an error exit (a panic, a return of
# a non-nil error, an exit with a non-zero status, or a call to a function
# unreached.allow calls a diagnostic). A block inside another that never ran
# is that one's: only the outermost is listed. Its key is the function's
# symbol and its guard in brackets — the if, case or for header, "else of"
# the if's, the function literal's signature, or "after" the statement that
# ended the block before it — whitespace-normalized, with #k on the k-th
# identical guard of a function; no line numbers. scripts/unreached.blocks
# keeps some, one "symbol [guard] category: reason" per line, with the
# allowlist's categories and "pending: item N", a block waiting on the
# workload ROADMAP item N names. An unexplained block fails the run, and so
# does an entry whose block ran, no longer exists, or gives no category.
#
# The last line sums up both censuses: functions and blocks never run,
# explained and not, and the explained blocks per category ("pending: item
# N" counted as pending).
#
# usage: unreached.sh [module-root]   (default: the repo this script is in)
set -eu

GO="${GO:-go}"
root="$(cd "${1:-$(dirname "$0")/..}" && pwd)"
allow="$root/scripts/unreached.allow"
blocks="$root/scripts/unreached.blocks"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
start=$(date +%s)

cd "$root"
module="$(awk '$1 == "module" { print $2; exit }' go.mod)"
$GO build -cover -coverpkg="$module/..." -o "$tmp/bin/" ./cmd/... ./examples/...
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
workload "$sim" run scenarios/*.ispn
workload "$sim" -check run scenarios/*.ispn
mkdir -p "$tmp/sharded"
for f in scenarios/*.ispn; do
	if grep -q ':: Net(' "$f"; then
		sed 's/\(:: Net(.*\))$/\1, shards 3)/' "$f"
	else
		cat "$f"
		printf '\nnet :: Net(shards 3)\n'
	fi >"$tmp/sharded/${f##*/}"
	grep -q 'shards 3)$' "$tmp/sharded/${f##*/}" || {
		echo "unreached: could not write shards 3 into $f" >&2
		exit 1
	}
done
workload "$sim" -seed 7 -horizon 20 -check run "$tmp/sharded"/*.ispn
workload "$sim" check scenarios/*.ispn
workload "$sim" scenarios
workload "$sim" -horizon 30 all
workload "$sim" -n 200 -corpus "$tmp/corpus" fuzz
workload env ISPNSIM="$sim" ./scripts/serve-smoke.sh
workload $GO vet -vettool="$tmp/bin/ispnvet" ./...
# go vet sends a dependency-only unit only for a package whose facts its
# build cache lacks, so one is sent here whatever the cache holds.
printf '{"ImportPath": "fmt", "VetxOnly": true, "VetxOutput": "%s"}\n' "$tmp/dep.vetx" >"$tmp/dep.cfg"
workload "$tmp/bin/ispnvet" "$tmp/dep.cfg"
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
# becomes "ispn/internal/core.(*Network).SetLink internal/core/network.go:233",
# then every declared function no covered binary carries joins as never run.
$GO tool covdata func -i="$tmp/merged" |
	awk -v m="$module" -v b="$module/bench/" '$1 != "total" && index($1, b) != 1 {
		file = $1; sub(/:[0-9]+:$/, "", file); line = $1; sub(/:$/, "", line)
		pkg = file; sub(/\/[^\/]*$/, "", pkg)
		name = $2; if (name ~ /^\*/) { sub(/^\*/, "", name); sub(/\./, ").", name); name = "(*" name }
		sub("^" m "/", "", line)
		print pkg "." name, line, $3 }' | sort -u >"$tmp/covered"
$GO run ./scripts/listfuncs "$root" "$module" >"$tmp/declared"
awk 'FILENAME == ARGV[1] { print; carried[$1]; next } !($1 in carried) { print $1, $2, "0.0%" }' \
	"$tmp/covered" "$tmp/declared" | sort >"$tmp/funcs"
awk '$3 == "0.0%" { print $1, $2 }' "$tmp/funcs" >"$tmp/zero"
sed -e 's/[[:space:]]*#.*//' -e '/^[[:space:]]*$/d' "$allow" | sort >"$tmp/allow"

fail=0
awk 'FILENAME == ARGV[1] { allowed[$1]; next } !($1 in allowed)' "$tmp/allow" "$tmp/zero" >"$tmp/unexplained"
if [ -s "$tmp/unexplained" ]; then
	echo "unreached: no workload runs these; delete them, or explain them in scripts/unreached.allow:" >&2
	sed 's/^/unreached: unexplained: /' "$tmp/unexplained" >&2
	fail=1
fi
awk 'FILENAME == ARGV[1] { zero[$1]; next }
	!($1 in zero) || $2 !~ /^(diagnostic|guard|probe|facade|reference|interface|fuzz-failure):$/ || NF < 3' \
	"$tmp/zero" "$tmp/allow" >"$tmp/stale"
if [ -s "$tmp/stale" ]; then
	echo "unreached: scripts/unreached.allow entries whose function ran, is not declared, or gives no category and reason:" >&2
	sed 's/^/unreached: stale: /' "$tmp/stale" >&2
	fail=1
fi

# The branch census: "symbol [guard] file:line" per listed block, the key
# being all but the position; a kept entry's key ends at the "] " before its
# category.
$GO run ./scripts/listfuncs blocks "$root" "$module" "$tmp/profile.txt" "$allow" >"$tmp/blocklist"
never="$(sed -n 's/^# \([0-9]*\) blocks never ran.*/\1/p' "$tmp/blocklist")"
grep -v '^#' "$tmp/blocklist" >"$tmp/listed" || true
sed -e '/^[[:space:]]*#/d' -e '/^[[:space:]]*$/d' "$blocks" >"$tmp/kept"
awk 'function key(s) {
		if (match(s, /\] (diagnostic|guard|probe|facade|reference|interface|fuzz-failure|pending: item [0-9]+): [^ ]/)) return substr(s, 1, RSTART)
		return "" }
	FILENAME == ARGV[1] { k = key($0); if (k != "") kept[k]; next }
	{ k = $0; sub(/ [^ ]*$/, "", k); if (!(k in kept)) print }' "$tmp/kept" "$tmp/listed" >"$tmp/unexplained-blocks"
if [ -s "$tmp/unexplained-blocks" ]; then
	echo "unreached: no workload takes these branches; delete them, or explain them in scripts/unreached.blocks:" >&2
	sed 's/^/unreached: unexplained block: /' "$tmp/unexplained-blocks" >&2
	fail=1
fi
awk 'function key(s) {
		if (match(s, /\] (diagnostic|guard|probe|facade|reference|interface|fuzz-failure|pending: item [0-9]+): [^ ]/)) return substr(s, 1, RSTART)
		return "" }
	FILENAME == ARGV[1] { k = $0; sub(/ [^ ]*$/, "", k); listed[k]; next }
	{ k = key($0); if (k == "" || !(k in listed)) print }' "$tmp/listed" "$tmp/kept" >"$tmp/stale-blocks"
if [ -s "$tmp/stale-blocks" ]; then
	echo "unreached: scripts/unreached.blocks entries whose block ran, no longer exists, or gives no category and reason:" >&2
	sed 's/^/unreached: stale block: /' "$tmp/stale-blocks" >&2
	fail=1
fi

n="$(wc -l <"$tmp/unexplained" | tr -d ' ')"
nb="$(wc -l <"$tmp/unexplained-blocks" | tr -d ' ')"
listed="$(wc -l <"$tmp/listed" | tr -d ' ')"
# The explained blocks by category, most first ("pending: item N" counts as
# pending): "145 guard, 34 diagnostic, ...".
bycat="$(awk 'FILENAME == ARGV[1] { k = $0; sub(/ [^ ]*$/, "", k); listed[k]; next }
	match($0, /\] (diagnostic|guard|probe|facade|reference|interface|fuzz-failure|pending: item [0-9]+): [^ ]/) {
		if (!(substr($0, 1, RSTART) in listed)) next
		c = substr($0, RSTART + 2); sub(/[: ].*/, "", c); n[c]++ }
	END { for (c in n) print n[c], c }' "$tmp/listed" "$tmp/kept" | sort -k1,1nr -k2 | paste -sd, - | sed 's/,/, /g')"
echo "unreached: $(wc -l <"$tmp/funcs" | tr -d ' ') functions, $share% of statements executed, $(wc -l <"$tmp/zero" | tr -d ' ') never ran: $(($(wc -l <"$tmp/zero") - n)) explained, $n unexplained; $never blocks never ran, $listed listed: $((listed - nb)) explained, $nb unexplained; explained blocks: ${bycat:-none}; $(($(date +%s) - start)) s"
exit "$fail"
