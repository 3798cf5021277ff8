#!/bin/sh
# unreached-teeth.sh — prove `make unreached` actually fails.
#
# Copies the repo into a scratch tree, plants a Churn argument no workload
# writes, with its effect in a helper of its own, and an allow entry for a
# function every workload runs, and requires scripts/unreached.sh to exit
# nonzero naming the helper as unexplained (one above the ceiling) and the
# entry as stale.
set -eu

root="$(cd "$(dirname "$0")/.." && pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

(cd "$root" && tar -cf - --exclude=.git --exclude=bin --exclude=bench/.build --exclude=bench/out --exclude='*.pprof' .) | (cd "$tmp" && tar -xf -)

cat > "$tmp/internal/scenario/zz_unreached_teeth_seeded.go" <<'GO'
package scenario

// zzUnreachedTeeth is seeded by scripts/unreached-teeth.sh: the effect of a
// Churn argument no workload writes, which the census must report.
func zzUnreachedTeeth(ch *churnRun) { ch.pps *= 2 }
GO
sed -i 's/^\ta\.finish(churnArgNames\.\.\.)$/\tif _, ok := a.given("zzteeth", -1); ok { zzUnreachedTeeth(ch) }; a.finish(append(churnArgNames, "zzteeth")...)/' "$tmp/internal/scenario/timeline.go"
if ! grep -q 'zzUnreachedTeeth(ch)' "$tmp/internal/scenario/timeline.go"; then
	echo "unreached-teeth: FAIL — could not plant the argument: churnDecl no longer ends with a.finish(churnArgNames...)" >&2
	exit 1
fi
echo 'ispn/internal/scenario.Parse guard: seeded by unreached-teeth.sh, every workload parses' >> "$tmp/scripts/unreached.allow"

out="$tmp/unreached.out"
if "$tmp/scripts/unreached.sh" "$tmp" >"$out" 2>&1; then
	echo "unreached-teeth: FAIL — the seeded argument and stale allow entry were not rejected" >&2
	cat "$out" >&2
	exit 1
fi
ceiling="$(awk '$1 == "ceiling:" { print $2 }' "$root/scripts/unreached.allow")"
for want in \
	'^unreached: unexplained: ispn/internal/scenario\.zzUnreachedTeeth ' \
	'^unreached: stale: ispn/internal/scenario\.Parse ' \
	"^unreached: $((ceiling + 1)) unexplained functions, above the ceiling of $ceiling:"; do
	if ! grep -q "$want" "$out"; then
		echo "unreached-teeth: FAIL — the report lacks a line matching $want:" >&2
		cat "$out" >&2
		exit 1
	fi
done
echo "unreached-teeth: OK — seeded argument's helper named, seeded allow entry called stale"
