#!/bin/sh
# unreached-teeth.sh — prove `make unreached` actually fails.
#
# Copies the repo into a scratch tree and plants three functions no workload
# runs — the effect of a Churn argument no workload writes, in a helper of its
# own; an exported method nothing calls in internal/queue; a function in a
# package no binary imports — plus an allow entry for a function every
# workload runs. It also plants a branch no workload takes in a function
# every workload runs (scenario.Parse), and an unreached.blocks entry for a
# block every parse runs. scripts/unreached.sh must exit nonzero naming each
# function as unexplained, exactly three unexplained in all, and the entry as
# stale; and naming the planted branch and the Churn argument's (which calls
# the helper) as unexplained blocks, exactly two in all, and the block entry
# as stale.
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
# The argument is planted the way a real one is added: a name in Churn's row
# of the element table, and its effect where churnDecl reads the arguments.
sed -i 's/"from", "to", "locality"}}/"from", "to", "locality", "zzteeth"}}/' "$tmp/internal/scenario/elements.go"
churn="$(grep -l '^	a\.enum("src", ' "$tmp"/internal/scenario/*.go || true)"
if [ -n "$churn" ]; then
	sed -i '/^	a\.enum("src", /a\	if _, ok := a.given("zzteeth"); ok {\n\t\tzzUnreachedTeeth(ch)\n\t}' "$churn"
fi
if ! grep -q '"locality", "zzteeth"}}' "$tmp/internal/scenario/elements.go" || [ -z "$churn" ] || ! grep -q 'zzUnreachedTeeth(ch)' "$churn"; then
	echo "unreached-teeth: FAIL — could not plant the argument: Churn's element row no longer ends with \"locality\"}}, or churnDecl no longer reads a.enum(\"src\", ...)" >&2
	exit 1
fi
cat > "$tmp/internal/queue/zz_unreached_teeth_seeded.go" <<'GO'
package queue

// ZzUnreachedTeeth is seeded by scripts/unreached-teeth.sh: an exported
// method with no caller, which the census must report.
func (r *Ring) ZzUnreachedTeeth() int { return r.Len() }
GO
mkdir "$tmp/internal/zzorphan"
cat > "$tmp/internal/zzorphan/orphan.go" <<'GO'
// Package zzorphan is seeded by scripts/unreached-teeth.sh: no binary
// imports it, so only the declared-function list can report Orphan.
package zzorphan

func Orphan() int { return 1 }
GO
echo 'ispn/internal/scenario.Parse guard: seeded by unreached-teeth.sh, every workload parses' >> "$tmp/scripts/unreached.allow"
cat >> "$tmp/internal/scenario/zz_unreached_teeth_seeded.go" <<'GO'

// zzTeethParses is seeded by scripts/unreached-teeth.sh: the planted branch
// in Parse counts into it.
var zzTeethParses int
GO
sed -i '/^func Parse(name string, src \[\]byte) (_ \*File, err error) {$/a\	if name == "zz-unreached-teeth" {\n\t\tzzTeethParses++\n\t}' "$tmp/internal/scenario/parser.go"
if ! grep -q 'zzTeethParses++' "$tmp/internal/scenario/parser.go" || ! grep -q '^	for p.tok.kind != tokEOF {$' "$tmp/internal/scenario/parser.go"; then
	echo "unreached-teeth: FAIL — could not plant the branch: scenario.Parse's signature or its token loop changed" >&2
	exit 1
fi
echo 'ispn/internal/scenario.Parse [for p.tok.kind != tokEOF] guard: seeded by unreached-teeth.sh, every parse runs it' >> "$tmp/scripts/unreached.blocks"

out="$tmp/unreached.out"
if "$tmp/scripts/unreached.sh" "$tmp" >"$out" 2>&1; then
	echo "unreached-teeth: FAIL — the seeded functions and stale allow entry were not rejected" >&2
	cat "$out" >&2
	exit 1
fi
for want in \
	'^unreached: unexplained: ispn/internal/scenario\.zzUnreachedTeeth ' \
	'^unreached: unexplained: ispn/internal/queue\.(\*Ring)\.ZzUnreachedTeeth ' \
	'^unreached: unexplained: ispn/internal/zzorphan\.Orphan ' \
	'^unreached: stale: ispn/internal/scenario\.Parse ' \
	'^unreached: .* never ran: [0-9]* explained, 3 unexplained;' \
	'^unreached: unexplained block: ispn/internal/scenario\.Parse \[if name == "zz-unreached-teeth"\] ' \
	'^unreached: unexplained block: ispn/internal/scenario\.[^ ]* \[if _, ok := a\.given("zzteeth"); ok\] ' \
	'^unreached: stale block: ispn/internal/scenario\.Parse \[for p\.tok\.kind != tokEOF\] ' \
	'^unreached: .* blocks never ran, [0-9]* listed: [0-9]* explained, 2 unexplained;'; do
	if ! grep -q "$want" "$out"; then
		echo "unreached-teeth: FAIL — the report lacks a line matching $want:" >&2
		cat "$out" >&2
		exit 1
	fi
done
echo "unreached-teeth: OK — the three seeded functions and the two seeded branches named, the seeded allow and block entries called stale"
