#!/bin/sh
# unlinked-teeth.sh — prove `make unlinked` actually fails.
#
# Copies the repo into a scratch tree, plants an exported method nothing
# calls in internal/queue and an allow entry for a function every binary
# links, and requires scripts/unlinked.sh to exit nonzero naming the first as
# new and the second as stale. Runs in `make ci` next to lint-teeth.sh.
set -eu

root="$(cd "$(dirname "$0")/.." && pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

(cd "$root" && tar -cf - --exclude=.git --exclude=bin --exclude=bench/.build --exclude=bench/out --exclude='*.pprof' .) | (cd "$tmp" && tar -xf -)

cat > "$tmp/internal/queue/zz_unlinked_teeth_seeded.go" <<'GO'
package queue

// ZzUnlinkedTeeth is seeded by scripts/unlinked-teeth.sh: an exported method
// with no caller, which the unlinked check must report.
func (r *Ring) ZzUnlinkedTeeth() int { return r.Len() }
GO
echo 'ispn/internal/queue.(*Ring).Push seeded by unlinked-teeth.sh: every port links it' >> "$tmp/scripts/unlinked.allow"

out="$tmp/unlinked.out"
if "$tmp/scripts/unlinked.sh" "$tmp" >"$out" 2>&1; then
	echo "unlinked-teeth: FAIL — the seeded dead method and stale allow entry were not rejected" >&2
	cat "$out" >&2
	exit 1
fi
if ! grep -q '^unlinked: new: ispn/internal/queue\.(\*Ring)\.ZzUnlinkedTeeth ' "$out"; then
	echo "unlinked-teeth: FAIL — the check failed without naming the seeded method:" >&2
	cat "$out" >&2
	exit 1
fi
if ! grep -q '^unlinked: stale: ispn/internal/queue\.(\*Ring)\.Push ' "$out"; then
	echo "unlinked-teeth: FAIL — the check failed without calling the seeded allow entry stale:" >&2
	cat "$out" >&2
	exit 1
fi
if [ "$(grep -c '^unlinked: \(new\|stale\): ' "$out")" -ne 2 ]; then
	echo "unlinked-teeth: FAIL — the check reported more than the two seeded lines:" >&2
	cat "$out" >&2
	exit 1
fi
echo "unlinked-teeth: OK — seeded dead method named, seeded allow entry called stale"
