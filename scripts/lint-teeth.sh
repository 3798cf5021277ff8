#!/bin/sh
# lint-teeth.sh — prove `make lint` actually fails on a violation.
#
# Copies the repo into a scratch tree, seeds two deliberate unsorted map
# ranges into internal/core — a new function whose loop reads the map's
# order, and core.Network.flowsByID collecting the flows map with its sort
# dropped — and requires `go vet -vettool=ispnvet` to exit nonzero with a
# maprange finding on each. A lint gate that cannot fail is decoration;
# this script runs in `make ci` so the gate's teeth are themselves tested.
set -eu

GO="${GO:-go}"
root="$(cd "$(dirname "$0")/.." && pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# tar keeps this portable (no rsync dependency); the build cache and any
# previously built binaries are irrelevant to the check.
(cd "$root" && tar -cf - --exclude=.git --exclude=bin --exclude='*.pprof' .) | (cd "$tmp" && tar -xf -)

cat > "$tmp/internal/core/zz_lint_teeth_seeded.go" <<'EOF'
package core

// Seeded by scripts/lint-teeth.sh: an order-dependent map iteration that
// ispnvet's maprange analyzer must reject.
func zzLintTeethSeeded(m map[string]int) int {
	total := 0
	for _, v := range m {
		if v > 0 {
			total += v
		}
	}
	return total
}
EOF

# flowsByID collects the flows map and returns it unsorted: Flows() and the
# reroute sweep would then iterate in map order.
net="$tmp/internal/core/network.go"
sed -e 's/^	for _, id := range slices\.Sorted(maps\.Keys(n\.flows)) {$/	for _, f := range n.flows {/' \
    -e 's/^		out = append(out, n\.flows\[id\])$/		out = append(out, f)/' "$net" >"$net.planted"
mv "$net.planted" "$net"
if ! grep -q '^	for _, f := range n.flows {$' "$net"; then
	echo "lint-teeth: FAIL — could not drop flowsByID's sort; update the plant" >&2
	exit 1
fi
echo 'var _ = maps.Keys[map[uint32]*Flow] // the plant leaves maps otherwise unused' >>"$net"

cd "$tmp"
$GO build -o bin/ispnvet ./cmd/ispnvet

out="$tmp/vet.out"
if $GO vet -vettool="$tmp/bin/ispnvet" ./internal/core >"$out" 2>&1; then
	echo "lint-teeth: FAIL — seeded maprange violation was not rejected" >&2
	cat "$out" >&2
	exit 1
fi
for plant in 'zz_lint_teeth_seeded.go' 'network.go'; do
	if ! grep -q "$plant.*maprange" "$out"; then
		echo "lint-teeth: FAIL — vet failed, but not with a maprange finding in $plant:" >&2
		cat "$out" >&2
		exit 1
	fi
done
echo "lint-teeth: OK — both seeded violations rejected by the maprange analyzer"
