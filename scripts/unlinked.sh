#!/bin/sh
# unlinked.sh — fail on any function no shipped binary links.
#
# Builds the eight shipped entry points (cmd/ispnsim, cmd/ispnvet, the five
# examples and the bench binary) without inlining, so a function that is
# called keeps its symbol, and unions what `go tool nm` finds in them. Every
# function declared in a non-test file of a non-main package must be in that
# union or in scripts/unlinked.allow (one "symbol reason..." per line, '#'
# comments): reachability is a whole-program fact the linker already
# computes, interface methods included, which a grep cannot. An allow entry
# that is linked after all, no longer declared, or carries no reason is
# stale and fails the check too.
#
# usage: unlinked.sh [module-root]   (default: the repo this script is in)
set -eu

GO="${GO:-go}"
root="$(cd "${1:-$(dirname "$0")/..}" && pwd)"
allow="$root/scripts/unlinked.allow"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

cd "$root"
module="$(awk '$1 == "module" { print $2; exit }' go.mod)"
$GO build -gcflags=all=-l -o "$tmp/bin/" ./cmd/... ./examples/...
(cd bench && $GO build -gcflags=all=-l -o "$tmp/bin/bench" .)

# A generic function's symbol carries its shape arguments in brackets, nested
# for a generic over a generic; strip them innermost first.
for b in "$tmp"/bin/*; do $GO tool nm "$b"; done |
	awk -v m="$module" '{ s = $3; while (sub(/\[[^][]*\]/, "", s)); if (index(s, m "/") == 1 || index(s, m ".") == 1) print s }' |
	sort -u >"$tmp/linked"
$GO run ./scripts/listfuncs "$root" "$module" | sort >"$tmp/declared"
sed -e 's/[[:space:]]*#.*//' -e '/^[[:space:]]*$/d' "$allow" | sort >"$tmp/allow"

fail=0
awk 'FILENAME == ARGV[1] { linked[$1]; next } !($1 in linked)' "$tmp/linked" "$tmp/declared" >"$tmp/unlinked"
awk 'FILENAME == ARGV[1] { allowed[$1]; next } !($1 in allowed)' "$tmp/allow" "$tmp/unlinked" >"$tmp/new"
if [ -s "$tmp/new" ]; then
	echo "unlinked: no shipped binary links these; delete them, or add them to scripts/unlinked.allow with the test or role that needs them:" >&2
	sed 's/^/unlinked: new: /' "$tmp/new" >&2
	fail=1
fi
awk 'FILENAME == ARGV[1] { unlinked[$1]; next } !($1 in unlinked) || NF < 2' "$tmp/unlinked" "$tmp/allow" >"$tmp/stale"
if [ -s "$tmp/stale" ]; then
	echo "unlinked: scripts/unlinked.allow entries that are linked, not declared, or give no reason:" >&2
	sed 's/^/unlinked: stale: /' "$tmp/stale" >&2
	fail=1
fi
[ "$fail" -eq 0 ] || exit 1
echo "unlinked: OK — $(wc -l <"$tmp/declared" | tr -d ' ') functions declared, $(wc -l <"$tmp/unlinked" | tr -d ' ') unlinked, all allowlisted"
