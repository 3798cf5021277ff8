#!/bin/sh
# nofma.sh — fail when the compiler fuses a multiply and an add anywhere in
# the module. Go may fuse x*y + z into one instruction that rounds once,
# and does on arm64, ppc64le, s390x and riscv64 (not on amd64), so a fused
# product gives different report bytes there. Writing the product as
# float64(x*y) rounds it and forbids the fusion.
#
# Cross-builds the module for those four architectures with -gcflags=-S and
# lists every fused multiply-add or multiply-subtract instruction by its
# source line; a line that calls math.FMA asks for the fusion and is let
# through.
#
# usage: nofma.sh [module-root]   (default: the repo this script is in)
set -eu

GO="${GO:-go}"
cd "${1:-$(dirname "$0")/..}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

found=0
for arch in arm64 ppc64le s390x riscv64; do
	GOARCH=$arch $GO build -gcflags=-S ./... >"$tmp/asm" 2>&1 || {
		echo "nofma: GOARCH=$arch build failed:" >&2
		grep -v '^	' "$tmp/asm" | tail -20 >&2
		exit 1
	}
	grep -E '[[:space:]]F(N)?M(ADD|SUB)[DS]?[[:space:]]' "$tmp/asm" |
		sed -n 's/^[^(]*(\([^)]*\.go:[0-9]*\)).*/\1/p' | sort -u >"$tmp/lines"
	while read -r pos; do
		if sed -n "${pos##*:}p" "${pos%:*}" | grep -q 'math\.FMA('; then
			continue
		fi
		echo "nofma: GOARCH=$arch fuses a multiply-add at $pos; write the product as float64(x*y)" >&2
		found=1
	done <"$tmp/lines"
done
exit $found
