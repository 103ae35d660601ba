#!/usr/bin/env bash
# FMA ratchet: counts the fused multiply-adds the compiler emits for
# arm64 in the packages whose arithmetic decides a skyline, and fails
# when a package has more than scripts/fma_baseline.txt allows.
#
# The Go spec lets the compiler fuse x*y + z into one instruction with a
# single rounding unless an explicit float64(...) conversion intervenes.
# amd64 never fuses, arm64 does, so every fused site is a place where
# the two architectures may compute different bits. The count may fall
# (lower the baseline in the same change); it must not rise.
#
# Runs on any host with no emulator: it only compiles for arm64 and
# reads the assembly listing (go build -gcflags=-S). Prints one
# "package count baseline" line per package.
#   bash scripts/fma_count.sh
set -euo pipefail
cd "$(dirname "$0")/.."

pkgs=(ml stats datagen core skyline estimator table graph baselines)
baseline=scripts/fma_baseline.txt

listing=$(mktemp)
trap 'rm -f "$listing"' EXIT
args=()
for p in "${pkgs[@]}"; do args+=("./internal/$p"); done
if ! GOARCH=arm64 go build -gcflags=-S "${args[@]}" 2>"$listing"; then
  grep -v '^[[:space:]]' "$listing" >&2
  exit 1
fi

# The listing opens each package's section with "# repro/internal/<p>";
# an instruction line holds its mnemonic between tabs.
counts=$(awk '
  /^# / { pkg = $2; sub(".*/", "", pkg); next }
  /\t(FMADDD|FMSUBD|FNMADDD|FNMSUBD)\t/ { n[pkg]++ }
  END { for (p in n) print p, n[p] }
' "$listing")

count() { awk -v p="$1" '$1 == p { print $2; found = 1 } END { if (!found) print 0 }' <<<"$counts"; }

fail=0
for p in "${pkgs[@]}"; do
  got=$(count "$p")
  want=$(awk -v p="$p" '$1 == p { print $2 }' "$baseline")
  if [ -z "$want" ]; then
    echo "$p $got (no baseline)" >&2
    fail=1
    continue
  fi
  echo "$p $got $want"
  if [ "$got" -gt "$want" ]; then
    echo "fma ratchet: internal/$p has $got fused multiply-adds for arm64, baseline $want" >&2
    fail=1
  fi
done
exit "$fail"
