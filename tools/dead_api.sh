#!/usr/bin/env bash
# Dead-API lint: fail on any library function that no program uses.
#
# Usage: tools/dead_api.sh BUILD_DIR
#
# BUILD_DIR must be a full build at -O0 with -ffunction-sections
# -fdata-sections -fkeep-inline-functions and -Wl,--gc-sections (the `lint`
# preset). The linker then keeps a library function in a program only if
# something in that program calls it, and every header-defined function is
# emitted where its header is included. The script lists every external
# function the static libraries under BUILD_DIR/src define (nm type T) and
# every header-defined one in namespace tsvcod (type W), and removes those
# that survive in at least one non-test program: the tool, bench and example
# targets that CMake lists in BUILD_DIR/dead_api_programs.txt, so a stale
# binary of a deleted target keeps nothing alive. What remains is reachable
# only from tests. Constructors, destructors and assignment operators are
# ignored. Each remaining function must be named in tools/dead_api.allow
# (`name  # reason`, name without the tsvcod:: prefix and without
# parameters); the script fails naming any that is not, and any allowlist
# entry that is no longer dead. -O0 matters: at -O2 a helper inlined into
# every caller in its own file leaves no symbol behind and shows as dead.
#
# It also reports, grouped by program, the library functions that exactly
# one program keeps: candidates to move beside that program. The report
# never changes the exit status.
set -euo pipefail
export LC_ALL=C  # one collation for sort and comm

BUILD="${1:?usage: $0 BUILD_DIR}"
ALLOW="$(cd "$(dirname "$0")" && pwd)/dead_api.allow"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

LIST="$BUILD/dead_api_programs.txt"
if [ ! -f "$LIST" ]; then
  echo "dead_api: no $LIST; configure $BUILD with the lint preset" >&2
  exit 2
fi
mapfile -t libs < <(find "$BUILD/src" -name '*.a' | sort)
mapfile -t programs < <(awk 'NF' "$LIST" | sort)
missing=0
for p in "${programs[@]}"; do
  [ -f "$p" ] || { echo "dead_api: program $p is not built" >&2; missing=1; }
done
if [ "${#libs[@]}" -eq 0 ] || [ "${#programs[@]}" -eq 0 ] || [ "$missing" -ne 0 ]; then
  echo "dead_api: no libraries or programs under $BUILD; build it first" >&2
  exit 2
fi

nm --defined-only "${libs[@]}" |
  awk '$2 == "T" || ($2 == "W" && $3 ~ /^_ZN[KRO]*6tsvcod/) { print $3 }' | sort -u > "$TMP/defined"
# One `program<TAB>symbol` line per library function a program keeps.
for p in "${programs[@]}"; do
  nm --defined-only "$p" | awk 'NF == 3 { print $3 }' | sort -u | comm -12 "$TMP/defined" - |
    awk -v prog="$(basename "$p")" '{ print prog "\t" $0 }'
done > "$TMP/keepers"
cut -f2 "$TMP/keepers" | sort -u > "$TMP/kept"

# Demangle, drop the namespace prefix, ABI tags and parameter list, and skip
# special members: `X::X`, `X::~X` and `operator=`. Prints `name<TAB>signature`.
readable() {
  c++filt | sed -E 's/\[abi:[^]]*\]//g; s/^tsvcod:://' |
    awk '{
      sig = $0
      name = sig
      sub(/\(.*$/, "", name)
      n = split(name, part, "::")
      last = part[n]
      cls = n > 1 ? part[n - 1] : ""
      sub(/<.*$/, "", cls)
      if (last == cls || last == "~" cls || last == "operator=") next
      print name "\t" sig
    }'
}

comm -23 "$TMP/defined" "$TMP/kept" | readable | sort -u > "$TMP/dead"

sed -E 's/#.*$//; s/[[:space:]]+$//; s/^[[:space:]]+//' "$ALLOW" | awk 'NF' | sort -u \
  > "$TMP/allowed"

fail=0
while IFS=$'\t' read -r name sig; do
  if ! grep -qxF -- "$name" "$TMP/allowed"; then
    echo "dead_api: $sig is called by no tool, bench or example"
    fail=1
  fi
done < "$TMP/dead"
cut -f1 "$TMP/dead" | sort -u > "$TMP/dead_names"
while read -r name; do
  echo "dead_api: allowlist entry $name is no longer dead; remove it from $ALLOW"
  fail=1
done < <(comm -23 "$TMP/allowed" "$TMP/dead_names")

# Report: functions kept by exactly one program, grouped by that program.
awk -F'\t' 'NR == FNR { n[$2]++; next } n[$2] == 1' "$TMP/keepers" "$TMP/keepers" \
  > "$TMP/single_keepers"
cut -f1 "$TMP/single_keepers" | sort -u | while read -r prog; do
  awk -F'\t' -v prog="$prog" '$1 == prog { print $2 }' "$TMP/single_keepers" | readable |
    cut -f1 | sort -u > "$TMP/names"
  [ -s "$TMP/names" ] || continue
  echo "dead_api: report: $prog alone keeps $(wc -l < "$TMP/names"):" \
    "$(paste -sd' ' "$TMP/names")"
done

echo "dead_api: $(wc -l < "$TMP/defined") library functions, $(wc -l < "$TMP/dead") used only by" \
  "tests, $(wc -l < "$TMP/allowed") allowlisted"
if [ "$fail" -ne 0 ]; then
  echo "dead_api: FAILED (delete the function, move it into tests/, or allowlist it with a reason)"
  exit 1
fi
echo "dead_api: ok"
