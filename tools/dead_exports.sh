#!/usr/bin/env bash
# List every `val` declared in lib/*/*.mli that no file outside its own
# module (the .ml/.mli pair) mentions, searching lib, bin, bench,
# benchmark, examples and test with a whole-word grep. Exits 1 when the
# list is non-empty, so an export nothing uses cannot creep back in.
#
# Usage: tools/dead_exports.sh   (from the repository root)
set -euo pipefail
cd "$(dirname "$0")/.."
dirs=(lib bin bench benchmark examples test)
dead=0
for mli in lib/*/*.mli; do
  base=${mli%.mli}
  for v in $(grep -oE "^[[:space:]]*val[[:space:]]+[a-z_][A-Za-z0-9_']*" "$mli" \
               | awk '{print $2}' | sort -u); do
    refs=$(grep -rlw --include='*.ml' --include='*.mli' -e "$v" "${dirs[@]}" \
             | grep -cvxF -e "$base.ml" -e "$base.mli" || true)
    if [ "$refs" -eq 0 ]; then
      echo "$mli: $v"
      dead=$((dead + 1))
    fi
  done
done
if [ "$dead" -gt 0 ]; then
  echo "$dead unreferenced export(s)" >&2
  exit 1
fi
echo "no unreferenced exports"
