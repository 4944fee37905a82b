#!/usr/bin/env bash
# List every `val` declared in lib/*/*.mli that no file outside its own
# module (the .ml/.mli pair) uses, searching lib, bin, bench, benchmark,
# examples and test. A use counts only when it names the value through
# its module path (`Zipfian.items`, `Sync.Mutex.with_lock` for a value of
# sync.mli's `Mutex`), or names it without the path in a file that opens
# the module (`open Zipfian`, `let open Zipfian in`, `Zipfian.( .. )`), so
# an unrelated identifier of the same name is not a reference. Exits 1
# when the list is non-empty, so an export nothing uses cannot creep
# back in.
#
# Usage: tools/dead_exports.sh   (from the repository root)
set -euo pipefail
cd "$(dirname "$0")/.."
dirs=(lib bin bench benchmark examples test)
files=$(grep -rl --include='*.ml' --include='*.mli' -e '' "${dirs[@]}")

# "Path.To.Module name" for each val of an .mli, nested `module X : sig`
# blocks included.
vals_of() {
  awk -v top="$1" '
    /^[[:space:]]*module[[:space:]]+[A-Z][A-Za-z0-9_]*[[:space:]]*:[[:space:]]*sig/ {
      path[++depth] = $2; next
    }
    /^[[:space:]]*end([[:space:]]|$)/ { if (depth > 0) depth--; next }
    /^[[:space:]]*val[[:space:]]+[a-z_][A-Za-z0-9_'"'"']*/ {
      p = top
      for (i = 1; i <= depth; i++) p = p "." path[i]
      sub(/^[[:space:]]*val[[:space:]]+/, "")
      sub(/[^A-Za-z0-9_'"'"'].*$/, "")
      print p, $0
    }' "$2" | sort -u
}

dead=0
for mli in lib/*/*.mli; do
  base=${mli%.mli}
  name=$(basename "$base")
  top=$(echo "${name:0:1}" | tr a-z A-Z)${name:1}
  others=$(echo "$files" | grep -vxF -e "$base.ml" -e "$base.mli")
  # Files that open the module, at top level or locally.
  opening=$(echo "$others" | xargs grep -lE \
    "(open!?[[:space:]]+([A-Z][A-Za-z0-9_]*\.)*$top\b|(^|[^A-Za-z0-9_.])([A-Z][A-Za-z0-9_]*\.)*$top\.\()" \
    || true)
  while read -r path v; do
    [ -n "$v" ] || continue
    qualified="${path//./\\.}\\.$v"
    inner="${path#"$top"}"
    inner="${inner#.}"
    short="${inner:+${inner//./\\.}\\.}$v"
    if echo "$others" | xargs grep -qwE -e "$qualified" \
       || { [ -n "$opening" ] && echo "$opening" | xargs grep -qwE -e "$short"; }
    then
      continue
    fi
    echo "$mli: $path.$v"
    dead=$((dead + 1))
  done < <(vals_of "$top" "$mli")
done
if [ "$dead" -gt 0 ]; then
  echo "$dead unreferenced export(s)" >&2
  exit 1
fi
echo "no unreferenced exports"
