#!/bin/sh
# Dead-export check: every `val` declared in a lib/**/*.mli must be
# reached from outside its own module. A value is reached when its name
# appears as a whole word in some .ml/.mli under lib/, bin/, test/,
# bench/, perfbench/ or examples/ other than its own module's .ml and
# .mli. Prints each unreached value as `file: name` and exits non-zero
# if there is any. Hide such a value (and delete it if its own module
# does not use it either) rather than exempting it.
# Usage: sh scripts/dead_exports.sh   (from anywhere in the repository)
set -eu

cd "$(dirname "$0")/.."

dirs="lib bin test bench perfbench examples"
found=0
for mli in $(find lib -name '*.mli' | sort); do
  base=${mli%.mli}
  names=$(sed -n "s/^[[:space:]]*val[[:space:]][[:space:]]*\([a-z_][A-Za-z0-9_]*\).*/\1/p" "$mli" | sort -u)
  for name in $names; do
    if ! grep -rlw --include='*.ml' --include='*.mli' -- "$name" $dirs \
        | grep -qv -x -e "$base.ml" -e "$base.mli"; then
      echo "$mli: $name"
      found=1
    fi
  done
done
exit $found
