#!/bin/sh
# Dead-export check: every `val` declared in a lib/**/*.mli must be
# reached from outside its own module. A value is reached when some
# .ml/.mli under lib/, bin/, test/, bench/, perfbench/ or examples/,
# other than its own module's .ml and .mli, names it qualified by its
# module: `Bgn.enc2`, `Sagma_bgn.Bgn.enc2`, or `X.enc2` where that file
# (or any .mli, for re-exported aliases) declares `module X = ...Bgn`.
# A value declared inside a nested signature (`module Mont : sig`) is
# qualified by the nested module: `Mont.mul`, `Z.Mont.mul`, or `M.mul`
# after `module M = Z.Mont`. Unqualified names never count: the
# repository opens only the `Sagma` namespace and external libraries,
# so a bare `min` or `sub` is never a use of `Bigint.min` or
# `Fp2.sub`. Comments (nested `(* ... *)`, odoc `{!Bgn.dec2}` included)
# and string literals are removed before matching, so a value that is
# only mentioned never counts as reached. Values of a `module type`
# signature are not exports and are not checked.
#
# Prints each unreached value as `file: name` and exits non-zero if
# there is any. Hide such a value (and delete it if its own module does
# not use it either) rather than exempting it. Every run first checks
# itself on a planted tree and exits 2 if that check fails.
# Usage: sh scripts/dead_exports.sh   (from anywhere in the repository)
set -eu

# strip(s): s without comments and string contents, carrying the
# comment depth and the open-string state across the lines of a file
# (reset both when a file starts). The char literal '"' opens no string.
strip_fn='
  function strip(s,   out, tok) {
    out = ""
    while (s != "") {
      if (instr) {
        if (!match(s, /\\.|\\$|"/)) break
        tok = substr(s, RSTART, RLENGTH)
        s = substr(s, RSTART + RLENGTH)
        if (tok == "\"") { instr = 0; if (!depth) out = out "\"\"" }
        continue
      }
      if (!match(s, /\047"\047|"|\(\*|\*\)/)) { if (!depth) out = out s; break }
      tok = substr(s, RSTART, RLENGTH)
      if (!depth) out = out substr(s, 1, RSTART - 1)
      s = substr(s, RSTART + RLENGTH)
      if (tok == "(*") depth++
      else if (tok == "*)") { if (depth) depth--; else out = out tok }
      else if (tok == "\"") instr = 1
      else if (!depth) out = out tok
    }
    return out
  }
'

# scan DIR: the check over the source tree rooted at DIR.
scan() (
  cd "$1"
  dirs=""
  for d in lib bin test bench perfbench examples; do [ -d "$d" ] && dirs="$dirs $d"; done
  sources=$(find $dirs -name '*.ml' -o -name '*.mli' | sort)

  # Every qualified reference, as `Module.name file`, with the
  # qualifying module resolved through module aliases.
  refs=$(awk "$strip_fn"'
    function last(path,   parts, k) { k = split(path, parts, "."); return parts[k] }
    function resolve(m,   i) {
      for (i = 0; i < 8; i++) {
        if (m in local && local[m] != m) m = local[m]
        else if (m in global && global[m] != m) m = global[m]
        else break
      }
      return m
    }
    # The `module X = Path` aliases of [file], into [into].
    function aliases(file, into,   line, w) {
      depth = 0; instr = 0
      while ((getline line < file) > 0) {
        line = strip(line)
        if (match(line, /module [A-Z][A-Za-z0-9_]* = [A-Z][A-Za-z0-9_.]*/)) {
          split(substr(line, RSTART, RLENGTH), w, " ")
          into[w[2]] = last(w[4])
        }
      }
      close(file)
    }
    FNR == 1 {
      # Aliases declared in any .mli are exported (`Scheme.Crt`), so
      # they resolve everywhere; aliases any other file declares
      # resolve in that file only.
      if (!loaded) {
        for (f = 1; f < ARGC; f++) if (ARGV[f] ~ /\.mli$/) aliases(ARGV[f], global)
        loaded = 1
      }
      delete local
      aliases(FILENAME, local)
      depth = 0; instr = 0
    }
    {
      line = strip($0)
      while (match(line, /([A-Z][A-Za-z0-9_]*\.)+[a-z_][A-Za-z0-9_]*/)) {
        ref = substr(line, RSTART, RLENGTH)
        line = substr(line, RSTART + RLENGTH)
        k = split(ref, parts, ".")
        print resolve(parts[k - 1]) "." parts[k], FILENAME
      }
    }
  ' $sources | sort -u)

  # `Module.name file.mli` for every exported val. Every `sig`,
  # `struct` and `object` opens a frame that its `end` closes; a
  # `module X : sig` frame qualifies its vals by X, and vals inside any
  # other frame (a `module type`, a functor argument) are not exports.
  vals=$(for mli in $(find lib -name '*.mli' | sort); do
    awk -v top="$(basename "$mli" .mli)" "$strip_fn"'
      BEGIN { top = toupper(substr(top, 1, 1)) substr(top, 2) }
      {
        line = strip($0)
        while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
          tok = substr(line, RSTART, RLENGTH)
          line = substr(line, RSTART + RLENGTH)
          if (after_module) { pending = (tok == "type") ? "" : tok; after_module = 0 }
          else if (tok == "module") after_module = 1
          else if (tok == "sig") { stack[++depth_] = pending; pending = "" }
          else if (tok == "struct" || tok == "object") { stack[++depth_] = ""; pending = "" }
          else if (tok == "end") { if (depth_ > 0) depth_--; pending = "" }
          else if (tok == "val" && match(line, /^[[:space:]]+[a-z_][A-Za-z0-9_]*/)) {
            name = substr(line, RSTART, RLENGTH); gsub(/[[:space:]]/, "", name)
            line = substr(line, RSTART + RLENGTH)
            owner = top; skip = 0
            for (i = 1; i <= depth_; i++) { if (stack[i] == "") skip = 1; else owner = stack[i] }
            if (!skip) print owner "." name, FILENAME
            pending = ""
          }
        }
      }
    ' "$mli"
  done | sort -u)

  # A val is reached when a reference to it lies outside its own
  # .ml/.mli.
  printf '%s\n' "$refs" "== vals ==" "$vals" | awk '
    $0 == "== vals ==" { in_vals = 1; next }
    NF < 2 { next }
    !in_vals { users[$1] = users[$1] " " $2; next }
    {
      base = substr($2, 1, length($2) - 4)
      n = split(users[$1], files, " ")
      reached = 0
      for (i = 1; i <= n; i++)
        if (files[i] != base ".ml" && files[i] != base ".mli") { reached = 1; break }
      if (!reached) {
        split($1, q, ".")
        print $2 ": " q[2]
        dead = 1
      }
    }
    END { exit dead }
  '
)

# Self-check on a planted tree: a use in code counts; a mention in a
# comment, an odoc reference, a string or a bare name does not; a
# string holding "(*" hides nothing after it; a `module type` frame
# neither exports its vals nor shifts the module of later ones.
self_check() {
  tmp=$(mktemp -d)
  trap 'rm -rf "$tmp"' EXIT
  mkdir -p "$tmp/lib/foo" "$tmp/lib/bar"
  cat > "$tmp/lib/foo/foo.mli" <<'EOF'
val used : int
val doc_only : int
(** Unlike {!Foo.doc_only}, ...
    val commented : int *)
module type S = sig
  val in_type : int
end
val after_type : int
val in_string : int
val bare : int
module Inner : sig
  val inner_used : int
  val inner_dead : int
end
EOF
  printf 'let used = 1\n' > "$tmp/lib/foo/foo.ml"
  cat > "$tmp/lib/bar/bar.ml" <<'EOF'
module F = Foo
let _ = Foo.used
(* Foo.doc_only is documented as {!Foo.doc_only}; (* nested *) Foo.doc_only *)
let _ = "Foo.in_string" ^ "(*" ^ "COUNT(*)"
let _ = F.after_type + Foo.Inner.inner_used + '"'
let bare = 1
EOF
  expected='lib/foo/foo.mli: bare
lib/foo/foo.mli: doc_only
lib/foo/foo.mli: in_string
lib/foo/foo.mli: inner_dead'
  got=$(scan "$tmp" || true)
  rm -rf "$tmp"
  trap - EXIT
  if [ "$got" != "$expected" ]; then
    printf 'dead_exports.sh self-check failed; expected:\n%s\ngot:\n%s\n' "$expected" "$got" >&2
    exit 2
  fi
}

self_check
scan "$(dirname "$0")/.."
