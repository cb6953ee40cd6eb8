#!/usr/bin/env bash
# Reachability check: every function declared in a non-test file under
# internal/ must be linked into some front end (a cmd/* or examples/*
# main, or benchmark/wfbench), or be named in scripts/reach.allow.
#
#   bash scripts/reach.sh
#
# It builds the front ends with inlining off, so a called function keeps
# its own text symbol, lists the internal text symbols with `go tool nm`
# and compares them with the func declarations. It prints
# "file:line function" for each function no front end links and the
# allowlist does not name, and each allowlist entry that names nothing
# unlinked, and then exits 1.
#
# Symbols are normalized before the comparison: type arguments
# ("Heap[go.shape.int]", "readFile[...]") are dropped, a closure
# ("F.func1", "F.gowrap2") counts as its enclosing function, a method
# value ("M-fm") as its method, and "(*T).M" as "T.M", so a value-receiver
# method counts as linked when only its pointer wrapper is.
set -euo pipefail
cd "$(dirname "$0")/.."

mod="$(awk '$1 == "module" { print $2; exit }' go.mod)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

mkdir -p "$tmp/bin/cmd" "$tmp/bin/examples" "$tmp/bin/benchmark"
go build -gcflags=all=-l -o "$tmp/bin/cmd/" ./cmd/...
go build -gcflags=all=-l -o "$tmp/bin/examples/" ./examples/...
go -C benchmark build -gcflags=all=-l -o "$tmp/bin/benchmark/" ./wfbench

for bin in "$tmp"/bin/*/*; do
  go tool nm "$bin"
done | sed -n "s#^ *[0-9a-f]* [Tt] $mod/##p" | grep '^internal/' | awk '
  {
    s = $0
    # Type arguments nest ("Heap[go.shape.[]uint8]"): strip innermost first.
    while (gsub(/\[[^][]*\]/, "", s)) {}
    sub(/-fm$/, "", s)
    sub(/\.(func|gowrap|deferwrap)[0-9].*$/, "", s)
    sub(/\(\*/, "", s)
    sub(/\)\./, ".", s)
    print s
  }' | sort -u > "$tmp/linked"

# One "file:line pkg.[Recv.]Name" line per func declaration; gofmt puts
# every top-level declaration at the start of a line.
find internal -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | sort |
  xargs awk '
    FNR == 1 { pkg = FILENAME; sub(/\/[^\/]*$/, "", pkg) }
    /^func / {
      s = substr($0, 6); recv = ""
      if (substr(s, 1, 1) == "(") {
        end = index(s, ")")
        recv = substr(s, 2, end - 2)
        s = substr(s, end + 2)
        while (gsub(/\[[^][]*\]/, "", recv)) {}
        n = split(recv, f, " ")
        recv = f[n]
        sub(/^\*/, "", recv)
        recv = recv "."
      }
      if (!match(s, /^[A-Za-z_][A-Za-z0-9_]*/)) next
      name = substr(s, 1, RLENGTH)
      if (name == "init" || name == "_") next
      print FILENAME ":" FNR " " pkg "." recv name
    }' > "$tmp/declared"

# Allowlist entries: a function as printed below, or a file path meaning
# every function declared in it; the rest of the line is the reason.
sed -e 's/#.*//' -e '/^[[:space:]]*$/d' scripts/reach.allow | awk '{ print $1 }' |
  sort -u > "$tmp/allow"

awk -v linked="$tmp/linked" -v allow="$tmp/allow" '
  BEGIN {
    while ((getline l < linked) > 0) live[l] = 1
    while ((getline l < allow) > 0) ok[l] = 1
  }
  {
    fn = $2; file = $1; sub(/:[0-9]*$/, "", file)
    if (fn in live) next
    if (fn in ok) { used[fn] = 1; next }
    if (file in ok) { used[file] = 1; next }
    print
  }
  END {
    for (e in ok) if (!(e in used)) print "scripts/reach.allow: " e " names no unlinked function"
  }' "$tmp/declared" | sort > "$tmp/report"

if [ -s "$tmp/report" ]; then
  cat "$tmp/report"
  echo "reach: the functions above are linked into no front end" >&2
  exit 1
fi
echo "reach: $(wc -l < "$tmp/declared") functions declared, all linked or allowlisted"
