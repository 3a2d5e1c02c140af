#!/usr/bin/env bash
# linked_check.sh — the library is what a binary links. Every function
# the module's non-test code declares (outside bench/) must be linked
# into at least one of the nine link roots: the four commands, the four
# examples and the benchmark harness. Code only tests call belongs in a
# _test.go file; code nothing calls is deleted.
#
# Usage: scripts/linked_check.sh    (from any directory; exit 1 lists
#                                    every unlinked function)
#
# Each root is built with -gcflags=all=-l so that a callee the compiler
# inlined still shows up as a symbol, and a function counts as linked
# when `go tool nm` lists it (generic instantiations with their [...]
# shape suffix stripped, pointer and value receivers alike). A main
# package's functions are checked against its own binary.
set -euo pipefail
cd "$(dirname "$0")/.."

# Unlinked on purpose: a glob over "importpath.Func" or
# "importpath.Type.Method", then the one-line reason.
exemptions='
quicsand/internal/faultinject.*                  test support: byte-plane faults under the capture, salvage and root tests
*.String                                         fmt.Stringer: linked only where a value reaches the interface
*.Error                                          error: linked only where a value reaches the interface
*.Temporary                                      salvage.Transient: linked only where a value reaches the interface
quicsand/internal/telemetry.Snapshot.Stream      worker-invariant projection the root and telemetry tests compare
quicsand/internal/telemetry.Timeline.StageSpans  span structure per stage the root and telemetry tests compare
quicsand/internal/wire.PacketNumberLen           RFC 9000 encoding length the wire and quiccrypto tests seal with
'

roots='cmd/quicsand cmd/telescoped cmd/floodbench cmd/quicprobe
examples/quickstart examples/record-replay examples/scenarios examples/telescope-pipeline'

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# symbols BINARY ROOT: "ROOT symbol" for every text symbol in BINARY.
symbols() {
    go tool nm "$1" | awk -v root="$2" '$2 == "T" || $2 == "t" {
        s = $0                                 # a struct shape name has spaces
        sub(/^[[:space:]]*[0-9a-f]+[[:space:]]+[Tt][[:space:]]+/, "", s)
        while (gsub(/\[[^][]*\]/, "", s)) {}   # generic shape suffixes
        gsub(/\(\*/, "", s); gsub(/\)/, "", s) # (*T).M → T.M
        print root, s
    }'
}

for r in $roots; do
    go build -gcflags=all=-l -o "$tmp/bin" "./$r"
    symbols "$tmp/bin" "$r"
done > "$tmp/linked"
go -C bench build -gcflags=all=-l -o "$tmp/bin" .
symbols "$tmp/bin" bench >> "$tmp/linked"

# Every top-level func declaration: "ROOT symbol file:line", where ROOT
# is the main package's own root or "lib" for a library package.
go list -f '{{.ImportPath}} {{.Name}} {{.Dir}} {{join .GoFiles " "}}' ./... |
while read -r path name dir files; do
    root=lib prefix=$path
    if [ "$name" = main ]; then
        root=${path#quicsand/} prefix=main
    fi
    rel=${dir#"$PWD"}
    rel=${rel#/}
    for f in $files; do
        grep -n '^func ' "$dir/$f" | sed -E \
            -e 's/^([0-9]+):func \(([^)]*)\) ([A-Za-z0-9_]+).*/\1 \2 \3/' \
            -e 's/^([0-9]+):func ([A-Za-z0-9_]+).*/\1 - \2/' |
        awk -v root="$root" -v p="$prefix" -v f="${rel:+$rel/}$f" '{
            recv = ($2 == "-") ? "" : $(NF-1)
            sub(/^\*/, "", recv); sub(/\[.*/, "", recv)
            if (recv == "" && ($NF == "init" || $NF == "main")) next
            print root, p "." (recv == "" ? "" : recv ".") $NF, f ":" $1
        }'
    done
done > "$tmp/declared"

echo "$exemptions" | awk 'NF { print $1 }' > "$tmp/exempt"

# A library function may be linked by any root, a main package's only by
# its own binary.
unlinked=$(awk '
    FILENAME == ARGV[1] { pat[++n] = $1; next }
    FILENAME == ARGV[2] { in_root[$1 " " $2] = 1; if ($2 !~ /^main\./) in_lib[$2] = 1; next }
    {
        if ($1 == "lib" ? in_lib[$2] : in_root[$1 " " $2]) next
        for (i = 1; i <= n; i++) {
            re = pat[i]; gsub(/\./, "\\.", re); gsub(/\*/, ".*", re)
            if ($2 ~ ("^" re "$")) next
        }
        print $3 ": " $2 " is linked into no binary"
    }' "$tmp/exempt" "$tmp/linked" "$tmp/declared")

if [ -n "$unlinked" ]; then
    echo "$unlinked"
    echo "linked_check: $(echo "$unlinked" | wc -l) unlinked functions; move each into the tests that call it, delete it, or exempt it above with a reason" >&2
    exit 1
fi
echo "linked_check: every declared function is linked ($(wc -l < "$tmp/declared") declared, $(awk 'NF' "$tmp/exempt" | wc -l) exemption patterns)"
