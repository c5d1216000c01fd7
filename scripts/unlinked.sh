#!/usr/bin/env bash
# Unlinked-code scan, as run by CI (and runnable locally:
# scripts/unlinked.sh [ceiling-file]).
#
# Builds every main package of the module (cmd/*, examples/*) and of the
# nested perfbench module with inlining off (-gcflags=all=-l), so that no
# function hides inside its callers, lists the symbols each binary links
# with `go tool nm`, and compares them with the module's non-test func
# declarations. Every declaration no binary links is printed as
# "package.Receiver.Name<TAB>file:line", then the count.
#
# With a ceiling file (CI passes .github/unlinked-ceiling.txt) the scan is a
# ratchet: a count above the committed number fails. Lower the ceiling when
# the count falls; never raise it to admit new unlinked code. A function
# that stays unlinked on purpose (a test oracle) is listed with its reason
# in CHANGES.md.
set -euo pipefail

cd "$(dirname "$0")/.."
ceiling_file="${1:-}"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Linked symbols, normalised to "importpath.Func" or "importpath.Recv.Method":
# generic instantiation brackets and pointer-receiver parentheses dropped,
# and each binary's "main." prefix replaced by its import path. The name is
# everything after the address and type fields, since a generic symbol's
# shape can hold spaces ("go.shape.struct { ... }").
build_and_list() { # dir importpath
    local bin="$tmp/bin"
    (cd "$1" && go build -gcflags=all=-l -o "$bin" .)
    go tool nm "$bin" | awk -v main="$2" '
        $2 == "T" || $2 == "t" {
            s = $0
            sub(/^[ \t]*[^ \t]+[ \t]+[^ \t]+[ \t]+/, "", s)
            while (match(s, /\[[^][]*\]/)) s = substr(s, 1, RSTART-1) substr(s, RSTART+RLENGTH)
            gsub(/\(\*/, "", s); gsub(/\)/, "", s)
            if (substr(s, 1, 5) == "main.") s = main substr(s, 5)
            print s
        }'
}

{
    go list -f '{{if eq .Name "main"}}{{.Dir}} {{.ImportPath}}{{end}}' ./... |
        while read -r dir path; do build_and_list "$dir" "$path"; done
    build_and_list perfbench tlc/perfbench
} | sort -u > "$tmp/linked"

# Non-test declarations of the tlc module, one "importpath.Name<TAB>file:line"
# per func. init funcs are skipped: they run whenever their package links.
go list -f '{{$d := .Dir}}{{$p := .ImportPath}}{{range .GoFiles}}{{$p}} {{$d}}/{{.}}{{"\n"}}{{end}}' ./... |
    while read -r path file; do
        awk -v pkg="$path" -v file="${file#"$PWD"/}" '
            /^func / {
                line = $0
                sub(/^func /, "", line)
                recv = ""
                if (substr(line, 1, 1) == "(") {
                    r = substr(line, 2, index(line, ")") - 2)
                    line = substr(line, index(line, ")") + 1)
                    sub(/^ +/, "", line)
                    # A generic receiver "c *Cache[K, V]" has spaces
                    # inside its brackets: drop them before splitting.
                    sub(/\[.*$/, "", r)
                    n = split(r, parts, " ")
                    recv = parts[n]
                    sub(/^\*/, "", recv)
                    recv = recv "."
                }
                match(line, /^[A-Za-z_][A-Za-z0-9_]*/)
                name = substr(line, RSTART, RLENGTH)
                if (recv == "" && name == "init") next
                printf "%s.%s%s\t%s:%d\n", pkg, recv, name, file, FNR
            }' "$file"
    done | sort > "$tmp/declared"

awk -F'\t' 'NR == FNR { linked[$1] = 1; next } !($1 in linked)' \
    "$tmp/linked" "$tmp/declared" > "$tmp/unlinked"

cat "$tmp/unlinked"
count=$(wc -l < "$tmp/unlinked" | tr -d ' ')
echo "unlinked functions: $count"

if [ -n "$ceiling_file" ]; then
    ceiling=$(cat "$ceiling_file")
    if [ "$count" -gt "$ceiling" ]; then
        echo "unlinked: FAIL: $count unlinked functions, above the ceiling $ceiling in $ceiling_file" >&2
        echo "(delete the new unlinked code, or give it a caller)" >&2
        exit 1
    fi
    echo "unlinked: PASS (ceiling $ceiling)"
fi
