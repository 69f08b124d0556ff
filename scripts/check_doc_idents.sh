#!/bin/sh
# Stale-identifier checker, run by `make docs-check` and CI: a Go name that
# ARCHITECTURE.md, API.md or README.md writes in backticks must still exist. Checked are
# `pkg.Name` and `pkg.Type.Member`, where pkg is one of the module's library
# packages, and `Type.Member`, where Type is a type one of them declares:
# `go doc -u -c` must find the name (for a Test, Fuzz, Benchmark or Example
# function, the package's _test.go files must declare it). A name with an
# underscore is a metric or benchmark key and one ending in a file extension
# is a file; neither is a Go name, and neither is checked.
set -eu

status=0
fail() {
	echo "check-doc-idents: FAIL: $*" >&2
	status=1
}

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# One line per library package: name, import path, directory.
go list -f '{{if ne .Name "main"}}{{.Name}} {{.ImportPath}} {{.Dir}}{{end}}' ./... >"$tmp/pkgs"
# One line per type a library package declares: type, import path.
while read -r _ path _; do
	go doc -u -short "$path" | awk -v p="$path" '$1 == "type" { print $2, p }'
done <"$tmp/pkgs" >"$tmp/types"

grep -ohE '`[A-Za-z][A-Za-z0-9_]*(\.[A-Za-z][A-Za-z0-9_]*)+(\(\))?`' ARCHITECTURE.md API.md README.md |
	tr -d '`' | sed 's/()$//' | sort -u >"$tmp/names"

checked=0
while read -r name; do
	case "$name" in
	*_* | *.go | *.json | *.jsonl | *.md | *.txt | *.csv | *.sh | *.out) continue ;;
	esac
	qual=${name%%.*} rest=${name#*.}
	pkg=$(awk -v q="$qual" '$1 == q { print $2, $3; exit }' "$tmp/pkgs")
	if [ -n "$pkg" ]; then
		path=${pkg%% *} dir=${pkg#* }
		checked=$((checked + 1))
		case "$rest" in
		Test* | Fuzz* | Benchmark* | Example*)
			grep -qs "^func $rest(" "$dir"/*_test.go || fail "\`$name\`: the tests of $path declare no $rest"
			;;
		*)
			go doc -u -c "$path" "$rest" >/dev/null 2>&1 || fail "\`$name\`: $path declares no $rest"
			;;
		esac
		continue
	fi
	paths=$(awk -v t="$qual" '$1 == t { print $2 }' "$tmp/types")
	[ -n "$paths" ] || continue # not a name of this module
	checked=$((checked + 1))
	found=""
	for path in $paths; do
		if go doc -u -c "$path" "$name" >/dev/null 2>&1; then
			found=1
			break
		fi
	done
	[ -n "$found" ] || fail "\`$name\`: no type $qual ($(echo $paths)) has $rest"
done <"$tmp/names"

[ "$status" -eq 0 ] && echo "check-doc-idents: OK ($checked names)"
exit "$status"
