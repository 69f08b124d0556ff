#!/bin/sh
# Documentation link checker, run by `make docs-check` and the CI docs job:
# every relative markdown link in the checked documents must point at a file
# (or file#anchor) that exists in the repository, the load-bearing
# cross-references between README.md, ARCHITECTURE.md, API.md and doc.go must
# be present, and every `"<Section>" section of ARCHITECTURE.md` a Go file
# cites must name one of its headings. ARCHITECTURE.md describes the design
# at this commit in at most 500 lines; history and measurements go to
# CHANGES.md. External http(s) links are not fetched.
set -eu

DOCS="README.md ARCHITECTURE.md API.md"
status=0

fail() {
	echo "docs-check: FAIL: $*" >&2
	status=1
}

for doc in $DOCS; do
	[ -f "$doc" ] || { fail "$doc is missing"; continue; }
	# Markdown inline link targets: [text](target). One per line (read, not
	# word-split, so targets containing spaces survive), ignoring images and
	# external/in-page links.
	grep -o '](\([^)]*\))' "$doc" | sed 's/^](//; s/)$//' | while IFS= read -r target; do
		case "$target" in
		'' | http://* | https://* | mailto:*) continue ;;
		\#*) continue ;; # in-page anchor; heading drift is caught below for the ones we pin
		../*) continue ;; # host-relative GitHub URL (the CI badge), not a repo file
		esac
		file="${target%%#*}"
		if [ ! -e "$file" ]; then
			echo "docs-check: FAIL: $doc links to missing file $target" >&2
			exit 1
		fi
	done || status=1
done

# Load-bearing cross-references: the README and doc.go must route readers to
# the architecture document and back, and the HTTP API contract must be
# reachable from both entry documents.
grep -q 'ARCHITECTURE.md' README.md || fail "README.md must link ARCHITECTURE.md"
grep -q 'README' ARCHITECTURE.md || fail "ARCHITECTURE.md must link back to the README"
grep -q 'ARCHITECTURE.md' doc.go || fail "doc.go must mention ARCHITECTURE.md"
grep -q 'API.md' README.md || fail "README.md must link API.md"
grep -q 'API.md' ARCHITECTURE.md || fail "ARCHITECTURE.md must link API.md"
grep -q 'README' API.md || fail "API.md must link back to the README"

# Anchored deep links: for every intra-repo link with a #fragment, the target
# document must contain a heading that slugifies to the fragment.
for doc in $DOCS; do
	grep -o '](\([^)]*#[^)]*\))' "$doc" | sed 's/^](//; s/)$//' | while IFS= read -r target; do
		file="${target%%#*}"
		anchor="${target#*#}"
		case "$file" in
		'' | http://* | https://*) continue ;;
		esac
		[ -f "$file" ] || continue # missing files already reported above
		found=0
		# Slugify each heading the way GitHub does (lowercase, drop
		# punctuation, spaces to dashes) and compare. Fenced code blocks are
		# stripped first so shell comments in examples don't pass as
		# headings.
		while IFS= read -r heading; do
			slug="$(printf '%s' "$heading" \
				| sed 's/^#*[[:space:]]*//' \
				| tr '[:upper:]' '[:lower:]' \
				| sed 's/[^a-z0-9 -]//g; s/ /-/g')"
			[ "$slug" = "$anchor" ] && found=1
		done <<-EOF
		$(awk '/^```/ { fence = !fence; next } !fence' "$file" | grep '^#')
		EOF
		if [ "$found" -ne 1 ]; then
			echo "docs-check: FAIL: $doc links to $target but $file has no matching heading" >&2
			exit 1
		fi
	done || status=1
done

# The line budget.
lines=$(wc -l <ARCHITECTURE.md)
[ "$lines" -le 500 ] || fail "ARCHITECTURE.md is $lines lines, over its 500-line budget"

# Section citations in Go comments: the quoted name must equal a heading of
# ARCHITECTURE.md (outside code fences) without its #s and backticks. Comment
# lines are joined first, so a citation may wrap.
headings="$(awk '/^```/ { fence = !fence; next } !fence' ARCHITECTURE.md | grep '^#' | sed 's/^#*[[:space:]]*//; s/`//g')"
find . -name '*.go' ! -path './.bench_build/*' | sort | while IFS= read -r f; do
	sed 's|^[[:space:]]*//[[:space:]]*||' "$f" | tr '\n' ' ' |
		{ grep -o '"[^"]*" section of ARCHITECTURE\.md' || true; } |
		sed 's/^"//; s/" section of ARCHITECTURE\.md$//' |
		while IFS= read -r name; do
			if ! printf '%s\n' "$headings" | grep -qxF "$name"; then
				echo "docs-check: FAIL: $f cites the \"$name\" section of ARCHITECTURE.md, which has no such heading" >&2
				exit 1
			fi
		done || exit 1
done || status=1

[ "$status" -eq 0 ] && echo "docs-check: OK"
exit "$status"
