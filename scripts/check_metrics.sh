#!/bin/sh
# Metric naming checker, run by `make docs-check` and CI: the metric catalogue
# in ARCHITECTURE.md must match the names actually registered in the source
# (both directions), and every name must follow the conventions the catalogue
# documents — cfd_ prefix, counters end in _total, histograms carry a unit
# suffix (_seconds, _bytes, _ops), gauges never end in _total.
set -eu

status=0
fail() {
	echo "check-metrics: FAIL: $*" >&2
	status=1
}

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# The catalogue: rows of the ARCHITECTURE.md table whose first cell is a
# cfd_ name. Columns: name | type | labels | layer.
awk -F'|' '/^\| `cfd_/ {
	name = $2; type = $3
	gsub(/[` ]/, "", name); gsub(/ /, "", type)
	print name, type
}' ARCHITECTURE.md | sort >"$tmp/catalogue"
[ -s "$tmp/catalogue" ] || fail "no metric catalogue rows found in ARCHITECTURE.md"

# The source: every metric name registered in non-test Go files of the obs
# package and the serving layer.
grep -ho '"cfd_[a-z0-9_]*"' obs/collectors.go cmd/cfdserve/metrics.go \
	| tr -d '"' | sort -u >"$tmp/registered"
[ -s "$tmp/registered" ] || fail "no registered metric names found in the source"

# Both directions: documented but never registered, registered but undocumented.
cut -d' ' -f1 "$tmp/catalogue" >"$tmp/documented"
if ! comm -23 "$tmp/documented" "$tmp/registered" >"$tmp/ghost" || [ -s "$tmp/ghost" ]; then
	fail "documented in ARCHITECTURE.md but not registered in the source: $(tr '\n' ' ' <"$tmp/ghost")"
fi
if ! comm -13 "$tmp/documented" "$tmp/registered" >"$tmp/undoc" || [ -s "$tmp/undoc" ]; then
	fail "registered in the source but missing from the ARCHITECTURE.md catalogue: $(tr '\n' ' ' <"$tmp/undoc")"
fi

# Naming conventions, validated against the catalogue's declared type.
while read -r name type; do
	case "$name" in
	cfd_*) ;;
	*) fail "$name: every metric must carry the cfd_ prefix" ;;
	esac
	case "$type" in
	counter)
		case "$name" in
		*_total) ;;
		*) fail "$name: counters must end in _total" ;;
		esac
		;;
	histogram)
		case "$name" in
		*_seconds | *_bytes | *_ops) ;;
		*) fail "$name: histograms must carry a unit suffix (_seconds, _bytes, _ops)" ;;
		esac
		;;
	gauge)
		case "$name" in
		*_total) fail "$name: gauges must not end in _total" ;;
		esac
		;;
	*) fail "$name: unknown type \"$type\" in the catalogue (want counter, gauge or histogram)" ;;
	esac
done <"$tmp/catalogue"

[ "$status" -eq 0 ] && echo "check-metrics: OK ($(wc -l <"$tmp/catalogue" | tr -d ' ') metrics)"
exit "$status"
