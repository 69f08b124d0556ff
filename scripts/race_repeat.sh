#!/bin/sh
# Re-runs named tests ten times under the race detector, for `make race`:
# the detector only reports the interleavings a run executes. `go test -run`
# with a pattern that matches nothing exits 0, so a renamed or deleted test
# would silently drop out of the re-runs; every name must therefore be listed
# by `go test -list` in one of the packages first.
#
# Usage: race_repeat.sh 'TestA|TestB' <package>...
set -eu

names=$1
shift

listed="$(go test -list "^($names)\$" "$@")"
for name in $(echo "$names" | tr '|' ' '); do
	echo "$listed" | grep -qx "$name" || { echo "race: FAIL: no test $name in $*" >&2; exit 1; }
done
exec go test -race -count=10 -run "^($names)\$" "$@"
