#!/bin/sh
# The 15 slowest top-level tests of a `go test -v` log, slowest first:
# package, test name and seconds. A test's subtests count inside its
# own time, so only top-level tests are listed.
#
# Usage: scripts/slowtests.sh [log]      (standard input without a log)
#        go test -count=1 -v ./... 2>&1 | scripts/slowtests.sh
#        make test-slow
#
# go test prints a package's test results before the package's own
# "ok" or "FAIL" line, which names the package: results are held until
# that line and then listed under it.
set -eu

awk '
/^--- (PASS|FAIL|SKIP): / {
	secs = $4
	gsub(/[()s]/, "", secs)
	held[++n] = $3 " " secs
	next
}
/^(ok|FAIL)[ \t]+[^ \t]+[ \t]/ {
	for (i = 1; i <= n; i++) {
		split(held[i], f, " ")
		printf "%s %s %s\n", $2, f[1], f[2]
	}
	n = 0
}
' "${1:--}" | sort -k3,3 -g -r | head -n 15 | awk '{ printf "%-28s %-56s %8.2f s\n", $1, $2, $3 }'
