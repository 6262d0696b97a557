#!/bin/sh
# check-run-patterns.sh [MAKEFILE]: fail when an alternative of a
# `go test -run` pattern in MAKEFILE (default ./Makefile) matches no test in
# the packages its line names, so a renamed or deleted test cannot drop out
# of a gate unnoticed. The alternative '^$' (run no test, as the fuzz lines
# ask) is exempt. Tests are listed with `go test -list`, once per package.
set -euf
mk=${1:-Makefile}
GO=${GO:-go}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
grep -E "test .*-run '[^']*'" "$mk" | sed 's/\$\$/$/g' > "$tmp/lines"
while IFS= read -r line; do
	pat=$(printf '%s\n' "$line" | sed -E "s/.*-run '([^']*)'.*/\1/")
	pkgs=$(printf '%s\n' "$line" | sed -E "s/.*-run '[^']*'//" | tr ' ' '\n' | grep -E '^\.(/|$)' || true)
	: > "$tmp/tests"
	for p in $pkgs; do
		list="$tmp/list$(printf '%s' "$p" | tr '/.' '__')"
		if [ ! -f "$list" ]; then
			$GO test -list . "$p" > "$list.out" || { cat "$list.out"; exit 1; }
			grep -E '^(Test|Benchmark|Fuzz|Example)' "$list.out" > "$list" || true
		fi
		cat "$list" >> "$tmp/tests"
	done
	for alt in $(printf '%s\n' "$pat" | tr '|' ' '); do
		[ "$alt" = '^$' ] && continue
		if ! grep -Eq -- "$alt" "$tmp/tests"; then
			echo "run-patterns: '$alt' matches no test in" $pkgs
			touch "$tmp/failed"
		fi
	done
done < "$tmp/lines"
[ ! -f "$tmp/failed" ]
