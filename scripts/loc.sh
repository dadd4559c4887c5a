#!/bin/sh
# loc.sh — count the repository's Go lines, the figure CHANGES.md records
# for each change's net delta.
#
#	./scripts/loc.sh
#
# Prints the non-test and the test line counts of the tracked Go files
# outside perfbench (its own module), so comparing two checkouts' output
# gives the net delta in one command.
set -eu

cd "$(dirname "$0")/.."

printf 'non-test Go lines: %s\n' "$(git ls-files '*.go' ':!:*_test.go' ':!:perfbench/**' | xargs cat | wc -l)"
printf 'test Go lines:     %s\n' "$(git ls-files '*_test.go' ':!:perfbench/**' | xargs cat | wc -l)"
