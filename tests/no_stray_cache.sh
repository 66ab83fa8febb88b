#!/usr/bin/env bash
# Run the suites that sweep through runSuite() (HierarchySuite,
# RecoveryTest, ReplPolicyInterface, QuietTests, TagLayoutBehavior)
# in an empty working directory, and fail if a result cache appears
# there: with the store parked off, their repeated sweeps simulate
# every time instead of replaying the first sweep's entries.
#
#   no_stray_cache.sh TEST_BINARY
set -euo pipefail

binary=$1
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"
unset KAGURA_CACHE KAGURA_CACHE_DIR

filter='HierarchySuite.*:RecoveryTest.*:ReplPolicyInterface.*'
filter+=':QuietTests.*:TagLayoutBehavior.*'
if ! "$binary" --gtest_filter="$filter" > run.log 2>&1; then
    cat run.log
    echo "FAIL: the suites failed" >&2
    exit 1
fi
if [ -e .kagura-cache ]; then
    echo "FAIL: the suites wrote a result cache:" >&2
    find .kagura-cache -type f | head >&2
    exit 1
fi
grep -E '^\[  PASSED  \]' run.log
