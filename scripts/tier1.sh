#!/bin/sh
# Tier-1 verification: build everything, run the full unit-test suite,
# then rebuild the base simulation library with AddressSanitizer +
# UndefinedBehaviorSanitizer (cmake -DVMP_SANITIZE=address,undefined)
# and rerun the core tests under it. Fails on the first error.
#
# Usage: scripts/tier1.sh [build-dir] [sanitize-build-dir]
set -e

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build=${1:-"$repo/build"}
sanitize=${2:-"$repo/build-sanitize"}
jobs=$(nproc 2>/dev/null || echo 2)

echo "== tier1: configure + build ($build) =="
cmake -B "$build" -S "$repo"
cmake --build "$build" -j "$jobs"

echo "== tier1: full test suite (torture matrix excluded) =="
ctest --test-dir "$build" --output-on-failure -j "$jobs" -LE torture

echo "== tier1: sanitizer build ($sanitize) =="
cmake -B "$sanitize" -S "$repo" -DVMP_SANITIZE=address,undefined
cmake --build "$sanitize" -j "$jobs" \
    --target test_sim test_cache test_mem test_artifact test_core test_hier \
    test_recover test_obs test_telemetry test_proto test_cpu test_vm \
    test_sync test_integration test_trace test_fault test_backing \
    test_monitor test_arbitration test_snoopy bench_table1

# test_alloc is not in this list: it replaces the global operator new to
# count allocations, and ASan owns operator new in this build. It runs
# in the full suite above.

echo "== tier1: sanitized core tests =="
"$sanitize/tests/test_sim"
# Cache data arena: every page is a pointer offset into one buffer.
"$sanitize/tests/test_cache"
"$sanitize/tests/test_mem"
# Bus completions are (client, token) records: a queued request's
# completion under priority and round-robin arbitration, and the fence
# bounce, point into the requesting master.
"$sanitize/tests/test_monitor"
"$sanitize/tests/test_arbitration"
"$sanitize/tests/test_artifact"
# Machine assembly: kill, fence and rejoin hooks capture the machine and
# raw board pointers.
"$sanitize/tests/test_core"
"$sanitize/tests/test_hier"
"$sanitize/tests/test_recover" --gtest_filter=-*Torture*
# Trace serializer: putChromeRecord writes into a fixed kMaxRecordBytes
# buffer for both the post-hoc export and the streaming sink.
"$sanitize/tests/test_obs"
"$sanitize/tests/test_telemetry"
# Interrupt service: the controller's interrupt line and its pending
# idle-service pass capture the controller; CPUs switch its mode.
"$sanitize/tests/test_proto"
"$sanitize/tests/test_cpu"
"$sanitize/tests/test_vm"
"$sanitize/tests/test_sync"
# Whole flat machines: the controllers' dense slot-to-frame vectors and
# alias chains, and the event queue's lane winner tree.
"$sanitize/tests/test_integration"
# Trace generator: the Zipf guide-table index and the walk from it, and
# the fixed three-slot reference queue, are new bounds to check.
"$sanitize/tests/test_trace"
# Snoopy baseline: reads the packed 8-byte MemRef's bit-fields on every
# reference, the one consumer of the record not covered above.
"$sanitize/tests/test_snoopy"
# Flat checkers, fault arming and frame checkpoints through Machine's
# enable* paths (the torture matrix has its own sanitized CI job).
"$sanitize/tests/test_fault" --gtest_filter=-*Torture*
"$sanitize/tests/test_backing"

echo "== tier1: OK =="
