#!/usr/bin/env bash
# Tier-1 verification:
#   1. full build + test suite — includes the adaptsim-lint static-
#      analysis gate (ctest test `lint`) and the header self-
#      containment objects, which compile with the main build
#   2. ThreadSanitizer pass over the concurrency-critical tests
#      (thread pool, shared simulation repository, shared trace
#      cache, metrics registry, first-use construction of the fixed
#      perf-model backend table, the gather scheduler, the multi-core
#      chip model with its shared LLC, the shared warm memo, the
#      pooled per-segment SimPoint walk, and the pooled classifier
#      jobs of training and leave-one-program-out)
#   3. AddressSanitizer+UBSan pass over the full test suite
#   4. -DADAPTSIM_WERROR=ON hardened compile: the whole tree (library,
#      tools, tests, benches, examples) must be -Wshadow -Werror clean
#   5. clang -DADAPTSIM_THREAD_SAFETY=ON static concurrency analysis:
#      the annotations in src/common/thread_annotations.hh must prove
#      lock discipline under -Wthread-safety -Werror
#   6. the repository benchmark's own tests (perfbench/run.py
#      --self-test): the benchmark still builds against the library
#      and its gather_interval and control operations still match
#      their pinned hashes
# Sanitizer and clang passes skip gracefully where the toolchain
# piece is unavailable (CI runs them unconditionally).
set -euo pipefail
cd "$(dirname "$0")/.."

san_available() {
    echo 'int main(){return 0;}' |
        c++ -fsanitize="$1" -x c++ - -o /tmp/adaptsim_san_probe \
            2>/dev/null || return 1
    rm -f /tmp/adaptsim_san_probe
}

# 1. Build + full suite (lint gate included).
cmake -B build -S .
cmake --build build -j"$(nproc)"
ctest --test-dir build --output-on-failure -j"$(nproc)"

# 2. TSan over the concurrency tests: one list feeds both the build
# targets and the exact-match ctest filter.
tsan_tests=(test_thread_pool test_repository test_trace_cache test_obs
            test_sim test_gather_scheduler test_shared_llc test_chip
            test_warm_memo test_cross_validation test_simpoint
            test_trainer)
if san_available thread; then
    cmake -B build-tsan -S . -DADAPTSIM_SANITIZE=thread
    cmake --build build-tsan -j"$(nproc)" --target "${tsan_tests[@]}"
    ctest --test-dir build-tsan --output-on-failure \
        -R "^($(IFS='|'; echo "${tsan_tests[*]}"))\$"
else
    echo "tier1: ThreadSanitizer unavailable; skipping TSan pass"
fi

# 3. ASan+UBSan over the full suite.
if san_available address,undefined; then
    cmake -B build-asan-ubsan -S . \
        -DADAPTSIM_SANITIZE="address;undefined"
    cmake --build build-asan-ubsan -j"$(nproc)"
    UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
        ctest --test-dir build-asan-ubsan --output-on-failure \
        -j"$(nproc)"
else
    echo "tier1: ASan+UBSan unavailable; skipping sanitizer pass"
fi

# 4. Hardened warning profile (compile-only).
cmake -B build-werror -S . -DADAPTSIM_WERROR=ON
cmake --build build-werror -j"$(nproc)"

# 5. Clang thread-safety analysis (compile-only): proves the lock
# annotations across every locked subsystem.  GCC compiles the
# macros out, so this pass needs a real clang++.
if command -v clang++ >/dev/null 2>&1; then
    cmake -B build-threadsafety -S . \
        -DCMAKE_CXX_COMPILER=clang++ -DADAPTSIM_THREAD_SAFETY=ON
    cmake --build build-threadsafety -j"$(nproc)" \
        --target adaptsim adaptsim_lint
else
    echo "tier1: clang++ unavailable; skipping thread-safety pass"
fi

# 6. Benchmark self-test.  run.py refuses to run under any ADAPTSIM_*
# variable, so the subshell clears them; it builds into .bench_build/
# and writes only under .bench_work/.
(
    for var in $(compgen -e | grep '^ADAPTSIM_'); do
        unset "$var"
    done
    python3 perfbench/run.py --self-test
)

echo "tier1: all passes complete"
