#!/usr/bin/env bash
# Repo invariant linter: greppable rules the toolchain cannot express as
# compiler warnings. Run from anywhere (resolves the repo root itself);
# wired both as the `lint_invariants` ctest and into the docs-and-formats
# CI job. Exit 0 = clean, 1 = violations (each printed with file:line).
#
# The rules, and why they exist:
#   1. No std::rand/srand/time-seeding in src/ — determinism is a paper
#      claim (bit-identical results across thread counts); all randomness
#      goes through spmap::Rng with an explicit seed.
#   2. No <iostream> in library code — the library reports through
#      return values and std::FILE* sinks; iostream drags in static
#      init-order hazards and interleaves badly under concurrency.
#   3. No raw std::mutex/condvar/lock types outside src/util/mutex.hpp —
#      every lock must be the annotated spmap::Mutex/MutexLock/CondVar
#      so clang -Werror=thread-safety sees it (docs/STATIC_ANALYSIS.md).
#   4. No naked std::thread::detach() — a detached thread outlives the
#      state it touches; everything joins (ThreadPool, MappingService,
#      test helpers).
#   5. No clock in src/sched/ — pricing and probe routing are pure
#      functions of their inputs, so the same calls take the same paths
#      and return the same values on every run.
#   6. No `mutable` member in src/sched/ — the evaluators are shared
#      read-only by concurrent runs; per-run pricing state lives in the
#      caller's EvalContext or IncrementalEvaluator, never behind const.
#   7. `time_node(` is called only by `sweep` (src/sched/sweep_kernel.hpp)
#      and by the incremental engine's recording sweep and `step`
#      (src/sched/incremental_evaluator.cpp) — every other per-position
#      timing loop is `sweep`, so the timing arithmetic has one loop.
#   8. `tail_of` is defined only in src/sched/sweep_kernel.hpp — the tail
#      bound behind every cutoff (`evaluate_moves` and the incremental
#      engine's `probe`) has one implementation.
set -u

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

failures=0

report() {
  # $1 = rule description, $2 = matches (possibly empty)
  if [ -n "$2" ]; then
    echo "lint_invariants: $1" >&2
    echo "$2" >&2
    failures=1
  fi
}

# Rule 1: no unseeded/global randomness in library code.
matches=$(grep -rn --include='*.hpp' --include='*.cpp' \
  -e 'std::rand\b' -e '\bsrand(' -e 'time(NULL)' -e 'time(nullptr)' \
  src/ || true)
report "std::rand/srand/time() seeding is banned in src/ (use spmap::Rng with an explicit seed)" "$matches"

# Rule 2: no iostream in library code (tools/tests/bench may print).
matches=$(grep -rn --include='*.hpp' --include='*.cpp' \
  -e '#include <iostream>' src/ || true)
report "<iostream> is banned in src/ (use std::FILE* sinks)" "$matches"

# Rule 3: raw standard lock primitives only inside the annotated wrapper.
# std::once_flag/std::call_once stay legal (no capability semantics to
# annotate); the banned tokens are the lockables and holders themselves.
matches=$(grep -rn --include='*.hpp' --include='*.cpp' \
  -e 'std::mutex\b' -e 'std::shared_mutex\b' -e 'std::timed_mutex' \
  -e 'std::recursive_mutex' -e 'std::condition_variable' \
  -e 'std::lock_guard' -e 'std::unique_lock' -e 'std::scoped_lock' \
  src/ | grep -v '^src/util/mutex\.hpp:' || true)
report "raw std::mutex family outside src/util/mutex.hpp (use spmap::Mutex/MutexLock/CondVar so the thread-safety analysis sees the lock)" "$matches"

# Rule 4: no detached threads anywhere in the tree we ship.
matches=$(grep -rn --include='*.hpp' --include='*.cpp' \
  -e '\.detach()' src/ tools/ bench/ || true)
report "std::thread::detach() is banned (join everything; detached threads outlive the state they touch)" "$matches"

# Rule 5: the evaluator layer reads no clock.
matches=$(grep -rn --include='*.hpp' --include='*.cpp' \
  -e '<chrono>' -e 'steady_clock' -e 'system_clock' -e 'WallTimer' \
  -e 'clock_gettime' src/sched/ || true)
report "clocks are banned in src/sched/ (pricing and probe routing must be pure functions of their inputs)" "$matches"

# Rule 6: no mutable member declarations in the evaluator layer. Only
# code before any `//` counts, so prose saying "mutable" does not match.
matches=$(grep -rnE --include='*.hpp' --include='*.cpp' \
  '^[^/]*\bmutable[[:space:]]+[A-Za-z_:]' src/sched/ || true)
report "mutable members are banned in src/sched/ (per-run state belongs in a caller-owned context)" "$matches"

# Rule 7: one per-position timing loop. As in rule 6, only code before any
# `//` counts.
matches=$(grep -rnE --include='*.hpp' --include='*.cpp' \
  '^[^/]*\btime_node\(' src/ bench/ tools/ |
  grep -v -e '^src/sched/sweep_kernel\.hpp:' \
    -e '^src/sched/incremental_evaluator\.cpp:' || true)
report "time_node( outside sweep (src/sched/sweep_kernel.hpp) and the incremental engine (src/sched/incremental_evaluator.cpp): price a run of positions with sweep" "$matches"

# Rule 8: one tail bound. A definition is `tail_of(` after a return type;
# as in rule 6, only code before any `//` counts.
matches=$(grep -rnE --include='*.hpp' --include='*.cpp' \
  '^[^/]*\b(double|float|auto)[[:space:]]+tail_of[[:space:]]*\(' \
  src/ bench/ tools/ | grep -v '^src/sched/sweep_kernel\.hpp:' || true)
report "tail_of( defined outside src/sched/sweep_kernel.hpp: call the one tail bound there" "$matches"

if [ "$failures" -ne 0 ]; then
  echo "lint_invariants: FAILED" >&2
  exit 1
fi
echo "lint_invariants: ok"
