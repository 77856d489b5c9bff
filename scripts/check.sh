#!/usr/bin/env bash
# Full robustness gate: the tier-1 build + test sweep, a lint stage, then the
# concurrency and fault/determinism suites under the sanitizer presets.
#
#   scripts/check.sh            # tier-1 + lint + kernels + portable + asan + tsan
#   scripts/check.sh --tier1    # tier-1 only (what CI must always pass)
#   scripts/check.sh --lint     # lint stage only (tidy + grep invariants)
#
# The lint stage runs clang-tidy (warnings-as-errors, profile in .clang-tidy)
# over src/ when the binary is on PATH — containers without it get a warning
# and the grep-based invariants still run, so the stage never silently skips
# the cheap checks. The kernels stage re-runs the blocked-vs-reference parity
# suites, the DAG-verifier suite, the determinism suite and the fidelity
# suite (the factor contract) under the relassert preset (-O2 with
# assertions and -Wshadow -Wconversion on
# runtime/ and analysis/), a different optimization level than tier 1 —
# explicit-vector kernels, and loops whose rounding the vectorizer picks
# (the emulation oracle test), are the code most likely to diverge when the
# compiler changes its mind. The portable stage builds without
# -march=native, so the loop micro-kernel, the scalar conversion paths and
# the FMA-free multiply-add loops the native build never runs are tested
# too, parity, determinism and fidelity suites alike.
# The asan preset races the fault/recovery and verifier paths for lifetime
# bugs; the tsan preset hunts data races in the work-stealing runtime and
# additionally runs its sweep with EXACLIM_VERIFY=dynamic, so the shadow
# checker's own atomics are raced under instrumentation while it
# cross-checks the executed schedules. The sanitizers also run the determinism suite so
# bit-reproducibility is checked under instrumented schedules, where thread
# interleavings differ most from release builds, and the fidelity suite, so
# the factor contract and the MXCSR restore hold there too.
set -euo pipefail
cd "$(dirname "$0")/.."

run() { echo "+ $*" >&2; "$@"; }

# --- lint: clang-tidy (when present) + grep invariants ------------------------
# The grep invariants encode rules the compiler can't see:
#   * no naked new[] in task-body code (runtime/linalg/analysis) — tile
#     buffers go through the arena / unique_ptr helpers so retry re-entry
#     can't leak;
#   * std::memory_order_relaxed only in the audited lock-free modules listed
#     below — everywhere else the default seq_cst stays until a relaxation
#     has been argued through and the file added here;
#   * no raw file writes (std::ofstream, fopen, ::write(, writev(, fsync(,
#     fdatasync() in src/ outside common/io.cpp — every file goes through
#     atomic_write_file (temp + sync + rename, retries, fault injection), so
#     no crash or full disk can leave a torn artifact;
#   * the tile-factorization kernels (potrf/trsm/syrk/gemm) are called in
#     src/ only from runtime/tiled_cholesky_rt.cpp — one tiled Cholesky
#     engine, so a second copy cannot creep back in;
#   * the packed sampling kernel (sample_apply_packed) is called in src/ only
#     from runtime/sampling_dag.cpp, its scalar oracle
#     (sample_apply_packed_ref) appears in src/ only in linalg/kernels.*,
#     and the dense sample_mvn has no caller in src/ outside linalg/solve.*
#     (it is the reference tests compare against) — one sampling engine for
#     serving and emulation;
#   * that engine's entry point (sample_panel) appears in src/ only in
#     core/emulator.cpp, serve/sampler.cpp and runtime/sampling_dag.*, and
#     the member-by-member emulation oracle (emulate_variables_ref) only in
#     core/emulator.* — tests compare against it, the pipeline never runs it;
#   * the training stages (fit_trend, fit_trends, fit_ar_ensemble,
#     prepare_covariance, validate_dataset) are called in src/ only from
#     core/emulator.cpp, apart from their own stats/ and climate/validate.*
#     files — one training pipeline (core::train_variables) for both
#     emulators;
#   * the training kernels' scalar oracles (fit_trend_ref,
#     empirical_covariance_ref) appear in src/ only in their own stats/
#     files — tests compare against them, the pipeline never runs them;
#   * the dense cholesky_dense is called in src/ only in linalg/matrix.*
#     and for the p x p normal equations of stats/ar.cpp and stats/ols.cpp,
#     and no dense positive-definiteness probe (is_positive_definite,
#     ensure_positive_definite) exists — U-hat is proven definite only by
#     the tiled Cholesky that factors it, whose POTRF failures drive the
#     training jitter ladder;
#   * the tile kernels' loop micro-kernel oracles (*_loop_f16/f32/f64) and
#     the scalar conversion oracles (convert_*_ref) appear in src/ only in
#     linalg/kernels.* — the pipeline runs the explicit AVX-512 forms;
#   * std::atomic_thread_fence in src/ only in the files listed below, each
#     with the reason its fences order no published data — TSan models
#     atomic operations but not standalone fences, so a fence that publishes
#     data hides a happens-before edge from the tsan sweep;
#   * the floating-point environment (_mm_setcsr, _MM_SET_FLUSH_ZERO_MODE,
#     _MM_SET_DENORMALS_ZERO_MODE, fesetenv, ldmxcsr) is written in src/
#     only in common/fpenv.hpp, the scoped FTZ|DAZ of the low-precision tile
#     tasks — a process-wide flush-to-zero would move FP64 bytes;
#   * the dense factor stays out of src/: to_dense appears only in
#     linalg/tile_matrix.* and runtime/tiled_cholesky_rt.cpp
#     (cholesky_mixed_dense), and unpack_lower only in linalg/matrix.* and
#     core/{emulator,multivariate}.cpp (the cholesky_factor() accessors) —
#     a trained, saved, loaded, emulated and served factor is packed rows.
lint() {
  local fail=0

  if command -v clang-tidy >/dev/null 2>&1; then
    run cmake -B build -S . -DCMAKE_BUILD_TYPE=Release \
        -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
    local sources
    mapfile -t sources < <(find src -name '*.cpp' | sort)
    run clang-tidy -p build --quiet "${sources[@]}" || fail=1
  else
    echo "warning: clang-tidy not on PATH; skipping tidy checks" >&2
  fi

  local hits
  hits="$(grep -rnE '\bnew\b[^;()]*\[' src/runtime src/linalg src/analysis \
          || true)"
  if [[ -n "$hits" ]]; then
    echo "lint: naked new[] in task-body code (use arena/unique_ptr):" >&2
    echo "$hits" >&2
    fail=1
  fi

  local relaxed_ok=(
    src/common/work_steal_deque.hpp   # Chase-Lev deque (ABA-audited)
    src/common/arena.hpp
    src/common/memory.hpp             # arena stats counters
    src/common/parallel.hpp           # chunk-claim ticket counters
    src/common/thread_pool.cpp        # sleep/wake flags behind a mutex
    src/runtime/scheduler.cpp         # progress counters; edges use acq_rel
    src/runtime/tiled_cholesky_rt.hpp # per-tile precision escalation flags
    src/runtime/tiled_cholesky_rt.cpp
  )
  hits="$(grep -rl 'memory_order_relaxed' src \
          | grep -vxF -e "$(printf '%s\n' "${relaxed_ok[@]}")" || true)"
  if [[ -n "$hits" ]]; then
    echo "lint: memory_order_relaxed outside the audited allowlist:" >&2
    echo "$hits" >&2
    fail=1
  fi

  hits="$(grep -rn '\bfopen\b' examples || true)"
  if [[ -n "$hits" ]]; then
    echo "lint: direct fopen in examples/:" >&2
    echo "$hits" >&2
    fail=1
  fi

  hits="$(grep -rnE '\bstd::ofstream\b|\bfopen\b|(^|[^[:alnum:]_])::write\(|\bwritev\(|\bf(data)?sync\(' src \
          | grep -v '^src/common/io\.cpp:' || true)"
  if [[ -n "$hits" ]]; then
    echo "lint: raw file write outside common/io.cpp (use atomic_write_file):" >&2
    echo "$hits" >&2
    fail=1
  fi

  hits="$(grep -rnE '\b(potrf_lower_f64|(trsm_rlt|syrk_ln_minus|gemm_nt_minus)_f[0-9]+)\(' src \
          | grep -vE '^src/(runtime/tiled_cholesky_rt\.cpp|linalg/kernels\.(hpp|cpp)):' \
          || true)"
  if [[ -n "$hits" ]]; then
    echo "lint: tile Cholesky kernel called outside runtime/tiled_cholesky_rt.cpp:" >&2
    echo "$hits" >&2
    fail=1
  fi

  hits="$(grep -rnE '\bsample_apply_packed\(' src \
          | grep -vE '^src/(runtime/sampling_dag\.cpp|linalg/kernels\.(hpp|cpp)):' \
          || true)"
  if [[ -n "$hits" ]]; then
    echo "lint: sample_apply_packed called outside runtime/sampling_dag.cpp:" >&2
    echo "$hits" >&2
    fail=1
  fi

  hits="$(grep -rnE '\bsample_apply_packed_ref\(' src \
          | grep -vE '^src/linalg/kernels\.(hpp|cpp):' || true)"
  if [[ -n "$hits" ]]; then
    echo "lint: sample_apply_packed_ref (the scalar oracle) used outside linalg/kernels.*:" >&2
    echo "$hits" >&2
    fail=1
  fi

  hits="$(grep -rnE '\bsample_panel\(' src \
          | grep -vE '^src/(core/emulator\.cpp|serve/sampler\.cpp|runtime/sampling_dag\.(hpp|cpp)):' \
          || true)"
  if [[ -n "$hits" ]]; then
    echo "lint: sample_panel called outside core/emulator.cpp and serve/sampler.cpp:" >&2
    echo "$hits" >&2
    fail=1
  fi

  hits="$(grep -rnE '\bemulate_variables_ref\(' src \
          | grep -vE '^src/core/emulator\.(hpp|cpp):' || true)"
  if [[ -n "$hits" ]]; then
    echo "lint: emulate_variables_ref (the emulation oracle) used outside core/emulator.*:" >&2
    echo "$hits" >&2
    fail=1
  fi

  hits="$(grep -rnE '\bsample_mvn\(' src \
          | grep -vE '^src/linalg/solve\.(hpp|cpp):' || true)"
  if [[ -n "$hits" ]]; then
    echo "lint: sample_mvn called in src/ (draw through runtime::sample_panel):" >&2
    echo "$hits" >&2
    fail=1
  fi

  hits="$(grep -rnE '\b(fit_trends?|fit_ar_ensemble|prepare_covariance|validate_dataset)\(' src \
          | grep -vE '^src/(core/emulator\.cpp|stats/(trend|ar|covariance)\.(hpp|cpp)|climate/validate\.(hpp|cpp)):' \
          || true)"
  if [[ -n "$hits" ]]; then
    echo "lint: training stage called outside core/emulator.cpp (train through core::train_variables):" >&2
    echo "$hits" >&2
    fail=1
  fi

  hits="$(grep -rnE '\bfit_trend_ref\(' src \
          | grep -vE '^src/stats/trend\.(hpp|cpp):' || true)"
  if [[ -n "$hits" ]]; then
    echo "lint: fit_trend_ref (the scalar oracle) used outside stats/trend.*:" >&2
    echo "$hits" >&2
    fail=1
  fi

  hits="$(grep -rnE '\bempirical_covariance_ref\(' src \
          | grep -vE '^src/stats/covariance\.(hpp|cpp):' || true)"
  if [[ -n "$hits" ]]; then
    echo "lint: empirical_covariance_ref (the scalar oracle) used outside stats/covariance.*:" >&2
    echo "$hits" >&2
    fail=1
  fi

  hits="$(grep -rnE '\bcholesky_dense\(' src \
          | grep -vE '^src/(linalg/matrix\.(hpp|cpp)|stats/(ar|ols)\.cpp):' || true)"
  if [[ -n "$hits" ]]; then
    echo "lint: cholesky_dense called outside linalg/matrix.* and the AR/OLS normal equations (factor through runtime::cholesky_tiled_parallel):" >&2
    echo "$hits" >&2
    fail=1
  fi

  hits="$(grep -rnE '\b(is|ensure)_positive_definite\b' src || true)"
  if [[ -n "$hits" ]]; then
    echo "lint: dense positive-definiteness probe in src/ (the tiled Cholesky's POTRF decides):" >&2
    echo "$hits" >&2
    fail=1
  fi

  hits="$(grep -rnE '\b((potrf_lower|trsm_rlt|syrk_ln_minus|gemm_nt_minus)_loop_f[0-9]+|convert_[a-z0-9_]+_ref)\(' src \
          | grep -vE '^src/linalg/kernels\.(hpp|cpp):' || true)"
  if [[ -n "$hits" ]]; then
    echo "lint: tile-kernel loop or conversion oracle used outside linalg/kernels.*:" >&2
    echo "$hits" >&2
    fail=1
  fi

  local fence_ok=(
    # Chase-Lev pop/steal: the seq_cst fences order the owner's bottom_
    # store against a thief's top_ load in the race for the last element;
    # tasks are published by push's release store of bottom_.
    src/common/work_steal_deque.hpp
  )
  hits="$(grep -rl 'atomic_thread_fence' src \
          | grep -vxF -e "$(printf '%s\n' "${fence_ok[@]}")" || true)"
  if [[ -n "$hits" ]]; then
    echo "lint: atomic_thread_fence outside the audited allowlist (publish with release/acquire operations):" >&2
    echo "$hits" >&2
    fail=1
  fi

  hits="$(grep -rnE '\b(_mm_setcsr|_MM_SET_FLUSH_ZERO_MODE|_MM_SET_DENORMALS_ZERO_MODE|fesetenv|ldmxcsr)\b' src \
          | grep -v '^src/common/fpenv\.hpp:' || true)"
  if [[ -n "$hits" ]]; then
    echo "lint: floating-point environment written outside common/fpenv.hpp (scope FTZ|DAZ with common::FlushDenormalsScope):" >&2
    echo "$hits" >&2
    fail=1
  fi

  hits="$(grep -rnE '\bto_dense\(' src \
          | grep -vE '^src/(linalg/tile_matrix\.(hpp|cpp)|runtime/tiled_cholesky_rt\.cpp):' \
          || true)"
  if [[ -n "$hits" ]]; then
    echo "lint: to_dense outside linalg/tile_matrix.* and runtime/tiled_cholesky_rt.cpp (a factor leaves its tiles as packed rows, to_packed_lower):" >&2
    echo "$hits" >&2
    fail=1
  fi

  hits="$(grep -rnE '\bunpack_lower\(' src \
          | grep -vE '^src/(linalg/matrix\.(hpp|cpp)|core/(emulator|multivariate)\.cpp):' \
          || true)"
  if [[ -n "$hits" ]]; then
    echo "lint: unpack_lower outside linalg/matrix.* and the cholesky_factor() accessors (read the packed factor where it lies):" >&2
    echo "$hits" >&2
    fail=1
  fi

  if [[ "$fail" -ne 0 ]]; then
    echo "lint stage failed" >&2
    exit 1
  fi
  echo "lint stage passed"
}

if [[ "${1:-}" == "--lint" ]]; then
  lint
  exit 0
fi

# --- tier 1: release build, full test suite ----------------------------------
run cmake -B build -S . -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
run cmake --build build -j
run ctest --test-dir build --output-on-failure -j "$(nproc)"

if [[ "${1:-}" == "--tier1" ]]; then
  echo "tier-1 sweep passed"
  exit 0
fi

lint

# --- kernel parity, DAG verifier, determinism at a second optimization level --
run cmake --preset relassert
run cmake --build --preset relassert -j
run ctest --test-dir build-relassert --output-on-failure \
    -L 'kernels|analysis|determinism|fidelity'

# --- portable build: the loop micro-kernel and the scalar tails --------------
# Without -march=native there is no AVX-512, F16C or FMA: the blocked engine
# runs its loop micro-kernel and every conversion its scalar path, and the
# emulation's VAR and synthesis loops compile to a separate multiply and add
# — the fallbacks the native sweeps never build.
run cmake --preset portable
run cmake --build --preset portable -j
run ctest --test-dir build-portable --output-on-failure \
    -L 'kernels|determinism|fidelity'

# --- sanitizer sweeps over the guarded subsystems ----------------------------
for preset in asan tsan; do
  run cmake --preset "$preset"
  run cmake --build --preset "$preset" -j
  if [[ "$preset" == "tsan" ]]; then
    # Force the dynamic shadow checker on for every scheduler run in the
    # sweep: TSan races the checker's own atomics while the checker
    # cross-checks the executed schedule against the declared effects.
    # The serve suite rides along — the sampling service must be TSan-clean
    # under concurrent clients.
    run env EXACLIM_VERIFY=dynamic \
        ctest --test-dir "build-$preset" --output-on-failure \
        -L 'fault|determinism|runtime|kernels|analysis|serve|fidelity'
  else
    run ctest --test-dir "build-$preset" --output-on-failure \
        -L 'fault|determinism|runtime|kernels|analysis|serve|fidelity'
  fi
done

# --- serve smoke with the dynamic shadow checker ------------------------------
# One end-to-end serving pass (release build) with EXACLIM_VERIFY=dynamic:
# every sampling DAG the service executes is cross-checked against its
# declared tile effects while real batches flow.
run env EXACLIM_VERIFY=dynamic ./build/serve_test \
    --gtest_filter='ServeTest.CountersAccountForEveryRequestUnderConcurrentClients'

echo "all sweeps passed"
