// The exascale climate emulator (the paper's primary contribution).
//
// Training (Section III-A, Figure 3 pipeline):
//   1. Per grid point: fit the distributed-lag + harmonic mean model m_t and
//      scale sigma by profiled MLE (Eq. 2), form the standardized stochastic
//      component Z^(r)_t = (y - m_t) / sigma.
//   2. Per time slot: fast SHT of Z into packed coefficients f_t in R^{L^2};
//      the truncation residual epsilon estimates the nugget v^2 per point.
//   3. Per coefficient: diagonal VAR(P) — scalar AR(P) fits shared across
//      the ensemble.
//   4. Innovation covariance U-hat (Eq. 9) with diagonal perturbation when
//      rank deficient, then mixed-precision tiled Cholesky U = V V^T; a
//      POTRF failure there adds a growing diagonal jitter and factors again.
// Training is shared with the multivariate emulator through train_variables,
// which runs these stages for V co-located variables (V = 1 here).
// Emulation (Section III-B; emulate_variables, shared with the multivariate
// emulator): xi ~ N(0, U) drawn through V in panels of up to 64 steps by the
// serving engine (runtime::sample_panel), one stream per (member, step); VAR
// forward pass, inverse SHT, add epsilon, scale by sigma, add m_t. Every
// phase runs on the whole team through common::parallel_for items: each
// (member, panel) draw is a one-participant sample_panel inline on its
// worker; the VAR runs per (member, block of coefficients); the synthesis
// runs per (member, step) straight into the first-touched output with no
// per-step heap vector. Members go in groups with two in flight, so one
// region draws the next group's panels while it synthesizes this group's
// steps. emulate_variables_ref is the member-by-member form it replaced,
// kept as the byte oracle (EmulateDeterminism.MatchesParentOracleBytes).
//
// All per-point / per-slot / per-coefficient stages run through
// common::parallel_for; the Cholesky and the innovation panels run on the
// task runtime.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "climate/dataset.hpp"
#include "core/config.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "sht/sht.hpp"
#include "stats/ar.hpp"
#include "stats/trend.hpp"

namespace exaclim::core {

/// Timing/diagnostics of one training run. Stage seconds are summed over
/// variables.
struct TrainReport {
  double trend_seconds = 0.0;
  double sht_seconds = 0.0;
  double ar_seconds = 0.0;
  double covariance_seconds = 0.0;
  double cholesky_seconds = 0.0;
  double total_seconds = 0.0;
  double covariance_jitter = 0.0;  ///< deficiency jitter + the rung's
  bool covariance_deficient = false;
  index_t covariance_rung = 0;  ///< jitter-ladder rung that factored U-hat
  index_t innovation_samples = 0;  ///< R (T - P)

  // Fault-tolerance outcomes of the factorization that produced the factor.
  index_t precision_escalations = 0;
  index_t jitter_escalations = 0;
  index_t checkpoints_written = 0;
  bool resumed_from_checkpoint = false;

  // Input-screening outcomes (climate::validate_dataset).
  index_t validation_flagged = 0;      ///< cells/fields flagged by screening
  index_t validation_quarantined = 0;  ///< cells imputed (--quarantine)

  // Memory-budget outcomes.
  index_t tiles_degraded_for_memory = 0;  ///< tiles narrowed to f16 by budget
};

/// The trained state of V co-located variables: per-variable trend and
/// nugget, plus the diagonal VAR(P) and the lower Cholesky factor of the
/// joint, variable-major V * L^2 innovation covariance.
struct TrainedVariables {
  std::shared_ptr<const sht::SHTPlan> plan;  ///< its grid() is the data grid
  std::vector<std::vector<stats::TrendModel>> trend;  ///< [v][point]
  std::vector<std::vector<double>> nugget_var;        ///< [v][point]
  std::vector<stats::ArModel> ar;                     ///< V * L^2 models
  std::vector<double> factor;  ///< lower, V L^2 rows packed (file layout)
  TrainReport report;
  /// V x V, row-major: entry (a, b) is the mean absolute innovation
  /// correlation between coefficient i of variable a and coefficient i of
  /// variable b, over the L^2 packed coefficients.
  std::vector<double> cross_correlation;

  /// The packed factor as the sampling engine reads it (n = ar.size()).
  linalg::PackedFactorView factor_view() const {
    return {reinterpret_cast<const unsigned char*>(factor.data()),
            factor.size() * sizeof(double), static_cast<index_t>(ar.size()),
            linalg::PackedStorage::F64};
  }
};

/// A trained emulator. Copyable; serializable via core/serialize.hpp.
class ClimateEmulator {
 public:
  explicit ClimateEmulator(EmulatorConfig config);
  /// A trained emulator over one variable's state (as load_emulator builds
  /// it); throws InvalidArgument unless its sizes match the band limit.
  ClimateEmulator(EmulatorConfig config, TrainedVariables state);

  const EmulatorConfig& config() const { return config_; }

  /// Trains on an ensemble dataset with the given annual forcing trajectory
  /// (length >= dataset years). Throws on dimension mismatches.
  TrainReport train(const climate::ClimateDataset& data,
                    std::span<const double> annual_forcing);

  bool is_trained() const { return state_.plan != nullptr; }

  /// Generates `num_ensembles` emulated members of `num_steps` steps under
  /// `annual_forcing` (may differ from training forcing: scenario mode).
  /// Deterministic in `seed`.
  climate::ClimateDataset emulate(index_t num_steps, index_t num_ensembles,
                                  std::span<const double> annual_forcing,
                                  std::uint64_t seed) const;

  // --- Introspection (tests, serialization, science diagnostics) ---------
  const TrainedVariables& state() const { return state_; }
  const sht::GridShape& grid() const { return trained().plan->grid(); }
  const std::vector<stats::TrendModel>& trend_models() const {
    return trained().trend.front();
  }
  const std::vector<stats::ArModel>& ar_models() const { return state_.ar; }
  /// The dense lower factor V, strict upper triangle zero, unpacked from
  /// the packed state on each call: for tests and benches, not pipelines.
  linalg::Matrix cholesky_factor() const;
  const std::vector<double>& nugget_variance() const {
    return trained().nugget_var.front();
  }

 private:
  /// state_; throws InvalidArgument if the emulator is untrained.
  const TrainedVariables& trained() const;

  EmulatorConfig config_;
  TrainedVariables state_;
};

/// The training step of both emulators, for V = data.size() datasets sharing
/// grid, step count, ensemble count and config.steps_per_year. Byte-identical
/// at any config.threads.
TrainedVariables train_variables(
    const EmulatorConfig& config,
    std::span<const climate::ClimateDataset* const> data,
    std::span<const double> annual_forcing);

/// The emulation step of both emulators, for V = trend.size() variables
/// (result[v] is variable v); `ar` and `factor` span the joint, variable-major
/// V * L^2 state. Byte-identical at any config.threads or config.tile_size.
std::vector<climate::ClimateDataset> emulate_variables(
    const EmulatorConfig& config, const sht::SHTPlan& plan,
    std::span<const std::vector<stats::TrendModel>> trend,
    std::span<const std::vector<double>> nugget_var,
    std::span<const stats::ArModel> ar, const linalg::PackedFactorView& factor,
    index_t num_steps, index_t num_ensembles,
    std::span<const double> annual_forcing, std::uint64_t seed);

/// The member-by-member emulation emulate_variables replaced: the oracle its
/// bytes are compared with (memcmp in determinism_test). Not for pipelines.
std::vector<climate::ClimateDataset> emulate_variables_ref(
    const EmulatorConfig& config, const sht::SHTPlan& plan,
    std::span<const std::vector<stats::TrendModel>> trend,
    std::span<const std::vector<double>> nugget_var,
    std::span<const stats::ArModel> ar, const linalg::PackedFactorView& factor,
    index_t num_steps, index_t num_ensembles,
    std::span<const double> annual_forcing, std::uint64_t seed);

}  // namespace exaclim::core
