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

/// A trained emulator. Copyable; serializable via core/serialize.hpp.
class ClimateEmulator {
 public:
  explicit ClimateEmulator(EmulatorConfig config);

  const EmulatorConfig& config() const { return config_; }

  /// Trains on an ensemble dataset with the given annual forcing trajectory
  /// (length >= dataset years). Throws on dimension mismatches.
  TrainReport train(const climate::ClimateDataset& data,
                    std::span<const double> annual_forcing);

  bool is_trained() const { return trained_; }

  /// Generates `num_ensembles` emulated members of `num_steps` steps under
  /// `annual_forcing` (may differ from training forcing: scenario mode).
  /// Deterministic in `seed`.
  climate::ClimateDataset emulate(index_t num_steps, index_t num_ensembles,
                                  std::span<const double> annual_forcing,
                                  std::uint64_t seed) const;

  // --- Introspection (tests, serialization, science diagnostics) ---------
  const sht::GridShape& grid() const { return grid_; }
  const std::vector<stats::TrendModel>& trend_models() const { return trend_; }
  const std::vector<stats::ArModel>& ar_models() const { return ar_; }
  const linalg::Matrix& cholesky_factor() const { return factor_; }
  const std::vector<double>& nugget_variance() const { return nugget_var_; }

  // Used by deserialization.
  void restore(sht::GridShape grid, std::vector<stats::TrendModel> trend,
               std::vector<stats::ArModel> ar, linalg::Matrix factor,
               std::vector<double> nugget_var);

 private:
  EmulatorConfig config_;
  bool trained_ = false;
  sht::GridShape grid_{};
  std::vector<stats::TrendModel> trend_;  ///< one per grid point
  std::vector<stats::ArModel> ar_;        ///< one per packed coefficient
  linalg::Matrix factor_;                 ///< V, lower Cholesky of U-hat
  std::vector<double> nugget_var_;        ///< v^2 per grid point
  std::shared_ptr<const sht::SHTPlan> plan_;  ///< rebuilt on train/restore
};

/// The trained state of V co-located variables: per-variable trend and
/// nugget, plus the diagonal VAR(P) and the lower Cholesky factor of the
/// joint, variable-major V * L^2 innovation covariance.
struct TrainedVariables {
  std::shared_ptr<const sht::SHTPlan> plan;  ///< its grid() is the data grid
  std::vector<std::vector<stats::TrendModel>> trend;  ///< [v][point]
  std::vector<std::vector<double>> nugget_var;        ///< [v][point]
  std::vector<stats::ArModel> ar;                     ///< V * L^2 models
  linalg::Matrix factor;                              ///< lower, V L^2 square
  TrainReport report;
  /// V x V, row-major: entry (a, b) is the mean absolute innovation
  /// correlation between coefficient i of variable a and coefficient i of
  /// variable b, over the L^2 packed coefficients.
  std::vector<double> cross_correlation;
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
    std::span<const stats::ArModel> ar, const linalg::Matrix& factor,
    index_t num_steps, index_t num_ensembles,
    std::span<const double> annual_forcing, std::uint64_t seed);

/// The member-by-member emulation emulate_variables replaced: the oracle its
/// bytes are compared with (memcmp in determinism_test). Not for pipelines.
std::vector<climate::ClimateDataset> emulate_variables_ref(
    const EmulatorConfig& config, const sht::SHTPlan& plan,
    std::span<const std::vector<stats::TrendModel>> trend,
    std::span<const std::vector<double>> nugget_var,
    std::span<const stats::ArModel> ar, const linalg::Matrix& factor,
    index_t num_steps, index_t num_ensembles,
    std::span<const double> annual_forcing, std::uint64_t seed);

}  // namespace exaclim::core
