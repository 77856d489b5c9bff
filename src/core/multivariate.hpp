// Multi-variate climate emulator — the paper's stated next step.
//
// Section VI: "we aim to drive the development of robust and multi-variate
// emulators for generating high-resolution spatio-temporal data". This
// module implements that extension on top of the univariate machinery:
// each variable keeps its own mean trend, scale, SHT and nugget, but the
// packed coefficient vectors of all variables are stacked into one state
// f_t in R^{V * L^2} whose innovation covariance U-hat is estimated and
// factorized *jointly* — so cross-variable dependence (e.g. temperature vs
// pressure anomalies sharing weather systems) survives into the emulations,
// which a collection of independent univariate emulators would destroy.
//
// The Cholesky grows from (L^2)^3/3 to (V L^2)^3/3 flops — the same O(L^6)
// class with a V^3 constant, which is exactly the workload the paper's
// mixed-precision exascale solver exists to absorb.
#pragma once

#include <vector>

#include "climate/dataset.hpp"
#include "core/config.hpp"
#include "linalg/matrix.hpp"
#include "sht/sht.hpp"
#include "stats/ar.hpp"
#include "stats/trend.hpp"

namespace exaclim::core {

/// Training diagnostics per joint run.
struct MultiVarTrainReport {
  double total_seconds = 0.0;
  double covariance_jitter = 0.0;
  bool covariance_deficient = false;
  index_t joint_dimension = 0;  ///< V * L^2
  index_t innovation_samples = 0;

  // Input-screening outcomes, summed over variables.
  index_t validation_flagged = 0;
  index_t validation_quarantined = 0;
};

/// Jointly trained emulator over several co-located variables.
class MultiVariateEmulator {
 public:
  explicit MultiVariateEmulator(EmulatorConfig config);

  /// Trains on V datasets sharing grid, step count, ensemble count and
  /// temporal resolution.
  MultiVarTrainReport train(
      const std::vector<const climate::ClimateDataset*>& variables,
      std::span<const double> annual_forcing);

  bool is_trained() const { return trained_; }
  index_t num_variables() const { return num_variables_; }

  /// Emulates all variables jointly; result[v] is variable v's ensemble.
  std::vector<climate::ClimateDataset> emulate(
      index_t num_steps, index_t num_ensembles,
      std::span<const double> annual_forcing, std::uint64_t seed) const;

  /// Empirical cross-variable innovation correlation between the packed
  /// coefficient blocks of variables a and b (mean absolute off-block
  /// correlation) — the quantity a univariate product model forces to zero.
  double innovation_cross_correlation(index_t a, index_t b) const;

  const linalg::Matrix& cholesky_factor() const { return factor_; }

 private:
  EmulatorConfig config_;
  bool trained_ = false;
  index_t num_variables_ = 0;
  sht::GridShape grid_{};
  std::vector<std::vector<stats::TrendModel>> trend_;   // [var][point]
  std::vector<std::vector<double>> nugget_var_;         // [var][point]
  std::vector<stats::ArModel> ar_;                      // V * L^2 models
  linalg::Matrix factor_;                               // joint V
  linalg::Matrix innovation_corr_;                      // joint correlation
  std::shared_ptr<const sht::SHTPlan> plan_;
};

}  // namespace exaclim::core
