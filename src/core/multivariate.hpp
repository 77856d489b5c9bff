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
// Training and emulation are the univariate emulator's own routines
// (train_variables, emulate_variables in core/emulator.hpp): the joint
// emulator differs only in V and in the cross-correlation diagnostic.
//
// The Cholesky grows from (L^2)^3/3 to (V L^2)^3/3 flops — the same O(L^6)
// class with a V^3 constant, which is exactly the workload the paper's
// mixed-precision exascale solver exists to absorb.
#pragma once

#include <vector>

#include "climate/dataset.hpp"
#include "core/config.hpp"
#include "core/emulator.hpp"
#include "linalg/matrix.hpp"

namespace exaclim::core {

/// Jointly trained emulator over several co-located variables.
class MultiVariateEmulator {
 public:
  explicit MultiVariateEmulator(EmulatorConfig config);

  /// Trains on V datasets sharing grid, step count, ensemble count and
  /// temporal resolution.
  TrainReport train(const std::vector<const climate::ClimateDataset*>& variables,
                    std::span<const double> annual_forcing);

  bool is_trained() const { return state_.plan != nullptr; }
  index_t num_variables() const {
    return static_cast<index_t>(state_.trend.size());
  }

  /// Emulates all variables jointly; result[v] is variable v's ensemble.
  std::vector<climate::ClimateDataset> emulate(
      index_t num_steps, index_t num_ensembles,
      std::span<const double> annual_forcing, std::uint64_t seed) const;

  /// Empirical cross-variable innovation correlation between the packed
  /// coefficient blocks of variables a and b (mean absolute off-block
  /// correlation) — the quantity a univariate product model forces to zero.
  double innovation_cross_correlation(index_t a, index_t b) const;

  /// The dense lower joint factor, strict upper triangle zero, unpacked
  /// from the packed state on each call: for tests and benches.
  linalg::Matrix cholesky_factor() const;

 private:
  EmulatorConfig config_;
  TrainedVariables state_;
};

}  // namespace exaclim::core
