#include "core/multivariate.hpp"

#include <utility>

#include "common/error.hpp"

namespace exaclim::core {

MultiVariateEmulator::MultiVariateEmulator(EmulatorConfig config)
    : config_(std::move(config)) {
  check_config(config_);
}

TrainReport MultiVariateEmulator::train(
    const std::vector<const climate::ClimateDataset*>& variables,
    std::span<const double> annual_forcing) {
  state_ = train_variables(config_, variables, annual_forcing);
  return state_.report;
}

double MultiVariateEmulator::innovation_cross_correlation(index_t a,
                                                          index_t b) const {
  EXACLIM_CHECK(is_trained(), "emulator has not been trained");
  const index_t num_vars = num_variables();
  EXACLIM_CHECK(a >= 0 && a < num_vars && b >= 0 && b < num_vars,
                "variable index out of range");
  return state_.cross_correlation[static_cast<std::size_t>(a * num_vars + b)];
}

std::vector<climate::ClimateDataset> MultiVariateEmulator::emulate(
    index_t num_steps, index_t num_ensembles,
    std::span<const double> annual_forcing, std::uint64_t seed) const {
  EXACLIM_CHECK(is_trained(), "emulator has not been trained");
  return emulate_variables(config_, *state_.plan, state_.trend,
                           state_.nugget_var, state_.ar, state_.factor_view(),
                           num_steps, num_ensembles, annual_forcing, seed);
}

linalg::Matrix MultiVariateEmulator::cholesky_factor() const {
  return linalg::unpack_lower(state_.factor, state_.factor_view().n);
}

}  // namespace exaclim::core
