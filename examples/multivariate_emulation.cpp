// Multi-variate emulation (the paper's Section VI extension).
//
//   build/examples/multivariate_emulation
//
// Trains a *joint* emulator on two co-located variables (temperature-like
// and pressure-like, sharing weather systems) and shows the property that
// motivates joint modelling: emulated variable pairs co-vary like the
// simulation pair, while independent univariate emulators would produce
// uncorrelated anomalies.
#include <cstdio>

#include "climate/synthetic_esm.hpp"
#include "core/consistency.hpp"
#include "core/emulator.hpp"
#include "core/multivariate.hpp"
#include "stats/diagnostics.hpp"

using namespace exaclim;

namespace {

/// Mean co-located anomaly correlation (first-difference detrending).
double cross_correlation(const climate::ClimateDataset& a,
                         const climate::ClimateDataset& b) {
  const index_t np = a.grid().num_points();
  double acc = 0.0;
  index_t count = 0;
  for (index_t k = 0; k < 12; ++k) {
    const index_t p = 1 + k * (np / 13);
    const auto sa = a.time_series(0, p / a.grid().nlon, p % a.grid().nlon);
    const auto sb = b.time_series(0, p / a.grid().nlon, p % a.grid().nlon);
    std::vector<double> da(sa.size() - 1);
    std::vector<double> db(sb.size() - 1);
    for (std::size_t i = 0; i + 1 < sa.size(); ++i) {
      da[i] = sa[i + 1] - sa[i];
      db[i] = sb[i + 1] - sb[i];
    }
    acc += stats::correlation(da, db);
    ++count;
  }
  return acc / static_cast<double>(count);
}

}  // namespace

int main() {
  climate::SyntheticEsmConfig data_cfg;
  data_cfg.band_limit = 10;
  data_cfg.grid = {11, 20};
  data_cfg.num_years = 4;
  data_cfg.steps_per_year = 64;
  data_cfg.num_ensembles = 2;
  const auto data = climate::generate_bivariate_esm(data_cfg, /*loading=*/0.75);
  std::printf("Bivariate training data: temperature + pressure, shared-"
              "weather loading 0.75\n");
  std::printf("Simulated cross-correlation: %.3f\n\n",
              cross_correlation(data.primary, data.secondary));

  core::EmulatorConfig cfg;
  cfg.band_limit = 10;
  cfg.ar_order = 3;
  cfg.harmonics = 3;
  cfg.steps_per_year = 64;
  cfg.tile_size = 50;
  cfg.cholesky_variant = linalg::PrecisionVariant::DP_SP;

  // Joint emulator: one covariance over both variables' coefficients.
  core::MultiVariateEmulator joint(cfg);
  const auto report =
      joint.train({&data.primary, &data.secondary}, data.forcing);
  std::printf("Joint emulator trained in %.2fs (covariance dim %lld = 2 x "
              "L^2, innovation cross-corr %.3f)\n",
              report.total_seconds,
              static_cast<long long>(joint.cholesky_factor().rows()),
              joint.innovation_cross_correlation(0, 1));
  const auto joint_emu =
      joint.emulate(data.primary.num_steps(), 2, data.forcing, 11);

  // Baseline: two independent univariate emulators.
  core::ClimateEmulator uni_t(cfg);
  core::ClimateEmulator uni_p(cfg);
  uni_t.train(data.primary, data.forcing);
  uni_p.train(data.secondary, data.forcing);
  const auto emu_t = uni_t.emulate(data.primary.num_steps(), 1, data.forcing, 21);
  const auto emu_p = uni_p.emulate(data.primary.num_steps(), 1, data.forcing, 22);

  std::printf("\n%-34s %16s\n", "", "cross-correlation");
  std::printf("%-34s %16.3f\n", "simulation (truth)",
              cross_correlation(data.primary, data.secondary));
  std::printf("%-34s %16.3f\n", "JOINT emulator",
              cross_correlation(joint_emu[0], joint_emu[1]));
  std::printf("%-34s %16.3f   <- dependence destroyed\n",
              "independent univariate emulators",
              cross_correlation(emu_t, emu_p));

  // Both joint marginals remain individually consistent.
  const auto r1 = core::evaluate_consistency(data.primary, joint_emu[0], 10);
  const auto r2 = core::evaluate_consistency(data.secondary, joint_emu[1], 10);
  std::printf("\nMarginal consistency: temperature %s, pressure %s\n",
              r1.consistent() ? "OK" : "FAIL", r2.consistent() ? "OK" : "FAIL");
  return (r1.consistent() && r2.consistent()) ? 0 : 1;
}
