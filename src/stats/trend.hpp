// Per-location deterministic mean model (Eq. 2 of the paper):
//
//   m_t = beta0 + beta1 * x_{ceil(t/tau)}
//         + beta2 * (1 - rho) * sum_{s>=1} rho^{s-1} x_{ceil(t/tau)-s}
//         + sum_{k=1..K} [ a_k cos(2 pi t k / tau) + b_k sin(2 pi t k / tau) ]
//
// x is the annual radiative-forcing trajectory; tau is the number of time
// steps per year (8760 hourly, 365 daily, 12 monthly); the geometric lag
// weights let past forcing decay with memory parameter rho in [0, 1).
//
// Estimation follows the paper's 1D-MLE-per-location scheme: for fixed rho
// the model is linear, so we profile rho over a grid and solve OLS for each
// candidate. Gaussian errors make the profiled OLS solution the MLE.
//
// The design X(rho) and the Cholesky factor of X^T X depend on rho alone,
// so fit_trends builds them once per rho and shares them across all grid
// points. Per rho, X^T ybar is one panel product over groups of 8 points;
// per point, only two triangular solves and the full-ensemble SSE remain.
// Those keep the scalar fit's source and order (docs/PERF.md, "Training
// kernels"): the rho profile is flat, so a rounding-level change in beta
// can flip the chosen rho. fit_trend_ref is that scalar per-point fit,
// kept as the byte oracle.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"

namespace exaclim::stats {

/// Fitted mean-trend model for one spatial location.
struct TrendModel {
  double beta0 = 0.0;
  double beta1 = 0.0;
  double beta2 = 0.0;
  double rho = 0.0;
  std::vector<double> cos_coeff;  ///< a_k, k = 1..K
  std::vector<double> sin_coeff;  ///< b_k, k = 1..K
  double sigma = 1.0;             ///< residual scale sigma(theta, phi)
  index_t period = 1;             ///< tau
};

struct TrendFitConfig {
  index_t harmonics = 5;  ///< K (paper uses K = 5)
  index_t period = 365;   ///< tau
  /// Profile grid for rho; defaults to {0, 0.05, ..., 0.95}.
  std::vector<double> rho_grid;
};

/// Geometric distributed-lag regressor w_t(rho) for every t in [1, T]:
/// (1 - rho) * sum_{s>=1} rho^{s-1} x_{year(t)-s}, with the pre-sample
/// history frozen at x_1.
std::vector<double> lagged_forcing(std::span<const double> annual_forcing,
                                   index_t num_steps, index_t period,
                                   double rho);

/// Fits the trend of every grid point. `fields` holds R * T fields of
/// num_points values each, [r][t][p] (the ClimateDataset::raw() layout);
/// mean parameters are shared across ensembles per the paper. Byte-identical
/// to fit_trend_ref point by point, at any thread count (0 = team width).
std::vector<TrendModel> fit_trends(std::span<const double> fields,
                                   index_t num_points, index_t num_ensembles,
                                   index_t num_steps,
                                   std::span<const double> annual_forcing,
                                   const TrendFitConfig& config,
                                   unsigned threads = 0);

/// Fits the trend to R stacked ensemble series (layout: r-major, each of
/// length T): fit_trends for one point.
TrendModel fit_trend(std::span<const double> y, index_t num_ensembles,
                     index_t num_steps,
                     std::span<const double> annual_forcing,
                     const TrendFitConfig& config);

/// The scalar fit fit_trends replaced, rebuilding the design and X^T X per
/// point: the byte oracle its parity tests compare against.
TrendModel fit_trend_ref(std::span<const double> y, index_t num_ensembles,
                         index_t num_steps,
                         std::span<const double> annual_forcing,
                         const TrendFitConfig& config);

/// Evaluates m_t for t = 1..T. The seasonal terms read one cos/sin table
/// per (T, tau, K), built with the design's angle expression.
std::vector<double> trend_series(const TrendModel& model, index_t num_steps,
                                 std::span<const double> annual_forcing);

/// trend_series of every model, step-major: result[t * models.size() + p]
/// is models[p]'s m_{t+1}, so all points of one step are contiguous (the
/// order training and emulation read them in). Shares one cos/sin table;
/// threads = 0 uses the team width.
std::vector<double> trend_series_all(std::span<const TrendModel> models,
                                     index_t num_steps,
                                     std::span<const double> annual_forcing,
                                     unsigned threads = 0);

}  // namespace exaclim::stats
