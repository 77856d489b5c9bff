#include "stats/trend.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "stats/ols.hpp"

namespace exaclim::stats {

namespace {

/// Year index (1-based) of time step t (1-based): ceil(t / tau).
index_t year_of(index_t t, index_t period) {
  return (t + period - 1) / period;
}

/// The seasonal regressors of Eq. 2 for t = 1..T: row t - 1 holds
/// cos(2 pi t k / tau), sin(2 pi t k / tau) for k = 1..K, interleaved.
struct HarmonicTable {
  index_t period = 1;
  index_t harmonics = 0;
  std::vector<double> values;  ///< T x 2K, row-major
};

HarmonicTable harmonic_table(index_t num_steps, index_t period,
                             index_t harmonics) {
  EXACLIM_CHECK(num_steps >= 0 && harmonics >= 0, "bad harmonic table shape");
  EXACLIM_CHECK(period >= 1, "period must be >= 1");
  HarmonicTable table;
  table.period = period;
  table.harmonics = harmonics;
  table.values.resize(static_cast<std::size_t>(num_steps * 2 * harmonics));
  for (index_t t = 1; t <= num_steps; ++t) {
    double* row = table.values.data() + (t - 1) * 2 * harmonics;
    for (index_t k = 1; k <= harmonics; ++k) {
      const double angle = kTwoPi * static_cast<double>(t) *
                           static_cast<double>(k) /
                           static_cast<double>(period);
      row[2 * k - 2] = std::cos(angle);
      row[2 * k - 1] = std::sin(angle);
    }
  }
  return table;
}

/// Builds the (T x (3 + 2K)) design matrix for a fixed rho.
linalg::Matrix build_design(std::span<const double> annual_forcing,
                            index_t num_steps, index_t period,
                            index_t harmonics, double rho) {
  const index_t cols = 3 + 2 * harmonics;
  linalg::Matrix x(num_steps, cols);
  const std::vector<double> lagged =
      lagged_forcing(annual_forcing, num_steps, period, rho);
  const HarmonicTable table = harmonic_table(num_steps, period, harmonics);
  for (index_t t = 1; t <= num_steps; ++t) {
    const index_t row = t - 1;
    const index_t year = year_of(t, period);
    EXACLIM_CHECK(year <= static_cast<index_t>(annual_forcing.size()),
                  "forcing trajectory shorter than the series implies");
    x(row, 0) = 1.0;
    x(row, 1) = annual_forcing[static_cast<std::size_t>(year - 1)];
    x(row, 2) = lagged[static_cast<std::size_t>(row)];
    const double* h = table.values.data() + row * 2 * harmonics;
    for (index_t c = 0; c < 2 * harmonics; ++c) x(row, 3 + c) = h[c];
  }
  return x;
}

std::vector<double> profile_grid(const TrendFitConfig& config) {
  std::vector<double> rho_grid = config.rho_grid;
  if (rho_grid.empty()) {
    for (int i = 0; i < 20; ++i) rho_grid.push_back(0.05 * i);
  }
  return rho_grid;
}

/// m_t for t = 1..T from a table of the model's period and harmonic count.
std::vector<double> series_from_table(const TrendModel& model,
                                      index_t num_steps,
                                      std::span<const double> annual_forcing,
                                      const HarmonicTable& table) {
  const auto harmonics = static_cast<index_t>(model.cos_coeff.size());
  const std::vector<double> lagged =
      lagged_forcing(annual_forcing, num_steps, model.period, model.rho);
  std::vector<double> out(static_cast<std::size_t>(num_steps));
  for (index_t t = 1; t <= num_steps; ++t) {
    const index_t year = year_of(t, model.period);
    double v = model.beta0 +
               model.beta1 *
                   annual_forcing[static_cast<std::size_t>(year - 1)] +
               model.beta2 * lagged[static_cast<std::size_t>(t - 1)];
    const double* h = table.values.data() + (t - 1) * 2 * harmonics;
    for (std::size_t k = 1; k <= model.cos_coeff.size(); ++k) {
      v += model.cos_coeff[k - 1] * h[2 * k - 2] +
           model.sin_coeff[k - 1] * h[2 * k - 1];
    }
    out[static_cast<std::size_t>(t - 1)] = v;
  }
  return out;
}

/// Grid points per X^T ybar panel product in fit_trends.
constexpr index_t kGroup = 8;

/// Records the fit at `rho` as the best so far.
void take_fit(TrendModel& best, std::span<const double> beta, double rho,
              double sse, index_t num_ensembles, index_t num_steps,
              const TrendFitConfig& config) {
  best.beta0 = beta[0];
  best.beta1 = beta[1];
  best.beta2 = beta[2];
  best.rho = rho;
  best.cos_coeff.assign(static_cast<std::size_t>(config.harmonics), 0.0);
  best.sin_coeff.assign(static_cast<std::size_t>(config.harmonics), 0.0);
  for (index_t k = 1; k <= config.harmonics; ++k) {
    best.cos_coeff[static_cast<std::size_t>(k - 1)] =
        beta[static_cast<std::size_t>(2 + 2 * k - 1)];
    best.sin_coeff[static_cast<std::size_t>(k - 1)] =
        beta[static_cast<std::size_t>(2 + 2 * k)];
  }
  best.period = config.period;
  const double dof = static_cast<double>(num_ensembles * num_steps) -
                     static_cast<double>(3 + 2 * config.harmonics);
  best.sigma = std::sqrt(sse / (dof > 0.0 ? dof : 1.0));
}

}  // namespace

std::vector<double> lagged_forcing(std::span<const double> annual_forcing,
                                   index_t num_steps, index_t period,
                                   double rho) {
  EXACLIM_CHECK(!annual_forcing.empty(), "forcing trajectory must be non-empty");
  EXACLIM_CHECK(rho >= 0.0 && rho < 1.0, "rho must lie in [0, 1)");
  EXACLIM_CHECK(period >= 1, "period must be >= 1");
  const index_t num_years = year_of(num_steps, period);
  EXACLIM_CHECK(num_years <= static_cast<index_t>(annual_forcing.size()),
                "forcing trajectory shorter than the series implies");
  // W_y = (1 - rho) sum_{s>=1} rho^{s-1} x_{y-s}; with pre-sample history
  // frozen at x_1 this gives W_1 = x_1 and the recursion
  // W_y = rho W_{y-1} + (1 - rho) x_{y-1}.
  std::vector<double> w_year(static_cast<std::size_t>(num_years));
  w_year[0] = annual_forcing[0];
  for (index_t y = 2; y <= num_years; ++y) {
    w_year[static_cast<std::size_t>(y - 1)] =
        rho * w_year[static_cast<std::size_t>(y - 2)] +
        (1.0 - rho) * annual_forcing[static_cast<std::size_t>(y - 2)];
  }
  std::vector<double> out(static_cast<std::size_t>(num_steps));
  for (index_t t = 1; t <= num_steps; ++t) {
    out[static_cast<std::size_t>(t - 1)] =
        w_year[static_cast<std::size_t>(year_of(t, period) - 1)];
  }
  return out;
}

std::vector<TrendModel> fit_trends(std::span<const double> fields,
                                   index_t num_points, index_t num_ensembles,
                                   index_t num_steps,
                                   std::span<const double> annual_forcing,
                                   const TrendFitConfig& config,
                                   unsigned threads) {
  EXACLIM_CHECK(num_ensembles >= 1 && num_steps >= 1,
                "need at least one ensemble and one step");
  EXACLIM_CHECK(num_points >= 0 &&
                    static_cast<index_t>(fields.size()) ==
                        num_ensembles * num_steps * num_points,
                "field stack length must be R * T * num_points");
  const index_t series_len = num_ensembles * num_steps;
  // Everything that depends on rho alone, once per rho, in profile order
  // (which is also the order ties are broken in).
  struct Design {
    double rho;
    linalg::Matrix x;
    linalg::Matrix chol;  ///< lower factor of X^T X + ridge
  };
  std::vector<Design> designs;
  for (const double rho : profile_grid(config)) {
    linalg::Matrix x = build_design(annual_forcing, num_steps, config.period,
                                    config.harmonics, rho);
    linalg::Matrix chol = normal_factor(x);
    designs.push_back({rho, std::move(x), std::move(chol)});
  }

  // Points go in groups of kGroup so X^T ybar is one panel product per rho,
  // vectorized across the group; each entry is still the one ascending-t
  // multiply-add chain ols forms, fused as ols fuses it. The solves and the
  // SSE stay per point.
  const index_t cols = 3 + 2 * config.harmonics;
  std::vector<TrendModel> out(static_cast<std::size_t>(num_points));
  common::parallel_for(
      0, (num_points + kGroup - 1) / kGroup,
      [&](index_t g) {
        const index_t p0 = g * kGroup;
        const index_t width = std::min(kGroup, num_points - p0);
        // Each point's R series, r-major, and the panel of ensemble means:
        // ymean[t * kGroup + j] belongs to point p0 + j.
        std::vector<std::vector<double>> ys(
            static_cast<std::size_t>(width),
            std::vector<double>(static_cast<std::size_t>(series_len)));
        for (index_t rt = 0; rt < series_len; ++rt) {
          for (index_t j = 0; j < width; ++j) {
            ys[static_cast<std::size_t>(j)][static_cast<std::size_t>(rt)] =
                fields[static_cast<std::size_t>(rt * num_points + p0 + j)];
          }
        }
        std::vector<double> ymean(static_cast<std::size_t>(num_steps * kGroup),
                                  0.0);
        for (index_t r = 0; r < num_ensembles; ++r) {
          for (index_t t = 0; t < num_steps; ++t) {
            for (index_t j = 0; j < width; ++j) {
              ymean[static_cast<std::size_t>(t * kGroup + j)] +=
                  ys[static_cast<std::size_t>(j)]
                    [static_cast<std::size_t>(r * num_steps + t)];
            }
          }
        }
        for (auto& v : ymean) v /= static_cast<double>(num_ensembles);

        std::vector<double> xty(static_cast<std::size_t>(cols * kGroup));
        std::vector<double> rhs(static_cast<std::size_t>(cols));
        double best_sse[kGroup];
        std::fill(best_sse, best_sse + kGroup, -1.0);
        for (const Design& design : designs) {
          const linalg::Matrix& x = design.x;
          std::fill(xty.begin(), xty.end(), 0.0);
          for (index_t t = 0; t < num_steps; ++t) {
            const auto row = x.row(t);
            const double* ym = ymean.data() + t * kGroup;
            for (index_t a = 0; a < cols; ++a) {
              double* acc = xty.data() + a * kGroup;
              for (index_t j = 0; j < kGroup; ++j) {
#if defined(__FMA__) || defined(__AVX512F__)
                acc[j] = std::fma(row[static_cast<std::size_t>(a)], ym[j],
                                  acc[j]);
#else
                acc[j] += row[static_cast<std::size_t>(a)] * ym[j];
#endif
              }
            }
          }
          for (index_t j = 0; j < width; ++j) {
            for (index_t a = 0; a < cols; ++a) {
              rhs[static_cast<std::size_t>(a)] =
                  xty[static_cast<std::size_t>(a * kGroup + j)];
            }
            const auto fwd = linalg::forward_substitute(design.chol, rhs);
            const std::vector<double> beta =
                linalg::backward_substitute(design.chol, fwd);
            const std::vector<double>& y = ys[static_cast<std::size_t>(j)];

            // Full-ensemble SSE for model selection and sigma. The pred and
            // resid loops compile to in-order (fold-left) sums: keep this
            // source exactly as fit_trend_ref has it.
            double sse = 0.0;
            for (index_t t = 0; t < num_steps; ++t) {
              double pred = 0.0;
              const auto row = x.row(t);
              for (std::size_t a = 0; a < beta.size(); ++a) {
                pred += row[a] * beta[a];
              }
              for (index_t r = 0; r < num_ensembles; ++r) {
                const double resid =
                    y[static_cast<std::size_t>(r * num_steps + t)] - pred;
                sse += resid * resid;
              }
            }
            if (best_sse[j] < 0.0 || sse < best_sse[j]) {
              best_sse[j] = sse;
              take_fit(out[static_cast<std::size_t>(p0 + j)], beta,
                       design.rho, sse, num_ensembles, num_steps, config);
            }
          }
        }
        // A flat series can produce sigma == 0, which would make the
        // stochastic rescale degenerate; clamp to a tiny floor.
        for (index_t j = 0; j < width; ++j) {
          TrendModel& best = out[static_cast<std::size_t>(p0 + j)];
          if (best.sigma <= 0.0) best.sigma = 1e-12;
        }
      },
      threads == 0 ? common::default_thread_count() : threads);
  return out;
}

TrendModel fit_trend(std::span<const double> y, index_t num_ensembles,
                     index_t num_steps,
                     std::span<const double> annual_forcing,
                     const TrendFitConfig& config) {
  EXACLIM_CHECK(num_ensembles >= 1 && num_steps >= 1,
                "need at least one ensemble and one step");
  EXACLIM_CHECK(static_cast<index_t>(y.size()) == num_ensembles * num_steps,
                "series length must be R * T");
  return std::move(fit_trends(y, 1, num_ensembles, num_steps, annual_forcing,
                              config, 1)
                       .front());
}

TrendModel fit_trend_ref(std::span<const double> y, index_t num_ensembles,
                         index_t num_steps,
                         std::span<const double> annual_forcing,
                         const TrendFitConfig& config) {
  EXACLIM_CHECK(num_ensembles >= 1 && num_steps >= 1,
                "need at least one ensemble and one step");
  EXACLIM_CHECK(static_cast<index_t>(y.size()) == num_ensembles * num_steps,
                "series length must be R * T");
  std::vector<double> rho_grid = config.rho_grid;
  if (rho_grid.empty()) {
    for (int i = 0; i < 20; ++i) rho_grid.push_back(0.05 * i);
  }

  TrendModel best;
  double best_sse = -1.0;
  for (double rho : rho_grid) {
    // One design block per ensemble would be identical (shared regressors);
    // stack by repeating the design implicitly: fit the ensemble-mean series,
    // which yields the same OLS estimate, then measure SSE on all ensembles.
    linalg::Matrix x = build_design(annual_forcing, num_steps, config.period,
                                    config.harmonics, rho);
    std::vector<double> ymean(static_cast<std::size_t>(num_steps), 0.0);
    for (index_t r = 0; r < num_ensembles; ++r) {
      for (index_t t = 0; t < num_steps; ++t) {
        ymean[static_cast<std::size_t>(t)] +=
            y[static_cast<std::size_t>(r * num_steps + t)];
      }
    }
    for (auto& v : ymean) v /= static_cast<double>(num_ensembles);
    const OlsFit fit = ols(x, ymean);

    // Full-ensemble SSE for model selection and sigma.
    double sse = 0.0;
    for (index_t t = 0; t < num_steps; ++t) {
      double pred = 0.0;
      const auto row = x.row(t);
      for (std::size_t a = 0; a < fit.beta.size(); ++a) {
        pred += row[a] * fit.beta[a];
      }
      for (index_t r = 0; r < num_ensembles; ++r) {
        const double resid =
            y[static_cast<std::size_t>(r * num_steps + t)] - pred;
        sse += resid * resid;
      }
    }
    if (best_sse < 0.0 || sse < best_sse) {
      best_sse = sse;
      best.beta0 = fit.beta[0];
      best.beta1 = fit.beta[1];
      best.beta2 = fit.beta[2];
      best.rho = rho;
      best.cos_coeff.assign(static_cast<std::size_t>(config.harmonics), 0.0);
      best.sin_coeff.assign(static_cast<std::size_t>(config.harmonics), 0.0);
      for (index_t k = 1; k <= config.harmonics; ++k) {
        best.cos_coeff[static_cast<std::size_t>(k - 1)] =
            fit.beta[static_cast<std::size_t>(2 + 2 * k - 1)];
        best.sin_coeff[static_cast<std::size_t>(k - 1)] =
            fit.beta[static_cast<std::size_t>(2 + 2 * k)];
      }
      best.period = config.period;
      const double dof = static_cast<double>(num_ensembles * num_steps) -
                         static_cast<double>(3 + 2 * config.harmonics);
      best.sigma = std::sqrt(sse / (dof > 0.0 ? dof : 1.0));
    }
  }
  // A flat series can produce sigma == 0, which would make the stochastic
  // rescale degenerate; clamp to a tiny floor.
  if (best.sigma <= 0.0) best.sigma = 1e-12;
  return best;
}

std::vector<double> trend_series(const TrendModel& model, index_t num_steps,
                                 std::span<const double> annual_forcing) {
  return series_from_table(
      model, num_steps, annual_forcing,
      harmonic_table(num_steps, model.period,
                     static_cast<index_t>(model.cos_coeff.size())));
}

std::vector<double> trend_series_all(std::span<const TrendModel> models,
                                     index_t num_steps,
                                     std::span<const double> annual_forcing,
                                     unsigned threads) {
  const auto num_points = static_cast<index_t>(models.size());
  std::vector<double> out(static_cast<std::size_t>(num_steps * num_points));
  if (models.empty()) return out;
  const HarmonicTable table = harmonic_table(
      num_steps, models.front().period,
      static_cast<index_t>(models.front().cos_coeff.size()));
  common::parallel_for(
      0, num_points,
      [&](index_t p) {
        const TrendModel& model = models[static_cast<std::size_t>(p)];
        const bool shared =
            model.period == table.period &&
            static_cast<index_t>(model.cos_coeff.size()) == table.harmonics;
        const std::vector<double> series =
            shared ? series_from_table(model, num_steps, annual_forcing, table)
                   : trend_series(model, num_steps, annual_forcing);
        for (index_t t = 0; t < num_steps; ++t) {
          out[static_cast<std::size_t>(t * num_points + p)] =
              series[static_cast<std::size_t>(t)];
        }
      },
      threads == 0 ? common::default_thread_count() : threads);
  return out;
}

}  // namespace exaclim::stats
