#include "core/emulator.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "climate/validate.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "runtime/failure.hpp"
#include "runtime/sampling_dag.hpp"
#include "runtime/tiled_cholesky_rt.hpp"
#include "sht/packing.hpp"
#include "stats/covariance.hpp"

namespace exaclim::core {

namespace {
/// VAR steps simulated and discarded before the first emulated step, past the
/// P start-up steps; shared by emulate_variables and its oracle.
constexpr index_t kEmulationBurnIn = 64;
}  // namespace

ClimateEmulator::ClimateEmulator(EmulatorConfig config)
    : config_(std::move(config)) {
  check_config(config_);
}

ClimateEmulator::ClimateEmulator(EmulatorConfig config, TrainedVariables state)
    : config_(std::move(config)), state_(std::move(state)) {
  check_config(config_);
  EXACLIM_CHECK(is_trained() &&
                    state_.plan->band_limit() == config_.band_limit &&
                    state_.trend.size() == 1 && state_.nugget_var.size() == 1,
                "need the trained state of one variable at the band limit");
  const auto n = static_cast<std::size_t>(sh_coeff_count(config_.band_limit));
  const auto points = static_cast<std::size_t>(grid().num_points());
  EXACLIM_CHECK(trend_models().size() == points,
                "trend model count must match grid");
  EXACLIM_CHECK(state_.ar.size() == n, "AR model count must match band limit");
  EXACLIM_CHECK(state_.factor.size() == n * (n + 1) / 2,
                "factor dimension must be L^2");
  EXACLIM_CHECK(nugget_variance().size() == points,
                "nugget variance count must match grid");
}

TrainReport ClimateEmulator::train(const climate::ClimateDataset& data,
                                   std::span<const double> annual_forcing) {
  const climate::ClimateDataset* const variables[] = {&data};
  state_ = train_variables(config_, variables, annual_forcing);
  return state_.report;
}

const TrainedVariables& ClimateEmulator::trained() const {
  EXACLIM_CHECK(is_trained(), "emulator has not been trained");
  return state_;
}

linalg::Matrix ClimateEmulator::cholesky_factor() const {
  return linalg::unpack_lower(state_.factor, state_.factor_view().n);
}

TrainedVariables train_variables(
    const EmulatorConfig& config,
    std::span<const climate::ClimateDataset* const> data,
    std::span<const double> annual_forcing) {
  EXACLIM_CHECK(!data.empty(), "need at least one variable");
  for (const auto* v : data) EXACLIM_CHECK(v != nullptr, "null dataset");
  const climate::ClimateDataset& first = *data.front();
  for (const auto* v : data) {
    EXACLIM_CHECK(v->grid().nlat == first.grid().nlat &&
                      v->grid().nlon == first.grid().nlon &&
                      v->num_steps() == first.num_steps() &&
                      v->num_ensembles() == first.num_ensembles() &&
                      v->steps_per_year() == first.steps_per_year(),
                  "variables must share grid/time/ensemble layout");
  }
  const index_t L = config.band_limit;
  const sht::GridShape grid = first.grid();
  const index_t num_points = grid.num_points();
  const index_t T = first.num_steps();
  const index_t R = first.num_ensembles();
  const index_t P = config.ar_order;
  EXACLIM_CHECK(first.steps_per_year() == config.steps_per_year,
                "dataset temporal resolution must match config");
  EXACLIM_CHECK(T > 2 * P, "too few time steps for the AR order");
  EXACLIM_CHECK(static_cast<index_t>(annual_forcing.size()) >=
                    first.num_years(),
                "forcing trajectory shorter than the dataset");
  const auto num_vars = static_cast<index_t>(data.size());
  const index_t n_coeff = sh_coeff_count(L);
  const index_t n = num_vars * n_coeff;
  const unsigned threads =
      config.threads == 0 ? common::default_thread_count() : config.threads;

  TrainedVariables out;
  TrainReport& report = out.report;
  common::Timer total;

  // Input screening before any statistics touch the data: malformed cells
  // fail here as structured ValidationErrors naming exact coordinates, or —
  // under quarantine — are imputed into private copies (never mutating the
  // caller's datasets).
  std::vector<climate::ClimateDataset> repaired;
  std::vector<const climate::ClimateDataset*> sources(data.begin(), data.end());
  if (config.validate_input) {
    climate::ValidationOptions vopts;
    vopts.min_value = config.valid_min;
    vopts.max_value = config.valid_max;
    vopts.quarantine = config.quarantine;
    if (config.quarantine) repaired.reserve(data.size());
    for (auto& source : sources) {
      climate::ValidationSummary vsum;
      if (config.quarantine) {
        source = &repaired.emplace_back(*source);
        vsum = climate::validate_dataset(repaired.back(), vopts);
      } else {
        vsum = climate::validate_dataset(*source, vopts);
      }
      report.validation_flagged += static_cast<index_t>(vsum.flagged());
      report.validation_quarantined += static_cast<index_t>(vsum.quarantined);
    }
  }
  out.plan = std::make_shared<const sht::SHTPlan>(L, grid);
  const sht::SHTPlan& plan = *out.plan;

  // f[r * T + t] is the joint state: variable v's packed coefficients occupy
  // columns [v L^2, (v + 1) L^2).
  linalg::Matrix f(R * T, n);
  const stats::TrendFitConfig trend_cfg = config.trend_config();
  out.trend.resize(static_cast<std::size_t>(num_vars));
  out.nugget_var.resize(static_cast<std::size_t>(num_vars));
  common::Timer stage;
  for (index_t v = 0; v < num_vars; ++v) {
    const climate::ClimateDataset& var = *sources[static_cast<std::size_t>(v)];

    // ---- Stage 1: per-location trend/scale (Eq. 2) and its m_t cache ------
    stage.reset();
    auto& trend = out.trend[static_cast<std::size_t>(v)];
    trend = stats::fit_trends(var.raw(), num_points, R, T, annual_forcing,
                              trend_cfg, threads);
    // Cache m_t once (shared across ensembles), step-major.
    const std::vector<double> trend_series =
        stats::trend_series_all(trend, T, annual_forcing, threads);
    report.trend_seconds += stage.seconds();

    // ---- Stage 2: SHT of the standardized stochastic component -----------
    stage.reset();
    // Deterministic reduction: parallel_reduce fixes the chunking and combine
    // order as a function of R*T alone, so the nugget is bit-stable at any
    // --threads.
    auto& nugget = out.nugget_var[static_cast<std::size_t>(v)];
    nugget = common::parallel_reduce(
        0, R * T,
        std::vector<double>(static_cast<std::size_t>(num_points), 0.0),
        [&](std::vector<double>& acc, index_t rt) {
          const index_t r = rt / T;
          const index_t t = rt % T;
          const auto obs = var.field(r, t);
          std::vector<double> z(static_cast<std::size_t>(num_points));
          const double* m_t = trend_series.data() + t * num_points;
          for (index_t p = 0; p < num_points; ++p) {
            z[static_cast<std::size_t>(p)] =
                (obs[static_cast<std::size_t>(p)] - m_t[p]) /
                trend[static_cast<std::size_t>(p)].sigma;
          }
          const std::vector<cplx> coeffs = plan.analyze(z);
          const std::vector<double> packed = sht::pack_real(L, coeffs);
          std::copy(packed.begin(), packed.end(),
                    f.data() +
                        static_cast<std::size_t>(rt) *
                            static_cast<std::size_t>(n) +
                        static_cast<std::size_t>(v * n_coeff));
          // Truncation residual -> nugget variance accumulation.
          const std::vector<double> back = plan.synthesize(coeffs);
          for (index_t p = 0; p < num_points; ++p) {
            const double e = z[static_cast<std::size_t>(p)] -
                             back[static_cast<std::size_t>(p)];
            acc[static_cast<std::size_t>(p)] += e * e;
          }
        },
        [num_points](std::vector<double>& into, std::vector<double>&& from) {
          for (index_t p = 0; p < num_points; ++p) {
            into[static_cast<std::size_t>(p)] +=
                from[static_cast<std::size_t>(p)];
          }
        },
        threads);
    for (auto& value : nugget) value /= static_cast<double>(R * T);
    report.sht_seconds += stage.seconds();
  }

  // ---- Stage 3: diagonal VAR(P) per joint coordinate ----------------------
  stage.reset();
  out.ar.assign(static_cast<std::size_t>(n), stats::ArModel{});
  common::parallel_for(
      0, n,
      [&](index_t c) {
        std::vector<double> series(static_cast<std::size_t>(R * T));
        for (index_t rt = 0; rt < R * T; ++rt) {
          series[static_cast<std::size_t>(rt)] = f(rt, c);
        }
        out.ar[static_cast<std::size_t>(c)] =
            stats::fit_ar_ensemble(series, R, T, P);
      },
      threads);
  report.ar_seconds = stage.seconds();

  // ---- Stage 4: joint innovation covariance + Cholesky --------------------
  stage.reset();
  const index_t n_samples = R * (T - P);
  report.innovation_samples = n_samples;
  linalg::Matrix xi(n_samples, n);
  common::parallel_for(0, n, [&](index_t c) {
    index_t row = 0;
    const auto& phi = out.ar[static_cast<std::size_t>(c)].phi;
    for (index_t r = 0; r < R; ++r) {
      for (index_t t = P; t < T; ++t) {
        double pred = 0.0;
        for (index_t a = 0; a < P; ++a) {
          pred += phi[static_cast<std::size_t>(a)] * f(r * T + t - 1 - a, c);
        }
        xi(row, c) = f(r * T + t, c) - pred;
        ++row;
      }
    }
  }, threads);
  // The joint state and then the innovations die here: freeing them keeps
  // U-hat's working set (packed samples, U-hat, the Cholesky tiles) from
  // stacking on top of them.
  f = linalg::Matrix();
  stats::PreparedCovariance prepared =
      stats::prepare_covariance(xi, threads);
  xi = linalg::Matrix();
  report.covariance_deficient = prepared.was_deficient;
  // The cross-variable diagnostic needs U-hat, which training does not keep.
  linalg::Matrix& u = prepared.u;
  out.cross_correlation.resize(static_cast<std::size_t>(num_vars * num_vars));
  for (index_t a = 0; a < num_vars; ++a) {
    for (index_t b = 0; b < num_vars; ++b) {
      double acc = 0.0;
      for (index_t c = 0; c < n_coeff; ++c) {
        const index_t i = a * n_coeff + c;
        const index_t j = b * n_coeff + c;
        const double d = std::sqrt(u(i, i) * u(j, j));
        acc += std::abs(d > 0.0 ? u(i, j) / d : 0.0);
      }
      out.cross_correlation[static_cast<std::size_t>(a * num_vars + b)] =
          acc / static_cast<double>(n_coeff);
    }
  }
  report.covariance_seconds = stage.seconds();

  // Mixed-precision tiled Cholesky of U-hat (the paper's headline solver),
  // the only test that U-hat is definite. A POTRF failure it cannot recover
  // climbs the jitter ladder: rung k sets U-hat(i, i) = d(i) + j_k, with d
  // the diagonal after the deficiency jitter, j_1 = jitter_unit and j_k =
  // 10 j_{k-1}, and factors fresh tiles. Only the first attempt resumes.
  stage.reset();
  const index_t nb = std::min(config.tile_size, n);
  const index_t nt = (n + nb - 1) / nb;
  const linalg::PrecisionMap policy =
      linalg::make_band_policy(nt, config.cholesky_variant);
  runtime::RtCholeskyOptions options = cholesky_options(config);
  std::vector<double> diag;  // d
  for (index_t i = 0; i < n; ++i) diag.push_back(u(i, i));
  double rung_jitter = 0.0;
  runtime::RtCholeskyResult rt;
  for (int rung = 0;; ++rung) {
    linalg::TiledSymmetricMatrix tiled =
        linalg::TiledSymmetricMatrix::from_dense(u, nb, policy);
    try {
      rt = runtime::cholesky_tiled_parallel(tiled, options);
    } catch (const runtime::TaskFailure& e) {
      if (e.kind() != "POTRF" || rung == runtime::kFactorJitterRungs) throw;
      rung_jitter = rung == 0 ? prepared.jitter_unit : rung_jitter * 10.0;
      for (index_t i = 0; i < n; ++i) {
        u(i, i) = diag[static_cast<std::size_t>(i)] + rung_jitter;
      }
      options.ft.resume_path.clear();
      continue;
    }
    report.covariance_rung = rung;
    report.tiles_degraded_for_memory = tiled.tiles_degraded_for_memory();
    out.factor = tiled.to_packed_lower();
    break;
  }
  report.covariance_jitter = prepared.jitter + rung_jitter;
  report.precision_escalations = rt.precision_escalations;
  report.jitter_escalations = rt.jitter_escalations;
  report.checkpoints_written = rt.checkpoints_written;
  report.resumed_from_checkpoint = rt.resumed;
  report.cholesky_seconds = stage.seconds();

  report.total_seconds = total.seconds();
  return out;
}

std::vector<climate::ClimateDataset> emulate_variables(
    const EmulatorConfig& config, const sht::SHTPlan& plan,
    std::span<const std::vector<stats::TrendModel>> trend,
    std::span<const std::vector<double>> nugget_var,
    std::span<const stats::ArModel> ar, const linalg::PackedFactorView& factor,
    index_t num_steps, index_t num_ensembles,
    std::span<const double> annual_forcing, std::uint64_t seed) {
  EXACLIM_CHECK(num_steps >= 1 && num_ensembles >= 1,
                "need at least one step and one ensemble");
  const index_t tau = config.steps_per_year;
  EXACLIM_CHECK(static_cast<index_t>(annual_forcing.size()) >=
                    (num_steps + tau - 1) / tau,
                "forcing trajectory shorter than requested emulation");
  const index_t L = config.band_limit;
  const index_t n_coeff = sh_coeff_count(L);
  const auto num_vars = static_cast<index_t>(trend.size());
  const index_t n = factor.n;
  const index_t num_points = plan.grid().num_points();
  const index_t P = config.ar_order;
  const index_t burn = kEmulationBurnIn + P;
  const index_t total = burn + num_steps;
  const unsigned threads =
      config.threads == 0 ? common::default_thread_count() : config.threads;

  // Per variable: the output, the trend series m_t shared across members
  // ([t * points + p]) and the nugget standard deviation v per point.
  std::vector<climate::ClimateDataset> out;
  std::vector<std::vector<double>> trend_series;
  std::vector<std::vector<double>> nugget_sd;
  for (index_t v = 0; v < num_vars; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    out.emplace_back(plan.grid(), num_steps, num_ensembles, tau);
    trend_series.push_back(stats::trend_series_all(trend[vi], num_steps,
                                                   annual_forcing, threads));
    auto& sd = nugget_sd.emplace_back(nugget_var[vi]);
    for (double& x : sd) x = std::sqrt(x);
  }

  runtime::SamplingDagOptions dag_options;
  dag_options.tile = config.tile_size;
  // One participant: a panel's fill, DAG build, verification and execute
  // all run inline on the worker that took it.
  runtime::SchedulerOptions sched = sampling_options(config);
  sched.threads = 1;
  const common::Rng master(seed);

  // Members run in groups of G = ceil(threads / panels), enough panels for
  // every participant, and two groups are in flight: one region draws the
  // panels of group k + 1 and synthesizes the steps of group k, and a second
  // runs the VAR of group k + 1. A member's steps split into panels of equal
  // width (at most 64). The in-flight memory is the VAR state of 2G members,
  // total x n doubles each: member r's rows start at state_row(r), and row
  // state_row(r) + s holds step s - burn, so rows s < burn are burn-in.
  const index_t panels = (total + runtime::BatchControl::kMaxBatch - 1) /
                         runtime::BatchControl::kMaxBatch;
  const index_t group = std::min<index_t>(
      num_ensembles, (static_cast<index_t>(threads) + panels - 1) / panels);
  const index_t num_groups = (num_ensembles + group - 1) / group;
  auto group_size = [&](index_t k) {
    return std::min(group, num_ensembles - k * group);
  };
  // Every value is drawn before it is read, so the state starts untouched
  // and its pages are first written by the workers that draw into them.
  climate::ClimateDataset::Storage state_values(static_cast<std::size_t>(
      std::min<index_t>(2, num_groups) * group * total * n));
  double* const state_data = state_values.data();
  auto state = [state_data, n](index_t row, index_t c) -> double& {
    return state_data[row * n + c];
  };
  auto state_row = [&](index_t r) {
    return (r / group % 2 * group + r % group) * total;
  };

  // Innovations do not depend on the VAR state: panel p of member r is one
  // item, one stream per (member, step).
  auto draw = [&](index_t r, index_t p) {
    const index_t s0 = p * (total / panels) + std::min(p, total % panels);
    const index_t width = total / panels + (p < total % panels ? 1 : 0);
    std::array<std::uint64_t, runtime::BatchControl::kMaxBatch> stream_ids{};
    for (index_t j = 0; j < width; ++j) {
      stream_ids[static_cast<std::size_t>(j)] = runtime::emulation_stream_id(
          runtime::EmulationStream::Innovation, r, s0 + j);
    }
    thread_local runtime::SamplePanel panel;
    runtime::sample_panel(
        factor, seed,
        std::span<const std::uint64_t>(stream_ids.data(),
                                       static_cast<std::size_t>(width)),
        panel, nullptr, dag_options, sched);
    const index_t row0 = state_row(r) + s0;
    for (index_t c = 0; c < n; ++c) {
      for (index_t j = 0; j < width; ++j) {
        state(row0 + j, c) = panel.x[static_cast<std::size_t>(c * width + j)];
      }
    }
  };

  // The VAR forward pass of group k in place over its innovations, per
  // (member, block of coefficients). The per-coefficient loop keeps the
  // source whose object code fixes each term's rounding (docs/PERF.md,
  // "Emulation"). The rows were written by other workers; fetching the
  // block of row s + 4 ahead hides their latency.
  constexpr index_t kVarBlock = 64;
  const index_t var_blocks = (n + kVarBlock - 1) / kVarBlock;
  auto run_var = [&](index_t k) {
    common::parallel_for(
        0, group_size(k) * var_blocks,
        [&](index_t item) {
          const index_t row0 = state_row(k * group + item / var_blocks);
          const index_t c0 = item % var_blocks * kVarBlock;
          const index_t c1 = std::min(n, c0 + kVarBlock);
          for (index_t s = 0; s < total; ++s) {
            if (s + 4 < total) {
              for (index_t c = c0; c < c1; c += 8) {
                __builtin_prefetch(&state(row0 + s + 4, c), 1);
              }
            }
            for (index_t c = c0; c < c1; ++c) {
              const auto& phi = ar[static_cast<std::size_t>(c)].phi;
              double value = state(row0 + s, c);
              for (index_t a = 0; a < std::min(P, s); ++a) {
                value += phi[static_cast<std::size_t>(a)] *
                         state(row0 + s - 1 - a, c);
              }
              state(row0 + s, c) = value;
            }
          }
        },
        threads);
  };

  // Step t of member r: synthesis into the output, with the nugget draw, the
  // sigma scaling and the trend add fused into one pass over it.
  auto synthesize = [&](index_t r, index_t t) {
    // One nugget stream per (member, step), drawn variable by variable.
    common::Rng nug = master.split(
        runtime::emulation_stream_id(runtime::EmulationStream::Nugget, r, t));
    const double* row = &state(state_row(r) + burn + t, 0);
    thread_local std::vector<cplx> coeffs;
    coeffs.resize(static_cast<std::size_t>(sht::tri_count(L)));
    for (index_t v = 0; v < num_vars; ++v) {
      const auto vi = static_cast<std::size_t>(v);
      sht::unpack_real(L,
                       {row + v * n_coeff, static_cast<std::size_t>(n_coeff)},
                       coeffs);
      const auto dst = out[vi].field(r, t);
      plan.synthesize(coeffs, dst);
      const auto& var_trend = trend[vi];
      const double* sd = nugget_sd[vi].data();
      const double* m_t = trend_series[vi].data() + t * num_points;
      for (index_t p = 0; p < num_points; ++p) {
        const auto q = static_cast<std::size_t>(p);
        const double z = dst[q] + sd[q] * nug.normal();
        dst[q] = m_t[p] + var_trend[q].sigma * z;
      }
    }
  };

  common::parallel_for(
      0, group_size(0) * panels,
      [&](index_t item) { draw(item / panels, item % panels); }, threads);
  run_var(0);
  for (index_t k = 0; k < num_groups; ++k) {
    // Items go out one at a time, the draws (the largest) first, so the
    // steps fill in around them.
    const index_t draws = k + 1 < num_groups ? group_size(k + 1) * panels : 0;
    common::parallel_for(
        0, draws + group_size(k) * num_steps,
        [&](index_t item) {
          if (item < draws) {
            draw((k + 1) * group + item / panels, item % panels);
          } else {
            synthesize(k * group + (item - draws) / num_steps,
                       (item - draws) % num_steps);
          }
        },
        threads, 1);
    if (k + 1 < num_groups) run_var(k + 1);
  }
  return out;
}

// emulate_variables as it was before member groups, kept as its byte oracle.
std::vector<climate::ClimateDataset> emulate_variables_ref(
    const EmulatorConfig& config, const sht::SHTPlan& plan,
    std::span<const std::vector<stats::TrendModel>> trend,
    std::span<const std::vector<double>> nugget_var,
    std::span<const stats::ArModel> ar, const linalg::PackedFactorView& factor,
    index_t num_steps, index_t num_ensembles,
    std::span<const double> annual_forcing, std::uint64_t seed) {
  EXACLIM_CHECK(num_steps >= 1 && num_ensembles >= 1,
                "need at least one step and one ensemble");
  const index_t tau = config.steps_per_year;
  EXACLIM_CHECK(static_cast<index_t>(annual_forcing.size()) >=
                    (num_steps + tau - 1) / tau,
                "forcing trajectory shorter than requested emulation");
  const index_t L = config.band_limit;
  const index_t n_coeff = sh_coeff_count(L);
  const auto num_vars = static_cast<index_t>(trend.size());
  const index_t n = factor.n;
  const index_t num_points = plan.grid().num_points();
  const index_t P = config.ar_order;
  const index_t burn = kEmulationBurnIn + P;
  const index_t total = burn + num_steps;

  // Trend series m_t per variable and point, shared across members.
  std::vector<climate::ClimateDataset> out;
  std::vector<std::vector<double>> trend_series;  // [v][t * points + p]
  const unsigned threads =
      config.threads == 0 ? common::default_thread_count() : config.threads;
  for (const auto& var_trend : trend) {
    out.emplace_back(plan.grid(), num_steps, num_ensembles, tau);
    trend_series.push_back(stats::trend_series_all(var_trend, num_steps,
                                                   annual_forcing, threads));
  }

  runtime::SamplingDagOptions dag_options;
  dag_options.tile = config.tile_size;
  const runtime::SchedulerOptions sched = sampling_options(config);
  runtime::SamplePanel panel;
  std::vector<std::uint64_t> stream_ids;
  const common::Rng master(seed);

  // Row s holds the VAR state of step s - burn; rows [0, burn) are burn-in.
  linalg::Matrix state(total, n);
  for (index_t r = 0; r < num_ensembles; ++r) {
    // Innovations do not depend on the VAR state, so up to 64 steps are
    // drawn as one panel and the VAR then runs forward through them.
    for (index_t s0 = 0; s0 < total; s0 += runtime::BatchControl::kMaxBatch) {
      const index_t width =
          std::min(runtime::BatchControl::kMaxBatch, total - s0);
      stream_ids.resize(static_cast<std::size_t>(width));
      for (index_t j = 0; j < width; ++j) {
        stream_ids[static_cast<std::size_t>(j)] = runtime::emulation_stream_id(
            runtime::EmulationStream::Innovation, r, s0 + j);
      }
      runtime::sample_panel(factor, seed, stream_ids, panel, nullptr,
                            dag_options, sched);
      for (index_t j = 0; j < width; ++j) {
        const index_t s = s0 + j;
        for (index_t c = 0; c < n; ++c) {
          const auto& phi = ar[static_cast<std::size_t>(c)].phi;
          double value = panel.x[static_cast<std::size_t>(c * width + j)];
          for (index_t a = 0; a < std::min(P, s); ++a) {
            value += phi[static_cast<std::size_t>(a)] * state(s - 1 - a, c);
          }
          state(s, c) = value;
        }
      }
    }

    common::parallel_for(
        0, num_steps,
        [&](index_t t) {
          // One nugget stream per (member, step), drawn variable by variable.
          common::Rng nug = master.split(runtime::emulation_stream_id(
              runtime::EmulationStream::Nugget, r, t));
          const auto row = state.row(burn + t);
          for (index_t v = 0; v < num_vars; ++v) {
            const std::vector<double> coeffs(row.begin() + v * n_coeff,
                                             row.begin() + (v + 1) * n_coeff);
            const std::vector<double> field =
                plan.synthesize(sht::unpack_real(L, coeffs));
            const auto& var_trend = trend[static_cast<std::size_t>(v)];
            const auto& var_nugget = nugget_var[static_cast<std::size_t>(v)];
            const double* m_t =
                trend_series[static_cast<std::size_t>(v)].data() +
                t * num_points;
            auto dst = out[static_cast<std::size_t>(v)].field(r, t);
            for (index_t p = 0; p < num_points; ++p) {
              const auto q = static_cast<std::size_t>(p);
              const double z =
                  field[q] + std::sqrt(var_nugget[q]) * nug.normal();
              dst[q] = m_t[p] + var_trend[q].sigma * z;
            }
          }
        },
        threads);
  }
  return out;
}

climate::ClimateDataset ClimateEmulator::emulate(
    index_t num_steps, index_t num_ensembles,
    std::span<const double> annual_forcing, std::uint64_t seed) const {
  const TrainedVariables& s = trained();
  auto out = emulate_variables(config_, *s.plan, s.trend, s.nugget_var, s.ar,
                               s.factor_view(), num_steps, num_ensembles,
                               annual_forcing, seed);
  return std::move(out.front());
}

}  // namespace exaclim::core
