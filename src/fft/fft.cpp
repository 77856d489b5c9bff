#include "fft/fft.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <mutex>
#include <unordered_map>

#include "common/error.hpp"
#include "common/math.hpp"

namespace exaclim::fft {

using common::next_pow2;

namespace {

/// a * b without the C99 Annex G inf/nan recovery GCC attaches to
/// std::complex multiplication.
inline cplx mul(cplx a, cplx b) {
  return {a.real() * b.real() - a.imag() * b.imag(),
          a.real() * b.imag() + a.imag() * b.real()};
}

/// -i * a.
inline cplx mul_neg_i(cplx a) { return {a.imag(), -a.real()}; }

/// exp(-2 pi i k / n). k is reduced in integers to (-n/2, n/2] first, so the
/// angle handed to cos/sin never exceeds pi in magnitude however large k is.
cplx unit_root(index_t k, index_t n) {
  k %= n;
  if (2 * k > n) k -= n;
  const double ang = -kTwoPi * static_cast<double>(k) / static_cast<double>(n);
  return {std::cos(ang), std::sin(ang)};
}

/// cos(2 pi t / R) and sin(2 pi t / R), t = 0..(R-1)/2, for the odd radices
/// without a specialized butterfly.
template <int R>
struct OddRoots;
template <>
struct OddRoots<5> {
  static constexpr double c[] = {1.0, 0.30901699437494742410,
                                 -0.80901699437494742410};
  static constexpr double s[] = {0.0, 0.95105651629515357212,
                                 0.58778525229247312917};
};
template <>
struct OddRoots<7> {
  static constexpr double c[] = {1.0, 0.62348980185873353053,
                                 -0.22252093395631440429,
                                 -0.90096886790241912624};
  static constexpr double s[] = {0.0, 0.78183148246802980871,
                                 0.97492791218182360702,
                                 0.43388373911755812048};
};

/// In-place forward DFT of the R values in `a`.
template <int R>
inline void butterfly(cplx* a) {
  if constexpr (R == 2) {
    const cplx a0 = a[0];
    a[0] = a0 + a[1];
    a[1] = a0 - a[1];
  } else if constexpr (R == 3) {
    constexpr double kSin = 0.86602540378443864676;  // sin(2 pi / 3)
    const cplx t1 = a[1] + a[2];
    const cplx d = kSin * mul_neg_i(a[1] - a[2]);
    const cplx c = a[0] - 0.5 * t1;
    a[0] += t1;
    a[1] = c + d;
    a[2] = c - d;
  } else if constexpr (R == 4) {
    const cplx t0 = a[0] + a[2];
    const cplx t1 = a[0] - a[2];
    const cplx t2 = a[1] + a[3];
    const cplx t3 = mul_neg_i(a[1] - a[3]);
    a[0] = t0 + t2;
    a[1] = t1 + t3;
    a[2] = t0 - t2;
    a[3] = t1 - t3;
  } else {
    // Odd R: X_j = a0 + sum_k (a_k + a_{R-k}) cos(2 pi jk/R)
    //                 - i sum_k (a_k - a_{R-k}) sin(2 pi jk/R), k = 1..H,
    // and X_{R-j} flips the sign of the sine sum.
    constexpr int H = (R - 1) / 2;
    std::array<cplx, H + 1> sum{};
    std::array<cplx, H + 1> dif{};
    cplx x0 = a[0];
    for (int k = 1; k <= H; ++k) {
      sum[k] = a[k] + a[R - k];
      dif[k] = a[k] - a[R - k];
      x0 += sum[k];
    }
    for (int j = 1; j <= H; ++j) {
      cplx re = a[0];
      cplx im{0.0, 0.0};
      for (int k = 1; k <= H; ++k) {
        // t = jk mod R; cos is even and sin odd about R/2.
        const int t = (j * k) % R;
        const double c = t <= H ? OddRoots<R>::c[t] : OddRoots<R>::c[R - t];
        const double sn = t <= H ? OddRoots<R>::s[t] : -OddRoots<R>::s[R - t];
        re += c * sum[k];
        im += sn * dif[k];
      }
      a[j] = re + mul_neg_i(im);
      a[R - j] = re - mul_neg_i(im);
    }
    a[0] = x0;
  }
}

/// One Stockham DIF pass of radix R over the current length R*m at stride s:
///   y[q + s(R p + j)] = w^{p j} * sum_k x[q + s(p + k m)] exp(-2 pi i jk/R),
/// w = exp(-2 pi i / (R m)), for p < m, q < s. `tw` holds w^{p j} at
/// [p (R-1) + j - 1]. With m = 1 every q reads and writes the same R slots,
/// so the last pass may run with x == y.
template <int R>
void pass(const cplx* x, cplx* y, index_t m, index_t s, const cplx* tw) {
  for (index_t p = 0; p < m; ++p) {
    const cplx* w = tw + p * (R - 1);
    for (index_t q = 0; q < s; ++q) {
      std::array<cplx, R> a;
      for (int k = 0; k < R; ++k) a[k] = x[q + s * (p + k * m)];
      butterfly<R>(a.data());
      cplx* out = y + q + s * R * p;
      out[0] = a[0];
      for (int j = 1; j < R; ++j) out[s * j] = mul(a[j], w[j - 1]);
    }
  }
}

/// True when every prime factor of n is at most 7.
bool is_7smooth(index_t n) {
  for (index_t r : {2, 3, 5, 7}) {
    while (n % r == 0) n /= r;
  }
  return n == 1;
}

/// Mixed-radix Stockham autosort forward DFT of a 7-smooth length, natural
/// order in and out. The radices are 4 while they divide, then 2, 3, 5, 7.
class Stockham {
 public:
  explicit Stockham(index_t n) : n_(n) {
    index_t len = n;  // the current length, R * m
    index_t s = 1;
    auto take = [&](int r) {
      const index_t m = len / r;
      stages_.push_back({r, m, s, twiddles_.size()});
      for (index_t p = 0; p < m; ++p) {
        for (int j = 1; j < r; ++j) twiddles_.push_back(unit_root(p * j, len));
      }
      len = m;
      s *= r;
    };
    while (len % 4 == 0) take(4);
    if (len % 2 == 0) take(2);
    for (int r : {3, 5, 7}) {
      while (len % r == 0) take(r);
    }
    EXACLIM_CHECK(len == 1, "Stockham length must be 7-smooth");
  }

  index_t size() const { return n_; }

  /// Forward DFT of `data` in place; `scratch` holds size() values and is the
  /// other half of the ping-pong.
  void forward(cplx* data, cplx* scratch) const {
    cplx* src = data;
    cplx* dst = scratch;
    for (std::size_t i = 0; i < stages_.size(); ++i) {
      // The last pass has m = 1 and may run in place, so the result always
      // lands in `data`.
      if (i + 1 == stages_.size()) dst = data;
      const Stage& st = stages_[i];
      const cplx* tw = twiddles_.data() + st.twiddle;
      switch (st.radix) {
        case 2: pass<2>(src, dst, st.m, st.s, tw); break;
        case 3: pass<3>(src, dst, st.m, st.s, tw); break;
        case 4: pass<4>(src, dst, st.m, st.s, tw); break;
        case 5: pass<5>(src, dst, st.m, st.s, tw); break;
        default: pass<7>(src, dst, st.m, st.s, tw); break;
      }
      std::swap(src, dst);
    }
  }

 private:
  struct Stage {
    int radix;
    index_t m;            // current length / radix
    index_t s;            // stride: product of the earlier radices
    std::size_t twiddle;  // offset of this pass's w^{p j} in twiddles_
  };

  index_t n_;
  std::vector<Stage> stages_;
  std::vector<cplx> twiddles_;
};

/// Per-thread scratch, grown to the largest need seen: n values for a
/// Stockham transform, 2m for Bluestein (its padded signal plus the engine's
/// ping-pong half). One buffer per thread is enough because no
/// Plan::execute calls another plan's execute: Bluestein runs its
/// convolution FFTs on its own Stockham engine with explicit buffers.
cplx* thread_scratch(index_t need) {
  thread_local std::vector<cplx> buf;
  if (buf.size() < static_cast<std::size_t>(need)) {
    buf.resize(static_cast<std::size_t>(need));
  }
  return buf.data();
}

/// Length of the Stockham engine behind a length-n plan: n itself when
/// 7-smooth, else Bluestein's power-of-two convolution length.
index_t engine_length(index_t n) {
  EXACLIM_CHECK(n >= 1, "FFT length must be >= 1");
  return is_7smooth(n) ? n : next_pow2(2 * n - 1);
}

}  // namespace

struct Plan::Impl {
  index_t n = 0;
  Stockham engine;

  // Bluestein path (engine.size() != n): chirp w_j = exp(-i pi j^2 / n) and
  // the forward FFT of the filter b_j = conj(w_j), circularly extended to the
  // convolution length and pre-scaled by its (power-of-two, so exact) 1/m.
  std::vector<cplx> chirp;
  std::vector<cplx> filter_fft;

  explicit Impl(index_t length) : n(length), engine(engine_length(length)) {
    const index_t m = engine.size();
    if (m == n) return;
    chirp.resize(static_cast<std::size_t>(n));
    for (index_t j = 0; j < n; ++j) {
      chirp[static_cast<std::size_t>(j)] = unit_root(j * j, 2 * n);
    }
    filter_fft.assign(static_cast<std::size_t>(m), cplx{0.0, 0.0});
    filter_fft[0] = std::conj(chirp[0]);
    for (index_t j = 1; j < n; ++j) {
      const cplx v = std::conj(chirp[static_cast<std::size_t>(j)]);
      filter_fft[static_cast<std::size_t>(j)] = v;
      filter_fft[static_cast<std::size_t>(m - j)] = v;
    }
    std::vector<cplx> scratch(static_cast<std::size_t>(m));
    engine.forward(filter_fft.data(), scratch.data());
    const double inv_m = 1.0 / static_cast<double>(m);
    for (auto& v : filter_fft) v *= inv_m;
  }

  void bluestein(cplx* data) const {
    const index_t m = engine.size();
    cplx* a = thread_scratch(2 * m);
    cplx* scratch = a + m;
    for (index_t j = 0; j < n; ++j) {
      a[j] = mul(data[j], chirp[static_cast<std::size_t>(j)]);
    }
    std::fill(a + n, a + m, cplx{0.0, 0.0});
    engine.forward(a, scratch);
    // The inverse convolution FFT by conjugation,
    // ifft(y) = conj(fft(conj y)) / m, with the 1/m already in filter_fft.
    for (index_t j = 0; j < m; ++j) {
      a[j] = std::conj(mul(a[j], filter_fft[static_cast<std::size_t>(j)]));
    }
    engine.forward(a, scratch);
    for (index_t k = 0; k < n; ++k) {
      data[k] = mul(std::conj(a[k]), chirp[static_cast<std::size_t>(k)]);
    }
  }

  void execute(cplx* data, bool inverse_dir) const {
    // inverse(x) = conj(forward(conj x)) / n.
    if (inverse_dir) {
      for (index_t j = 0; j < n; ++j) data[j] = std::conj(data[j]);
    }
    if (engine.size() == n) {
      engine.forward(data, thread_scratch(n));
    } else {
      bluestein(data);
    }
    if (inverse_dir) {
      const double inv_n = 1.0 / static_cast<double>(n);
      for (index_t j = 0; j < n; ++j) data[j] = std::conj(data[j]) * inv_n;
    }
  }
};

Plan::Plan(index_t n) : impl_(std::make_unique<Impl>(n)) {}
Plan::~Plan() = default;
Plan::Plan(Plan&&) noexcept = default;
Plan& Plan::operator=(Plan&&) noexcept = default;

index_t Plan::size() const { return impl_->n; }
void Plan::forward(cplx* data) const { impl_->execute(data, false); }
void Plan::inverse(cplx* data) const { impl_->execute(data, true); }

std::shared_ptr<const Plan> get_plan(index_t n) {
  static std::mutex mu;
  static std::unordered_map<index_t, std::shared_ptr<const Plan>> cache;
  std::lock_guard<std::mutex> lock(mu);
  auto it = cache.find(n);
  if (it != cache.end()) return it->second;
  auto plan = std::make_shared<const Plan>(n);
  cache.emplace(n, plan);
  return plan;
}

void forward(std::vector<cplx>& data) {
  get_plan(static_cast<index_t>(data.size()))->forward(data.data());
}

void inverse(std::vector<cplx>& data) {
  get_plan(static_cast<index_t>(data.size()))->inverse(data.data());
}

std::vector<cplx> dft_reference(const std::vector<cplx>& x, bool inverse_dir) {
  const index_t n = static_cast<index_t>(x.size());
  std::vector<cplx> out(x.size());
  const double sign = inverse_dir ? 1.0 : -1.0;
  for (index_t k = 0; k < n; ++k) {
    cplx acc{0.0, 0.0};
    for (index_t j = 0; j < n; ++j) {
      const double ang =
          sign * kTwoPi * static_cast<double>((j * k) % n) / static_cast<double>(n);
      acc += x[static_cast<std::size_t>(j)] * cplx{std::cos(ang), std::sin(ang)};
    }
    out[static_cast<std::size_t>(k)] =
        inverse_dir ? acc / static_cast<double>(n) : acc;
  }
  return out;
}

}  // namespace exaclim::fft
