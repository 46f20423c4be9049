#include "common.hpp"

#include <sys/resource.h>

#include <atomic>
#include <charconv>
#include <cstdio>
#include <span>
#include <thread>

#include "linalg/blas.hpp"

namespace perfbench {

std::string Metrics::json() const {
  std::string out = "{";
  char buf[32];
  for (std::size_t i = 0; i < items_.size(); ++i) {
    // JSON has no NaN or infinity; a metric that could not be measured
    // prints 0 and its run is already marked failed. Finite values print
    // in the shortest form that reads back to the same double.
    const double v = std::isfinite(items_[i].value) ? items_[i].value : 0.0;
    const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    out += (i ? ", \"" : "\"") + items_[i].name + "\": {\"value\": " +
           std::string(buf, end) + ", \"unit\": \"" + items_[i].unit + "\"}";
  }
  return out + "}";
}

void Checks::fail(int op, const std::string& why) {
  if (failed_op_[static_cast<std::size_t>(op)]) return;
  failed_op_[static_cast<std::size_t>(op)] = true;
  ++n_failed_;
  // The first few reasons go to stderr; the count is what the result keeps.
  if (n_reported_++ < 8)
    std::fprintf(stderr, "perfbench: operation %d failed: %s\n", op,
                 why.c_str());
}

double peak_rss_mb() {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double check_residuals(const h2::Kernel& kernel, const h2::PointCloud& pts,
                       const ResidualSet& set, Checks& checks) {
  if (set.x.empty()) return 0.0;
  std::vector<h2::ConstMatrixView> xs(set.x.begin(), set.x.end());
  const h2::Matrix x = h2::hconcat(xs);
  const int n = x.rows();
  // K x exactly: row panels of the dense kernel (kernel_block_into) times x
  // (gemm), the panels split over kWorkers threads.
  h2::Matrix kx(n, x.cols());
  constexpr int kPanel = 256;
  std::atomic<int> next{0};
  std::atomic<bool> thrown{false};
  auto work = [&] {
    try {
      h2::Matrix panel(kPanel, n);
      for (int i0; (i0 = kPanel * next.fetch_add(1)) < n;) {
        const int rows = std::min(kPanel, n - i0);
        const h2::MatrixView p = panel.block(0, 0, rows, n);
        h2::kernel_block_into(
            kernel, std::span<const h2::Point>(pts).subspan(i0, rows), pts, p);
        h2::gemm(1.0, p, h2::Trans::No, x, h2::Trans::No, 0.0,
                 kx.block(i0, 0, rows, x.cols()));
      }
    } catch (...) {
      thrown = true;
    }
  };
  std::vector<std::thread> threads;
  for (int t = 1; t < kWorkers; ++t) threads.emplace_back(work);
  work();
  for (std::thread& t : threads) t.join();
  if (thrown) {
    for (const int op : set.op) checks.fail(op, "exact residual check threw");
    return 0.0;
  }
  double worst = 0.0;
  int col = 0;
  for (std::size_t s = 0; s < set.x.size(); ++s) {
    const h2::Matrix& b = set.b[s];
    for (int j = 0; j < b.cols(); ++j, ++col) {
      double num = 0.0, den = 0.0;
      for (int i = 0; i < b.rows(); ++i) {
        const double d = kx(i, col) - b(i, j);
        num += d * d;
        den += b(i, j) * b(i, j);
      }
      const double r = std::sqrt(num / den);
      if (!(r <= kResidualBound)) {
        char why[96];
        std::snprintf(why, sizeof(why), "residual %.3e over the %.0e bound",
                      r, kResidualBound);
        checks.fail(set.op[s], why);
      }
      worst = std::max(worst, std::isfinite(r) ? r : 1.0);
    }
  }
  return worst;
}

}  // namespace perfbench
