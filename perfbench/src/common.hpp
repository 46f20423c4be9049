#pragma once

// Shared pieces of the repo benchmark: the workload table, the metric sink,
// the failure ledger, sample statistics and the output checks.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "api/solver.hpp"
#include "geometry/cloud.hpp"
#include "kernels/assembly.hpp"
#include "kernels/kernel.hpp"
#include "linalg/matrix.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace perfbench {

// ---- Settings every workload shares (README.md "Workloads").
inline constexpr double kTol = 1e-8;
inline constexpr int kRankCap = 120;
inline constexpr int kLeaf = 128;
inline constexpr int kWorkers = 4;
inline constexpr double kSoftening = 1e-4;
/// Builds per run; setup_s is their median.
inline constexpr int kSetupRepeats = 3;
/// Minimum single-RHS solves per closed loop, so p90 has >= 10 samples
/// beyond it, and minimum blocked solves.
inline constexpr int kMinSingle = 100;
inline constexpr int kMinBlocked = 4;
/// Columns of one blocked solve.
inline constexpr int kBlockWidth = 32;
/// Distinct single right-hand sides the closed and open loops cycle over,
/// and distinct kBlockWidth-column blocks the blocked solves cycle over.
inline constexpr int kDistinctRhs = 16;
inline constexpr int kDistinctBlocks = 4;
/// Worst accepted ||K x - b|| / ||b|| against the exact kernel. The rank cap
/// of 120, not tol, sets the residual at these N (~1e-7 to ~1e-6).
inline constexpr double kResidualBound = 1e-5;
/// serve_cube: fixed offered load, Poisson arrivals, never derived from a
/// measured capacity.
inline constexpr double kServeRate = 60.0;
inline constexpr int kMinRequests = 1200;
inline constexpr int kClients = 4;
/// spill_cube: fixed resident budget, ~0.25x the in-RAM factor at N=2048.
inline constexpr double kSpillBudgetMb = 15.0;

struct Workload {
  const char* name;
  int n;
  bool surface;  ///< molecule_surface instead of uniform_cube
  h2::Precision precision;
};

inline constexpr Workload kWorkloads[] = {
    {"factor_cube", 8192, false, h2::Precision::F64},
    {"serve_cube", 2048, false, h2::Precision::F64},
    {"spill_cube", 2048, false, h2::Precision::F64},
    {"refine_surface", 8192, true, h2::Precision::F32},
};

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  std::string commit = "unknown";
};

/// The points are part of a workload's definition: drawn from this fixed
/// seed, so every run factors the same geometry. At these N the geometry of
/// a seed moves the tree, the ranks and hence the work by more than any
/// metric's bound (README.md "Inputs and seeds").
inline constexpr std::uint64_t kGeometrySeed = 2022;

/// A run's inputs. The right-hand sides, like the request schedule and the
/// probe operands, come from the command-line seed; the residual probe,
/// like the points, is part of the workload.
struct Inputs {
  h2::PointCloud points;
  /// rhs[key]: keys 0 .. kDistinctRhs-1 are single columns, the next
  /// kDistinctBlocks keys n x kBlockWidth blocks.
  std::vector<h2::Matrix> rhs;
  /// n x kBlockWidth block whose worst exact residual is rel_residual.
  h2::Matrix probe;
};

inline constexpr int block_key(int b) { return kDistinctRhs + b; }

inline Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  h2::Rng geometry(kGeometrySeed);
  h2::Rng rng(seed);
  Inputs in;
  in.points = w.surface ? h2::molecule_surface(w.n, geometry)
                        : h2::uniform_cube(w.n, geometry);
  in.probe = h2::Matrix::random(w.n, kBlockWidth, geometry);
  for (int c = 0; c < kDistinctRhs; ++c)
    in.rhs.push_back(h2::Matrix::random(w.n, 1, rng));
  for (int b = 0; b < kDistinctBlocks; ++b)
    in.rhs.push_back(h2::Matrix::random(w.n, kBlockWidth, rng));
  return in;
}

/// The facade options every workload starts from. Every field a $H2_*
/// environment default could set is pinned here.
inline h2::SolverOptions solver_options(const Workload& w) {
  return h2::SolverOptions{}
      .with_tol(kTol)
      .with_max_rank(kRankCap)
      .with_leaf_size(kLeaf)
      .with_executor(h2::UlvExecutor::TaskDag)
      .with_solve_executor(h2::UlvExecutor::TaskDag)
      .with_workers(kWorkers)
      .with_precision(w.precision)
      .with_spill_dir("");
}

// ---- Metric sink: name -> (value, unit), printed in insertion order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    for (auto& m : items_)
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    items_.push_back({name, value, unit});
  }
  [[nodiscard]] std::string json() const;

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

// ---- Failure ledger. Every build, solve and request is one operation; an
// exception, a non-finite value, a bitwise mismatch, a residual over the
// bound or an unconverged refinement marks it failed (once). Nothing is
// retried.
class Checks {
 public:
  int begin_op() {
    failed_op_.push_back(false);
    return static_cast<int>(failed_op_.size()) - 1;
  }
  void fail(int op, const std::string& why);
  [[nodiscard]] int attempted() const {
    return static_cast<int>(failed_op_.size());
  }
  [[nodiscard]] int failed() const { return n_failed_; }

 private:
  std::vector<bool> failed_op_;
  int n_failed_ = 0;
  int n_reported_ = 0;
};

// ---- Sample statistics.
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Tail latency that a few host stalls cannot set: v (in time order) is cut
/// into kTailWindows consecutive windows, and the result is the median of
/// the windows' q-quantiles. Host stalls of tens of ms come every few
/// seconds; one 300-request window's p99 ranged 19-47 ms within one run.
inline constexpr int kTailWindows = 10;
inline double windowed_quantile(const std::vector<double>& v, double q) {
  std::vector<double> per_window;
  for (int w = 0; w < kTailWindows; ++w) {
    const auto lo = v.begin() + static_cast<std::ptrdiff_t>(v.size() * w / kTailWindows);
    const auto hi = v.begin() + static_cast<std::ptrdiff_t>(v.size() * (w + 1) / kTailWindows);
    if (lo != hi) per_window.push_back(quantile({lo, hi}, q));
  }
  return median(std::move(per_window));
}

double peak_rss_mb();

// ---- Output checks.
inline bool all_finite(const h2::Matrix& x) {
  const double* d = x.data();
  const std::size_t n = static_cast<std::size_t>(x.rows()) * x.cols();
  for (std::size_t i = 0; i < n; ++i)
    if (!std::isfinite(d[i])) return false;
  return true;
}

inline bool bitwise_equal(h2::ConstMatrixView a, h2::ConstMatrixView b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (int j = 0; j < a.cols(); ++j)
    if (std::memcmp(a.col(j), b.col(j), sizeof(double) * a.rows()) != 0)
      return false;
  return true;
}

/// Solutions kept for the exact residual check, each tied to the operation
/// that produced it.
struct ResidualSet {
  std::vector<h2::Matrix> x, b;
  std::vector<int> op;
  void add(h2::ConstMatrixView xi, h2::ConstMatrixView bi, int op_id) {
    x.push_back(h2::Matrix::from(xi));
    b.push_back(h2::Matrix::from(bi));
    op.push_back(op_id);
  }
};

/// ||K x - b|| / ||b|| per kept column against the exact dense kernel (one
/// pass over its rows for all columns); a column over kResidualBound fails
/// its operation. Returns the worst residual.
double check_residuals(const h2::Kernel& kernel, const h2::PointCloud& pts,
                       const ResidualSet& set, Checks& checks);

/// Median seconds per call of fn, called until both `min_reps` calls and
/// `min_seconds` have elapsed.
template <class Fn>
double median_seconds(Fn&& fn, int min_reps, double min_seconds) {
  std::vector<double> t;
  double total = 0.0;
  while (static_cast<int>(t.size()) < min_reps || total < min_seconds) {
    const h2::Timer timer;
    fn();
    t.push_back(timer.seconds());
    total += t.back();
  }
  return median(std::move(t));
}

}  // namespace perfbench
