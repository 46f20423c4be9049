// The untraced run: end-to-end metrics through the public facades only.

#include <optional>

#include "loops.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// Solutions checked against the residual bound: the first answer for each
/// of the first eight single columns and for the first block.
struct KeepFirst {
  ResidualSet set;
  std::vector<bool> kept = std::vector<bool>(kDistinctRhs + kDistinctBlocks);
  void offer(int op, const h2::Matrix& x, int key, const Inputs& in) {
    if (kept[static_cast<std::size_t>(key)] || (key >= 8 && key != block_key(0)))
      return;
    kept[static_cast<std::size_t>(key)] = true;
    set.add(x, in.rhs[static_cast<std::size_t>(key)], op);
  }
};

/// rel_residual: the worst exact residual over the workload's fixed probe
/// block, solved by `solve` as one more operation. The seed-drawn answers in
/// `kept` are held to the same bound and counted, but their residuals vary
/// with the seed's right-hand sides, so they are not what the metric reports.
template <class Solve>
void report_residual(Solve&& solve, const Inputs& in, const h2::Kernel& kernel,
                     const ResidualSet& kept, Metrics& m, Checks& checks) {
  (void)check_residuals(kernel, in.points, kept, checks);
  ResidualSet probe;
  const int op = checks.begin_op();
  try {
    const h2::Matrix x = solve(in.probe);
    if (!all_finite(x)) checks.fail(op, "non-finite solution");
    probe.add(x, in.probe, op);
  } catch (const std::exception& e) {
    checks.fail(op, e.what());
  }
  m.set("rel_residual", check_residuals(kernel, in.points, probe, checks),
        "ratio");
}

void report_solves(const ClosedLoop& loop, Metrics& m) {
  m.set("solve_p50_ms", quantile(loop.single_ms, 0.5), "ms");
  m.set("solve_p90_ms", quantile(loop.single_ms, 0.9), "ms");
  m.set("block_rhs_per_s", kBlockWidth / median(loop.blocked_s), "1/s");
}

/// Builds kSetupRepeats times (each one operation) and keeps the last
/// solver; returns the median build time.
template <class Build>
double repeated_setup(Build&& build, Checks& checks) {
  std::vector<double> t;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const int op = checks.begin_op();
    try {
      const h2::Timer timer;
      build();
      t.push_back(timer.seconds());
    } catch (const std::exception& e) {
      checks.fail(op, e.what());
    }
  }
  return median(std::move(t));
}

/// factor_cube, spill_cube and refine_surface: Solver::build, then a closed
/// loop of single and blocked Solver::solve calls.
void solver_workload(const Args& a, const Inputs& in, const h2::Kernel& kernel,
                     Metrics& m, Checks& checks) {
  const Workload& w = *a.workload;
  const bool spill = std::string(w.name) == "spill_cube";
  const bool refine = w.precision == h2::Precision::F32;
  const h2::SolverOptions opt = solver_options(w);

  // spill_cube's bitwise reference: the same problem built in RAM. Not part
  // of setup_s.
  std::vector<h2::Matrix> ref;
  if (spill) {
    const int op = checks.begin_op();
    try {
      const h2::Solver ram = h2::Solver::build(in.points, kernel, opt);
      for (const h2::Matrix& b : in.rhs) ref.push_back(ram.solve(b));
    } catch (const std::exception& e) {
      checks.fail(op, std::string("in-RAM reference: ") + e.what());
    }
  }

  // Each spilling build gets its own store directory under spill_root.
  std::optional<ScratchDir> spill_root;
  h2::SolverOptions build_opt = opt;
  if (spill) {
    spill_root.emplace(a.out_dir, "spill");
    build_opt.with_spill_dir(spill_root->path())
        .with_spill_budget_mb(kSpillBudgetMb);
  }
  std::optional<h2::Solver> solver;
  const double setup = repeated_setup(
      [&] {
        solver.reset();
        solver.emplace(h2::Solver::build(in.points, kernel, build_opt));
      },
      checks);
  m.set("setup_s", setup, "s");
  if (!solver) return;

  KeepFirst keep;
  ClosedLoop loop;
  closed_loop(
      [&](const h2::Matrix& b) { return solver->solve(b); }, in, a.seconds,
      checks, [&](int op, const h2::Matrix& x, int key) {
        if (spill && !ref.empty() &&
            !bitwise_equal(x, ref[static_cast<std::size_t>(key)]))
          checks.fail(op, "spilled solve differs bitwise from the in-RAM one");
        if (refine && !solver->last_refine().converged)
          checks.fail(op, "refinement did not reach its target");
        keep.offer(op, x, key, in);
      },
      loop);
  report_solves(loop, m);
  // A closed-loop request is due when its caller issues it, so request
  // latency is the single-solve latency.
  m.set("req_p50_ms", quantile(loop.single_ms, 0.5), "ms");
  m.set("req_p99_ms", windowed_quantile(loop.single_ms, 0.99), "ms");
  report_residual([&](const h2::Matrix& b) { return solver->solve(b); }, in,
                  kernel, keep.set, m, checks);
}

/// serve_cube: one h2::Server, a short closed loop of facade solves on its
/// cached factorization, then the open-loop request stream.
void serve_workload(const Args& a, const Inputs& in, const h2::Kernel& kernel,
                    Metrics& m, Checks& checks) {
  const Workload& w = *a.workload;
  const h2::SolverOptions opt = solver_options(w);
  h2::Server server{h2::ServerOptions{}};
  h2::Server::FactorHandle handle;
  // Each acquire after clear() is a cache miss: a full build.
  const double setup = repeated_setup(
      [&] {
        server.clear();
        handle = server.acquire(in.points, kernel, opt);
      },
      checks);
  m.set("setup_s", setup, "s");
  if (!handle.valid()) return;

  // The private reference: the server's own numerics (deterministic mode
  // makes its solves width-stable), built outside the server.
  std::vector<h2::Matrix> ref;
  ResidualSet checked;
  try {
    const h2::Solver priv = h2::Solver::build(
        in.points, kernel, h2::SolverOptions(opt).with_width_stable_solve(true));
    for (const h2::Matrix& b : in.rhs) {
      const int op = checks.begin_op();
      ref.push_back(priv.solve(b));
      if (b.cols() == 1 || ref.size() == block_key(0) + 1u)
        checked.add(ref.back(), b, op);
    }
  } catch (const std::exception& e) {
    checks.fail(checks.begin_op(), std::string("private reference: ") + e.what());
    return;
  }

  // The closed loop takes 30% of the run, half before and half after the
  // open loop, which takes the rest (but at least kMinRequests requests).
  const h2::Solver& cached = handle.solver();
  ClosedLoop loop;
  auto closed = [&] {
    closed_loop([&](const h2::Matrix& b) { return cached.solve(b); }, in,
                0.15 * a.seconds, checks,
                [&](int op, const h2::Matrix& x, int key) {
                  if (!bitwise_equal(x, ref[static_cast<std::size_t>(key)]))
                    checks.fail(op, "cached solve differs bitwise from the "
                                    "private one");
                },
                loop);
  };
  closed();
  const OpenLoop traffic = open_loop(server, handle, in, ref, 0.7 * a.seconds,
                                     a.seed, checks, nullptr);
  closed();
  report_solves(loop, m);
  m.set("req_p50_ms", quantile(traffic.latency_ms, 0.5), "ms");
  m.set("req_p99_ms", windowed_quantile(traffic.latency_ms, 0.99), "ms");
  report_residual([&](const h2::Matrix& b) { return cached.solve(b); }, in,
                  kernel, checked, m, checks);
}

}  // namespace

void run_untraced(const Args& a, Metrics& m, Checks& checks) {
  const Inputs in = make_inputs(*a.workload, a.seed);
  const h2::LaplaceKernel kernel(kSoftening);
  if (std::string(a.workload->name) == "serve_cube")
    serve_workload(a, in, kernel, m, checks);
  else
    solver_workload(a, in, kernel, m, checks);
  m.set("peak_rss_mb", peak_rss_mb(), "MB");
}

}  // namespace perfbench
