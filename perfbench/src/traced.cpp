// The traced run: the pipeline Solver::build runs, called layer by layer
// through each module's public entry points (ClusterTree::build, the
// H2Matrix constructor, UlvFactorization with record_tasks, its solve,
// H2Matrix::matvec, refine) under benchmark spans, plus the linalg shape
// probes and the storage and server counters. Reports BENCHMARK.json
// "per_layer".

#include <map>
#include <optional>

#include "core/refine.hpp"
#include "core/ulv_factorization.hpp"
#include "hmatrix/h2_matrix.hpp"
#include "linalg/blas.hpp"
#include "linalg/qr.hpp"
#include "loops.hpp"
#include "runtime/thread_pool.hpp"
#include "util/flops.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using Scope = SpanLog::Scope;
constexpr double kMiB = 1024.0 * 1024.0;
/// Calls behind each traced single-RHS median, and blocked ones.
constexpr int kTracedSingles = 32;
constexpr int kTracedBlocked = 4;
/// Tree levels reported as core.L<k>.*: 1 .. kMaxLevel (a level a
/// workload's tree does not have reports 0).
constexpr int kMaxLevel = 6;
constexpr const char* kPhases[] = {"fill",      "basis", "project",
                                   "project_lr", "eliminate", "schur",
                                   "merge",     "col_solve", "top"};
constexpr const char* kSpanLayers[] = {"geometry", "hmatrix", "core",
                                       "linalg",   "api",     "server"};

/// Runs fn as operation `op`; an exception fails the operation.
template <class Fn>
bool guarded(Checks& checks, int op, Fn&& fn) {
  try {
    fn();
    return true;
  } catch (const std::exception& e) {
    checks.fail(op, e.what());
    return false;
  }
}

/// Every per-layer metric starts at 0, the value a layer the workload
/// bypasses keeps (README.md "Per-layer metrics").
void zero_all(Metrics& m) {
  for (const char* p : kPhases) m.set(std::string("core.") + p + "_s", 0, "s");
  for (int l = 1; l <= kMaxLevel; ++l) {
    const std::string k = "core.L" + std::to_string(l);
    m.set(k + ".fill_s", 0, "s");
    m.set(k + ".basis_s", 0, "s");
    m.set(k + ".rank_mean", 0, "count");
  }
  for (const char* name :
       {"storage.spilled_mb", "storage.read_mb_per_solve"})
    m.set(name, 0, "MB");
  m.set("storage.read_mb_per_s", 0, "MB/s");
  m.set("storage.hit_rate", 0, "ratio");
  m.set("storage.faults", 0, "count");
  m.set("storage.slowdown", 0, "ratio");
  m.set("storage.peak_over_budget", 0, "ratio");
  m.set("server.mean_batch", 0, "count");
  m.set("server.coalesced_frac", 0, "ratio");
  m.set("server.backend_solves", 0, "count");
  m.set("server.sweep1_ms", 0, "ms");
  m.set("server.sweep4_ms", 0, "ms");
  m.set("gen.late_p99_ms", 0, "ms");
  for (const char* l : kSpanLayers)
    m.set(std::string("self.") + l + "_s", 0, "s");
  m.set("self.unattributed_s", 0, "s");
}

/// core.* and runtime.* factorization metrics from a record_tasks run.
void report_factor(const h2::UlvStats& st, Metrics& m) {
  m.set("core.factor_s", st.factor_seconds, "s");
  m.set("core.factor_flops", static_cast<double>(st.factor_flops), "count");
  m.set("core.factor_gflops",
        static_cast<double>(st.factor_flops) / st.factor_seconds / 1e9, "GF/s");
  std::map<std::string, double> phase;
  std::map<std::pair<std::string, int>, double> per_level;
  for (const h2::TaskRecord& r : st.exec.records) {
    phase[r.label] += r.duration();
    per_level[{r.label, r.level}] += r.duration();
  }
  for (const char* p : kPhases)
    m.set(std::string("core.") + p + "_s", phase[p], "s");
  for (int l = 1; l <= kMaxLevel; ++l) {
    const std::string k = "core.L" + std::to_string(l);
    m.set(k + ".fill_s", per_level[{"fill", l}], "s");
    m.set(k + ".basis_s", per_level[{"basis", l}], "s");
    double mean = 0.0;
    if (l < static_cast<int>(st.ranks.size()) && !st.ranks[l].empty()) {
      for (const int r : st.ranks[l]) mean += r;
      mean /= static_cast<double>(st.ranks[l].size());
    }
    m.set(k + ".rank_mean", mean, "count");
  }
  m.set("core.peak_block_mb", static_cast<double>(st.peak_block_bytes) / kMiB,
        "MB");
  m.set("core.factor_mb", static_cast<double>(st.final_block_bytes) / kMiB,
        "MB");
  m.set("runtime.factor_tasks", static_cast<double>(st.exec.records.size()),
        "count");
  m.set("runtime.factor_overhead_frac", st.exec.overhead_fraction(), "ratio");
  m.set("runtime.factor_steals", static_cast<double>(st.exec.total_steals()),
        "count");
}

/// Times the public linalg calls on operand shapes read from this run's
/// tree: the median leaf cluster size m, and the median fill-operand width
/// n (the summed sizes of a leaf's dense neighbours, which body_fill
/// concatenates before its pivoted QR).
void linalg_probes(const h2::ClusterTree& tree, const h2::BlockStructure& bs,
                   std::uint64_t seed, Metrics& m, SpanLog& log) {
  const int leaf = tree.depth();
  std::vector<double> sizes, widths;
  for (int i = 0; i < tree.n_clusters(leaf); ++i) {
    sizes.push_back(tree.node(leaf, i).size());
    double w = 0.0;
    for (const int j : bs.dense_cols(leaf, i)) w += tree.node(leaf, j).size();
    widths.push_back(w);
  }
  const int mm = static_cast<int>(median(sizes));
  const int nn = static_cast<int>(median(widths));
  h2::Rng rng(seed ^ 0x11A1'6000ull);
  const h2::Matrix a = h2::Matrix::random(mm, nn, rng);
  h2::Matrix tri = h2::Matrix::random(mm, mm, rng);
  h2::add_identity(tri, mm);  // well conditioned, so repeats stay normal
  h2::Matrix c(mm, nn);
  const h2::MatrixF af = h2::to_f32(a), trif = h2::to_f32(tri);
  h2::MatrixF cf(mm, nn);
  // GF/s from the h2::flops count of one call over the median call time.
  auto rate = [&](const char* name, const auto& fn) {
    const Scope s(log, "linalg", name);
    const std::uint64_t f0 = h2::flops::total();
    fn();
    const auto per_call = static_cast<double>(h2::flops::total() - f0);
    return per_call / median_seconds(fn, 5, 0.25) / 1e9;
  };
  m.set("linalg.rrqr_gflops", rate("pivoted_qr", [&] {
          (void)h2::pivoted_qr(a, 0.01 * kTol, -1);
        }),
        "GF/s");
  m.set("linalg.gemm_gflops", rate("gemm", [&] {
          h2::gemm(1.0, tri, h2::Trans::No, a, h2::Trans::No, 0.0, c);
        }),
        "GF/s");
  m.set("linalg.trsm_gflops", rate("trsm", [&] {
          h2::Matrix x = h2::Matrix::from(a);
          h2::trsm(h2::Side::Left, h2::UpLo::Lower, h2::Trans::No,
                   h2::Diag::NonUnit, 1.0, tri, x);
        }),
        "GF/s");
  m.set("linalg.gemm_f32_gflops", rate("gemm_f32", [&] {
          h2::gemm(1.0f, trif, h2::Trans::No, af, h2::Trans::No, 0.0f, cf);
        }),
        "GF/s");
}

}  // namespace

void run_traced(const Args& a, Metrics& m, Checks& checks,
                const std::string& trace_path, const std::string& provenance) {
  const Workload& w = *a.workload;
  const std::string name = w.name;
  const bool spill = name == "spill_cube";
  const bool serve = name == "serve_cube";
  const bool refine = w.precision == h2::Precision::F32;
  zero_all(m);

  SpanLog log;
  const double t_begin = h2::now_sec();
  const h2::Timer wall;
  const Inputs in = make_inputs(w, a.seed);
  const h2::LaplaceKernel kernel(kSoftening);

  // The options the facade runs with: the server's deterministic mode makes
  // solves width-stable; spill_cube spills under a fixed budget.
  h2::SolverOptions sopt = solver_options(w);
  if (serve) sopt.with_width_stable_solve(true);
  std::optional<ScratchDir> spill_root;
  if (spill) {
    spill_root.emplace(a.out_dir, "spill-traced");
    sopt.with_spill_dir(spill_root->path()).with_spill_budget_mb(kSpillBudgetMb);
  }

  // 1. The pipeline Solver::build runs, one layer at a time.
  h2::ThreadPool pool(kWorkers);
  std::optional<h2::ClusterTree> tree;
  std::optional<h2::H2Matrix> h2m;
  std::optional<h2::UlvFactorization> f;
  double layered_s = 0.0;
  guarded(checks, checks.begin_op(), [&] {
    const h2::Timer t;
    {
      const Scope s(log, "geometry", "ClusterTree::build");
      const h2::Timer tt;
      h2::Rng rng(sopt.seed);
      tree.emplace(h2::ClusterTree::build(in.points, sopt.leaf_size, rng,
                                          sopt.partitioner));
      m.set("geometry.tree_s", tt.seconds(), "s");
    }
    {
      const Scope s(log, "hmatrix", "H2Matrix::H2Matrix");
      h2::H2BuildOptions ho;
      ho.admissibility = {h2::Admissibility::Strong, sopt.eta};
      ho.tol = sopt.build_tol_factor * sopt.tol;
      ho.max_rank = sopt.max_rank;
      const std::uint64_t f0 = h2::flops::total();
      const h2::Timer th;
      h2m.emplace(*tree, kernel, ho);
      const double sec = th.seconds();
      m.set("hmatrix.build_s", sec, "s");
      m.set("hmatrix.build_gflops",
            static_cast<double>(h2::flops::total() - f0) / sec / 1e9, "GF/s");
      m.set("hmatrix.mb", static_cast<double>(h2m->memory_bytes()) / kMiB, "MB");
      m.set("hmatrix.max_rank", h2m->max_rank_used(), "count");
    }
    {
      const Scope s(log, "core", "UlvFactorization::UlvFactorization");
      h2::UlvOptions u = h2::SolverOptions(sopt).with_pool(&pool).ulv_options();
      u.record_tasks = true;
      f.emplace(*h2m, u);
    }
    layered_s = t.seconds();
  });
  if (!f) return;
  log.add_tasks(f->stats().exec, "factor");
  report_factor(f->stats(), m);

  // 2. The facade on the same inputs, untraced inside. Built second, so
  //    first-touch costs of the process land on the traced build.
  std::optional<h2::Solver> facade;
  guarded(checks, checks.begin_op(), [&] {
    const Scope s(log, "api", "Solver::build");
    const h2::Timer t;
    facade.emplace(h2::Solver::build(in.points, kernel, sopt));
    // Traced minus untraced wall time of the same build, over the untraced.
    m.set("trace.overhead_frac", layered_s / t.seconds() - 1.0, "ratio");
  });
  if (!facade) return;
  double factor4_s = facade->ulv_stats()->factor_seconds;

  // 3. Solves in tree order, each paired with the facade solve of the same
  //    column, whose answer it must equal bit for bit. Under F32 a single
  //    solve is the facade's sequence: one raw fp32 solve, then fp64
  //    refinement against the H2 operator.
  const h2::ClusterTree& tr = *tree;
  std::vector<h2::Matrix> bt;
  for (int c = 0; c < kDistinctRhs; ++c)
    bt.push_back(tr.to_tree_order(in.rhs[static_cast<std::size_t>(c)]));
  const h2::Matrix bblk = tr.to_tree_order(in.rhs[block_key(0)]);
  auto raw = [&](h2::MatrixView v) {
    const Scope s(log, "core", "UlvFactorization::solve");
    f->solve(v);
  };
  std::vector<h2::Matrix> core_x(kDistinctRhs), facade_x(kDistinctRhs);
  std::vector<int> core_op(kDistinctRhs, -1);
  std::vector<double> s1, s32, ovh, ref_t, ref_iters, ref_res, api_t;
  const h2::SpillStats st0 = f->spill_stats();
  for (int k = 0; k < kTracedSingles; ++k) {
    const int c = k % kDistinctRhs;
    const int op = checks.begin_op();
    guarded(checks, op, [&] {
      h2::Matrix x = h2::Matrix::from(bt[c]);
      double core_s = 0.0;
      {
        const Scope s(log, "core", "UlvFactorization::solve", op);
        const h2::Timer t;
        f->solve(x);
        core_s = t.seconds();
        s1.push_back(core_s);
      }
      ovh.push_back(f->last_solve_stats().overhead_fraction());
      if (k == 0) log.add_tasks(f->last_solve_stats(), "solve");
      if (refine) {
        const Scope s(log, "core", "refine", op);
        const h2::Timer t;
        const h2::RefineResult rr =
            h2::refine(*h2m, raw, bt[c], x, sopt.max_refine_iters, sopt.tol);
        ref_t.push_back(t.seconds());
        core_s += ref_t.back();
        ref_iters.push_back(rr.iterations);
        ref_res.push_back(rr.rel_residual);
        if (!rr.converged) checks.fail(op, "refinement did not converge");
      }
      h2::Matrix fx;
      {
        const Scope s(log, "api", "Solver::solve", op);
        const h2::Timer t;
        fx = facade->solve(in.rhs[static_cast<std::size_t>(c)]);
        api_t.push_back(t.seconds() - core_s);
      }
      if (!all_finite(x)) checks.fail(op, "non-finite solution");
      if (!bitwise_equal(tr.from_tree_order(x), fx))
        checks.fail(op, "layered solve differs bitwise from Solver::solve");
      if (k < kDistinctRhs) {
        core_x[c] = std::move(x);
        facade_x[c] = std::move(fx);
        core_op[c] = op;
      }
    });
  }
  for (int k = 0; k < kTracedBlocked; ++k) {
    const int op = checks.begin_op();
    guarded(checks, op, [&] {
      h2::Matrix x = h2::Matrix::from(bblk);
      const Scope s(log, "core", "UlvFactorization::solve", op);
      const h2::Timer t;
      f->solve(x);
      s32.push_back(t.seconds());
      if (!all_finite(x)) checks.fail(op, "non-finite solution");
    });
  }
  const h2::SpillStats st1 = f->spill_stats();
  facade.reset();
  const double solve1 = median(s1);
  m.set("core.solve1_ms", 1e3 * solve1, "ms");
  m.set("core.solve32_ms", 1e3 * median(s32), "ms");
  m.set("core.raw_solve_ms", 1e3 * solve1, "ms");
  m.set("runtime.solve_overhead_frac", median(ovh), "ratio");
  // Facade minus core time of the same call: permutations and copies.
  m.set("api.solve_overhead_ms", 1e3 * median(api_t), "ms");

  {
    h2::Matrix y(w.n, 1);
    m.set("hmatrix.matvec_ms", 1e3 * median_seconds([&] {
                                 const Scope s(log, "hmatrix", "H2Matrix::matvec");
                                 h2m->matvec(core_x[0], y);
                               },
                                                   10, 0.1),
          "ms");
    if (refine) {
      m.set("core.refine_iters", median(ref_iters), "count");
      m.set("core.refine_residual", median(ref_res), "ratio");
    } else {
      // No refinement under F64: the residual of the raw solve against the
      // same H2 operator refinement would use.
      double num = 0.0, den = 0.0;
      for (int i = 0; i < w.n; ++i) {
        const double d = y(i, 0) - bt[0](i, 0);
        num += d * d;
        den += bt[0](i, 0) * bt[0](i, 0);
      }
      m.set("core.refine_iters", 0, "count");
      m.set("core.refine_residual", std::sqrt(num / den), "ratio");
    }
  }

  // 4. Storage: counters of the solve loop above, and the in-RAM reference
  //    the spilled answers must equal bit for bit.
  if (spill) {
    const double mb = kMiB;
    const double solves = static_cast<double>(s1.size() + s32.size());
    const double bytes = static_cast<double>(
        (st1.fault_bytes + st1.prefetch_bytes) -
        (st0.fault_bytes + st0.prefetch_bytes));
    double solve_s = 0.0;
    for (const double t : s1) solve_s += t;
    for (const double t : s32) solve_s += t;
    const double steps = static_cast<double>(
        (st1.step_hits + st1.step_misses) - (st0.step_hits + st0.step_misses));
    m.set("storage.spilled_mb", static_cast<double>(st1.spilled_bytes) / mb, "MB");
    m.set("storage.read_mb_per_solve", bytes / mb / solves, "MB");
    m.set("storage.read_mb_per_s", bytes / mb / solve_s, "MB/s");
    m.set("storage.hit_rate",
          steps > 0 ? static_cast<double>(st1.step_hits - st0.step_hits) / steps
                    : 0.0,
          "ratio");
    m.set("storage.faults", static_cast<double>(st1.faults - st0.faults),
          "count");
    m.set("storage.peak_over_budget",
          static_cast<double>(st1.peak_resident_bytes) /
              static_cast<double>(st1.budget_bytes + st1.max_block_bytes),
          "ratio");
    std::optional<h2::UlvFactorization> ram;
    guarded(checks, checks.begin_op(), [&] {
      const Scope s(log, "core", "UlvFactorization::UlvFactorization (in RAM)");
      ram.emplace(*h2m, h2::SolverOptions(sopt)
                            .with_spill_dir("")
                            .with_pool(&pool)
                            .ulv_options());
      factor4_s = ram->stats().factor_seconds;
    });
    if (ram) {
      for (int c = 0; c < kDistinctRhs; ++c) {
        h2::Matrix x = h2::Matrix::from(bt[c]);
        ram->solve(x);
        if (core_op[c] >= 0 && !bitwise_equal(x, core_x[c]))
          checks.fail(core_op[c], "spilled solve differs bitwise from in-RAM");
      }
      const double ram1 = median_seconds([&] {
        h2::Matrix x = h2::Matrix::from(bt[0]);
        const Scope s(log, "core", "UlvFactorization::solve (in RAM)");
        ram->solve(x);
      }, kTracedSingles, 0.0);
      m.set("storage.slowdown", solve1 / ram1, "ratio");
    }
  }

  // 5. Parallel efficiency: the same factorization on one worker.
  const h2::BlockStructure structure = h2m->structure();
  f.reset();
  guarded(checks, checks.begin_op(), [&] {
    const Scope s(log, "core", "UlvFactorization::UlvFactorization (1 worker)");
    const h2::UlvFactorization one(
        *h2m, h2::SolverOptions(sopt).with_spill_dir("").with_workers(1)
                  .ulv_options());
    m.set("runtime.parallel_eff",
          one.stats().factor_seconds / (kWorkers * factor4_s), "ratio");
  });

  // 6. Dense kernels on this run's operand shapes.
  linalg_probes(tr, structure, a.seed, m, log);

  // 7. The serving tier: width-stable sweeps on the cached factorization,
  //    then the open-loop request stream with a span per request.
  if (serve) {
    h2::Server server{h2::ServerOptions{}};
    h2::Server::FactorHandle handle;
    guarded(checks, checks.begin_op(), [&] {
      const Scope s(log, "server", "Server::acquire");
      handle = server.acquire(in.points, kernel, solver_options(w));
    });
    if (handle.valid()) {
      const h2::Solver& cached = handle.solver();
      const h2::Matrix b4 =
          h2::Matrix::from(in.rhs[block_key(0)].block(0, 0, w.n, 4));
      m.set("server.sweep1_ms", 1e3 * median_seconds([&] {
              const Scope s(log, "api", "Solver::solve");
              (void)cached.solve(in.rhs[0]);
            }, kTracedSingles, 0.0), "ms");
      m.set("server.sweep4_ms", 1e3 * median_seconds([&] {
              const Scope s(log, "api", "Solver::solve");
              (void)cached.solve(b4);
            }, kTracedSingles, 0.0), "ms");
      const OpenLoop traffic = open_loop(server, handle, in, facade_x,
                                         0.7 * a.seconds, a.seed, checks, &log);
      const h2::ServerStats ss = server.stats();
      m.set("server.mean_batch",
            static_cast<double>(ss.rhs_served) /
                static_cast<double>(std::max<std::uint64_t>(1, ss.backend_solves)),
            "count");
      m.set("server.coalesced_frac",
            static_cast<double>(ss.coalesced_requests) /
                static_cast<double>(std::max<std::uint64_t>(1, ss.requests)),
            "ratio");
      m.set("server.backend_solves", static_cast<double>(ss.backend_solves),
            "count");
      m.set("gen.late_p99_ms", quantile(traffic.late_ms, 0.99), "ms");
    }
  }

  // 8. Exact residuals of the facade answers the layered ones equal.
  ResidualSet checked;
  for (int c = 0; c < 8; ++c)
    if (core_op[c] >= 0)
      checked.add(facade_x[c], in.rhs[static_cast<std::size_t>(c)], core_op[c]);
  (void)check_residuals(kernel, in.points, checked, checks);

  const double t_end = t_begin + wall.seconds();
  for (const LayerTime& l : log.self_times(t_begin, t_end))
    m.set("self." + l.layer + "_s", l.seconds, "s");
  if (!log.write_chrome(trace_path, t_begin, provenance))
    checks.fail(checks.begin_op(), "could not write " + trace_path);
}

}  // namespace perfbench
