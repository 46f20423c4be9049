#pragma once

// Traffic the workloads drive: a closed loop of facade solves from one
// caller, and an open loop of server requests with Poisson arrivals.

#include <exception>
#include <string>
#include <vector>

#include "common.hpp"
#include "server/server.hpp"
#include "spans.hpp"

namespace perfbench {

struct ClosedLoop {
  std::vector<double> single_ms;  ///< per successful single-RHS call
  std::vector<double> blocked_s;  ///< per successful kBlockWidth-column call
};

/// One caller, each call issued when the previous one returns. The time is
/// split into kRounds rounds, so samples spread over the whole run; in each
/// round single-RHS solves cycle over the single columns for 60% of it and
/// blocked solves cycle over the blocks for the rest, never fewer than
/// kMinSingle and kMinBlocked calls in all. Every call is one operation;
/// check(op, x, key) sees each finite result x of in.rhs[key]. Appends to
/// `out`.
template <class Solve, class Check>
void closed_loop(Solve&& solve, const Inputs& in, double seconds,
                 Checks& checks, Check&& check, ClosedLoop& out) {
  constexpr int kRounds = 5;
  auto call = [&](int key, std::vector<double>& times, double unit) {
    const int op = checks.begin_op();
    try {
      const h2::Timer t;
      const h2::Matrix x = solve(in.rhs[static_cast<std::size_t>(key)]);
      const double dt = t.seconds();
      if (!all_finite(x)) {
        checks.fail(op, "non-finite solution");
        return;
      }
      times.push_back(unit * dt);
      check(op, x, key);
    } catch (const std::exception& e) {
      checks.fail(op, e.what());
    }
  };
  const double round_s = seconds / kRounds;
  int singles = 0, blocked = 0;
  for (int r = 0; r < kRounds; ++r) {
    const h2::Timer round;
    for (int k = 0; k * kRounds < kMinSingle || round.seconds() < 0.6 * round_s;
         ++k)
      call(singles++ % kDistinctRhs, out.single_ms, 1e3);
    for (int k = 0; k * kRounds < kMinBlocked || round.seconds() < round_s; ++k)
      call(block_key(blocked++ % kDistinctBlocks), out.blocked_s, 1.0);
  }
}

struct OpenLoop {
  std::vector<double> latency_ms;  ///< successful requests, from due time
  std::vector<double> late_ms;     ///< how late each request was sent
};

/// kClients threads send single-RHS requests for in.rhs[k % kDistinctRhs]
/// at Poisson arrival times of fixed rate kServeRate, drawn from `seed`, for
/// `seconds` and at least kMinRequests requests. Each answer must be bitwise
/// equal to ref[k % kDistinctRhs]. With a log, every request gets a server
/// span carrying its request id.
OpenLoop open_loop(h2::Server& server, const h2::Server::FactorHandle& f,
                   const Inputs& in, const std::vector<h2::Matrix>& ref,
                   double seconds, std::uint64_t seed, Checks& checks,
                   SpanLog* log);

/// A fresh directory under `parent`, removed with its contents on
/// destruction.
class ScratchDir {
 public:
  ScratchDir(const std::string& parent, const std::string& tag);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace perfbench
