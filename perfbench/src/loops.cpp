#include "loops.hpp"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <system_error>
#include <thread>

namespace perfbench {

OpenLoop open_loop(h2::Server& server, const h2::Server::FactorHandle& f,
                   const Inputs& in, const std::vector<h2::Matrix>& ref,
                   double seconds, std::uint64_t seed, Checks& checks,
                   SpanLog* log) {
  using clock = std::chrono::steady_clock;
  // The schedule: exponential gaps at the fixed rate, from the workload seed.
  h2::Rng rng(seed ^ 0xA5A5'0000'5EEDull);
  const int count = std::max(
      kMinRequests, static_cast<int>(std::ceil(kServeRate * seconds)));
  std::vector<double> due(static_cast<std::size_t>(count));
  double t = 0.0;
  for (double& d : due) {
    t += -std::log(1.0 - rng.uniform()) / kServeRate;
    d = t;
  }

  struct Outcome {
    double latency_ms = 0.0, late_ms = 0.0;
    std::string error;  ///< empty when the answer passed every check
  };
  std::vector<Outcome> out(static_cast<std::size_t>(count));
  std::atomic<int> next{0};
  const clock::time_point start = clock::now() + std::chrono::milliseconds(20);
  auto client = [&] {
    for (int k; (k = next.fetch_add(1)) < count;) {
      Outcome& o = out[static_cast<std::size_t>(k)];
      const clock::time_point due_at =
          start + std::chrono::duration_cast<clock::duration>(
                      std::chrono::duration<double>(due[k]));
      std::this_thread::sleep_until(due_at);
      const clock::time_point sent = clock::now();
      o.late_ms = std::chrono::duration<double, std::milli>(sent - due_at).count();
      const int c = k % kDistinctRhs;
      try {
        h2::Matrix x;
        if (log != nullptr) {
          const SpanLog::Scope s(*log, "server", "Server::solve", k);
          x = server.solve(f, in.rhs[static_cast<std::size_t>(c)]);
        } else {
          x = server.solve(f, in.rhs[static_cast<std::size_t>(c)]);
        }
        o.latency_ms = std::chrono::duration<double, std::milli>(
                           clock::now() - due_at)
                           .count();
        if (!all_finite(x))
          o.error = "non-finite answer";
        else if (!bitwise_equal(x, ref[static_cast<std::size_t>(c)]))
          o.error = "answer differs bitwise from the private solve";
      } catch (const std::exception& e) {
        o.error = e.what();
      }
    }
  };
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) clients.emplace_back(client);
  for (std::thread& th : clients) th.join();

  OpenLoop r;
  for (const Outcome& o : out) {
    const int op = checks.begin_op();
    r.late_ms.push_back(o.late_ms);
    if (o.error.empty())
      r.latency_ms.push_back(o.latency_ms);
    else
      checks.fail(op, "request: " + o.error);
  }
  return r;
}

ScratchDir::ScratchDir(const std::string& parent, const std::string& tag)
    : path_(parent + "/" + tag + "-" + std::to_string(::getpid())) {
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

}  // namespace perfbench
