// h2perfbench: runs one benchmark workload and prints its result.
//
//   h2perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--out-dir <dir>] [--commit <id>]
//
// Prints a "provenance {...}" line, then as the last line one JSON object
// with the keys correct, attempted, failed and metrics. run.py builds this
// binary and is the documented entry point (README.md).

#include <sys/vfs.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>

#include "linalg/gemm_kernel.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "h2perfbench: %s\nusage: h2perfbench --workload "
               "<factor_cube|serve_cube|spill_cube|refine_surface> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>] [--commit <id>]\n",
               why);
  std::exit(2);
}

void set_option(Args& a, const std::string& k, const std::string& v) {
  if (k == "--workload") {
    for (const Workload& w : kWorkloads)
      if (v == w.name) a.workload = &w;
    if (a.workload == nullptr) usage(("unknown workload " + v).c_str());
  } else if (k == "--seed") {
    a.seed = std::stoull(v);
  } else if (k == "--seconds") {
    a.seconds = std::stod(v);
  } else if (k == "--trace") {
    a.trace = v == "1";
  } else if (k == "--out-dir") {
    a.out_dir = v;
  } else if (k == "--commit") {
    a.commit = v;
  } else {
    usage(("unknown option " + k).c_str());
  }
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value after " + k).c_str());
    const std::string v = argv[++i];
    try {
      set_option(a, k, v);
    } catch (const std::logic_error&) {  // stoull / stod on a bad number
      usage(("bad value for " + k + ": " + v).c_str());
    }
  }
  if (a.workload == nullptr) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be > 0");
  return a;
}

/// Filesystem type of `dir`, where the spill store's files go.
std::string fs_type(const std::string& dir) {
  struct statfs s {};
  if (statfs(dir.c_str(), &s) != 0) return "unknown";
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(s.f_type));
      return buf;
    }
  }
}

std::string provenance(const Args& a) {
  const std::string build = PERFBENCH_BUILD_TYPE;
  const Workload& w = *a.workload;
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"n\": %d, \"host_cores\": %u, \"gemm_isa\": \"%s\", "
      "\"build_type\": \"%s\", \"comparable\": %s, \"compiler\": \"%s\", "
      "\"spill_fs\": \"%s\", \"commit\": \"%s\", \"serve_rate_rps\": %g, "
      "\"spill_budget_mb\": %g}",
      w.name, static_cast<unsigned long long>(a.seed), a.seconds,
      a.trace ? 1 : 0, w.n, std::thread::hardware_concurrency(),
      h2::gemm_tiling().isa, build.c_str(),
      build == "Release" ? "true" : "false", PERFBENCH_COMPILER,
      fs_type(a.out_dir).c_str(), a.commit.c_str(), kServeRate,
      kSpillBudgetMb);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  std::filesystem::create_directories(a.out_dir);
  const std::string prov = provenance(a);
  std::printf("provenance %s\n", prov.c_str());
  std::fflush(stdout);

  Metrics m;
  Checks checks;
  try {
    if (a.trace)
      run_traced(a, m, checks,
                 a.out_dir + "/" + a.workload->name + "-seed" +
                     std::to_string(a.seed) + ".trace.json",
                 prov);
    else
      run_untraced(a, m, checks);
  } catch (const std::exception& e) {
    checks.fail(checks.begin_op(), std::string("workload aborted: ") + e.what());
  }
  if (checks.attempted() == 0) checks.fail(checks.begin_op(), "nothing ran");
  std::printf(
      "{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n",
      checks.failed() == 0 ? "true" : "false", checks.attempted(),
      checks.failed(), m.json().c_str());
  return 0;
}
