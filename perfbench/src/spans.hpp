#pragma once

// Span recorder for the traced run. Spans are opened by the benchmark around
// its calls into each layer's public entry points (nothing inside the
// library is instrumented), kept in memory, and written out once at exit as
// Chrome Trace Event JSON, which Perfetto and chrome://tracing open directly.

#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "runtime/task_graph.hpp"

namespace perfbench {

struct Span {
  std::string layer;  ///< module: geometry, hmatrix, core, linalg, api, server
  std::string name;   ///< the public call, e.g. "ClusterTree::build"
  double t0 = 0.0;    ///< seconds on the steady clock (h2::now_sec)
  double t1 = 0.0;
  int parent = -1;    ///< enclosing span on the same thread, -1 at top
  int tid = 0;        ///< recording thread, numbered in order of first use
  long req = -1;      ///< request / operation id, -1 when none
};

/// Self seconds of one layer: its spans' durations minus what their child
/// spans cover.
struct LayerTime {
  std::string layer;
  double seconds = 0.0;
};

class SpanLog {
 public:
  /// Opens a span on construction and closes it on destruction. Nested
  /// scopes on one thread become parent and child.
  class Scope {
   public:
    Scope(SpanLog& log, const char* layer, std::string name, long req = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    int id_;
    int outer_;
  };

  /// Keeps a DAG execution's task records (library-recorded, worker lanes)
  /// for the trace file. They are not layer spans: the tasks run inside a
  /// core span and count towards its self time.
  void add_tasks(const h2::ExecStats& ex, const std::string& dag);

  /// Self time per layer, in first-use order, then "unattributed": the part
  /// of [t_begin, t_end] that no span on any thread covers.
  [[nodiscard]] std::vector<LayerTime> self_times(double t_begin,
                                                  double t_end) const;

  /// Writes every span and task record as Chrome Trace Event JSON, with
  /// `other_data` (a JSON object) as the file's otherData.
  bool write_chrome(const std::string& path, double t_begin,
                    const std::string& other_data) const;

 private:
  struct Task {
    std::string dag, label;
    double t0, t1;
    int worker, level, owner;
  };

  int open(const char* layer, std::string name, long req);
  void close(int id);

  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< guarded by mu_
  std::vector<Task> tasks_;  ///< guarded by mu_
  int n_threads_ = 0;        ///< guarded by mu_
};

}  // namespace perfbench
