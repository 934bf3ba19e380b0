#ifndef QUARRY_ETL_EXEC_SCHEDULER_H_
#define QUARRY_ETL_EXEC_SCHEDULER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/exec_context.h"
#include "common/result.h"
#include "common/timer.h"
#include "etl/exec/executor.h"
#include "etl/flow.h"

namespace quarry::etl {

/// \brief Wavefront (ready-queue) scheduler: runs a flow's independent
/// nodes concurrently on a pool of ExecOptions::max_workers threads
/// (docs/ROBUSTNESS.md §8).
///
/// Dependency counters start from Flow::InDegrees(); a node enters the
/// ready queue when its last predecessor completes. Loader nodes carry one
/// extra *chain* edge each — loader N depends on loader N-1 in topological
/// order — which serializes every target-database write (and its
/// snapshot/rollback) without a target mutex and keeps table creation,
/// insert order and merge semantics byte-identical to a serial run.
///
/// Error handling is first-error-wins: the first failing node aborts the
/// run and clears the ready queue, then in-flight workers drain — a sibling
/// that still *succeeds* while draining is recorded as completed (its
/// loader writes already landed, so forgetting it would make Resume re-run
/// it and double-load), while later nodes never start. The checkpoint thus
/// records the completed *set* — the antichain's downward closure — and
/// Resume (serial or parallel) continues exactly where the run stopped.
///
/// All shared run state lives behind one mutex; node execution itself runs
/// unlocked. Input relations are resolved to pointers under the mutex before
/// the worker releases it (map nodes are stable under unrelated erase), and
/// a relation is only freed when its last consumer has *completed*, so no
/// worker ever reads a relation another thread may drop.
class Scheduler {
 public:
  Scheduler(Executor* executor, const ExecOptions& options)
      : executor_(executor), options_(options) {}

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Continues a run whose prologue (validation, run counters, checkpoint
  /// init and resume state) Executor::RunInternal already performed. The
  /// mutable run state — completed set, live intermediate datasets,
  /// consumer refcounts, partially filled report — moves in; `order` is the
  /// flow's topological order and `live` its column liveness
  /// (LiveColumnsOf), which must outlive the call. Call once per Scheduler
  /// instance.
  Result<ExecutionReport> Run(const Flow& flow,
                              const std::vector<std::string>& order,
                              const std::map<std::string, LiveColumns>& live,
                              const RetryPolicy& retry, Checkpoint* checkpoint,
                              const ExecContext* ctx,
                              std::set<std::string> completed,
                              std::map<std::string, Relation> done,
                              std::map<std::string, size_t> remaining_consumers,
                              ExecutionReport report, bool resumed_any,
                              Timer total);

 private:
  /// The winning (first) node failure; later failures are discarded.
  struct Failure {
    Status status = Status::OK();
    std::string node_id;
    OpType type = OpType::kExtraction;
    int attempts = 1;
  };

  void Worker(int worker_index);

  /// Success bookkeeping for one finished node; caller holds mu_.
  void CompleteNode(const std::string& id, const Node& node, int64_t rows_in,
                    double node_millis, Executor::NodeAttempt* outcome);

  Executor* const executor_;
  const ExecOptions options_;

  // Set once by Run before workers start; read-only while they run.
  const Flow* flow_ = nullptr;
  const std::map<std::string, LiveColumns>* live_ = nullptr;
  RetryPolicy retry_;
  Checkpoint* checkpoint_ = nullptr;
  const ExecContext* ctx_ = nullptr;

  Executor::BackoffBudget backoff_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::string> ready_;
  std::map<std::string, size_t> deps_;  ///< Unmet deps per uncompleted node.
  /// Successor adjacency incl. loader-chain edges (drives dep counting).
  std::map<std::string, std::vector<std::string>> succs_;
  /// Data predecessors in edge order (drives input resolution; chain edges
  /// are scheduling-only and never appear here).
  std::map<std::string, std::vector<std::string>> preds_;
  std::set<std::string> completed_;
  std::map<std::string, Relation> done_;
  std::map<std::string, size_t> remaining_consumers_;
  ExecutionReport report_;
  size_t pending_ = 0;  ///< Uncompleted nodes (successes decrement).
  size_t in_flight_ = 0;
  bool abort_ = false;
  Failure failure_;
};

}  // namespace quarry::etl

#endif  // QUARRY_ETL_EXEC_SCHEDULER_H_
