#ifndef QUARRY_ETL_EXEC_SCHEDULER_H_
#define QUARRY_ETL_EXEC_SCHEDULER_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/exec_context.h"
#include "common/result.h"
#include "etl/exec/executor.h"
#include "etl/flow.h"

namespace quarry::etl {

/// \brief Wavefront (ready-queue) scheduler: the one walk of a flow's
/// nodes. Every Executor::Run and Resume goes through it
/// (docs/ROBUSTNESS.md §8).
///
/// A node's dependency counter starts at the number of its uncompleted
/// predecessors (the flow's edges), and the node enters the ready queue
/// when its last predecessor completes. Loader nodes carry one extra
/// *chain* edge each — loader N depends on loader N-1 in topological
/// order — which serializes every target-database write (and its
/// snapshot/rollback) without a target mutex and keeps table creation,
/// insert order and merge semantics the same at every worker count.
///
/// The ready queue hands out the node earliest in the flow's topological
/// order. One worker runs on the calling thread and starts no thread; it
/// then executes nodes, records ExecutionReport::nodes and
/// Checkpoint::completed and frees intermediates in exactly that order.
/// More workers run on a pool of threads.
///
/// Error handling is first-error-wins: the first failing node aborts the
/// run and clears the ready queue, then in-flight workers drain — a sibling
/// that still *succeeds* while draining is recorded as completed (its
/// loader writes already landed, so forgetting it would make Resume re-run
/// it and double-load), while later nodes never start. The checkpoint thus
/// records the completed *set* — the antichain's downward closure — and
/// Resume, at any worker count, continues exactly where the run stopped.
///
/// All shared run state lives behind one mutex; node execution itself runs
/// unlocked. Input relations are resolved to pointers under the mutex before
/// the worker releases it (map nodes are stable under unrelated erase), and
/// a relation is only freed when its last consumer has *completed*, so no
/// worker ever reads a relation another thread may drop.
class Scheduler {
 public:
  /// `workers` is the pool size (values < 1 behave like 1); a run with more
  /// than one worker protects every loader with a table snapshot and feeds
  /// the quarry_etl_scheduler_* series.
  Scheduler(Executor* executor, const ExecOptions& options, int workers);

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Walks the flow once Executor::RunInternal's prologue (validation, run
  /// counters, checkpoint init and resume state) has run. A non-null
  /// `checkpoint` supplies the nodes already completed, their surviving
  /// outputs and the rows already loaded (all empty on a fresh Run) and is
  /// kept current. `order` is the flow's topological order and `live` its
  /// column liveness (LiveColumnsOf); both must outlive the call. Leaves
  /// the report's `total_millis` and `recovered` to the caller. Call once
  /// per Scheduler instance.
  Result<ExecutionReport> Run(const Flow& flow,
                              const std::vector<std::string>& order,
                              const std::map<std::string, LiveColumns>& live,
                              const RetryPolicy& retry, Checkpoint* checkpoint,
                              const ExecContext* ctx);

 private:
  /// The winning (first) node failure; later failures are discarded.
  struct Failure {
    Status status = Status::OK();
    size_t pos = 0;
    int attempts = 1;
  };

  /// Scheduling state of one node, indexed by its position in `order`.
  struct Slot {
    const Node* node = nullptr;
    std::vector<size_t> preds;  ///< Data inputs, in edge order.
    /// Dependents: data successors, plus the next loader's chain edge.
    std::vector<size_t> succs;
    size_t deps = 0;       ///< Unmet dependencies of an uncompleted node.
    size_t consumers = 0;  ///< Data successors that have not completed.
    bool completed = false;  ///< Completed before this run (checkpoint).
  };

  void Worker(int worker_index);

  void PushReady(size_t pos);

  /// Success bookkeeping for one finished node; caller holds mu_.
  void CompleteNode(size_t pos, int64_t rows_in, double node_millis,
                    Executor::NodeAttempt* outcome);

  Executor* const executor_;
  const ExecOptions options_;
  const int workers_;
  const bool parallel_;  ///< workers_ > 1.

  // Set once by Run before workers start; read-only while they run.
  const std::vector<std::string>* order_ = nullptr;
  const std::map<std::string, LiveColumns>* live_ = nullptr;
  RetryPolicy retry_;
  Checkpoint* checkpoint_ = nullptr;
  const ExecContext* ctx_ = nullptr;

  Executor::BackoffBudget backoff_;

  std::mutex mu_;
  std::condition_variable cv_;
  /// Min-heap of ready positions: the earliest node in `order` pops first.
  std::vector<size_t> ready_;
  std::vector<Slot> slots_;
  std::map<std::string, Relation> done_;  ///< Outputs awaiting consumers.
  ExecutionReport report_;
  size_t pending_ = 0;  ///< Uncompleted nodes (successes decrement).
  size_t in_flight_ = 0;
  bool abort_ = false;
  Failure failure_;
};

}  // namespace quarry::etl

#endif  // QUARRY_ETL_EXEC_SCHEDULER_H_
