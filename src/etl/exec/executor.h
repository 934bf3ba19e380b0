#ifndef QUARRY_ETL_EXEC_EXECUTOR_H_
#define QUARRY_ETL_EXEC_EXECUTOR_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/exec_context.h"
#include "common/prng.h"
#include "common/result.h"
#include "etl/flow.h"
#include "obs/profile.h"
#include "storage/chunk.h"
#include "storage/database.h"

namespace quarry::etl {

/// \brief A materialized relation: named columns over rows. The shape of a
/// cube-query answer (olap::CubeQueryEngine::Execute, core::QueryResult).
struct Dataset {
  std::vector<std::string> columns;
  std::vector<storage::Row> rows;
};

/// \brief An operator's output inside the executor: named columns over a
/// stream of storage::Chunks (DESIGN.md §8). Kernels keep the chunk
/// boundaries their input had, so per-chunk work stays bounded by
/// ExecOptions::chunk_size; a zero-column relation still counts its rows
/// because every chunk carries its own row count.
struct Relation {
  std::vector<std::string> columns;
  std::vector<storage::Chunk> chunks;

  int64_t row_count() const {
    int64_t n = 0;
    for (const storage::Chunk& c : chunks) n += c.num_rows();
    return n;
  }
};

/// \brief How the executor retries a failed operator (docs/ROBUSTNESS.md).
///
/// Backoff before the Nth retry is exponential with deterministic jitter:
///   exp    = min(base_backoff_millis * 2^(N-1), max_backoff_millis)
///   sleep  = exp * ((1 - jitter_fraction) + jitter_fraction * U)
/// where U is a uniform draw from a Prng seeded with `jitter_seed` — the
/// same policy yields the same sleep sequence on every run. The default
/// base of 0 disables sleeping entirely (tests and benches retry
/// instantly).
struct RetryPolicy {
  int max_attempts = 1;  ///< 1 = fail fast (no retry).
  double base_backoff_millis = 0.0;
  double max_backoff_millis = 64.0;
  double jitter_fraction = 0.5;  ///< Share of the backoff that jitters.
  uint64_t jitter_seed = 0x51;
  /// Optional overall sleep budget across all retries of one run: the sum
  /// of backoff sleeps never exceeds it (the last sleep is clipped, not
  /// skipped). < 0 = unbounded. Combined with a request deadline, the
  /// tighter of the two bounds wins, so retry scheduling can never push a
  /// failure past the deadline (docs/ROBUSTNESS.md §7).
  double total_backoff_budget_millis = -1.0;
};

/// Backoff before the retry following `failed_attempts` failures (>= 1),
/// consuming one draw from `prng`. Exposed for determinism tests.
double RetryBackoffMillis(const RetryPolicy& policy, int failed_attempts,
                          Prng* prng);

/// RetryBackoffMillis clipped by (a) the policy's overall backoff budget
/// given `backoff_spent_millis` already slept and (b) the remaining time on
/// `ctx`'s deadline (nullable). Never negative; always consumes one PRNG
/// draw so the jitter sequence stays aligned. Exposed for the
/// deadline/retry interaction tests.
double BoundedBackoffMillis(const RetryPolicy& policy, int failed_attempts,
                            Prng* prng, double backoff_spent_millis,
                            const ExecContext* ctx);

/// \brief Resumable execution state: everything a re-run needs to continue
/// from the already-completed operators instead of re-running extraction.
///
/// `Run` keeps `completed`/`loaded` current as nodes finish; `datasets` is
/// filled only when a run fails (the abandoned run's live intermediates
/// move in wholesale), so the success path never copies a dataset and the
/// checkpoint never holds more intermediates than the executor itself did.
/// `completed` is a *set* of node ids (recorded in completion order), not a
/// prefix of the topological order: a parallel run that fails mid-wavefront
/// checkpoints the completed antichain's downward closure — siblings of the
/// failed node that finished out of topological-order position are included
/// and never re-run. `Resume` skips exactly that set, so resuming after a
/// mid-parallel fault works like resuming a serial run.
struct Checkpoint {
  std::string flow_name;
  std::vector<std::string> completed;      ///< Node ids, in completion order.
  std::map<std::string, Relation> datasets;  ///< Failure-time intermediates.
  std::map<std::string, int64_t> loaded;   ///< Rows written by completed loaders.
  std::string failed_node;                 ///< Set when the producing run failed.
  bool valid = false;                      ///< A run has populated this.
};

/// \brief How a flow is executed (docs/ROBUSTNESS.md §8).
struct ExecOptions {
  /// Worker-pool size of the wavefront scheduler. 1 (the default) runs the
  /// flow serially on the calling thread — exactly the pre-scheduler
  /// behavior. N > 1 executes independent nodes concurrently; target-table
  /// contents stay byte-identical to a serial run because loader nodes are
  /// sequenced in topological order (tests/etl_parallel_test.cc proves it
  /// differentially). Values above the node count just idle extra workers.
  int max_workers = 1;
  /// Rows per chunk wherever a kernel cuts rows into chunks (the Datastore
  /// scan, Sort's output); every other kernel keeps its input's chunk
  /// boundaries. Values < 1 behave like 1. Results never depend on it
  /// (tests/property_test.cc P8 sweeps it).
  int64_t chunk_size = 1024;
};

/// Per-node execution statistics.
struct NodeStats {
  std::string node_id;
  OpType type = OpType::kExtraction;
  int64_t rows_in = 0;
  int64_t rows_out = 0;
  double millis = 0;
  int attempts = 1;  ///< 1 = first attempt succeeded.
};

/// \brief Outcome of executing a flow.
///
/// `rows_processed` (the sum of every operator's input cardinality) is the
/// engine-level measure behind the paper's "overall execution time" quality
/// factor: the ETL Process Integrator's cost model predicts it, and the
/// benches compare predicted vs. measured.
struct ExecutionReport {
  double total_millis = 0;
  int64_t rows_processed = 0;
  std::vector<NodeStats> nodes;
  std::map<std::string, int64_t> loaded;  ///< target table -> rows written
  int64_t attempts = 0;  ///< Total operator attempts (>= nodes run).
  std::vector<std::string> retried_nodes;  ///< Nodes that needed > 1 attempt.
  bool recovered = false;  ///< Completed only thanks to retries or a resume.
};

/// Folds a run's per-node stats into EXPLAIN ANALYZE profile trees
/// (docs/OBSERVABILITY.md): one tree per sink node of the flow, children =
/// the node's inputs (flow predecessors) in edge order, stats taken from
/// `report.nodes`. A node the run never executed (e.g. skipped by Resume)
/// appears with zeroed stats, so the tree always mirrors the full plan.
std::vector<obs::ProfileNode> BuildProfileTrees(const Flow& flow,
                                                const ExecutionReport& report);

/// \brief Executes logical ETL flows (xLM) — the repo's stand-in for
/// Pentaho PDI (see DESIGN.md §2).
///
/// Operators are evaluated in topological order, materializing one
/// Relation per node. Loader semantics: the target table is created on
/// first use (column types inferred from the data) unless it already
/// exists; target columns the dataset lacks load as NULL; when the Loader
/// declares `keys`, a row whose key already exists *merges* — its non-NULL
/// values fill the existing row's NULL cells. This makes dimension and fact loads
/// idempotent and lets several partial loaders of one integrated flow
/// converge on the same table (e.g. two requirements contributing different
/// measures of a merged fact).
///
/// Resilience: each node runs under the given RetryPolicy. Loader attempts
/// snapshot their target table first and restore it on failure, so a retry
/// (or a later Resume) never observes a half-written table. With a
/// Checkpoint attached, a failed Run leaves enough state behind for
/// Resume() to continue from the last completed operator.
///
/// Kernels (etl/exec/vectorized.cc) process their input chunk by chunk;
/// `ExecOptions::chunk_size` sets how many rows a chunk holds.
///
/// Lifecycle (docs/ROBUSTNESS.md §7): with an ExecContext attached, the
/// executor checks cancellation + deadline before every node attempt and
/// again before every chunk a kernel processes (the Datastore scan, which
/// takes its table snapshot up front, excepted), and charges each node's
/// output against the row/byte budgets chunk by chunk. A lifecycle
/// error (kCancelled / kDeadlineExceeded / kResourceExhausted) is never
/// retried and fails the run exactly like an operator fault — loader tables
/// roll back to their per-attempt snapshot and the checkpoint is populated,
/// so Resume after a timeout works exactly like Resume after a fault.
///
/// Parallelism (docs/ROBUSTNESS.md §8): with ExecOptions::max_workers > 1
/// the run goes through the wavefront scheduler (etl/exec/scheduler.h) —
/// independent nodes execute concurrently on a worker pool while sharing
/// one ExecContext (atomic budget charges, per-node checks, cooperative
/// polls). Loader nodes are sequenced in topological order, so the target
/// tables come out byte-identical to a serial run. When source and target
/// alias, parallel requests silently degrade to serial: a loader writing
/// the catalog a sibling extraction is reading from cannot be overlapped.
class Executor {
 public:
  /// `source` provides Datastore tables; `target` receives Loader output.
  /// Both pointers must outlive the executor. They may alias.
  Executor(const storage::Database* source, storage::Database* target)
      : source_(source), target_(target) {}

  /// Runs the flow; fails fast on the first operator error.
  Result<ExecutionReport> Run(const Flow& flow);

  /// Runs the flow with per-node retries. When `checkpoint` is non-null it
  /// is (re)initialized and kept current, so a failed run can be resumed.
  /// `ctx` (nullable) carries the request's token/deadline/budgets.
  Result<ExecutionReport> Run(const Flow& flow, const RetryPolicy& retry,
                              Checkpoint* checkpoint = nullptr,
                              const ExecContext* ctx = nullptr);

  /// Like the above, with explicit execution options — `options.max_workers
  /// > 1` runs independent nodes on the wavefront scheduler
  /// (etl/exec/scheduler.h). Every contract of the serial path carries
  /// over: retries per node (applied on whichever worker runs the node),
  /// lifecycle errors never retried, loader rollback, checkpoint/Resume.
  Result<ExecutionReport> Run(const Flow& flow, const ExecOptions& options,
                              const RetryPolicy& retry,
                              Checkpoint* checkpoint = nullptr,
                              const ExecContext* ctx = nullptr);

  /// Continues a failed run from `checkpoint`: completed operators are
  /// skipped (their checkpointed outputs feed the remaining ones) and the
  /// checkpoint keeps advancing, so Resume can itself be resumed. The
  /// checkpoint's completed *set* may come from a serial or a parallel run;
  /// a serial or a parallel Resume accepts either.
  Result<ExecutionReport> Resume(const Flow& flow, Checkpoint* checkpoint,
                                 const RetryPolicy& retry = {},
                                 const ExecContext* ctx = nullptr);

  /// Resume on the wavefront scheduler (options.max_workers > 1).
  Result<ExecutionReport> Resume(const Flow& flow, const ExecOptions& options,
                                 Checkpoint* checkpoint,
                                 const RetryPolicy& retry = {},
                                 const ExecContext* ctx = nullptr);

 private:
  friend class Scheduler;

  /// What a loader node did to the target, reported back to the caller so
  /// `ExecutionReport::loaded` (and the rows-loaded metric) is only charged
  /// once the whole attempt — including the budget charges that ride inside
  /// it — has succeeded.
  struct LoaderEffect {
    std::string table;
    int64_t rows = 0;
    bool fired = false;
  };

  /// Thread-safe accumulator for RetryPolicy::total_backoff_budget_millis:
  /// in a parallel run several workers may sleep concurrently, and the
  /// budget bounds their *sum*, exactly like the serial sum of sleeps.
  class BackoffBudget {
   public:
    double spent_millis() const {
      std::lock_guard<std::mutex> lock(mu_);
      return spent_millis_;
    }
    void Add(double millis) {
      std::lock_guard<std::mutex> lock(mu_);
      spent_millis_ += millis;
    }

   private:
    mutable std::mutex mu_;
    double spent_millis_ = 0;
  };

  /// Outcome of one node's full attempt loop.
  struct NodeAttempt {
    Result<Relation> result = Status::Internal("node never attempted");
    int attempts = 1;
    LoaderEffect loader;  ///< Valid only when `result` is OK.
  };

  Result<ExecutionReport> RunInternal(const Flow& flow,
                                      const ExecOptions& options,
                                      const RetryPolicy& retry,
                                      Checkpoint* checkpoint, bool resume,
                                      const ExecContext* ctx);

  /// Runs one operator once through its chunk kernel (vectorized.cc): the
  /// per-operator fault point ("etl.exec.<Op>"), then the kernel, which
  /// checks the context, charges the budgets and may hit the mid-stream
  /// fault point ("etl.exec.vec.chunk") chunk by chunk.
  /// `inputs` are the predecessor relations in edge order (resolved by the
  /// caller, so concurrent workers never look up the shared map while
  /// another thread mutates it). Loaders are sinks and return no chunks.
  Result<Relation> RunNode(const Node& node,
                           const std::vector<const Relation*>& inputs,
                           LoaderEffect* loader, const ExecContext* ctx,
                           const ExecOptions& options);

  /// The per-node attempt loop shared by the serial path and the scheduler:
  /// context pre-check, loader table snapshot, RunNode (budget charges ride
  /// inside it), loader rollback on failure, bounded backoff between
  /// attempts. Lifecycle errors are never retried.
  /// `protect_loader_always` forces the loader snapshot even without
  /// retries/checkpoint/ctx (parallel runs always protect: a sibling's
  /// failure must never leave this loader's table half-written).
  NodeAttempt ExecuteNode(const Node& node,
                          const std::vector<const Relation*>& inputs,
                          const RetryPolicy& retry,
                          const ExecContext* ctx, bool protect_loader_always,
                          Prng* backoff_prng, BackoffBudget* backoff,
                          const ExecOptions& options);

  const storage::Database* source_;
  storage::Database* target_;
};

}  // namespace quarry::etl

#endif  // QUARRY_ETL_EXEC_EXECUTOR_H_
