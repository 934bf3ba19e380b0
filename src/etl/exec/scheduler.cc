#include "etl/exec/scheduler.h"

#include <algorithm>
#include <functional>
#include <thread>
#include <utility>

#include "common/prng.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace quarry::etl {

namespace {

// Scheduler-owned metric families.
obs::Counter& ParallelRunsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Instance().counter(
      "quarry_etl_scheduler_parallel_runs_total",
      "ETL flow executions dispatched to the wavefront scheduler");
  return c;
}

obs::Gauge& ReadyDepthGauge() {
  static obs::Gauge& g = obs::MetricsRegistry::Instance().gauge(
      "quarry_etl_scheduler_ready_depth",
      "Nodes currently sitting in the scheduler's ready queue");
  return g;
}

obs::Histogram& WavefrontWidthHistogram() {
  static obs::Histogram& h = obs::MetricsRegistry::Instance().histogram(
      "quarry_etl_scheduler_wavefront_width",
      "Runnable plus running nodes observed at each scheduling step",
      /*bounds=*/{1, 2, 4, 8, 16, 32, 64});
  return h;
}

obs::Counter& WorkerNodesCounter(int worker) {
  return obs::MetricsRegistry::Instance().counter(
      "quarry_etl_scheduler_worker_nodes_total",
      "Nodes executed per scheduler worker",
      {{"worker", std::to_string(worker)}});
}

obs::Counter& WorkerBusyCounter(int worker) {
  return obs::MetricsRegistry::Instance().counter(
      "quarry_etl_scheduler_worker_busy_micros_total",
      "Wall time each scheduler worker spent executing nodes, in "
      "microseconds",
      {{"worker", std::to_string(worker)}});
}

// Shared per-node families: looked up by name, so serial and parallel runs
// feed the same series the serial path caches in executor.cc.
obs::Counter& RowsInCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Instance().counter(
      "quarry_etl_rows_in_total", "Rows entering ETL operators");
  return c;
}

obs::Counter& RowsOutCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Instance().counter(
      "quarry_etl_rows_out_total", "Rows produced by ETL operators");
  return c;
}

obs::Counter& RetryCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Instance().counter(
      "quarry_etl_node_retries_total",
      "Extra attempts beyond the first across all ETL nodes");
  return c;
}

obs::Counter& RunFailureCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Instance().counter(
      "quarry_etl_run_failures_total",
      "ETL flow executions that returned an error");
  return c;
}

// The reason instances were registered eagerly by RunInternal's prologue
// before the run was dispatched here.
void CountLifecycleAbort(const Status& status) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Instance();
  if (status.IsCancelled()) {
    reg.counter("quarry_etl_lifecycle_aborts_total", "",
                {{"reason", "cancelled"}})
        .Increment();
  } else if (status.IsDeadlineExceeded()) {
    reg.counter("quarry_etl_lifecycle_aborts_total", "",
                {{"reason", "deadline"}})
        .Increment();
  } else if (status.IsResourceExhausted()) {
    reg.counter("quarry_etl_lifecycle_aborts_total", "",
                {{"reason", "budget"}})
        .Increment();
  }
}

void CountNodeDone(const Node& node, int64_t rows_out, double micros) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Instance();
  obs::Labels op_label{{"op", OpTypeToString(node.type)}};
  reg.counter("quarry_etl_nodes_executed_total",
              "ETL operator executions by operator type", op_label)
      .Increment();
  reg.histogram("quarry_etl_node_micros",
                "Wall time per ETL operator execution in microseconds",
                /*bounds=*/{}, op_label)
      .Observe(micros);
  RowsOutCounter().Increment(rows_out);
}

}  // namespace

Result<ExecutionReport> Scheduler::Run(
    const Flow& flow, const std::vector<std::string>& order,
    const std::map<std::string, LiveColumns>& live, const RetryPolicy& retry,
    Checkpoint* checkpoint, const ExecContext* ctx,
    std::set<std::string> completed, std::map<std::string, Relation> done,
    std::map<std::string, size_t> remaining_consumers, ExecutionReport report,
    bool resumed_any, Timer total) {
  flow_ = &flow;
  live_ = &live;
  retry_ = retry;
  checkpoint_ = checkpoint;
  ctx_ = ctx;
  completed_ = std::move(completed);
  done_ = std::move(done);
  remaining_consumers_ = std::move(remaining_consumers);
  report_ = std::move(report);

  // Dependency counters over the uncompleted nodes: flow edges whose
  // producer has not completed, plus one chain edge per loader pair so
  // target writes stay in topological order (class comment).
  succs_ = flow.SuccessorLists();
  preds_.clear();
  deps_.clear();
  pending_ = 0;
  std::string prev_loader;
  for (const std::string& id : order) {
    if (completed_.count(id) > 0) continue;
    ++pending_;
    std::vector<std::string> preds = flow.Predecessors(id);
    size_t unmet = 0;
    for (const std::string& pred : preds) {
      if (completed_.count(pred) == 0) ++unmet;
    }
    preds_[id] = std::move(preds);
    deps_[id] = unmet;
    if (flow.GetNode(id).value()->type == OpType::kLoader) {
      if (!prev_loader.empty()) {
        succs_[prev_loader].push_back(id);
        ++deps_[id];
      }
      prev_loader = id;
    }
  }
  for (const std::string& id : order) {
    auto it = deps_.find(id);
    if (it != deps_.end() && it->second == 0) ready_.push_back(id);
  }

  if (pending_ == 0) {  // Resume of an already-complete checkpoint.
    report_.total_millis = total.ElapsedMillis();
    report_.recovered = resumed_any || !report_.retried_nodes.empty();
    return std::move(report_);
  }

  ParallelRunsCounter().Increment();
  ReadyDepthGauge().Set(static_cast<double>(ready_.size()));
  WavefrontWidthHistogram().Observe(static_cast<double>(ready_.size()));

  const size_t worker_count = std::min(
      static_cast<size_t>(std::max(1, options_.max_workers)), pending_);
  std::vector<std::thread> workers;
  workers.reserve(worker_count);
  for (size_t w = 0; w < worker_count; ++w) {
    workers.emplace_back([this, w] { Worker(static_cast<int>(w)); });
  }
  for (std::thread& t : workers) t.join();
  ReadyDepthGauge().Set(0);

  if (abort_) {
    CountLifecycleAbort(failure_.status);
    if (checkpoint_ != nullptr) {
      checkpoint_->failed_node = failure_.node_id;
      // The run is abandoned, so the live intermediates move into the
      // checkpoint wholesale — the success path never copies a dataset.
      checkpoint_->datasets = std::move(done_);
    }
    RunFailureCounter().Increment();
    std::string context = "node '" + failure_.node_id + "' (" +
                          OpTypeToString(failure_.type) + ")";
    if (failure_.attempts > 1) {
      context += " after " + std::to_string(failure_.attempts) + " attempts";
    }
    return failure_.status.WithContext(context);
  }
  report_.total_millis = total.ElapsedMillis();
  report_.recovered = resumed_any || !report_.retried_nodes.empty();
  return std::move(report_);
}

void Scheduler::Worker(int worker_index) {
  obs::Counter& nodes_done = WorkerNodesCounter(worker_index);
  obs::Counter& busy_micros = WorkerBusyCounter(worker_index);
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock,
             [&] { return abort_ || !ready_.empty() || pending_ == 0; });
    // On abort the queue was cleared, so either exit condition means no
    // more work will ever appear for this worker.
    if (abort_ || ready_.empty()) return;

    std::string id = std::move(ready_.front());
    ready_.pop_front();
    ReadyDepthGauge().Set(static_cast<double>(ready_.size()));
    const Node& node = *flow_->GetNode(id).value();
    // Resolve inputs to pointers while holding the lock: map nodes are
    // stable under unrelated insert/erase, and a relation is only erased
    // once its last consumer *completed*, which this node has not.
    std::vector<const Relation*> inputs;
    int64_t rows_in = 0;
    for (const std::string& pred : preds_.at(id)) {
      const Relation& input = done_.at(pred);
      inputs.push_back(&input);
      rows_in += input.row_count();
    }
    ++in_flight_;
    lock.unlock();

    RowsInCounter().Increment(rows_in);
    Timer node_timer;
    Executor::NodeAttempt outcome;
    {
      QUARRY_NAMED_SPAN(node_span,
                        std::string("etl.node.") + OpTypeToString(node.type));
      QUARRY_SPAN_ATTR(node_span, "node_id", id);
      QUARRY_SPAN_ATTR(node_span, "worker",
                       static_cast<int64_t>(worker_index));
      // Per-node jitter stream: which worker runs a node (or how many nodes
      // retried before it) must not change the node's backoff sequence, so
      // the stream is keyed by node id. The serial path keeps its original
      // shared stream for bit-compatibility with the determinism tests.
      Prng backoff_prng(retry_.jitter_seed ^
                        static_cast<uint64_t>(std::hash<std::string>{}(id)));
      outcome = executor_->ExecuteNode(node, inputs, live_->at(id), retry_,
                                       ctx_,
                                       /*protect_loader_always=*/true,
                                       &backoff_prng, &backoff_, options_);
      if (outcome.result.ok()) {
        QUARRY_SPAN_ATTR(node_span, "rows_in", rows_in);
        QUARRY_SPAN_ATTR(node_span, "rows_out", outcome.result->row_count());
        QUARRY_SPAN_ATTR(node_span, "attempts", outcome.attempts);
      } else {
        QUARRY_SPAN_ATTR(node_span, "error",
                         outcome.result.status().message());
      }
    }
    const double node_millis = node_timer.ElapsedMillis();
    nodes_done.Increment();
    busy_micros.Increment(static_cast<int64_t>(node_millis * 1000.0));
    if (outcome.attempts > 1) RetryCounter().Increment(outcome.attempts - 1);

    lock.lock();
    --in_flight_;
    if (!outcome.result.ok()) {
      if (!abort_) {  // First error wins; later failures are drained.
        abort_ = true;
        failure_.status = outcome.result.status();
        failure_.node_id = id;
        failure_.type = node.type;
        failure_.attempts = outcome.attempts;
        ready_.clear();
        ReadyDepthGauge().Set(0);
      }
      cv_.notify_all();
      continue;
    }
    CompleteNode(id, node, rows_in, node_millis, &outcome);
    cv_.notify_all();
  }
}

void Scheduler::CompleteNode(const std::string& id, const Node& node,
                             int64_t rows_in, double node_millis,
                             Executor::NodeAttempt* outcome) {
  if (outcome->loader.fired) {
    report_.loaded[outcome->loader.table] += outcome->loader.rows;
  }
  NodeStats stats;
  stats.node_id = id;
  stats.type = node.type;
  stats.rows_in = rows_in;
  stats.rows_out = outcome->result->row_count();
  stats.millis = node_millis;
  stats.attempts = outcome->attempts;
  CountNodeDone(node, stats.rows_out, node_millis * 1000.0);
  report_.rows_processed += rows_in;
  report_.attempts += outcome->attempts;
  if (outcome->attempts > 1) report_.retried_nodes.push_back(id);
  report_.nodes.push_back(std::move(stats));
  completed_.insert(id);
  --pending_;
  for (const std::string& pred : preds_.at(id)) {
    if (--remaining_consumers_[pred] == 0) done_.erase(pred);
  }
  if (remaining_consumers_[id] > 0) {
    done_.emplace(id, std::move(*outcome->result));
  }
  if (checkpoint_ != nullptr) {
    checkpoint_->completed.push_back(id);
    checkpoint_->loaded = report_.loaded;
  }
  // While draining after an abort the completion above is still recorded —
  // this node's loader writes already landed, so forgetting it would make
  // Resume re-run it — but successors must never start.
  if (abort_) return;
  size_t newly_ready = 0;
  for (const std::string& succ : succs_.at(id)) {
    if (--deps_[succ] == 0) {
      ready_.push_back(succ);
      ++newly_ready;
    }
  }
  if (newly_ready > 0) {
    ReadyDepthGauge().Set(static_cast<double>(ready_.size()));
    WavefrontWidthHistogram().Observe(
        static_cast<double>(ready_.size() + in_flight_));
  }
}

}  // namespace quarry::etl
