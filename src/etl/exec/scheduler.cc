#include "etl/exec/scheduler.h"

#include <algorithm>
#include <functional>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/prng.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace quarry::etl {

namespace {

/// The walk's unlabelled families and the lifecycle-abort reasons. They
/// register together on the first run, so the retry, failure and abort
/// series expose zeros before anything goes wrong.
struct WalkMetrics {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Instance();
  obs::Counter& rows_in =
      reg.counter("quarry_etl_rows_in_total", "Rows entering ETL operators");
  obs::Counter& rows_out = reg.counter("quarry_etl_rows_out_total",
                                       "Rows produced by ETL operators");
  obs::Counter& retries =
      reg.counter("quarry_etl_node_retries_total",
                  "Extra attempts beyond the first across all ETL nodes");
  obs::Counter& failures =
      reg.counter("quarry_etl_run_failures_total",
                  "ETL flow executions that returned an error");
  obs::Counter& cancelled = reg.counter(
      "quarry_etl_lifecycle_aborts_total",
      "ETL runs aborted by cancellation, deadline expiry or budget "
      "exhaustion",
      {{"reason", "cancelled"}});
  obs::Counter& deadline = reg.counter("quarry_etl_lifecycle_aborts_total",
                                       "", {{"reason", "deadline"}});
  obs::Counter& budget = reg.counter("quarry_etl_lifecycle_aborts_total", "",
                                     {{"reason", "budget"}});

  static WalkMetrics& Get() {
    static WalkMetrics metrics;
    return metrics;
  }

  /// Runs aborted by their request lifecycle rather than an operator fault.
  void CountLifecycleAbort(const Status& status) {
    if (status.IsCancelled()) {
      cancelled.Increment();
    } else if (status.IsDeadlineExceeded()) {
      deadline.Increment();
    } else if (status.IsResourceExhausted()) {
      budget.Increment();
    }
  }

  void CountNodeDone(const Node& node, int64_t rows, double micros) {
    obs::Labels op_label{{"op", OpTypeToString(node.type)}};
    reg.counter("quarry_etl_nodes_executed_total",
                "ETL operator executions by operator type", op_label)
        .Increment();
    reg.histogram("quarry_etl_node_micros",
                  "Wall time per ETL operator execution in microseconds",
                  /*bounds=*/{}, op_label)
        .Observe(micros);
    rows_out.Increment(rows);
  }
};

// The quarry_etl_scheduler_* families count runs with more than one worker
// only.
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

}  // namespace

Scheduler::Scheduler(Executor* executor, const ExecOptions& options,
                     int workers)
    : executor_(executor),
      options_(options),
      workers_(std::max(1, workers)),
      parallel_(workers_ > 1) {}

void Scheduler::PushReady(size_t pos) {
  ready_.push_back(pos);
  std::push_heap(ready_.begin(), ready_.end(), std::greater<>());
}

Result<ExecutionReport> Scheduler::Run(
    const Flow& flow, const std::vector<std::string>& order,
    const std::map<std::string, LiveColumns>& live, const RetryPolicy& retry,
    Checkpoint* checkpoint, const ExecContext* ctx) {
  WalkMetrics::Get();  // Registers the families before anything can fail.
  order_ = &order;
  live_ = &live;
  retry_ = retry;
  checkpoint_ = checkpoint;
  ctx_ = ctx;

  std::unordered_map<std::string_view, size_t> pos;
  pos.reserve(order.size());
  slots_.resize(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    pos.emplace(order[i], i);
    slots_[i].node = flow.GetNode(order[i]).value();
  }
  if (checkpoint_ != nullptr) {
    for (const std::string& id : checkpoint_->completed) {
      slots_[pos.at(id)].completed = true;
    }
    done_ = std::move(checkpoint_->datasets);
    checkpoint_->datasets.clear();
    report_.loaded = checkpoint_->loaded;
  }
  // Dependency counters over the uncompleted nodes, and per node the
  // consumers still to run: its intermediate is freed once the last of
  // them completes (an integrated flow would otherwise hold every
  // intermediate at once).
  for (const Edge& e : flow.edges()) {
    const size_t from = pos.at(e.from);
    const size_t to = pos.at(e.to);
    slots_[to].preds.push_back(from);
    slots_[from].succs.push_back(to);
    if (!slots_[from].completed) ++slots_[to].deps;
    if (!slots_[to].completed) ++slots_[from].consumers;
  }
  // One chain edge per pair of uncompleted loaders keeps target writes in
  // topological order (class comment).
  size_t prev_loader = order.size();
  for (size_t i = 0; i < order.size(); ++i) {
    if (slots_[i].completed) continue;
    ++pending_;
    if (slots_[i].node->type != OpType::kLoader) continue;
    if (prev_loader < order.size()) {
      slots_[prev_loader].succs.push_back(i);
      ++slots_[i].deps;
    }
    prev_loader = i;
  }
  for (size_t i = 0; i < order.size(); ++i) {
    if (!slots_[i].completed && slots_[i].deps == 0) PushReady(i);
  }
  // Resume of an already-complete checkpoint.
  if (pending_ == 0) return std::move(report_);

  const size_t threads =
      std::min(static_cast<size_t>(workers_), pending_);
  if (parallel_) {
    ParallelRunsCounter().Increment();
    ReadyDepthGauge().Set(static_cast<double>(ready_.size()));
    WavefrontWidthHistogram().Observe(static_cast<double>(ready_.size()));
  }
  if (threads == 1) {
    Worker(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (size_t w = 0; w < threads; ++w) {
      pool.emplace_back([this, w] { Worker(static_cast<int>(w)); });
    }
    for (std::thread& t : pool) t.join();
  }
  if (parallel_) ReadyDepthGauge().Set(0);

  if (abort_) {
    WalkMetrics& metrics = WalkMetrics::Get();
    metrics.CountLifecycleAbort(failure_.status);
    const std::string& id = order[failure_.pos];
    if (checkpoint_ != nullptr) {
      checkpoint_->failed_node = id;
      // The run is abandoned, so the live intermediates move into the
      // checkpoint wholesale — the success path never copies a dataset.
      checkpoint_->datasets = std::move(done_);
    }
    metrics.failures.Increment();
    std::string context = "node '" + id + "' (" +
                          OpTypeToString(slots_[failure_.pos].node->type) +
                          ")";
    if (failure_.attempts > 1) {
      context += " after " + std::to_string(failure_.attempts) + " attempts";
    }
    return failure_.status.WithContext(context);
  }
  return std::move(report_);
}

void Scheduler::Worker(int worker_index) {
  WalkMetrics& metrics = WalkMetrics::Get();
  obs::Counter* nodes_done =
      parallel_ ? &WorkerNodesCounter(worker_index) : nullptr;
  obs::Counter* busy_micros =
      parallel_ ? &WorkerBusyCounter(worker_index) : nullptr;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock,
             [&] { return abort_ || !ready_.empty() || pending_ == 0; });
    // On abort the queue was cleared, so either exit condition means no
    // more work will ever appear for this worker.
    if (abort_ || ready_.empty()) return;

    std::pop_heap(ready_.begin(), ready_.end(), std::greater<>());
    const size_t pos = ready_.back();
    ready_.pop_back();
    if (parallel_) ReadyDepthGauge().Set(static_cast<double>(ready_.size()));
    const std::string& id = (*order_)[pos];
    const Node& node = *slots_[pos].node;
    // Resolve inputs to pointers while holding the lock: map nodes are
    // stable under unrelated insert/erase, and a relation is only erased
    // once its last consumer *completed*, which this node has not.
    std::vector<const Relation*> inputs;
    int64_t rows_in = 0;
    for (size_t pred : slots_[pos].preds) {
      const Relation& input = done_.at((*order_)[pred]);
      inputs.push_back(&input);
      rows_in += input.row_count();
    }
    ++in_flight_;
    lock.unlock();

    metrics.rows_in.Increment(rows_in);
    Timer node_timer;
    Executor::NodeAttempt outcome;
    {
      QUARRY_NAMED_SPAN(node_span,
                        std::string("etl.node.") + OpTypeToString(node.type));
      QUARRY_SPAN_ATTR(node_span, "node_id", id);
      if (parallel_) {
        QUARRY_SPAN_ATTR(node_span, "worker",
                         static_cast<int64_t>(worker_index));
      }
      // Per-node jitter stream: which worker runs a node (or how many nodes
      // retried before it) must not change the node's backoff sequence, so
      // the stream is keyed by node id.
      Prng backoff_prng(retry_.jitter_seed ^
                        static_cast<uint64_t>(std::hash<std::string>{}(id)));
      // A parallel run always snapshots its loaders: a sibling's failure
      // must never leave this loader's table half-written.
      outcome = executor_->ExecuteNode(
          node, inputs, live_->at(id), retry_, ctx_,
          /*protect_loader_always=*/parallel_ || checkpoint_ != nullptr,
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
    if (parallel_) {
      nodes_done->Increment();
      busy_micros->Increment(static_cast<int64_t>(node_millis * 1000.0));
    }
    if (outcome.attempts > 1) metrics.retries.Increment(outcome.attempts - 1);

    lock.lock();
    --in_flight_;
    if (!outcome.result.ok()) {
      if (!abort_) {  // First error wins; later failures are drained.
        abort_ = true;
        failure_.status = outcome.result.status();
        failure_.pos = pos;
        failure_.attempts = outcome.attempts;
        ready_.clear();
        if (parallel_) ReadyDepthGauge().Set(0);
      }
      cv_.notify_all();
      continue;
    }
    CompleteNode(pos, rows_in, node_millis, &outcome);
    cv_.notify_all();
  }
}

void Scheduler::CompleteNode(size_t pos, int64_t rows_in, double node_millis,
                             Executor::NodeAttempt* outcome) {
  Slot& slot = slots_[pos];
  const std::string& id = (*order_)[pos];
  if (outcome->loader.fired) {
    report_.loaded[outcome->loader.table] += outcome->loader.rows;
  }
  NodeStats stats;
  stats.node_id = id;
  stats.type = slot.node->type;
  stats.rows_in = rows_in;
  stats.rows_out = outcome->result->row_count();
  stats.millis = node_millis;
  stats.attempts = outcome->attempts;
  WalkMetrics::Get().CountNodeDone(*slot.node, stats.rows_out,
                                   node_millis * 1000.0);
  report_.rows_processed += rows_in;
  report_.attempts += outcome->attempts;
  if (outcome->attempts > 1) report_.retried_nodes.push_back(id);
  report_.nodes.push_back(std::move(stats));
  slot.completed = true;
  --pending_;
  for (size_t pred : slot.preds) {
    if (--slots_[pred].consumers == 0) done_.erase((*order_)[pred]);
  }
  if (slot.consumers > 0) done_.emplace(id, std::move(*outcome->result));
  if (checkpoint_ != nullptr) {
    checkpoint_->completed.push_back(id);
    checkpoint_->loaded = report_.loaded;
  }
  // While draining after an abort the completion above is still recorded —
  // this node's loader writes already landed, so forgetting it would make
  // Resume re-run it — but successors must never start.
  if (abort_) return;
  size_t newly_ready = 0;
  for (size_t succ : slot.succs) {
    if (--slots_[succ].deps == 0) {
      PushReady(succ);
      ++newly_ready;
    }
  }
  if (parallel_ && newly_ready > 0) {
    ReadyDepthGauge().Set(static_cast<double>(ready_.size()));
    WavefrontWidthHistogram().Observe(
        static_cast<double>(ready_.size() + in_flight_));
  }
}

}  // namespace quarry::etl
