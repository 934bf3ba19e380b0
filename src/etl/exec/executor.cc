#include "etl/exec/executor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <set>
#include <string_view>
#include <thread>

#include "common/fault_injection.h"
#include "common/timer.h"
#include "etl/exec/kernel_util.h"
#include "etl/exec/scheduler.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace quarry::etl {

using kernel::Param;

namespace {

// Unlabelled executor totals are cached; per-operator instances go through
// the registry once per op type (the map behind it is tiny).
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

obs::Counter& RunCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Instance().counter(
      "quarry_etl_runs_total", "ETL flow executions started");
  return c;
}

obs::Counter& RunFailureCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Instance().counter(
      "quarry_etl_run_failures_total",
      "ETL flow executions that returned an error");
  return c;
}

obs::Counter& ResumeCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Instance().counter(
      "quarry_etl_resumes_total",
      "ETL flow executions resumed from a checkpoint");
  return c;
}

/// Runs aborted by their request lifecycle rather than an operator fault,
/// by reason. All three instances register eagerly so dashboards see zeros
/// before the first abort.
obs::Counter& LifecycleAbortCounter(const char* reason) {
  static obs::Counter& cancelled = obs::MetricsRegistry::Instance().counter(
      "quarry_etl_lifecycle_aborts_total",
      "ETL runs aborted by cancellation, deadline expiry or budget "
      "exhaustion",
      {{"reason", "cancelled"}});
  static obs::Counter& deadline = obs::MetricsRegistry::Instance().counter(
      "quarry_etl_lifecycle_aborts_total", "", {{"reason", "deadline"}});
  static obs::Counter& budget = obs::MetricsRegistry::Instance().counter(
      "quarry_etl_lifecycle_aborts_total", "", {{"reason", "budget"}});
  if (std::string_view(reason) == "cancelled") return cancelled;
  if (std::string_view(reason) == "deadline") return deadline;
  return budget;
}

void CountLifecycleAbort(const Status& status) {
  if (status.IsCancelled()) {
    LifecycleAbortCounter("cancelled").Increment();
  } else if (status.IsDeadlineExceeded()) {
    LifecycleAbortCounter("deadline").Increment();
  } else if (status.IsResourceExhausted()) {
    LifecycleAbortCounter("budget").Increment();
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

double RetryBackoffMillis(const RetryPolicy& policy, int failed_attempts,
                          Prng* prng) {
  double exp = policy.base_backoff_millis *
               std::pow(2.0, std::max(0, failed_attempts - 1));
  exp = std::min(exp, policy.max_backoff_millis);
  // Always consume one draw so the jitter sequence stays aligned with the
  // retry sequence regardless of the base backoff.
  double u = prng != nullptr ? prng->UniformDouble() : 0.0;
  return exp * ((1.0 - policy.jitter_fraction) + policy.jitter_fraction * u);
}

double BoundedBackoffMillis(const RetryPolicy& policy, int failed_attempts,
                            Prng* prng, double backoff_spent_millis,
                            const ExecContext* ctx) {
  double sleep_ms = RetryBackoffMillis(policy, failed_attempts, prng);
  if (policy.total_backoff_budget_millis >= 0) {
    double budget_left =
        policy.total_backoff_budget_millis - backoff_spent_millis;
    sleep_ms = std::min(sleep_ms, std::max(0.0, budget_left));
  }
  if (ctx != nullptr && !ctx->deadline().unbounded()) {
    sleep_ms = std::min(sleep_ms, ctx->deadline().remaining_millis());
  }
  return sleep_ms;
}

Executor::NodeAttempt Executor::ExecuteNode(
    const Node& node, const std::vector<const Relation*>& inputs,
    const RetryPolicy& retry, const ExecContext* ctx,
    bool protect_loader_always, Prng* backoff_prng, BackoffBudget* backoff,
    const ExecOptions& options) {
  const int max_attempts = std::max(1, retry.max_attempts);
  // Loader attempts mutate the target; snapshot the table so a failed
  // attempt rolls back before the retry (or a later Resume). Skipped on
  // the plain fail-fast path, which stays zero-overhead. A context makes
  // loaders protected too: a cancellation mid-write must never leave a
  // half-written table behind.
  const bool protect_loader =
      node.type == OpType::kLoader &&
      (max_attempts > 1 || protect_loader_always || ctx != nullptr ||
       fault::Enabled());
  const std::string loader_table =
      protect_loader ? Param(node, "table") : std::string();

  NodeAttempt out;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    out.attempts = attempt;
    // Cancellation point: every attempt of every node starts by checking
    // the request is still live. A failed check behaves exactly like an
    // operator fault (checkpoint populated, loaders rolled back), so
    // Resume after a timeout works like Resume after a fault.
    Status pre_check = CheckContext(ctx, "node '" + node.id + "'");
    if (!pre_check.ok()) {
      out.result = pre_check;
      break;
    }
    std::unique_ptr<storage::Table> table_snapshot;
    bool loader_existed = false;
    if (protect_loader && target_->HasTable(loader_table)) {
      table_snapshot = (*target_->GetTable(loader_table))->Clone();
      loader_existed = true;
    }
    LoaderEffect effect;
    // Budget charges ride inside RunNode, so an over-budget node is rolled
    // back (loaders included) like any other failed attempt.
    out.result = RunNode(node, inputs, &effect, ctx, options);
    if (out.result.ok()) {
      out.loader = effect;
      if (effect.fired) {
        obs::MetricsRegistry::Instance()
            .counter("quarry_etl_rows_loaded_total",
                     "Rows written into target tables by loader nodes",
                     {{"table", effect.table}})
            .Increment(effect.rows);
      }
      break;
    }
    if (protect_loader && !loader_table.empty()) {
      if (table_snapshot != nullptr) {
        target_->RestoreTable(std::move(table_snapshot));
      } else if (!loader_existed) {
        target_->EraseTable(loader_table);  // Created by this attempt.
      }
    }
    // A dead request is never retried: another attempt cannot revive a
    // cancelled token, an expired deadline or a spent budget.
    if (IsLifecycleError(out.result.status())) break;
    if (attempt < max_attempts) {
      double sleep_ms = BoundedBackoffMillis(retry, attempt, backoff_prng,
                                             backoff->spent_millis(), ctx);
      if (sleep_ms > 0) {
        backoff->Add(sleep_ms);
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(sleep_ms));
      }
    }
  }
  return out;
}

Result<ExecutionReport> Executor::Run(const Flow& flow) {
  return RunInternal(flow, ExecOptions{}, RetryPolicy{}, nullptr,
                     /*resume=*/false, nullptr);
}

Result<ExecutionReport> Executor::Run(const Flow& flow,
                                      const RetryPolicy& retry,
                                      Checkpoint* checkpoint,
                                      const ExecContext* ctx) {
  return RunInternal(flow, ExecOptions{}, retry, checkpoint, /*resume=*/false,
                     ctx);
}

Result<ExecutionReport> Executor::Run(const Flow& flow,
                                      const ExecOptions& options,
                                      const RetryPolicy& retry,
                                      Checkpoint* checkpoint,
                                      const ExecContext* ctx) {
  return RunInternal(flow, options, retry, checkpoint, /*resume=*/false, ctx);
}

Result<ExecutionReport> Executor::Resume(const Flow& flow,
                                         Checkpoint* checkpoint,
                                         const RetryPolicy& retry,
                                         const ExecContext* ctx) {
  return RunInternal(flow, ExecOptions{}, retry, checkpoint, /*resume=*/true,
                     ctx);
}

Result<ExecutionReport> Executor::Resume(const Flow& flow,
                                         const ExecOptions& options,
                                         Checkpoint* checkpoint,
                                         const RetryPolicy& retry,
                                         const ExecContext* ctx) {
  return RunInternal(flow, options, retry, checkpoint, /*resume=*/true, ctx);
}

Result<ExecutionReport> Executor::RunInternal(const Flow& flow,
                                              const ExecOptions& options,
                                              const RetryPolicy& retry,
                                              Checkpoint* checkpoint,
                                              bool resume,
                                              const ExecContext* ctx) {
  if (ctx != nullptr && ctx->budget().max_flow_nodes > 0 &&
      static_cast<int64_t>(flow.num_nodes()) >
          ctx->budget().max_flow_nodes) {
    // Refused before any work: a requirement that exploded into a huge flow
    // (the SODA scenario) is rejected structurally, not timed out.
    return Status::ResourceExhausted(
        "flow '" + flow.name() + "' has " +
        std::to_string(flow.num_nodes()) + " nodes, budget allows " +
        std::to_string(ctx->budget().max_flow_nodes));
  }
  QUARRY_ASSIGN_OR_RETURN(auto order, flow.TopologicalOrder());
  QUARRY_NAMED_SPAN(run_span, "etl.run");
  QUARRY_SPAN_ATTR(run_span, "flow", flow.name());
  QUARRY_SPAN_ATTR(run_span, "nodes",
                   static_cast<int64_t>(flow.nodes().size()));
  if (RequestId(ctx) != 0) {
    QUARRY_SPAN_ATTR(run_span, "request_id",
                     static_cast<int64_t>(RequestId(ctx)));
  }
  RunCounter().Increment();
  // Touch the failure/retry/resume families so they expose as zeros from
  // the first run instead of appearing only once something goes wrong.
  RunFailureCounter();
  RetryCounter();
  ResumeCounter();
  LifecycleAbortCounter("cancelled");  // Registers all three reasons.
  if (resume) ResumeCounter().Increment();
  ExecutionReport report;
  Timer total;
  Prng backoff_prng(retry.jitter_seed);
  BackoffBudget backoff;  // Against retry.total_backoff_budget_millis.

  std::set<std::string> completed;
  std::map<std::string, Relation> done;
  bool resumed_any = false;
  if (resume) {
    if (checkpoint == nullptr || !checkpoint->valid) {
      return Status::InvalidArgument("Resume requires a valid checkpoint");
    }
    if (checkpoint->flow_name != flow.name()) {
      return Status::InvalidArgument("checkpoint belongs to flow '" +
                                     checkpoint->flow_name + "', not '" +
                                     flow.name() + "'");
    }
    completed.insert(checkpoint->completed.begin(),
                     checkpoint->completed.end());
    done = std::move(checkpoint->datasets);
    checkpoint->datasets.clear();
    report.loaded = checkpoint->loaded;
    resumed_any = !completed.empty();
  } else if (checkpoint != nullptr) {
    *checkpoint = Checkpoint{};
    checkpoint->flow_name = flow.name();
  }
  if (checkpoint != nullptr) {
    checkpoint->failed_node.clear();
    checkpoint->valid = true;
  }

  // Reference counts so each materialized dataset is freed as soon as its
  // last consumer has run — integrated flows would otherwise hold every
  // intermediate at once and lose their execution-time advantage to memory
  // pressure. On resume, consumers that already ran don't count.
  std::map<std::string, size_t> remaining_consumers;
  for (const auto& [id, node] : flow.nodes()) {
    size_t pending = 0;
    for (const std::string& succ : flow.Successors(id)) {
      if (completed.count(succ) == 0) ++pending;
    }
    remaining_consumers[id] = pending;
  }

  // Parallel runs go through the wavefront scheduler once the shared
  // prologue above (validation, counters, checkpoint/resume state) has run.
  // When source and target alias, a loader write would race the datastore
  // reads of concurrent siblings, so such runs silently degrade to serial.
  if (options.max_workers > 1 && source_ != target_) {
    Scheduler scheduler(this, options);
    return scheduler.Run(flow, order, retry, checkpoint, ctx,
                         std::move(completed), std::move(done),
                         std::move(remaining_consumers), std::move(report),
                         resumed_any, total);
  }

  for (const std::string& id : order) {
    if (completed.count(id) > 0) continue;  // Resumed from checkpoint.
    const Node& node = *flow.GetNode(id).value();
    QUARRY_NAMED_SPAN(node_span,
                      std::string("etl.node.") + OpTypeToString(node.type));
    QUARRY_SPAN_ATTR(node_span, "node_id", id);
    Timer node_timer;
    std::vector<const Relation*> inputs;
    int64_t rows_in = 0;
    for (const std::string& pred : flow.Predecessors(id)) {
      const Relation& input = done.at(pred);
      inputs.push_back(&input);
      rows_in += input.row_count();
    }
    RowsInCounter().Increment(rows_in);

    NodeAttempt outcome =
        ExecuteNode(node, inputs, retry, ctx,
                    /*protect_loader_always=*/checkpoint != nullptr,
                    &backoff_prng, &backoff, options);
    Result<Relation>& result = outcome.result;
    const int attempts_used = outcome.attempts;
    if (attempts_used > 1) RetryCounter().Increment(attempts_used - 1);
    if (!result.ok()) {
      CountLifecycleAbort(result.status());
      if (checkpoint != nullptr) {
        checkpoint->failed_node = id;
        // The run is abandoned, so the live intermediates move into the
        // checkpoint wholesale — the success path never copies a dataset.
        checkpoint->datasets = std::move(done);
      }
      RunFailureCounter().Increment();
      QUARRY_SPAN_ATTR(node_span, "error", result.status().message());
      std::string context = "node '" + id + "' (" +
                            OpTypeToString(node.type) + ")";
      if (attempts_used > 1) {
        context += " after " + std::to_string(attempts_used) + " attempts";
      }
      return result.status().WithContext(context);
    }
    if (outcome.loader.fired) {
      report.loaded[outcome.loader.table] += outcome.loader.rows;
    }

    NodeStats stats;
    stats.node_id = id;
    stats.type = node.type;
    stats.rows_in = rows_in;
    stats.rows_out = result->row_count();
    stats.millis = node_timer.ElapsedMillis();
    stats.attempts = attempts_used;
    CountNodeDone(node, stats.rows_out, node_timer.ElapsedMicros());
    QUARRY_SPAN_ATTR(node_span, "rows_in", rows_in);
    QUARRY_SPAN_ATTR(node_span, "rows_out", stats.rows_out);
    QUARRY_SPAN_ATTR(node_span, "attempts", attempts_used);
    report.rows_processed += rows_in;
    report.attempts += attempts_used;
    if (attempts_used > 1) report.retried_nodes.push_back(id);
    report.nodes.push_back(stats);
    completed.insert(id);
    for (const std::string& pred : flow.Predecessors(id)) {
      if (--remaining_consumers[pred] == 0) done.erase(pred);
    }
    if (remaining_consumers[id] > 0) {
      done.emplace(id, std::move(*result));
    }
    if (checkpoint != nullptr) {
      checkpoint->completed.push_back(id);
      checkpoint->loaded = report.loaded;
    }
  }
  report.total_millis = total.ElapsedMillis();
  report.recovered = resumed_any || !report.retried_nodes.empty();
  return report;
}

namespace {

obs::ProfileNode BuildProfileNode(const Flow& flow,
                                  const ExecutionReport& report,
                                  const std::string& id) {
  obs::ProfileNode node;
  node.id = id;
  auto flow_node = flow.GetNode(id);
  node.op = flow_node.ok() ? OpTypeToString(flow_node.value()->type) : "?";
  node.attempts = 0;  // Present in the plan, never executed this run.
  for (const NodeStats& s : report.nodes) {
    if (s.node_id == id) {
      node.rows_in = s.rows_in;
      node.rows_out = s.rows_out;
      node.wall_micros = s.millis * 1000.0;
      node.attempts = s.attempts;
      break;
    }
  }
  size_t fan_in = 0;
  for (const Edge& e : flow.edges()) fan_in += (e.to == id) ? 1 : 0;
  node.children.reserve(fan_in);
  for (const Edge& e : flow.edges()) {
    if (e.to == id) node.children.push_back(BuildProfileNode(flow, report, e.from));
  }
  return node;
}

}  // namespace

std::vector<obs::ProfileNode> BuildProfileTrees(const Flow& flow,
                                                const ExecutionReport& report) {
  // Query and refresh flows are small (typically < 20 nodes), so plain
  // linear scans over the edge vector beat any index structure: building
  // maps/sets costs dozens of allocations while a full scan is a handful of
  // short string compares. This runs on every profiled query, so its cost
  // is part of the EXPLAIN ANALYZE overhead budget
  // (BENCH_observability.json).
  auto has_successor = [&flow](const std::string& id) {
    for (const Edge& e : flow.edges()) {
      if (e.from == id) return true;
    }
    return false;
  };
  std::vector<obs::ProfileNode> roots;
  // Sinks in node-id order (stable across runs).
  for (const auto& [id, node] : flow.nodes()) {
    if (!has_successor(id)) {
      roots.push_back(BuildProfileNode(flow, report, id));
    }
  }
  return roots;
}

}  // namespace quarry::etl
