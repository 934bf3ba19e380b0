#include "etl/exec/executor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
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

obs::Counter& RunCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Instance().counter(
      "quarry_etl_runs_total", "ETL flow executions started");
  return c;
}

obs::Counter& ResumeCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Instance().counter(
      "quarry_etl_resumes_total",
      "ETL flow executions resumed from a checkpoint");
  return c;
}

/// Node id -> Node::Signature(): with the edges, the shape a checkpoint
/// records and Resume compares.
std::map<std::string, std::string> NodeSignatures(const Flow& flow) {
  std::map<std::string, std::string> out;
  for (const auto& [id, node] : flow.nodes()) {
    out.emplace(id, node.Signature());
  }
  return out;
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
    const LiveColumns& live, const RetryPolicy& retry, const ExecContext* ctx,
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
    out.result = RunNode(node, inputs, live, &effect, ctx, options);
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
  // Touch the resume family so it exposes as zero from the first run; the
  // scheduler registers the failure, retry and abort families.
  ResumeCounter();
  if (resume) ResumeCounter().Increment();
  Timer total;

  if (resume) {
    if (checkpoint == nullptr || !checkpoint->valid) {
      return Status::InvalidArgument("Resume requires a valid checkpoint");
    }
    if (checkpoint->flow_name != flow.name()) {
      return Status::InvalidArgument("checkpoint belongs to flow '" +
                                     checkpoint->flow_name + "', not '" +
                                     flow.name() + "'");
    }
    if (checkpoint->edges != flow.edges() ||
        checkpoint->signatures != NodeSignatures(flow)) {
      return Status::InvalidArgument(
          "checkpoint of flow '" + flow.name() +
          "' was taken on a flow of another shape (nodes, params or edges)");
    }
  } else if (checkpoint != nullptr) {
    *checkpoint = Checkpoint{};
    checkpoint->flow_name = flow.name();
    checkpoint->signatures = NodeSignatures(flow);
    checkpoint->edges = flow.edges();
  }
  const bool resumed_any = resume && !checkpoint->completed.empty();
  if (checkpoint != nullptr) {
    checkpoint->failed_node.clear();
    checkpoint->valid = true;
  }

  // Column liveness (DESIGN.md §8): the output columns each node's
  // consumers may read. It depends on the flow alone, so a Resume
  // recomputes the sets the checkpointed intermediates were built with.
  const std::map<std::string, LiveColumns> live = LiveColumnsOf(flow, order);

  // The wavefront scheduler walks every run. When source and target alias,
  // a loader write would race the datastore reads of concurrent siblings,
  // so such runs get one worker.
  Scheduler scheduler(this, options,
                      source_ == target_ ? 1 : options.max_workers);
  QUARRY_ASSIGN_OR_RETURN(
      ExecutionReport report,
      scheduler.Run(flow, order, live, retry, checkpoint, ctx));
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
