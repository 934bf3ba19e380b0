#include "etl/equivalence.h"

#include <algorithm>
#include <set>

#include "etl/expr.h"

namespace quarry::etl {

namespace {

bool Covers(const std::vector<std::string>& columns,
            const std::set<std::string>& needed) {
  for (const std::string& c : needed) {
    if (std::find(columns.begin(), columns.end(), c) == columns.end()) {
      return false;
    }
  }
  return true;
}

/// Detaches unary node `id` from the graph (predecessor is wired to all
/// successors, each keeping its edge position); the node stays in the flow
/// with no edges.
Status Detach(Flow* flow, const std::string& id) {
  std::vector<std::string> preds = flow->Predecessors(id);
  std::vector<std::string> succs = flow->Successors(id);
  if (preds.size() != 1) {
    return Status::Internal("Detach expects a single-input node");
  }
  QUARRY_RETURN_NOT_OK(flow->RemoveEdge(preds[0], id));
  for (const std::string& succ : succs) {
    // Keep the successor's input position (joins are order-sensitive).
    QUARRY_RETURN_NOT_OK(flow->ReplaceEdge(id, succ, preds[0], succ));
  }
  return Status::OK();
}

/// Inserts detached unary node `id` on the edge from -> to, preserving the
/// position of `to`'s input.
Status InsertOnEdge(Flow* flow, const std::string& id, const std::string& from,
                    const std::string& to) {
  QUARRY_RETURN_NOT_OK(flow->ReplaceEdge(from, to, id, to));
  QUARRY_RETURN_NOT_OK(flow->AddEdge(from, id));
  return Status::OK();
}

}  // namespace

Result<bool> PushSelectionDown(Flow* flow, const TableColumns& sources) {
  QUARRY_ASSIGN_OR_RETURN(auto columns, InferColumns(*flow, sources));
  for (const auto& [id, node] : flow->nodes()) {
    if (node.type != OpType::kSelection) continue;
    std::vector<std::string> preds = flow->Predecessors(id);
    if (preds.size() != 1) continue;
    const std::string& upstream_id = preds[0];
    const Node& upstream = *flow->GetNode(upstream_id).value();
    // Only safe when the selection is the upstream's sole consumer.
    if (flow->Successors(upstream_id).size() != 1) continue;
    auto pred_it = node.params.find("predicate");
    if (pred_it == node.params.end()) continue;
    auto parsed = ParseExpr(pred_it->second);
    if (!parsed.ok()) return parsed.status();
    std::set<std::string> needed = (*parsed)->ReferencedColumns();

    if (upstream.type == OpType::kJoin) {
      std::vector<std::string> join_inputs = flow->Predecessors(upstream_id);
      if (join_inputs.size() != 2) continue;
      for (const std::string& side : join_inputs) {
        if (!Covers(columns.at(side), needed)) continue;
        QUARRY_RETURN_NOT_OK(Detach(flow, id));
        QUARRY_RETURN_NOT_OK(InsertOnEdge(flow, id, side, upstream_id));
        return true;
      }
      continue;
    }

    bool swappable_unary =
        upstream.type == OpType::kFunction || upstream.type == OpType::kSort ||
        upstream.type == OpType::kSurrogateKey ||
        upstream.type == OpType::kProjection;
    if (!swappable_unary) continue;
    std::vector<std::string> upstream_preds = flow->Predecessors(upstream_id);
    if (upstream_preds.size() != 1) continue;
    // The predicate must be evaluable on the upstream's *input* columns
    // (e.g. it must not reference a Function's derived column).
    if (!Covers(columns.at(upstream_preds[0]), needed)) continue;
    QUARRY_RETURN_NOT_OK(Detach(flow, id));
    QUARRY_RETURN_NOT_OK(
        InsertOnEdge(flow, id, upstream_preds[0], upstream_id));
    return true;
  }
  return false;
}

Result<bool> CanonicalizeSelectionOrder(Flow* flow) {
  for (const auto& [id, node] : flow->nodes()) {
    if (node.type != OpType::kSelection) continue;
    std::vector<std::string> preds = flow->Predecessors(id);
    if (preds.size() != 1) continue;
    const std::string& upstream_id = preds[0];
    Node* upstream = *flow->GetMutableNode(upstream_id);
    if (upstream->type != OpType::kSelection) continue;
    if (flow->Successors(upstream_id).size() != 1) continue;
    if (node.params.count("predicate") == 0 ||
        upstream->params.count("predicate") == 0) {
      continue;
    }
    const std::string& p_down = node.params.at("predicate");
    const std::string& p_up = upstream->params.at("predicate");
    if (p_down < p_up) {
      // Swap the predicates (and traces follow the predicates, so swap
      // those too): cheaper than rewiring and preserves node ids' roles.
      Node* down = *flow->GetMutableNode(id);
      std::swap(down->params.at("predicate"), upstream->params.at("predicate"));
      std::swap(down->requirement_ids, upstream->requirement_ids);
      return true;
    }
  }
  return false;
}

Result<bool> RemoveRedundantProjection(Flow* flow,
                                       const TableColumns& sources) {
  QUARRY_ASSIGN_OR_RETURN(auto columns, InferColumns(*flow, sources));
  for (const auto& [id, node] : flow->nodes()) {
    if (node.type != OpType::kProjection) continue;
    std::vector<std::string> preds = flow->Predecessors(id);
    if (preds.size() != 1) continue;
    if (columns.at(id) != columns.at(preds[0])) continue;
    const std::string doomed = id;
    QUARRY_RETURN_NOT_OK(Detach(flow, doomed));
    QUARRY_RETURN_NOT_OK(flow->RemoveNode(doomed));
    return true;
  }
  return false;
}

Result<int> Normalize(Flow* flow, const TableColumns& sources) {
  int rewrites = 0;
  const int kMaxRewrites = 10'000;  // Defensive bound; rules terminate.
  while (rewrites < kMaxRewrites) {
    QUARRY_ASSIGN_OR_RETURN(bool pushed, PushSelectionDown(flow, sources));
    if (pushed) {
      ++rewrites;
      continue;
    }
    QUARRY_ASSIGN_OR_RETURN(bool reordered, CanonicalizeSelectionOrder(flow));
    if (reordered) {
      ++rewrites;
      continue;
    }
    QUARRY_ASSIGN_OR_RETURN(bool pruned,
                            RemoveRedundantProjection(flow, sources));
    if (pruned) {
      ++rewrites;
      continue;
    }
    break;
  }
  return rewrites;
}

}  // namespace quarry::etl
