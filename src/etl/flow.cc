#include "etl/flow.h"

#include <algorithm>
#include <deque>

namespace quarry::etl {

const char* OpTypeToString(OpType type) {
  switch (type) {
    case OpType::kDatastore:
      return "Datastore";
    case OpType::kExtraction:
      return "Extraction";
    case OpType::kSelection:
      return "Selection";
    case OpType::kProjection:
      return "Projection";
    case OpType::kJoin:
      return "Join";
    case OpType::kAggregation:
      return "Aggregation";
    case OpType::kFunction:
      return "Function";
    case OpType::kSort:
      return "Sort";
    case OpType::kUnion:
      return "Union";
    case OpType::kSurrogateKey:
      return "SurrogateKey";
    case OpType::kLoader:
      return "Loader";
  }
  return "Unknown";
}

Result<OpType> OpTypeFromString(const std::string& text) {
  for (OpType t :
       {OpType::kDatastore, OpType::kExtraction, OpType::kSelection,
        OpType::kProjection, OpType::kJoin, OpType::kAggregation,
        OpType::kFunction, OpType::kSort, OpType::kUnion,
        OpType::kSurrogateKey, OpType::kLoader}) {
    if (text == OpTypeToString(t)) return t;
  }
  return Status::ParseError("unknown operator type '" + text + "'");
}

int OpArity(OpType type) {
  switch (type) {
    case OpType::kDatastore:
      return 0;
    case OpType::kJoin:
      return 2;
    case OpType::kUnion:
      return -1;
    default:
      return 1;
  }
}

std::string Node::Signature() const {
  std::string sig = OpTypeToString(type);
  for (const auto& [k, v] : params) {  // std::map: already sorted by key
    sig += "|" + k + "=" + v;
  }
  return sig;
}

Status Flow::AddNode(Node node) {
  if (node.id.empty()) return Status::InvalidArgument("node id is empty");
  if (nodes_.count(node.id) > 0) {
    return Status::AlreadyExists("node '" + node.id + "'");
  }
  nodes_.emplace(node.id, std::move(node));
  return Status::OK();
}

Status Flow::AddEdge(const std::string& from, const std::string& to) {
  if (nodes_.count(from) == 0) return Status::NotFound("node '" + from + "'");
  if (nodes_.count(to) == 0) return Status::NotFound("node '" + to + "'");
  Edge edge{from, to};
  if (std::find(edges_.begin(), edges_.end(), edge) != edges_.end()) {
    return Status::AlreadyExists("edge " + from + " -> " + to);
  }
  edges_.push_back(std::move(edge));
  return Status::OK();
}

Status Flow::RemoveNode(const std::string& id) {
  if (nodes_.erase(id) == 0) return Status::NotFound("node '" + id + "'");
  edges_.erase(std::remove_if(edges_.begin(), edges_.end(),
                              [&](const Edge& e) {
                                return e.from == id || e.to == id;
                              }),
               edges_.end());
  return Status::OK();
}

Status Flow::RemoveEdge(const std::string& from, const std::string& to) {
  Edge edge{from, to};
  auto it = std::find(edges_.begin(), edges_.end(), edge);
  if (it == edges_.end()) {
    return Status::NotFound("edge " + from + " -> " + to);
  }
  edges_.erase(it);
  return Status::OK();
}

Status Flow::ReplaceEdge(const std::string& from, const std::string& to,
                         const std::string& new_from,
                         const std::string& new_to) {
  if (nodes_.count(new_from) == 0) {
    return Status::NotFound("node '" + new_from + "'");
  }
  if (nodes_.count(new_to) == 0) {
    return Status::NotFound("node '" + new_to + "'");
  }
  Edge replacement{new_from, new_to};
  if (std::find(edges_.begin(), edges_.end(), replacement) != edges_.end()) {
    return Status::AlreadyExists("edge " + new_from + " -> " + new_to);
  }
  auto it = std::find(edges_.begin(), edges_.end(), Edge{from, to});
  if (it == edges_.end()) {
    return Status::NotFound("edge " + from + " -> " + to);
  }
  *it = std::move(replacement);
  return Status::OK();
}

Result<const Node*> Flow::GetNode(const std::string& id) const {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) return Status::NotFound("node '" + id + "'");
  return &it->second;
}

Result<Node*> Flow::GetMutableNode(const std::string& id) {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) return Status::NotFound("node '" + id + "'");
  return &it->second;
}

std::vector<std::string> Flow::Predecessors(const std::string& id) const {
  std::vector<std::string> out;
  for (const Edge& e : edges_) {
    if (e.to == id) out.push_back(e.from);
  }
  return out;
}

std::vector<std::string> Flow::Successors(const std::string& id) const {
  std::vector<std::string> out;
  for (const Edge& e : edges_) {
    if (e.from == id) out.push_back(e.to);
  }
  return out;
}

std::map<std::string, std::vector<std::string>> Flow::SuccessorLists() const {
  std::map<std::string, std::vector<std::string>> out;
  for (const auto& [id, node] : nodes_) out[id];
  for (const Edge& e : edges_) out[e.from].push_back(e.to);
  return out;
}

std::vector<std::string> Flow::SourceIds() const {
  std::vector<std::string> out;
  for (const auto& [id, node] : nodes_) {
    if (Predecessors(id).empty()) out.push_back(id);
  }
  return out;
}

std::vector<std::string> Flow::SinkIds() const {
  std::vector<std::string> out;
  for (const auto& [id, node] : nodes_) {
    if (Successors(id).empty()) out.push_back(id);
  }
  return out;
}

Result<std::vector<std::string>> Flow::TopologicalOrder() const {
  std::map<std::string, int> in_degree;
  for (const auto& [id, node] : nodes_) in_degree[id] = 0;
  for (const Edge& e : edges_) ++in_degree[e.to];
  std::deque<std::string> ready;
  for (const auto& [id, deg] : in_degree) {
    if (deg == 0) ready.push_back(id);
  }
  std::vector<std::string> order;
  while (!ready.empty()) {
    std::string id = ready.front();
    ready.pop_front();
    order.push_back(id);
    for (const std::string& next : Successors(id)) {
      if (--in_degree[next] == 0) ready.push_back(next);
    }
  }
  if (order.size() != nodes_.size()) {
    return Status::ValidationError("flow '" + name_ + "' contains a cycle");
  }
  return order;
}

Status Flow::Validate() const {
  QUARRY_ASSIGN_OR_RETURN(auto order, TopologicalOrder());
  (void)order;
  for (const auto& [id, node] : nodes_) {
    int arity = OpArity(node.type);
    size_t inputs = Predecessors(id).size();
    if (arity == -1) {
      if (inputs < 2) {
        return Status::ValidationError("node '" + id +
                                       "' (Union) needs >= 2 inputs");
      }
    } else if (inputs != static_cast<size_t>(arity)) {
      return Status::ValidationError(
          "node '" + id + "' (" + OpTypeToString(node.type) + ") has " +
          std::to_string(inputs) + " inputs, expects " +
          std::to_string(arity));
    }
    if (Successors(id).empty() && node.type != OpType::kLoader) {
      return Status::ValidationError("sink node '" + id +
                                     "' is not a Loader");
    }
    if (node.type == OpType::kLoader && !Successors(id).empty()) {
      return Status::ValidationError("Loader '" + id + "' has successors");
    }
  }
  return Status::OK();
}

Flow Flow::Clone() const {
  Flow copy(name_);
  copy.nodes_ = nodes_;
  copy.edges_ = edges_;
  return copy;
}

std::set<std::string> Flow::RequirementIds() const {
  std::set<std::string> out;
  for (const auto& [id, node] : nodes_) {
    out.insert(node.requirement_ids.begin(), node.requirement_ids.end());
  }
  return out;
}

size_t Flow::PruneRequirement(const std::string& requirement_id) {
  std::vector<std::string> to_remove;
  for (auto& [id, node] : nodes_) {
    node.requirement_ids.erase(requirement_id);
    if (node.requirement_ids.empty()) to_remove.push_back(id);
  }
  for (const std::string& id : to_remove) {
    (void)RemoveNode(id);
  }
  return to_remove.size();
}

}  // namespace quarry::etl
