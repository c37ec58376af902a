#include "ontology/ontology.h"

#include <algorithm>
#include <deque>
#include <queue>

#include "common/strings.h"
#include "fault/failpoint.h"
#include "obs/metrics.h"

namespace osrs {
namespace {

obs::Counter* ClosureEntriesCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("osrs.ontology.closure_entries");
  return counter;
}

}  // namespace

ConceptId Ontology::AddConcept(std::string name) {
  OSRS_CHECK(!finalized_);
  ConceptId id = static_cast<ConceptId>(names_.size());
  names_.push_back(std::move(name));
  parents_.emplace_back();
  children_.emplace_back();
  return id;
}

Status Ontology::ValidateId(ConceptId id) const {
  if (id < 0 || static_cast<size_t>(id) >= names_.size()) {
    return Status::InvalidArgument(
        StrFormat("concept id %d out of range [0, %zu)", id, names_.size()));
  }
  return Status::OK();
}

Status Ontology::AddEdge(ConceptId parent, ConceptId child) {
  OSRS_CHECK(!finalized_);
  OSRS_RETURN_IF_ERROR(ValidateId(parent));
  OSRS_RETURN_IF_ERROR(ValidateId(child));
  if (parent == child) {
    return Status::InvalidArgument(
        StrFormat("self-loop on concept %d (%s)", parent,
                  names_[parent].c_str()));
  }
  auto& kids = children_[parent];
  if (std::find(kids.begin(), kids.end(), child) != kids.end()) {
    return Status::OK();  // duplicate edges are harmless
  }
  kids.push_back(child);
  parents_[child].push_back(parent);
  ++num_edges_;
  return Status::OK();
}

Status Ontology::AddSynonym(ConceptId id, std::string term) {
  OSRS_CHECK(!finalized_);
  OSRS_RETURN_IF_ERROR(ValidateId(id));
  std::string key = ToLower(term);
  auto [it, inserted] = term_to_concept_.emplace(key, id);
  if (!inserted && it->second != id) {
    return Status::InvalidArgument(
        StrFormat("term '%s' already maps to concept %d", key.c_str(),
                  it->second));
  }
  return Status::OK();
}

Status Ontology::Finalize() {
  OSRS_RETURN_IF_ERROR(OSRS_FAILPOINT("osrs.ontology.finalize"));
  if (finalized_) {
    return Status::FailedPrecondition("Finalize() called twice");
  }
  if (names_.empty()) {
    return Status::FailedPrecondition("ontology has no concepts");
  }

  // Exactly one root (no parents).
  root_ = kInvalidConcept;
  for (ConceptId id = 0; id < static_cast<ConceptId>(names_.size()); ++id) {
    if (parents_[id].empty()) {
      if (root_ != kInvalidConcept) {
        return Status::FailedPrecondition(
            StrFormat("multiple roots: %d (%s) and %d (%s)", root_,
                      names_[root_].c_str(), id, names_[id].c_str()));
      }
      root_ = id;
    }
  }
  if (root_ == kInvalidConcept) {
    return Status::FailedPrecondition("no root concept (cycle through all)");
  }

  // Kahn's algorithm: topological order + cycle detection.
  std::vector<int> remaining_parents(names_.size());
  for (size_t i = 0; i < names_.size(); ++i) {
    remaining_parents[i] = static_cast<int>(parents_[i].size());
  }
  std::deque<ConceptId> frontier{root_};
  topo_order_.clear();
  topo_order_.reserve(names_.size());
  while (!frontier.empty()) {
    ConceptId c = frontier.front();
    frontier.pop_front();
    topo_order_.push_back(c);
    for (ConceptId child : children_[c]) {
      if (--remaining_parents[child] == 0) frontier.push_back(child);
    }
  }
  if (topo_order_.size() != names_.size()) {
    return Status::FailedPrecondition(StrFormat(
        "graph has a cycle or unreachable concepts (%zu of %zu ordered)",
        topo_order_.size(), names_.size()));
  }

  // Shortest root→c distances via BFS (edges have unit length).
  depth_from_root_.assign(names_.size(), -1);
  depth_from_root_[root_] = 0;
  std::deque<ConceptId> bfs{root_};
  max_depth_ = 0;
  while (!bfs.empty()) {
    ConceptId c = bfs.front();
    bfs.pop_front();
    for (ConceptId child : children_[c]) {
      if (depth_from_root_[child] == -1) {
        depth_from_root_[child] = depth_from_root_[c] + 1;
        max_depth_ = std::max(max_depth_, depth_from_root_[child]);
        bfs.push_back(child);
      }
    }
  }

  // Transitive ancestor closure with shortest hop distances, flattened to
  // CSR. A DP over the topological order (parents complete before their
  // children): closure(c) = {(c, 0)} ∪ min-merge over parents p of
  // {(a, d + 1) : (a, d) ∈ closure(p)}. The `best` scratch dedupes shared
  // ancestors of multi-parent diamonds keeping the minimum distance.
  {
    std::vector<std::vector<AncestorEntry>> closure(names_.size());
    std::vector<int32_t> best(names_.size(), -1);
    std::vector<ConceptId> touched;
    for (ConceptId c : topo_order_) {
      best[static_cast<size_t>(c)] = 0;
      touched.push_back(c);
      for (ConceptId parent : parents_[static_cast<size_t>(c)]) {
        for (const AncestorEntry& entry :
             closure[static_cast<size_t>(parent)]) {
          int32_t via_parent = entry.distance + 1;
          int32_t& slot = best[static_cast<size_t>(entry.concept_id)];
          if (slot < 0) {
            slot = via_parent;
            touched.push_back(entry.concept_id);
          } else if (via_parent < slot) {
            slot = via_parent;
          }
        }
      }
      auto& mine = closure[static_cast<size_t>(c)];
      mine.reserve(touched.size());
      for (ConceptId ancestor : touched) {
        int32_t& slot = best[static_cast<size_t>(ancestor)];
        mine.push_back({ancestor, slot});
        slot = -1;  // reset the scratch for the next concept
      }
      touched.clear();
      std::sort(mine.begin(), mine.end(),
                [](const AncestorEntry& a, const AncestorEntry& b) {
                  return a.distance != b.distance ? a.distance < b.distance
                                                  : a.concept_id < b.concept_id;
                });
    }
    size_t total_entries = 0;
    max_ancestor_distance_ = 0;
    for (const auto& entries : closure) {
      total_entries += entries.size();
      // Each concept's entries are sorted by distance, so the last is its
      // farthest ancestor.
      if (!entries.empty()) {
        max_ancestor_distance_ =
            std::max(max_ancestor_distance_, entries.back().distance);
      }
    }
    closure_offsets_.assign(names_.size() + 1, 0);
    closure_entries_.clear();
    closure_entries_.reserve(total_entries);
    for (size_t id = 0; id < names_.size(); ++id) {
      closure_entries_.insert(closure_entries_.end(), closure[id].begin(),
                              closure[id].end());
      closure_offsets_[id + 1] = closure_entries_.size();
    }
    ClosureEntriesCounter()->Add(static_cast<int64_t>(total_entries));
  }

  finalized_ = true;
  return Status::OK();
}

ConceptId Ontology::root() const {
  OSRS_CHECK(finalized_);
  return root_;
}

const std::string& Ontology::name(ConceptId id) const {
  OSRS_CHECK(ValidateId(id).ok());
  return names_[id];
}

const std::vector<ConceptId>& Ontology::parents(ConceptId id) const {
  OSRS_CHECK(ValidateId(id).ok());
  return parents_[id];
}

const std::vector<ConceptId>& Ontology::children(ConceptId id) const {
  OSRS_CHECK(ValidateId(id).ok());
  return children_[id];
}

bool Ontology::IsAncestorOrSelf(ConceptId ancestor,
                                ConceptId descendant) const {
  return AncestorDistance(ancestor, descendant) >= 0;
}

int Ontology::AncestorDistance(ConceptId ancestor, ConceptId descendant) const {
  OSRS_CHECK(finalized_);
  OSRS_CHECK(ValidateId(ancestor).ok());
  OSRS_CHECK(ValidateId(descendant).ok());
  if (ancestor == descendant) return 0;
  if (ancestor == root_) return depth_from_root_[descendant];
  // Ancestor sets are small (see AverageAncestorCount), so a scan of the
  // precomputed closure span beats any per-call traversal.
  for (const AncestorEntry& entry : AncestorsOf(descendant)) {
    if (entry.concept_id == ancestor) return entry.distance;
  }
  return -1;
}

std::span<const AncestorEntry> Ontology::AncestorsOf(ConceptId id) const {
  OSRS_CHECK(finalized_);
  OSRS_CHECK(ValidateId(id).ok());
  return {closure_entries_.data() + closure_offsets_[static_cast<size_t>(id)],
          closure_offsets_[static_cast<size_t>(id) + 1] -
              closure_offsets_[static_cast<size_t>(id)]};
}

std::vector<std::pair<ConceptId, int>> Ontology::AncestorsWithDistance(
    ConceptId id) const {
  std::vector<std::pair<ConceptId, int>> result;
  std::span<const AncestorEntry> entries = AncestorsOf(id);
  result.reserve(entries.size());
  for (const AncestorEntry& entry : entries) {
    result.emplace_back(entry.concept_id, entry.distance);
  }
  return result;
}

int Ontology::DepthFromRoot(ConceptId id) const {
  OSRS_CHECK(finalized_);
  OSRS_CHECK(ValidateId(id).ok());
  return depth_from_root_[id];
}

double Ontology::AverageAncestorCount() const {
  OSRS_CHECK(finalized_);
  return static_cast<double>(closure_entries_.size()) /
         static_cast<double>(names_.size());
}

std::vector<ConceptId> Ontology::DescendantsOf(ConceptId id) const {
  OSRS_CHECK(finalized_);
  OSRS_CHECK(ValidateId(id).ok());
  std::vector<ConceptId> result{id};
  std::vector<bool> seen(names_.size(), false);
  seen[static_cast<size_t>(id)] = true;
  std::deque<ConceptId> frontier{id};
  while (!frontier.empty()) {
    ConceptId c = frontier.front();
    frontier.pop_front();
    for (ConceptId child : children_[static_cast<size_t>(c)]) {
      if (!seen[static_cast<size_t>(child)]) {
        seen[static_cast<size_t>(child)] = true;
        result.push_back(child);
        frontier.push_back(child);
      }
    }
  }
  return result;
}

size_t Ontology::SubtreeSize(ConceptId id) const {
  return DescendantsOf(id).size();
}

ConceptId Ontology::FindByName(std::string_view name) const {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<ConceptId>(i);
  }
  return kInvalidConcept;
}

ConceptId Ontology::FindByTerm(std::string_view term) const {
  auto it = term_to_concept_.find(ToLower(term));
  return it == term_to_concept_.end() ? kInvalidConcept : it->second;
}

const std::vector<ConceptId>& Ontology::topological_order() const {
  OSRS_CHECK(finalized_);
  return topo_order_;
}

std::string Ontology::Serialize() const {
  std::string out = "# osrs-ontology v1\n";
  for (size_t i = 0; i < names_.size(); ++i) {
    out += StrFormat("C\t%zu\t", i);
    out += names_[i];
    out += '\n';
  }
  for (size_t i = 0; i < names_.size(); ++i) {
    for (ConceptId child : children_[i]) {
      out += StrFormat("E\t%zu\t%d\n", i, child);
    }
  }
  // Deterministic synonym order for round-trip stability.
  std::vector<std::pair<std::string, ConceptId>> terms(
      term_to_concept_.begin(), term_to_concept_.end());
  std::sort(terms.begin(), terms.end());
  for (const auto& [term, id] : terms) {
    out += StrFormat("S\t%d\t", id);
    out += term;
    out += '\n';
  }
  return out;
}

Result<Ontology> Ontology::Deserialize(std::string_view text) {
  Ontology onto;
  for (const std::string& raw_line : Split(text, '\n')) {
    std::string_view line = Trim(raw_line);
    if (line.empty() || line[0] == '#') continue;
    std::vector<std::string> fields = Split(line, '\t');
    if (fields.size() != 3) {
      return Status::InvalidArgument(
          StrFormat("malformed line: '%s'", std::string(line).c_str()));
    }
    const std::string& kind = fields[0];
    if (kind == "C") {
      ConceptId id = onto.AddConcept(fields[2]);
      if (std::to_string(id) != fields[1]) {
        return Status::InvalidArgument(
            StrFormat("non-sequential concept id '%s'", fields[1].c_str()));
      }
    } else if (kind == "E") {
      int64_t parent = 0, child = 0;
      if (!ParseInt64(fields[1], &parent) || !ParseInt64(fields[2], &child)) {
        return Status::InvalidArgument(
            StrFormat("malformed edge '%s'", std::string(line).c_str()));
      }
      OSRS_RETURN_IF_ERROR(onto.AddEdge(static_cast<ConceptId>(parent),
                                        static_cast<ConceptId>(child)));
    } else if (kind == "S") {
      int64_t id = 0;
      if (!ParseInt64(fields[1], &id)) {
        return Status::InvalidArgument(
            StrFormat("malformed synonym id '%s'", fields[1].c_str()));
      }
      if (id < 0 || id >= static_cast<int64_t>(onto.names_.size())) {
        return Status::InvalidArgument(
            StrFormat("synonym references unknown concept %lld",
                      static_cast<long long>(id)));
      }
      OSRS_RETURN_IF_ERROR(
          onto.AddSynonym(static_cast<ConceptId>(id), fields[2]));
    } else {
      return Status::InvalidArgument(
          StrFormat("unknown record kind '%s'", kind.c_str()));
    }
  }
  OSRS_RETURN_IF_ERROR(onto.Finalize());
  return onto;
}

std::string Ontology::ToTreeString(int max_depth) const {
  OSRS_CHECK(finalized_);
  std::string out;
  // DFS over the *first-parent* spanning tree so shared subtrees (DAG
  // diamonds) print once under their first parent and as "(+)" elsewhere.
  std::vector<bool> printed(names_.size(), false);
  struct Frame {
    ConceptId id;
    int depth;
  };
  std::vector<Frame> stack{{root(), 0}};
  while (!stack.empty()) {
    Frame frame = stack.back();
    stack.pop_back();
    out += std::string(static_cast<size_t>(frame.depth) * 2, ' ');
    out += names_[frame.id];
    if (printed[frame.id]) {
      out += " (+)\n";
      continue;
    }
    out += '\n';
    printed[frame.id] = true;
    if (frame.depth >= max_depth) continue;
    const auto& kids = children_[frame.id];
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
      stack.push_back({*it, frame.depth + 1});
    }
  }
  return out;
}

}  // namespace osrs
