#ifndef OSRS_ONTOLOGY_ONTOLOGY_H_
#define OSRS_ONTOLOGY_ONTOLOGY_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"

namespace osrs {

/// Dense identifier of a concept within one Ontology instance.
using ConceptId = int32_t;

/// Sentinel for "no such concept".
inline constexpr ConceptId kInvalidConcept = -1;

/// One record of the precomputed ancestor closure: an ancestor (or the
/// concept itself at distance 0) together with the shortest upward hop
/// distance to it.
struct AncestorEntry {
  ConceptId concept_id;
  int32_t distance;
};

/// A rooted DAG of domain concepts (the paper's aspect hierarchy, §2).
///
/// Concepts are added with AddConcept, directed parent→child edges with
/// AddEdge, and optional surface-form synonyms (used by the dictionary
/// extractor, the MetaMap stand-in) with AddSynonym. After construction the
/// ontology must be Finalize()d, which validates that the graph is a DAG
/// with exactly one root and precomputes shortest root distances. All query
/// methods require a finalized ontology.
///
/// Distances follow the paper: d(c1, c2) is the length of the shortest
/// directed path from ancestor c1 down to descendant c2 (Definition 1).
class Ontology {
 public:
  Ontology() = default;

  // Copyable and movable: a finalized ontology is an immutable value object
  // shared by corpora and solvers.
  Ontology(const Ontology&) = default;
  Ontology& operator=(const Ontology&) = default;
  Ontology(Ontology&&) = default;
  Ontology& operator=(Ontology&&) = default;

  // -- Construction ---------------------------------------------------------

  /// Adds a concept and returns its id. Names need not be unique, but
  /// FindByName returns the first match.
  ConceptId AddConcept(std::string name);

  /// Adds a directed edge parent→child. Fails on out-of-range ids or
  /// self-loops; duplicate edges are ignored.
  Status AddEdge(ConceptId parent, ConceptId child);

  /// Registers a lowercase surface form for concept `id` (e.g. "battery
  /// life"). The same term may map to only one concept; re-registration for
  /// a different concept fails.
  Status AddSynonym(ConceptId id, std::string term);

  /// Validates the structure (single root, acyclic, all concepts reachable
  /// from the root) and precomputes depths. Must be called exactly once
  /// before any query.
  Status Finalize();

  bool finalized() const { return finalized_; }

  // -- Queries (require finalized()) ----------------------------------------

  size_t num_concepts() const { return names_.size(); }
  size_t num_edges() const { return num_edges_; }

  /// The unique concept with no parents.
  ConceptId root() const;

  const std::string& name(ConceptId id) const;
  const std::vector<ConceptId>& parents(ConceptId id) const;
  const std::vector<ConceptId>& children(ConceptId id) const;

  /// True iff `ancestor` is `descendant` itself or lies on some directed
  /// path to it.
  bool IsAncestorOrSelf(ConceptId ancestor, ConceptId descendant) const;

  /// Shortest directed path length from `ancestor` down to `descendant`;
  /// 0 when equal, -1 when `ancestor` is not an ancestor-or-self.
  int AncestorDistance(ConceptId ancestor, ConceptId descendant) const;

  /// All ancestors of `id` (including itself at distance 0) with their
  /// shortest upward distances, sorted by (distance, concept id) — so
  /// non-decreasing distance, like a deterministic BFS. This is the inner
  /// loop of the §4.1 initialization: it is a span into the transitive
  /// closure precomputed at Finalize(), so a call does no traversal,
  /// hashing, or allocation.
  std::span<const AncestorEntry> AncestorsOf(ConceptId id) const;

  /// Copying variant of AncestorsOf kept for call sites that want to own
  /// the result; same contents and ordering.
  std::vector<std::pair<ConceptId, int>> AncestorsWithDistance(
      ConceptId id) const;

  /// Shortest distance from the root, precomputed at Finalize().
  int DepthFromRoot(ConceptId id) const;

  /// Maximum DepthFromRoot over all concepts (the Δ of Theorem 4).
  int max_depth() const { return max_depth_; }

  /// Largest distance in the ancestor closure: the longest shortest path
  /// from any ancestor down to any descendant, precomputed at Finalize().
  /// In a DAG it can exceed max_depth(): a concept hanging right under the
  /// root may also sit at the end of a long chain through another parent.
  int max_ancestor_distance() const { return max_ancestor_distance_; }

  /// Mean number of ancestors (incl. self) per concept; the §4.1 linearity
  /// claim rests on this being small. O(1): derived from the closure CSR
  /// degrees.
  double AverageAncestorCount() const;

  /// All descendants of `id` (including itself), in BFS order. The set of
  /// concepts a summary pair on `id` can possibly cover.
  std::vector<ConceptId> DescendantsOf(ConceptId id) const;

  /// Number of descendants including self.
  size_t SubtreeSize(ConceptId id) const;

  /// True when `id` has no children.
  bool IsLeaf(ConceptId id) const { return children(id).empty(); }

  /// First concept whose name equals `name`, or kInvalidConcept.
  ConceptId FindByName(std::string_view name) const;

  /// Concept registered for the lowercase surface form `term`, or
  /// kInvalidConcept.
  ConceptId FindByTerm(std::string_view term) const;

  /// All registered (term, concept) entries; feed for the dictionary
  /// extractor.
  const std::unordered_map<std::string, ConceptId>& term_lexicon() const {
    return term_to_concept_;
  }

  /// Concepts in a topological order (parents before children).
  const std::vector<ConceptId>& topological_order() const;

  // -- Serialization --------------------------------------------------------

  /// Text serialization (line-oriented, tab-separated). Round-trips through
  /// Deserialize.
  std::string Serialize() const;

  /// Parses the Serialize() format and finalizes the result.
  static Result<Ontology> Deserialize(std::string_view text);

  /// Multi-line indented rendering of the hierarchy (used to print Fig. 3).
  std::string ToTreeString(int max_depth = 10) const;

 private:
  Status ValidateId(ConceptId id) const;

  bool finalized_ = false;
  size_t num_edges_ = 0;
  std::vector<std::string> names_;
  std::vector<std::vector<ConceptId>> parents_;
  std::vector<std::vector<ConceptId>> children_;
  std::unordered_map<std::string, ConceptId> term_to_concept_;
  ConceptId root_ = kInvalidConcept;
  std::vector<int> depth_from_root_;
  int max_depth_ = 0;
  int max_ancestor_distance_ = 0;
  std::vector<ConceptId> topo_order_;
  // Transitive ancestor closure in CSR form, filled at Finalize():
  // closure_entries_[closure_offsets_[id] .. closure_offsets_[id + 1])
  // holds every ancestor-or-self of `id` with its shortest hop distance,
  // sorted by (distance, concept id).
  std::vector<size_t> closure_offsets_;
  std::vector<AncestorEntry> closure_entries_;
};

}  // namespace osrs

#endif  // OSRS_ONTOLOGY_ONTOLOGY_H_
