#include "core/reduction.h"

#include <vector>

#include "common/logging.h"
#include "common/strings.h"
#include "obs/trace.h"

namespace osrs {

KPairsReduction BuildKPairsReduction(const SetCoverInstance& instance) {
  obs::TraceSpan build_span(obs::SpanKind::kReductionBuild);
  OSRS_CHECK_GT(instance.universe_size, 0);
  OSRS_CHECK(!instance.sets.empty());
  OSRS_CHECK_GE(instance.k, 1);
  const int m = static_cast<int>(instance.sets.size());
  const int n = instance.universe_size;

  KPairsReduction out;
  Ontology& onto = out.ontology;
  ConceptId root = onto.AddConcept("r");

  out.c_nodes.reserve(m);
  out.e_nodes.reserve(m);
  for (int i = 0; i < m; ++i) {
    ConceptId ci = onto.AddConcept(StrFormat("c%d", i));
    ConceptId ei = onto.AddConcept(StrFormat("e%d", i));
    OSRS_CHECK(onto.AddEdge(root, ci).ok());
    OSRS_CHECK(onto.AddEdge(ci, ei).ok());
    out.c_nodes.push_back(ci);
    out.e_nodes.push_back(ei);
  }
  out.d_nodes.reserve(n);
  for (int j = 0; j < n; ++j) {
    out.d_nodes.push_back(onto.AddConcept(StrFormat("d%d", j)));
  }
  for (int i = 0; i < m; ++i) {
    for (int element : instance.sets[i]) {
      OSRS_CHECK_MSG(element >= 0 && element < n,
                     "element " << element << " outside universe");
      OSRS_CHECK(onto.AddEdge(out.c_nodes[i], out.d_nodes[element]).ok());
    }
  }
  // Every universe element must appear in some set, else the reduction DAG
  // leaves d_j unreachable (and the Set Cover instance is trivially "no").
  OSRS_CHECK_MSG(onto.Finalize().ok(),
                 "reduction DAG invalid — some element in no set?");

  // One pair per non-root node, all with sentiment 0 (2m + n pairs).
  out.pairs.reserve(static_cast<size_t>(2 * m + n));
  out.set_pair_index.reserve(m);
  for (int i = 0; i < m; ++i) {
    out.set_pair_index.push_back(static_cast<int>(out.pairs.size()));
    out.pairs.push_back({out.c_nodes[i], 0.0});
    out.pairs.push_back({out.e_nodes[i], 0.0});
  }
  for (int j = 0; j < n; ++j) {
    out.pairs.push_back({out.d_nodes[j], 0.0});
  }

  out.k = instance.k;
  out.target = 3.0 * m + n - 2.0 * instance.k;
  return out;
}

bool IsSetCover(const SetCoverInstance& instance,
                const std::vector<int>& chosen_sets) {
  std::vector<bool> covered(static_cast<size_t>(instance.universe_size),
                            false);
  for (int set_index : chosen_sets) {
    if (set_index < 0 ||
        set_index >= static_cast<int>(instance.sets.size())) {
      return false;
    }
    for (int element : instance.sets[static_cast<size_t>(set_index)]) {
      covered[static_cast<size_t>(element)] = true;
    }
  }
  for (bool c : covered) {
    if (!c) return false;
  }
  return true;
}

}  // namespace osrs
