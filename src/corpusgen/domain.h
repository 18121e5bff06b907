// Ground-truth relationship specifications used by the corpus generator.
//
// A RelationshipSpec describes one conceptual mapping relationship M(X, Y)
// (Definition 1): its entities, the synonymous surface forms of each left
// entity (the paper's Table 6 phenomenon), typical column headers (often
// deliberately generic — "name", "code" — which is what defeats
// column-name-based union baselines), and generation knobs such as
// popularity. The generator samples web/enterprise tables from these specs;
// the benchmark derives exact ground truth from them.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace ms {

/// One left-hand entity of a relationship with all its surface forms.
struct EntitySpec {
  /// Surface forms of the entity; the first is canonical (used by Wiki/KB
  /// style sources that carry exactly one mention per entity).
  std::vector<std::string> left_forms;
  /// The single right-hand value this entity maps to.
  std::string right;
};

/// How a relationship behaves over time — drives the Appendix J triage
/// (static vs temporal vs meaningless shares of top clusters).
enum class RelationKind {
  kStatic = 0,   ///< country->code, element->symbol, ...
  kTemporal,     ///< driver->team, club->points, ...
  kMeaningless,  ///< formatting artifacts (month->month calendars)
};

/// One conceptual mapping relationship plus generation knobs.
struct RelationshipSpec {
  std::string name;          ///< unique id, e.g. "country_iso3"
  std::string left_header;   ///< typical header of the left column
  std::string right_header;  ///< typical header of the right column
  /// Alternative generic headers the generator substitutes with some
  /// probability ("name", "code"), emulating undescriptive web headers.
  std::vector<std::string> generic_left_headers;
  std::vector<std::string> generic_right_headers;

  std::vector<EntitySpec> entities;

  RelationKind kind = RelationKind::kStatic;
  bool one_to_one = true;  ///< Table 1 style vs Table 2 (N:1) style

  /// How many web tables the generator derives from this relationship.
  size_t popularity = 24;
  /// Whether a comprehensive Wikipedia-style table exists for it.
  bool has_wiki_table = true;
  /// Whether Freebase / YAGO cover this relation (canonical forms only).
  bool in_freebase = true;
  bool in_yago = false;
  /// Whether a trusted (data.gov-style) full feed exists for expansion.
  bool has_trusted_feed = false;

  /// Conflicting sibling relations: names of other specs sharing left
  /// entities but mapping them to different rights (ISO vs IOC vs FIFA).
  /// Informational; the conflict arises naturally from shared left forms.
  std::vector<std::string> sibling_relations;

  size_t num_entities() const { return entities.size(); }
};

}  // namespace ms
