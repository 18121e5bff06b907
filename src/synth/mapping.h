// Synthesized mapping relationships: the final output of the pipeline. One
// mapping is the union of the value pairs of the (conflict-resolved) tables
// in one partition, with provenance statistics used for curation ranking
// (Section 4.3: number of contributing web domains / raw tables correlates
// with mapping importance).
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "table/binary_table.h"
#include "table/string_pool.h"

namespace ms {

/// One synthesized mapping relationship, ready for human curation.
struct SynthesizedMapping {
  /// Union of all kept tables' pairs (sorted, distinct).
  BinaryTable merged;
  /// Candidate-table ids in the original partition.
  std::vector<BinaryTableId> member_tables;
  /// Subset surviving conflict resolution.
  std::vector<BinaryTableId> kept_tables;
  /// Distinct web domains contributing to kept tables (curation signal).
  size_t num_domains = 0;
  /// Most frequent (left_name, right_name) headers among kept tables; a
  /// cheap human-readable label such as "country -> code".
  std::string left_label;
  std::string right_label;

  size_t size() const { return merged.size(); }

  /// Distinct left-hand entities (synonym-free count approximation).
  size_t NumLeftValues() const { return merged.LeftValues().size(); }
  size_t NumRightValues() const { return merged.RightValues().size(); }

  /// Synonym fan-in: average number of left mentions per right value; > 1
  /// indicates the synonym coverage of Table 6 (many names -> one code).
  double LeftPerRight() const {
    size_t r = NumRightValues();
    return r == 0 ? 0.0
                  : static_cast<double>(NumLeftValues()) /
                        static_cast<double>(r);
  }
};

/// Builds one mapping from a partition. `tables` are the partition members;
/// `kept` indexes into `tables` (conflict-resolution survivors).
SynthesizedMapping BuildMapping(const std::vector<const BinaryTable*>& tables,
                                const std::vector<size_t>& kept);

/// The output order of a family's mappings, the one comparator both
/// FilterByPopularity and MergeByPopularity rank by: domains desc, size
/// desc, then the cold order of each mapping's first member, (order[id],
/// id) with `order` the family's ScoredGraph::order (empty: id order).
/// Members are listed in cold order and no candidate belongs to two
/// mappings, so the order is total: it does not depend on the threads that
/// built the family, and a maintained family ranks like its cold rebuild.
class PopularityGreater {
 public:
  explicit PopularityGreater(const std::vector<uint32_t>& order)
      : order_(order) {}
  bool operator()(const SynthesizedMapping& a,
                  const SynthesizedMapping& b) const;

 private:
  const std::vector<uint32_t>& order_;
};

/// Curation-oriented filtering: keep mappings contributed by at least
/// `min_domains` distinct domains and at least `min_pairs` value pairs
/// (Section 4.3 uses >= 8 independent web domains), ranked by
/// PopularityGreater over the family's cold `order`.
std::vector<SynthesizedMapping> FilterByPopularity(
    std::vector<SynthesizedMapping> mappings, size_t min_domains,
    size_t min_pairs, const std::vector<uint32_t>& order = {});

/// FilterByPopularity over `fresh` and copies of `carried`: mappings that
/// an earlier result holds, normally already in rank order under the same
/// `order`. The carried run is filtered and checked in one pass, sorted
/// only when it is out of order (ranked under an older tie rule), and
/// merged with the ranked fresh mappings. The order is total, so the result
/// equals FilterByPopularity over both.
std::vector<SynthesizedMapping> MergeByPopularity(
    std::vector<const SynthesizedMapping*> carried,
    std::vector<SynthesizedMapping> fresh, size_t min_domains,
    size_t min_pairs, const std::vector<uint32_t>& order);

}  // namespace ms
