#include "synth/mapping.h"

#include <algorithm>
#include <cstdint>
#include <unordered_set>
#include <utility>

namespace ms {

SynthesizedMapping BuildMapping(const std::vector<const BinaryTable*>& tables,
                                const std::vector<size_t>& kept) {
  SynthesizedMapping m;
  std::vector<ValuePair> all;
  std::unordered_set<std::string> domains;
  std::unordered_map<std::string, size_t> left_names, right_names;

  for (const auto* t : tables) m.member_tables.push_back(t->id);
  for (size_t idx : kept) {
    const BinaryTable* t = tables[idx];
    m.kept_tables.push_back(t->id);
    all.insert(all.end(), t->pairs().begin(), t->pairs().end());
    if (!t->domain.empty()) domains.insert(t->domain);
    if (!t->left_name.empty()) left_names[t->left_name] += 1;
    if (!t->right_name.empty()) right_names[t->right_name] += 1;
  }
  m.merged = BinaryTable::FromPairs(std::move(all));
  m.num_domains = domains.size();

  auto most_frequent = [](const std::unordered_map<std::string, size_t>& mp) {
    std::string best;
    size_t best_count = 0;
    for (const auto& [name, count] : mp) {
      if (count > best_count || (count == best_count && name < best)) {
        best = name;
        best_count = count;
      }
    }
    return best;
  };
  m.left_label = most_frequent(left_names);
  m.right_label = most_frequent(right_names);
  return m;
}

bool PopularityGreater::operator()(const SynthesizedMapping& a,
                                   const SynthesizedMapping& b) const {
  if (a.num_domains != b.num_domains) {
    return a.num_domains > b.num_domains;
  }
  if (a.size() != b.size()) return a.size() > b.size();
  // Memberless mappings (none come out of a partition) rank last.
  const auto cold_key = [&](const SynthesizedMapping& m) {
    if (m.member_tables.empty()) {
      return std::pair<uint32_t, BinaryTableId>(UINT32_MAX, UINT32_MAX);
    }
    const BinaryTableId first = m.member_tables[0];
    return std::pair<uint32_t, BinaryTableId>(
        order_.empty() ? 0 : order_[first], first);
  };
  return cold_key(a) < cold_key(b);
}

std::vector<SynthesizedMapping> FilterByPopularity(
    std::vector<SynthesizedMapping> mappings, size_t min_domains,
    size_t min_pairs, const std::vector<uint32_t>& order) {
  std::vector<SynthesizedMapping> out;
  out.reserve(mappings.size());
  for (auto& m : mappings) {
    if (m.num_domains >= min_domains && m.size() >= min_pairs) {
      out.push_back(std::move(m));
    }
  }
  std::sort(out.begin(), out.end(), PopularityGreater(order));
  return out;
}

}  // namespace ms
