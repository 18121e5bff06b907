#include "oracles/inverted_index_reference.h"

#include <algorithm>

namespace ms {


const std::vector<ColumnId> ReferenceInvertedIndex::kEmpty;

void ReferenceInvertedIndex::Build(const TableCorpus& corpus) {
  postings_.clear();
  postings_.resize(corpus.pool().size());
  ColumnId next = 0;
  std::vector<ValueId> distinct;
  for (const auto& t : corpus.tables()) {
    for (uint32_t c = 0; c < t.columns.size(); ++c) {
      distinct.assign(t.columns[c].cells.begin(), t.columns[c].cells.end());
      std::sort(distinct.begin(), distinct.end());
      distinct.erase(std::unique(distinct.begin(), distinct.end()),
                     distinct.end());
      for (ValueId v : distinct) {
        if (v >= postings_.size()) postings_.resize(v + 1);
        postings_[v].push_back(next);
      }
      ++next;
    }
  }
  num_columns_ = next;
  // Posting lists are built in increasing ColumnId order => already sorted.
}

size_t ReferenceInvertedIndex::ColumnFrequency(ValueId u) const {
  if (u >= postings_.size()) return 0;
  return postings_[u].size();
}

size_t ReferenceInvertedIndex::CoOccurrence(ValueId u, ValueId v) const {
  if (u >= postings_.size() || v >= postings_.size()) return 0;
  const std::vector<ColumnId>& a = postings_[u];
  const std::vector<ColumnId>& b = postings_[v];
  size_t i = 0, j = 0, count = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

const std::vector<ColumnId>& ReferenceInvertedIndex::Postings(
    ValueId u) const {
  if (u >= postings_.size()) return kEmpty;
  return postings_[u];
}

}  // namespace ms
