// Test oracle for the inverted index: the seed vector<vector> build, one
// heap-allocated posting list per value. tests/stats_test.cc holds the CSR
// index (stats/inverted_index.h) to its frequencies, posting lists and
// co-occurrence counts. Linked by the tests and benches, never by the `ms`
// library.
#pragma once

#include <cstddef>
#include <vector>

#include "stats/inverted_index.h"
#include "table/corpus.h"

namespace ms {

class ReferenceInvertedIndex {
 public:
  void Build(const TableCorpus& corpus);

  size_t num_columns() const { return num_columns_; }
  size_t ColumnFrequency(ValueId u) const;
  size_t CoOccurrence(ValueId u, ValueId v) const;
  const std::vector<ColumnId>& Postings(ValueId u) const;

 private:
  size_t num_columns_ = 0;
  std::vector<std::vector<ColumnId>> postings_;  // indexed by ValueId
  static const std::vector<ColumnId> kEmpty;
};

}  // namespace ms
