#include "stats/inverted_index.h"

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "common/logging.h"

namespace ms {
namespace {

/// Counts |a ∩ b| where b is much longer than a: for each element of a,
/// gallop (exponential probe + binary search) forward in b. O(|a| log |b|)
/// versus O(|a| + |b|) for the plain merge — a big win on the skewed list
/// lengths that hot corpus values ("usa", "total") produce.
size_t GallopIntersect(PostingsView a, PostingsView b) {
  size_t count = 0;
  size_t lo = 0;
  for (size_t i = 0; i < a.size; ++i) {
    const ColumnId x = a[i];
    // Exponential probe for the first position with b[pos] >= x.
    size_t step = 1;
    size_t hi = lo;
    while (hi < b.size && b[hi] < x) {
      lo = hi + 1;
      hi += step;
      step <<= 1;
    }
    if (hi > b.size) hi = b.size;
    const ColumnId* it = std::lower_bound(b.begin() + lo, b.begin() + hi, x);
    lo = static_cast<size_t>(it - b.begin());
    if (lo == b.size) break;
    if (*it == x) {
      ++count;
      ++lo;
    }
  }
  return count;
}

size_t MergeIntersect(PostingsView a, PostingsView b) {
  size_t i = 0, j = 0, count = 0;
  while (i < a.size && j < b.size) {
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

}  // namespace

void ColumnInvertedIndex::Build(const TableCorpus& corpus, ThreadPool* pool) {
  const auto& tables = corpus.tables();

  // Global ColumnId numbering: sequential over tables, then columns. The
  // per-table bases let chunks write disjoint coord ranges without locks.
  std::vector<uint32_t> col_base(tables.size() + 1, 0);
  for (size_t i = 0; i < tables.size(); ++i) {
    col_base[i + 1] =
        col_base[i] + static_cast<uint32_t>(tables[i].columns.size());
  }
  num_columns_ = col_base.back();
  coords_.assign(num_columns_, {});
  offsets_.assign(1, 0);
  postings_.clear();
  table_cols_.clear();
  table_cols_.reserve(tables.size());
  for (size_t i = 0; i < tables.size(); ++i) {
    table_cols_.emplace_back(col_base[i], col_base[i + 1] - col_base[i]);
  }
  next_column_id_ = col_base.back();
  if (tables.empty()) return;

  // --- Pass 1 (parallel over table ranges): per-column distinct values into
  // per-chunk flat buffers. The sort+unique per column dominates the build;
  // everything after is linear scans.
  const size_t workers = pool ? pool->num_threads() : 1;
  const size_t num_chunks = std::min(tables.size(), workers * 4);
  struct Chunk {
    size_t t0 = 0, t1 = 0;
    std::vector<ValueId> values;     ///< distinct values, column-major
    std::vector<size_t> col_ends;    ///< end offset into `values` per column
  };
  std::vector<Chunk> chunks(num_chunks);
  const size_t per = (tables.size() + num_chunks - 1) / num_chunks;
  for (size_t ci = 0; ci < num_chunks; ++ci) {
    chunks[ci].t0 = ci * per;
    chunks[ci].t1 = std::min(tables.size(), chunks[ci].t0 + per);
  }
  auto build_chunk = [&](size_t ci) {
    Chunk& ch = chunks[ci];
    std::vector<ValueId> distinct;
    for (size_t ti = ch.t0; ti < ch.t1; ++ti) {
      const Table& t = tables[ti];
      for (uint32_t c = 0; c < t.columns.size(); ++c) {
        distinct.assign(t.columns[c].cells.begin(), t.columns[c].cells.end());
        std::sort(distinct.begin(), distinct.end());
        distinct.erase(std::unique(distinct.begin(), distinct.end()),
                       distinct.end());
        ch.values.insert(ch.values.end(), distinct.begin(), distinct.end());
        ch.col_ends.push_back(ch.values.size());
        coords_[col_base[ti] + c] = {t.id, c};
      }
    }
  };
  if (pool && workers > 1) {
    pool->ParallelFor(num_chunks, build_chunk);
  } else {
    for (size_t ci = 0; ci < num_chunks; ++ci) build_chunk(ci);
  }

  // --- Pass 2: count occurrences per value, prefix-sum into CSR offsets.
  ValueId max_v = 0;
  size_t total = 0;
  for (const Chunk& ch : chunks) {
    for (ValueId v : ch.values) max_v = std::max(max_v, v);
    total += ch.values.size();
  }
  if (total == 0) return;
  // The CSR offsets are uint32_t; past 2^32 postings the prefix sums would
  // wrap silently and corrupt every list. Fail loudly instead (widening the
  // offsets doubles index memory; do that when a corpus actually needs it).
  if (total > std::numeric_limits<uint32_t>::max()) {
    MS_LOG(Error) << "inverted index: " << total
                  << " postings exceed the 2^32 CSR offset limit";
    std::abort();
  }
  offsets_.assign(static_cast<size_t>(max_v) + 2, 0);
  for (const Chunk& ch : chunks) {
    for (ValueId v : ch.values) ++offsets_[v + 1];
  }
  for (size_t i = 1; i < offsets_.size(); ++i) offsets_[i] += offsets_[i - 1];

  // --- Pass 3: fill. Walking chunks/columns in ColumnId order means each
  // value's cursor advances in increasing ColumnId, so every posting list
  // comes out sorted without a per-list sort.
  postings_.resize(total);
  std::vector<uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  ColumnId col = 0;
  for (const Chunk& ch : chunks) {
    size_t begin = 0;
    for (size_t end : ch.col_ends) {
      for (size_t i = begin; i < end; ++i) {
        postings_[cursor[ch.values[i]]++] = col;
      }
      begin = end;
      ++col;
    }
  }
}

void ColumnInvertedIndex::AppendTables(const TableCorpus& corpus,
                                       size_t first_new_table) {
  const auto& tables = corpus.tables();
  // Distinct values of the new columns, column-major, in increasing
  // ColumnId order (ids are handed out past every existing one, so each
  // value's additions land at the sorted tail of its list).
  std::vector<ValueId> values;
  std::vector<size_t> col_ends;
  std::vector<ValueId> distinct;
  ValueId max_v =
      offsets_.size() > 1 ? static_cast<ValueId>(offsets_.size() - 2) : 0;
  for (size_t ti = first_new_table; ti < tables.size(); ++ti) {
    const Table& t = tables[ti];
    const ColumnId base = next_column_id_;
    for (uint32_t c = 0; c < t.columns.size(); ++c) {
      distinct.assign(t.columns[c].cells.begin(), t.columns[c].cells.end());
      std::sort(distinct.begin(), distinct.end());
      distinct.erase(std::unique(distinct.begin(), distinct.end()),
                     distinct.end());
      for (ValueId v : distinct) max_v = std::max(max_v, v);
      values.insert(values.end(), distinct.begin(), distinct.end());
      col_ends.push_back(values.size());
      coords_.emplace_back(t.id, c);
      ++next_column_id_;
    }
    table_cols_.emplace_back(base,
                             static_cast<uint32_t>(t.columns.size()));
    num_columns_ += t.columns.size();
  }
  if (values.empty()) return;

  const size_t total = postings_.size() + values.size();
  if (total > std::numeric_limits<uint32_t>::max()) {
    MS_LOG(Error) << "inverted index: " << total
                  << " postings exceed the 2^32 CSR offset limit";
    std::abort();
  }

  // Per-value addition counts, then one rewrite pass that interleaves each
  // old list with its (already id-sorted) new tail.
  std::vector<uint32_t> adds(static_cast<size_t>(max_v) + 1, 0);
  for (ValueId v : values) ++adds[v];
  std::vector<uint32_t> new_offsets(static_cast<size_t>(max_v) + 2, 0);
  for (size_t v = 0; v <= max_v; ++v) {
    const uint32_t old_len =
        static_cast<uint32_t>(ColumnFrequency(static_cast<ValueId>(v)));
    new_offsets[v + 1] = new_offsets[v] + old_len + adds[v];
  }
  std::vector<ColumnId> new_postings(total);
  std::vector<uint32_t> cursor(new_offsets.begin(), new_offsets.end() - 1);
  for (size_t v = 0; v <= max_v; ++v) {
    const PostingsView old = Postings(static_cast<ValueId>(v));
    std::copy(old.begin(), old.end(), new_postings.begin() + cursor[v]);
    cursor[v] += static_cast<uint32_t>(old.size);
  }
  ColumnId col = next_column_id_ - static_cast<ColumnId>(col_ends.size());
  size_t begin = 0;
  for (size_t end : col_ends) {
    for (size_t i = begin; i < end; ++i) {
      new_postings[cursor[values[i]]++] = col;
    }
    begin = end;
    ++col;
  }
  offsets_ = std::move(new_offsets);
  postings_ = std::move(new_postings);
}

void ColumnInvertedIndex::RemoveTables(const std::vector<TableId>& tables) {
  std::vector<uint8_t> dead(coords_.size(), 0);
  size_t removed = 0;
  for (TableId t : tables) {
    if (t >= table_cols_.size()) continue;
    auto& [start, count] = table_cols_[t];
    for (uint32_t i = 0; i < count; ++i) dead[start + i] = 1;
    removed += count;
    count = 0;  // idempotent: a second removal of t is a no-op
  }
  if (removed == 0) return;
  num_columns_ -= removed;

  // One compaction sweep: drop dead ids, rewrite offsets in place. The
  // write cursor never passes the read cursor, and surviving ids keep
  // their relative order, so every list stays sorted.
  size_t w = 0;
  uint32_t begin = 0;
  for (size_t v = 0; v + 1 < offsets_.size(); ++v) {
    const uint32_t end = offsets_[v + 1];
    offsets_[v] = static_cast<uint32_t>(w);
    for (uint32_t i = begin; i < end; ++i) {
      if (!dead[postings_[i]]) postings_[w++] = postings_[i];
    }
    begin = end;
  }
  offsets_.back() = static_cast<uint32_t>(w);
  postings_.resize(w);
}

size_t ColumnInvertedIndex::CoOccurrence(ValueId u, ValueId v) const {
  PostingsView a = Postings(u);
  PostingsView b = Postings(v);
  if (a.size > b.size) std::swap(a, b);
  if (a.empty()) return 0;
  // Gallop when the lengths are skewed enough that |a| log |b| beats the
  // linear merge; the crossover constant is generous because the merge has
  // better branch behavior.
  if (b.size / a.size >= 8) return GallopIntersect(a, b);
  return MergeIntersect(a, b);
}

std::pair<TableId, uint32_t> ColumnInvertedIndex::ColumnCoords(
    ColumnId c) const {
  return coords_[c];
}

}  // namespace ms
