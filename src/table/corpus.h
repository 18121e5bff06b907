// A table corpus T = {T}: the only input to the synthesis problem
// (Definition 3). Owns the interning pool shared by all contained tables.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "table/string_pool.h"
#include "table/table.h"

namespace ms {

/// What one corpus mutation changed, kept so TableCorpus::Undo can put the
/// corpus back: the table count and pool size before the mutation, and the
/// columns it tombstoned. Move-only, since it owns those columns. A
/// default-constructed undo changes nothing.
struct CorpusUndo {
  size_t num_tables = SIZE_MAX;
  size_t pool_size = SIZE_MAX;
  std::vector<std::pair<TableId, std::vector<Column>>> tombstoned;

  CorpusUndo() = default;
  CorpusUndo(CorpusUndo&&) = default;
  CorpusUndo& operator=(CorpusUndo&&) = default;
  CorpusUndo(const CorpusUndo&) = delete;
  CorpusUndo& operator=(const CorpusUndo&) = delete;
};

/// Container for tables plus the shared string pool. Movable, not copyable
/// (a corpus can be large).
class TableCorpus {
 public:
  TableCorpus() : pool_(std::make_shared<StringPool>()) {}

  TableCorpus(const TableCorpus&) = delete;
  TableCorpus& operator=(const TableCorpus&) = delete;
  TableCorpus(TableCorpus&&) = default;
  TableCorpus& operator=(TableCorpus&&) = default;

  StringPool& pool() { return *pool_; }
  const StringPool& pool() const { return *pool_; }
  std::shared_ptr<StringPool> shared_pool() const { return pool_; }

  /// Adds a table, assigning it the next TableId. Returns the id.
  TableId Add(Table table);

  /// Convenience: builds a table from string cells (column-major), interning
  /// values into the pool.
  TableId AddFromStrings(std::string domain, TableSource source,
                         const std::vector<std::string>& column_names,
                         const std::vector<std::vector<std::string>>& columns);

  /// Appends copies of `other`'s tables, re-interning every cell value into
  /// this corpus's pool (the two corpora may use different pools). Returns
  /// the index of the first appended table — the `first_new_table` argument
  /// SynthesisSession::AppendTables expects. This is the ingestion path for
  /// incremental corpus growth: batches arrive as independently-loaded
  /// corpora and are merged into the live one. FailedPrecondition when this
  /// corpus's pool is read-only and `other` holds an unseen string (the
  /// corpus is left untouched): a frozen serving pool cannot absorb new
  /// values, and storing kInvalidValueId cells would silently corrupt every
  /// downstream extraction.
  Result<size_t> AppendFrom(const TableCorpus& other);

  /// Tombstones table `id` in place: its columns are moved out and
  /// returned, leaving an empty shell that keeps its slot, id, domain, and
  /// source. Table ids therefore stay stable across removals — the
  /// invariant incremental maintenance (SynthesisSession::RemoveTables)
  /// and snapshot provenance rely on. A cold rebuild over the mutated
  /// corpus sees the shell contribute zero columns, exactly as if the
  /// table had never existed. The returned columns let the caller restore
  /// the table on a failed mutation (CorpusUndo::tombstoned).
  std::vector<Column> Tombstone(TableId id);

  /// Reverts a mutation recorded in `undo`: drops the tables appended after
  /// it, truncates the pool to its size before it (so neither the dropped
  /// tables' strings nor any memory for them survive), and puts back the
  /// columns Tombstone() moved out. A retry then sees the exact
  /// pre-mutation corpus.
  void Undo(CorpusUndo undo);

  const std::vector<Table>& tables() const { return tables_; }
  const Table& table(TableId id) const { return tables_[id]; }
  size_t size() const { return tables_.size(); }

  /// Total number of columns across all tables (the N in the PMI formula).
  size_t TotalColumns() const;

  /// Keeps only the first `fraction` (by insertion order after a seeded
  /// shuffle would be done by the caller) — used by the scalability sweep.
  /// Returns a new corpus sharing the same pool. Cell storage is still
  /// copied (tables hold their ValueId vectors by value; only the string
  /// bytes are shared through the pool), so this is O(kept cells) — see
  /// the bench_micro corpus/subset entry guarding that cost.
  TableCorpus Subset(double fraction) const;

 private:
  std::shared_ptr<StringPool> pool_;
  std::vector<Table> tables_;
};

}  // namespace ms
