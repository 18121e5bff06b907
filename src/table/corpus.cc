#include "table/corpus.h"

#include <algorithm>
#include <cassert>

namespace ms {

TableId TableCorpus::Add(Table table) {
  table.id = static_cast<TableId>(tables_.size());
  tables_.push_back(std::move(table));
  return tables_.back().id;
}

TableId TableCorpus::AddFromStrings(
    std::string domain, TableSource source,
    const std::vector<std::string>& column_names,
    const std::vector<std::vector<std::string>>& columns) {
  assert(column_names.size() == columns.size());
  Table t;
  t.domain = std::move(domain);
  t.source = source;
  t.columns.reserve(columns.size());
  for (size_t c = 0; c < columns.size(); ++c) {
    Column col;
    col.name = column_names[c];
    col.cells.reserve(columns[c].size());
    for (const auto& cell : columns[c]) col.cells.push_back(pool_->Intern(cell));
    t.columns.push_back(std::move(col));
  }
  return Add(std::move(t));
}

Result<size_t> TableCorpus::AppendFrom(const TableCorpus& other) {
  const size_t first_new = tables_.size();
  const bool same_pool = other.pool_ == pool_;
  // Stage into a scratch list first: a mid-append failure (read-only pool
  // refusing an unseen string) must leave this corpus untouched.
  std::vector<Table> staged;
  staged.reserve(other.tables_.size());
  for (const Table& src : other.tables_) {
    Table t;
    t.domain = src.domain;
    t.source = src.source;
    t.columns.reserve(src.columns.size());
    for (const Column& sc : src.columns) {
      Column col;
      col.name = sc.name;
      col.cells.reserve(sc.cells.size());
      for (ValueId v : sc.cells) {
        const ValueId id =
            same_pool ? v : pool_->Intern(other.pool().Get(v));
        if (id == kInvalidValueId) {
          return Status::FailedPrecondition(
              "AppendFrom: this corpus's pool is read-only and the delta "
              "holds an unseen value — a frozen serving pool cannot absorb "
              "new tables");
        }
        col.cells.push_back(id);
      }
      t.columns.push_back(std::move(col));
    }
    staged.push_back(std::move(t));
  }
  for (Table& t : staged) Add(std::move(t));
  return first_new;
}

std::vector<Column> TableCorpus::Tombstone(TableId id) {
  assert(id < tables_.size());
  std::vector<Column> out = std::move(tables_[id].columns);
  tables_[id].columns.clear();
  return out;
}

void TableCorpus::Undo(CorpusUndo undo) {
  if (undo.num_tables < tables_.size()) tables_.resize(undo.num_tables);
  pool_->TruncateTo(undo.pool_size);
  for (auto& [id, columns] : undo.tombstoned) {
    assert(id < tables_.size());
    tables_[id].columns = std::move(columns);
  }
}

size_t TableCorpus::TotalColumns() const {
  size_t n = 0;
  for (const auto& t : tables_) n += t.num_columns();
  return n;
}

TableCorpus TableCorpus::Subset(double fraction) const {
  fraction = std::clamp(fraction, 0.0, 1.0);
  TableCorpus out;
  out.pool_ = pool_;  // share interning
  const size_t keep = static_cast<size_t>(
      static_cast<double>(tables_.size()) * fraction);
  // One copy straight into place: ids are already dense 0..keep-1, so the
  // per-table Add() round-trip (copy into a temporary, move, re-assign the
  // id it already had) was pure overhead on corpusgen setup.
  out.tables_.assign(tables_.begin(), tables_.begin() + keep);
  return out;
}

}  // namespace ms
