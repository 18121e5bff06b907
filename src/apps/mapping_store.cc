#include "apps/mapping_store.h"

#include <algorithm>
#include <functional>

namespace ms {

namespace {

constexpr uint8_t kSideLeft = 1;
constexpr uint8_t kSideRight = 2;
constexpr uint32_t kNone = UINT32_MAX;

uint64_t HashValue(std::string_view v) {
  return std::hash<std::string_view>{}(v);
}

/// Linear probing over a power-of-two table whose cells hold index + 1
/// (0 = empty): returns the cell holding an index `same` accepts, or the
/// empty cell where a new index with this hash belongs.
template <typename Cells, typename Same>
auto& FindCell(Cells& cells, uint64_t hash, Same same) {
  const size_t mask = cells.size() - 1;
  for (size_t c = hash & mask;; c = (c + 1) & mask) {
    if (cells[c] == 0 || same(cells[c] - 1)) return cells[c];
  }
}

/// Smallest power of two holding `n` indices at most half full.
size_t CellCount(size_t n) {
  size_t cap = 16;
  while (cap < 2 * n) cap <<= 1;
  return cap;
}

}  // namespace

MappingStore::MappingStore(std::shared_ptr<StringPool> pool,
                           NormalizeOptions normalize)
    : pool_(std::move(pool)), normalize_(normalize) {}

size_t MappingStore::Add(SynthesizedMapping mapping, std::string name) {
  const uint32_t index = static_cast<uint32_t>(entries_.size());
  Entry e{std::move(name), std::move(mapping), {}, {}};
  // Ids of a mapping over this pool are below its size; growing the dense
  // map once per Add keeps the per-pair path an array read.
  slot_of_id_.resize(std::max(slot_of_id_.size(), pool_->size()), 0);
  const auto& pairs = e.mapping.merged.pairs();
  e.by_left.reserve(pairs.size());
  e.by_right.reserve(pairs.size());
  for (const ValuePair& p : pairs) {
    const uint32_t left = SlotFor(p.left);
    const uint32_t right = SlotFor(p.right);
    e.by_left.push_back(Key{hashes_[left], left, right});
    e.by_right.push_back(Key{hashes_[right], right, left});
  }
  IndexKeys(index, kSideLeft, &e.by_left);
  IndexKeys(index, kSideRight, &e.by_right);
  entries_.push_back(std::move(e));
  return index;
}

uint32_t MappingStore::SlotFor(ValueId id) {
  uint32_t& known = slot_of_id_[id];
  if (known != 0) return known - 1;
  const uint32_t slot = static_cast<uint32_t>(hashes_.size());
  const std::string_view v = pool_->Get(id);
  bytes_.append(v);
  offsets_.push_back(bytes_.size());
  hashes_.push_back(HashValue(v));
  head_.push_back(kNone);
  // Distinct slots never compare equal, so an insert takes the first empty
  // cell; past half full the index doubles and re-inserts every slot.
  auto insert = [&](uint32_t s) {
    FindCell(cells_, hashes_[s], [](uint32_t) { return false; }) = s + 1;
  };
  if (2 * hashes_.size() > cells_.size()) {
    cells_.assign(CellCount(hashes_.size()), 0);
    for (uint32_t s = 0; s < hashes_.size(); ++s) insert(s);
  } else {
    insert(slot);
  }
  known = slot + 1;
  return slot;
}

void MappingStore::IndexKeys(uint32_t entry, uint8_t side, Keys* keys) {
  // A key with several partners keeps the one whose string is smallest:
  // pair order follows ValueIds, which follow the order the pool happened
  // to intern values in, so only the strings give an answer every build
  // of the same mappings agrees on.
  std::sort(keys->begin(), keys->end(), [&](const Key& a, const Key& b) {
    if (a.hash != b.hash) return a.hash < b.hash;
    if (a.key != b.key) return a.key < b.key;
    return Text(a.partner) < Text(b.partner);
  });
  keys->erase(std::unique(keys->begin(), keys->end(),
                          [](const Key& a, const Key& b) {
                            return a.key == b.key;
                          }),
              keys->end());
  // One posting per (value, entry): a value on both sides of one mapping
  // merges its side bits into the posting its left key made.
  for (const Key& k : *keys) {
    uint32_t& head = head_[k.key];
    if (head != kNone && postings_[head].entry == entry) {
      postings_[head].sides |= side;
      continue;
    }
    postings_.push_back(Posting{entry, head, side});
    head = static_cast<uint32_t>(postings_.size() - 1);
  }
}

const MappingStore::Key* MappingStore::FindKey(const Keys& keys,
                                               std::string_view v,
                                               uint64_t h) const {
  auto it = std::lower_bound(
      keys.begin(), keys.end(), h,
      [](const Key& k, uint64_t hash) { return k.hash < hash; });
  for (; it != keys.end() && it->hash == h; ++it) {
    if (Text(it->key) == v) return &*it;
  }
  return nullptr;
}

uint32_t MappingStore::FindSlot(std::string_view v, uint64_t h) const {
  if (cells_.empty()) return kNone;
  const uint32_t cell = FindCell(cells_, h, [&](uint32_t s) {
    return hashes_[s] == h && Text(s) == v;
  });
  return cell == 0 ? kNone : cell - 1;
}

void MappingStore::DedupNormalized(const std::vector<std::string>& raw_values,
                                   BatchScratch* scratch) const {
  // clear()/assign() keep the vectors' capacity, so a long-lived scratch
  // (one per serving connection) pays its allocations once.
  scratch->distinct.clear();
  scratch->hashes.clear();
  scratch->slot_of.clear();
  scratch->slot_of.reserve(raw_values.size());
  scratch->cells.assign(CellCount(raw_values.size()), 0);
  for (const auto& raw : raw_values) {
    std::string v = Norm(raw);
    const uint64_t h = HashValue(v);
    uint32_t& cell = FindCell(scratch->cells, h, [&](uint32_t d) {
      return scratch->hashes[d] == h && scratch->distinct[d] == v;
    });
    if (cell == 0) {
      scratch->distinct.push_back(std::move(v));
      scratch->hashes.push_back(h);
      cell = static_cast<uint32_t>(scratch->distinct.size());
    }
    scratch->slot_of.push_back(cell - 1);
  }
}

ValueSide MappingStore::SideOf(const Entry& e, std::string_view v,
                               uint64_t h) const {
  const bool left = FindKey(e.by_left, v, h) != nullptr;
  const bool right = FindKey(e.by_right, v, h) != nullptr;
  if (left && right) return ValueSide::kBoth;
  if (left) return ValueSide::kLeft;
  if (right) return ValueSide::kRight;
  return ValueSide::kNone;
}

ValueSide MappingStore::Probe(size_t i, const std::string& raw_value) const {
  const std::string v = Norm(raw_value);
  return SideOf(entries_[i], v, HashValue(v));
}

std::vector<ValueSide> MappingStore::ProbeBatch(
    size_t i, const std::vector<std::string>& raw_values) const {
  const Entry& e = entries_[i];
  BatchScratch scratch;
  DedupNormalized(raw_values, &scratch);
  std::vector<ValueSide> per_distinct(scratch.distinct.size());
  for (size_t d = 0; d < scratch.distinct.size(); ++d) {
    per_distinct[d] = SideOf(e, scratch.distinct[d], scratch.hashes[d]);
  }
  std::vector<ValueSide> out;
  out.reserve(raw_values.size());
  for (uint32_t d : scratch.slot_of) out.push_back(per_distinct[d]);
  return out;
}

std::vector<MappingStore::ContainmentMatch> MappingStore::FindByContainment(
    const std::vector<std::string>& values, size_t min_hits) const {
  BatchScratch scratch;
  DedupNormalized(values, &scratch);
  // Each input occurrence counts, so a distinct value scores its
  // multiplicity on every posting it reaches.
  std::vector<size_t> occurrences(scratch.distinct.size(), 0);
  for (uint32_t d : scratch.slot_of) ++occurrences[d];
  std::vector<size_t> left_hits(entries_.size(), 0);
  std::vector<size_t> right_hits(entries_.size(), 0);
  std::vector<uint32_t> touched;
  for (size_t d = 0; d < scratch.distinct.size(); ++d) {
    const uint32_t slot = FindSlot(scratch.distinct[d], scratch.hashes[d]);
    if (slot == kNone) continue;
    for (uint32_t p = head_[slot]; p != kNone; p = postings_[p].next) {
      const Posting& post = postings_[p];
      if (left_hits[post.entry] == 0 && right_hits[post.entry] == 0) {
        touched.push_back(post.entry);
      }
      if (post.sides & kSideLeft) left_hits[post.entry] += occurrences[d];
      if (post.sides & kSideRight) right_hits[post.entry] += occurrences[d];
    }
  }
  if (min_hits == 0) {
    // Every entry has at least 0 hits.
    touched.resize(entries_.size());
    for (uint32_t i = 0; i < touched.size(); ++i) touched[i] = i;
  }
  std::vector<ContainmentMatch> out;
  for (uint32_t entry : touched) {
    ContainmentMatch m;
    m.index = entry;
    m.left_hits = left_hits[entry];
    m.right_hits = right_hits[entry];
    if (m.total() >= min_hits) out.push_back(m);
  }
  std::sort(out.begin(), out.end(),
            [](const ContainmentMatch& a, const ContainmentMatch& b) {
              if (a.total() != b.total()) return a.total() > b.total();
              return a.index < b.index;
            });
  return out;
}

std::optional<std::string> MappingStore::LookupRight(
    size_t i, const std::string& raw_left) const {
  const std::string v = Norm(raw_left);
  const Key* k = FindKey(entries_[i].by_left, v, HashValue(v));
  if (k == nullptr) return std::nullopt;
  return std::string(Text(k->partner));
}

std::optional<std::string> MappingStore::LookupLeft(
    size_t i, const std::string& raw_right) const {
  const std::string v = Norm(raw_right);
  const Key* k = FindKey(entries_[i].by_right, v, HashValue(v));
  if (k == nullptr) return std::nullopt;
  return std::string(Text(k->partner));
}

std::vector<std::optional<std::string>> MappingStore::LookupBatch(
    Keys Entry::*direction, size_t i,
    const std::vector<std::string>& raw_values, BatchScratch* scratch) const {
  BatchScratch local;
  if (scratch == nullptr) scratch = &local;
  DedupNormalized(raw_values, scratch);
  const Keys& keys = entries_[i].*direction;
  scratch->partner.resize(scratch->distinct.size());
  for (size_t d = 0; d < scratch->distinct.size(); ++d) {
    const Key* k = FindKey(keys, scratch->distinct[d], scratch->hashes[d]);
    scratch->partner[d] = k != nullptr ? k->partner : kNone;
  }
  std::vector<std::optional<std::string>> out;
  out.reserve(raw_values.size());
  for (uint32_t d : scratch->slot_of) {
    if (scratch->partner[d] == kNone) {
      out.emplace_back(std::nullopt);
    } else {
      out.emplace_back(std::string(Text(scratch->partner[d])));
    }
  }
  return out;
}

std::vector<std::optional<std::string>> MappingStore::LookupRightBatch(
    size_t i, const std::vector<std::string>& raw_lefts,
    BatchScratch* scratch) const {
  return LookupBatch(&Entry::by_left, i, raw_lefts, scratch);
}

std::vector<std::optional<std::string>> MappingStore::LookupLeftBatch(
    size_t i, const std::vector<std::string>& raw_rights,
    BatchScratch* scratch) const {
  return LookupBatch(&Entry::by_right, i, raw_rights, scratch);
}

}  // namespace ms
