#include "synth/blocking.h"

#include <algorithm>
#include <numeric>

#include "common/timer.h"

namespace ms {
namespace {

// A candidate's position in the truncation order: (order[id], id), packed.
uint64_t TruncationRank(const std::vector<uint32_t>& order, uint32_t id) {
  return order.empty() ? id : (uint64_t{order[id]} << 32) | id;
}

size_t Excess(size_t len, size_t cap) { return len > cap ? len - cap : 0; }

/// Per-thread state of the row counter. `slots[b]` holds the epoch of the
/// row that last wrote it and that row's counts with candidate b. Each row
/// takes a fresh epoch, so a slot from any earlier row or index reads as
/// zero and no row clears the array; only a wrap of the epoch does.
struct RowSlot {
  uint32_t epoch = 0;
  uint32_t pairs = 0;
  uint32_t lefts = 0;
};

struct RowScratch {
  std::vector<RowSlot> slots;
  uint32_t epoch = 0;
  std::vector<uint32_t> touched;  ///< partners of the current row
};

RowScratch& ThreadRowScratch() {
  static thread_local RowScratch scratch;
  return scratch;
}

uint32_t NextEpoch(RowScratch& s) {
  if (++s.epoch == 0) {
    std::fill(s.slots.begin(), s.slots.end(), RowSlot{});
    s.epoch = 1;
  }
  return s.epoch;
}

bool LessAB(const CandidateTablePair& x, const CandidateTablePair& y) {
  return x.a < y.a || (x.a == y.a && x.b < y.b);
}

}  // namespace

Status BlockingOptions::Validate() const {
  if (theta_overlap == 0) {
    return Status::InvalidArgument(
        "blocking.theta_overlap must be >= 1: 0 would emit every candidate "
        "pair and defeat blocking entirely");
  }
  if (max_posting < 2) {
    return Status::InvalidArgument(
        "blocking.max_posting must be >= 2: shorter posting lists can never "
        "produce a co-occurrence, so no pair would ever be scored");
  }
  return Status::OK();
}

// ------------------------------------------------------------ the key index

uint32_t BlockingKeyIndex::SlotOf(uint64_t key) {
  // Keys are stored shifted by one: FlatMap64 reserves key 0 (a key of
  // 2^64-1 would alias it, a collision blocking already takes as absent).
  uint32_t& slot = slot_of_[key + 1];
  if (slot == 0) {
    spans_.emplace_back();
    slot = static_cast<uint32_t>(spans_.size());
  }
  return slot - 1;
}

void BlockingKeyIndex::Build(const std::vector<BinaryTable>& candidates,
                             size_t max_posting,
                             const std::vector<uint32_t>& order) {
  *this = BlockingKeyIndex();
  max_posting_ = max_posting;
  const uint32_t n = static_cast<uint32_t>(candidates.size());
  cand_keys_.resize(n);
  dropped_count_.assign(n, 0);
  // Candidates in truncation order: appending each one to its keys' lists
  // in this order leaves every list ranked, and a holder's position (its
  // list's length when it arrives) says whether it is kept.
  std::vector<uint32_t> by_rank(n);
  std::iota(by_rank.begin(), by_rank.end(), 0u);
  if (!order.empty()) {
    std::sort(by_rank.begin(), by_rank.end(), [&](uint32_t x, uint32_t y) {
      return TruncationRank(order, x) < TruncationRank(order, y);
    });
  }
  std::vector<uint32_t> last;  // per slot: the candidate that took it last
  for (uint32_t id : by_rank) {
    std::vector<uint32_t>& keys = cand_keys_[id];
    keys.reserve(2 * candidates[id].pairs().size());
    ForEachBlockingKey(candidates[id], [&](uint64_t key) {
      const uint32_t slot = SlotOf(key);
      if (slot == last.size()) last.push_back(UINT32_MAX);
      if (last[slot] == id) return;  // one table hashing to a key twice
      last[slot] = id;
      uint32_t entry = slot | ((key & 1) != 0 ? kLeft : 0);
      if (spans_[slot].size++ >= max_posting_) {
        entry |= kDropped;
        ++dropped_count_[id];
      }
      keys.push_back(entry);
    });
  }
  uint32_t offset = 0;
  for (Span& s : spans_) {
    dropped_postings_ += Excess(s.size, max_posting_);
    s.begin = offset;
    s.capacity = s.size;
    offset += s.size;
    s.size = 0;
  }
  num_keys_ = spans_.size();
  holders_.resize(offset);
  for (uint32_t id : by_rank) {
    for (uint32_t entry : cand_keys_[id]) {
      Span& s = spans_[entry & kSlotMask];
      holders_[s.begin + s.size++] = id;
    }
  }
}

void BlockingKeyIndex::SetDropped(uint32_t id, uint32_t slot, bool dropped) {
  for (uint32_t& entry : cand_keys_[id]) {
    if ((entry & kSlotMask) != slot) continue;
    if (dropped) {
      entry |= kDropped;
      ++dropped_count_[id];
    } else {
      entry &= ~kDropped;
      --dropped_count_[id];
    }
    return;
  }
}

void BlockingKeyIndex::StoreHolders(uint32_t slot,
                                    const std::vector<uint32_t>& list) {
  Span& s = spans_[slot];
  if (list.size() > s.capacity) {
    // Outgrown: move to the arena's end with a quarter's slack, so a hot
    // key that gains a few holders per mutation is not moved every time.
    garbage_ += s.capacity;
    s.begin = static_cast<uint32_t>(holders_.size());
    s.capacity = static_cast<uint32_t>(list.size() + list.size() / 4);
    holders_.resize(holders_.size() + s.capacity);
  }
  std::copy(list.begin(), list.end(), holders_.begin() + s.begin);
  s.size = static_cast<uint32_t>(list.size());
}

void BlockingKeyIndex::CompactHolders() {
  std::vector<uint32_t> packed;
  packed.reserve(holders_.size() - garbage_);
  for (Span& s : spans_) {
    const auto first = holders_.begin() + s.begin;
    s.begin = static_cast<uint32_t>(packed.size());
    packed.insert(packed.end(), first, first + s.size);
    s.capacity = s.size;
  }
  holders_ = std::move(packed);
  garbage_ = 0;
}

BlockingKeyIndex::Change BlockingKeyIndex::Patch(
    const std::vector<BinaryTable>& candidates,
    const std::vector<uint8_t>& retired, const std::vector<uint32_t>& order) {
  const uint32_t first_new = static_cast<uint32_t>(cand_keys_.size());
  const uint32_t n = static_cast<uint32_t>(candidates.size());
  Change change;
  // One op per posting the mutation takes away or adds, grouped by key
  // below. An insert remembers its entry in the new candidate's key list,
  // where the dropped flag goes.
  struct Op {
    uint32_t slot;
    uint32_t id;
    uint32_t entry;
    bool insert;
  };
  std::vector<Op> ops;
  for (uint32_t id = 0; id < retired.size(); ++id) {
    if (retired[id] == 0) continue;
    for (uint32_t entry : cand_keys_[id]) {
      ops.push_back({entry & kSlotMask, id, 0, false});
    }
    std::vector<uint32_t>().swap(cand_keys_[id]);
    dropped_count_[id] = 0;
    change.changed.push_back(id);
  }
  cand_keys_.resize(n);
  dropped_count_.resize(n, 0);
  for (uint32_t id = first_new; id < n; ++id) {
    change.changed.push_back(id);
    std::vector<uint32_t>& keys = cand_keys_[id];
    ForEachBlockingKey(candidates[id], [&](uint64_t key) {
      keys.push_back(SlotOf(key) | ((key & 1) != 0 ? kLeft : 0));
    });
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    for (uint32_t i = 0; i < keys.size(); ++i) {
      ops.push_back({keys[i] & kSlotMask, id, i, true});
    }
  }
  // Per key: removals, then inserts in truncation order.
  std::sort(ops.begin(), ops.end(), [&](const Op& x, const Op& y) {
    if (x.slot != y.slot) return x.slot < y.slot;
    if (x.insert != y.insert) return y.insert;
    return TruncationRank(order, x.id) < TruncationRank(order, y.id);
  });

  std::vector<uint32_t> list;
  for (size_t g = 0; g < ops.size();) {
    const uint32_t slot = ops[g].slot;
    size_t j = g;
    while (j < ops.size() && ops[j].slot == slot && !ops[j].insert) ++j;
    size_t end = j;
    while (end < ops.size() && ops[end].slot == slot) ++end;
    // Merge the surviving holders with the inserts by rank. A survivor's
    // kept status can change only by its position crossing max_posting:
    // inserts ranked before it push it back (displacement), removals
    // before it pull it forward (resurrection).
    const Span old = spans_[slot];
    list.clear();
    for (uint32_t i = 0; i < old.size || j < end;) {
      const uint32_t* held = holders_.data() + old.begin;
      const bool take_old =
          i < old.size &&
          (j == end || TruncationRank(order, held[i]) <
                           TruncationRank(order, ops[j].id));
      if (!take_old) {
        const Op& op = ops[j++];
        if (list.size() >= max_posting_) {
          cand_keys_[op.id][op.entry] |= kDropped;
          ++dropped_count_[op.id];
        }
        list.push_back(op.id);
        continue;
      }
      const uint32_t x = held[i];
      const bool was_kept = i++ < max_posting_;
      if (x < retired.size() && retired[x] != 0) continue;
      const bool now_kept = list.size() < max_posting_;
      if (was_kept != now_kept) {
        SetDropped(x, slot, !now_kept);
        change.changed.push_back(x);
        ++(now_kept ? change.resurrected : change.displaced);
      }
      list.push_back(x);
    }
    num_keys_ = num_keys_ + (list.empty() ? 0 : 1) - (old.size == 0 ? 0 : 1);
    dropped_postings_ = dropped_postings_ + Excess(list.size(), max_posting_) -
                        Excess(old.size, max_posting_);
    StoreHolders(slot, list);
    g = end;
  }
  if (garbage_ * 2 > holders_.size()) CompactHolders();
  std::sort(change.changed.begin(), change.changed.end());
  change.changed.erase(
      std::unique(change.changed.begin(), change.changed.end()),
      change.changed.end());
  return change;
}

namespace {

/// Counts one row against the calling thread's slots: every partner b of
/// candidate `a` over the kept lists of a's kept keys. Without `in_rows`
/// (every row is counted) only partners b > a are, so each pair is counted
/// once, in its smaller endpoint's row; with it, a partner b < a is skipped
/// only when b's own row is counted too. Appends the pairs that reach
/// `theta`, sorted by (a, b).
void CountRow(const BlockingKeyIndex& index, uint32_t a, size_t theta,
              const std::vector<uint8_t>& in_rows, RowScratch& s,
              std::vector<CandidateTablePair>* out) {
  const uint32_t epoch = NextEpoch(s);
  s.touched.clear();
  index.ForEachKeptList(a, [&](const uint32_t* held, uint32_t kept,
                               bool left) {
    for (uint32_t i = 0; i < kept; ++i) {
      const uint32_t b = held[i];
      if (b <= a && (b == a || in_rows.empty() || in_rows[b] != 0)) continue;
      RowSlot& c = s.slots[b];
      if (c.epoch != epoch) {
        c = RowSlot{epoch, 0, 0};
        s.touched.push_back(b);
      }
      ++(left ? c.lefts : c.pairs);
    }
  });
  const size_t first = out->size();
  const bool a_exact = !index.tainted(a);
  for (uint32_t b : s.touched) {
    const RowSlot& c = s.slots[b];
    if (c.pairs < theta && c.lefts < theta) continue;
    CandidateTablePair p;
    p.a = std::min(a, b);
    p.b = std::max(a, b);
    p.shared_pairs = c.pairs;
    p.shared_lefts = c.lefts;
    p.counts_exact = a_exact && !index.tainted(b);
    out->push_back(p);
  }
  // Only the pairs that reached θ are sorted, not every partner.
  std::sort(out->begin() + first, out->end(), LessAB);
}

}  // namespace

std::vector<CandidateTablePair> BlockingKeyIndex::CountRows(
    size_t theta_overlap, ThreadPool* pool,
    const std::vector<uint32_t>* rows) const {
  const uint32_t n = static_cast<uint32_t>(size());
  const size_t num_rows = rows != nullptr ? rows->size() : n;
  std::vector<uint8_t> in_rows;
  if (rows != nullptr) {
    in_rows.assign(n, 0);
    for (uint32_t id : *rows) in_rows[id] = 1;
  }
  // Several row ranges per worker so uneven rows balance; concatenated in
  // range order, a full count stays sorted.
  const size_t workers = pool != nullptr ? pool->num_threads() : 1;
  const size_t num_ranges = std::min(num_rows, workers > 1 ? workers * 16 : 1);
  std::vector<std::vector<CandidateTablePair>> parts(num_ranges);
  const auto count_range = [&](size_t r) {
    RowScratch& s = ThreadRowScratch();
    if (s.slots.size() < n) s.slots.resize(n);
    const size_t end = (r + 1) * num_rows / num_ranges;
    for (size_t k = r * num_rows / num_ranges; k < end; ++k) {
      const uint32_t a =
          rows != nullptr ? (*rows)[k] : static_cast<uint32_t>(k);
      CountRow(*this, a, theta_overlap, in_rows, s, &parts[r]);
    }
  };
  if (num_ranges > 1) {
    pool->ParallelFor(num_ranges, count_range);
  } else if (num_ranges == 1) {
    count_range(0);
  }
  size_t total = 0;
  for (const auto& p : parts) total += p.size();
  std::vector<CandidateTablePair> out;
  out.reserve(total);
  for (const auto& p : parts) out.insert(out.end(), p.begin(), p.end());
  // A changed row's pairs with smaller partners land out of order.
  if (rows != nullptr) std::sort(out.begin(), out.end(), LessAB);
  return out;
}

void BlockingKeyIndex::FillStats(BlockingStats* stats) const {
  stats->keys = num_keys_;
  stats->dropped_postings = dropped_postings_;
  stats->exact_counts = dropped_postings_ == 0;
  stats->tainted.clear();
  stats->tainted_candidates = 0;
  if (dropped_postings_ == 0) return;
  stats->tainted.assign(size(), 0);
  for (size_t id = 0; id < size(); ++id) {
    if (dropped_count_[id] == 0) continue;
    stats->tainted[id] = 1;
    ++stats->tainted_candidates;
  }
}

size_t BlockingKeyIndex::bytes() const {
  size_t total = slot_of_.bytes() + spans_.capacity() * sizeof(Span) +
                 holders_.capacity() * sizeof(uint32_t) +
                 cand_keys_.capacity() * sizeof(cand_keys_[0]) +
                 dropped_count_.capacity() * sizeof(uint32_t);
  for (const auto& keys : cand_keys_) {
    total += keys.capacity() * sizeof(uint32_t);
  }
  return total;
}

// ------------------------------------------------------------ entry points

std::vector<CandidateTablePair> BlockingKeyIndex::BuildAndCount(
    const std::vector<BinaryTable>& candidates, const BlockingOptions& options,
    const std::vector<uint32_t>& order, ThreadPool* pool,
    BlockingStats* stats) {
  Timer timer;
  Build(candidates, options.max_posting, order);
  stats->map_shuffle_seconds = timer.ElapsedSeconds();
  timer.Restart();
  std::vector<CandidateTablePair> out = CountRows(options.theta_overlap, pool);
  stats->count_seconds = timer.ElapsedSeconds();
  stats->reduce_seconds = 0.0;
  FillStats(stats);
  return out;
}

std::vector<CandidateTablePair> GenerateCandidatePairs(
    const std::vector<BinaryTable>& candidates, const BlockingOptions& options,
    ThreadPool* pool, BlockingStats* stats,
    const std::vector<uint32_t>& order) {
  BlockingStats unused;
  return BlockingKeyIndex().BuildAndCount(candidates, options, order, pool,
                                          stats != nullptr ? stats : &unused);
}

std::vector<CandidateTablePair> SpliceChangedRows(
    const std::vector<CandidateTablePair>& base,
    const std::vector<uint8_t>& changed,
    const std::vector<CandidateTablePair>& rows,
    std::vector<CandidateTablePair>* fresh) {
  std::vector<CandidateTablePair> out;
  out.reserve(base.size() + rows.size());
  size_t j = 0;
  for (const CandidateTablePair& p : base) {
    for (; j < rows.size() && LessAB(rows[j], p); ++j) {
      out.push_back(rows[j]);
      fresh->push_back(rows[j]);
    }
    if (j < rows.size() && rows[j].a == p.a && rows[j].b == p.b) {
      out.push_back(rows[j++]);  // recounted
    } else if (changed[p.a] == 0 && changed[p.b] == 0) {
      out.push_back(p);
    }
  }
  for (; j < rows.size(); ++j) {
    out.push_back(rows[j]);
    fresh->push_back(rows[j]);
  }
  return out;
}

uint32_t ThreadBlockingEpochForTesting() { return ThreadRowScratch().epoch; }

void SetThreadBlockingEpochForTesting(uint32_t epoch) {
  ThreadRowScratch().epoch = epoch;
}

}  // namespace ms
