#include "text/myers.h"

#include <algorithm>
#include <cmath>

namespace ms {
namespace {

/// Single-word Myers core over a Peq lookup (byte -> mask). `m` in [1, 64].
/// Returns the exact distance if it is <= band, otherwise any value > band:
/// a column abandons once score - (remaining text bytes) > band, since the
/// score can drop by at most 1 per remaining byte. Pass band = SIZE_MAX for
/// the unbounded (always exact) distance.
template <typename PeqFn>
size_t Myers64Core(PeqFn&& peq, size_t m, std::string_view text,
                   size_t band) {
  uint64_t pv = ~0ull;
  uint64_t mv = 0;
  size_t score = m;
  const uint64_t last = 1ull << (m - 1);
  const size_t n = text.size();
  for (size_t j = 0; j < n; ++j) {
    const uint64_t eq = peq(static_cast<uint8_t>(text[j]));
    const uint64_t xv = eq | mv;
    const uint64_t xh = (((eq & pv) + pv) ^ pv) | eq;
    uint64_t ph = mv | ~(xh | pv);
    uint64_t mh = pv & xh;
    if (ph & last) {
      ++score;
    } else if (mh & last) {
      --score;
    }
    if (score > band && score - band > n - j - 1) return band + 1;
    // Shift the horizontal deltas up one row; the boundary row D[0][j] = j
    // always carries a +1 horizontal delta into the low bit.
    ph = (ph << 1) | 1;
    mh <<= 1;
    pv = mh | ~(xv | ph);
    mv = ph & xv;
  }
  return score;
}

/// Blocked Myers core (Hyyrö's AdvanceBlock) over a Peq row lookup
/// (byte -> `words` consecutive masks): blocks stack bottom-up over the
/// pattern, the horizontal delta `h` ∈ {-1, 0, +1} carries across block
/// boundaries, and the score is tracked at the pattern's true last row
/// (bit (length-1) mod 64 of the top block). Unused high bits of the top
/// block are harmless: the carry chain in Xh only propagates upward and
/// their Peq bits are zero.
template <typename RowFn>
size_t MyersBlockedCore(RowFn&& row, size_t m, size_t words,
                        std::string_view text, size_t band, uint64_t* pv,
                        uint64_t* mv) {
  for (size_t b = 0; b < words; ++b) {
    pv[b] = ~0ull;
    mv[b] = 0;
  }
  size_t score = m;
  const uint64_t top_mask = 1ull << ((m - 1) & 63);
  const size_t n = text.size();
  for (size_t j = 0; j < n; ++j) {
    const uint64_t* peq = row(static_cast<uint8_t>(text[j]));
    int h = 1;  // boundary row delta entering the bottom block
    for (size_t b = 0; b < words; ++b) {
      const uint64_t eq = peq[b];
      const uint64_t pvb = pv[b];
      const uint64_t mvb = mv[b];
      const uint64_t xv = eq | mvb;
      const uint64_t eq_in = eq | (h < 0 ? 1ull : 0ull);
      const uint64_t xh = (((eq_in & pvb) + pvb) ^ pvb) | eq_in;
      uint64_t ph = mvb | ~(xh | pvb);
      uint64_t mh = pvb & xh;
      const uint64_t mask = (b + 1 == words) ? top_mask : (1ull << 63);
      int hout = 0;
      if (ph & mask) {
        hout = 1;
      } else if (mh & mask) {
        hout = -1;
      }
      ph <<= 1;
      mh <<= 1;
      if (h < 0) {
        mh |= 1;
      } else if (h > 0) {
        ph |= 1;
      }
      pv[b] = mh | ~(xv | ph);
      mv[b] = ph & xv;
      h = hout;
    }
    score = static_cast<size_t>(static_cast<int64_t>(score) + h);
    if (score > band && score - band > n - j - 1) return band + 1;
  }
  return score;
}

constexpr size_t kStackWords = 8;  // patterns ≤ 512 bytes stay off the heap

}  // namespace

void BuildMyersPattern(std::string_view pattern, MyersPattern* out) {
  out->length = static_cast<uint32_t>(pattern.size());
  out->slot.fill(0);
  out->masks.clear();
  if (pattern.empty()) {
    out->words = 0;
    return;
  }
  out->words = static_cast<uint32_t>((pattern.size() + 63) / 64);
  const size_t words = out->words;
  // Row 0 is the shared all-zero row; every distinct pattern byte gets its
  // own row, assigned in first-sight order. At most min(|pattern|, 256)
  // rows, so uint16 row indices never overflow. Two passes so the mask
  // array is allocated exactly once at its final size.
  uint16_t next_row = 1;
  for (const char ch : pattern) {
    uint16_t& s = out->slot[static_cast<uint8_t>(ch)];
    if (s == 0) s = next_row++;
  }
  out->masks.assign(static_cast<size_t>(next_row) * words, 0);
  for (size_t i = 0; i < pattern.size(); ++i) {
    const uint8_t c = static_cast<uint8_t>(pattern[i]);
    out->masks[static_cast<size_t>(out->slot[c]) * words + i / 64] |=
        1ull << (i & 63);
  }
}

namespace {

size_t MyersDistanceImpl(const MyersPattern& pattern, std::string_view text,
                         size_t band) {
  if (pattern.length == 0) return text.size();
  if (text.empty()) return pattern.length;
  if (pattern.single_word()) {
    return Myers64Core([&](uint8_t c) { return pattern.Mask1(c); },
                       pattern.length, text, band);
  }
  auto row = [&](uint8_t c) { return pattern.Row(c); };
  uint64_t stack_pv[kStackWords], stack_mv[kStackWords];
  if (pattern.words <= kStackWords) {
    return MyersBlockedCore(row, pattern.length, pattern.words, text, band,
                            stack_pv, stack_mv);
  }
  std::vector<uint64_t> pv(pattern.words), mv(pattern.words);
  return MyersBlockedCore(row, pattern.length, pattern.words, text, band,
                          pv.data(), mv.data());
}

}  // namespace

size_t MyersDistance(const MyersPattern& pattern, std::string_view text) {
  return MyersDistanceImpl(pattern, text, static_cast<size_t>(-1));
}

size_t MyersDistanceBounded(const MyersPattern& pattern,
                            std::string_view text, size_t band) {
  const size_t m = pattern.length;
  const size_t n = text.size();
  const size_t gap = m > n ? m - n : n - m;
  if (gap > band) return band + 1;
  return MyersDistanceImpl(pattern, text, band);
}

size_t Myers64(std::string_view pattern, std::string_view text) {
  if (pattern.empty()) return text.size();
  if (text.empty()) return pattern.size();
  // One-shot path: a dense stack table beats building the sparse layout.
  std::array<uint64_t, 256> peq{};
  for (size_t i = 0; i < pattern.size(); ++i) {
    peq[static_cast<uint8_t>(pattern[i])] |= 1ull << i;
  }
  return Myers64Core([&](uint8_t c) { return peq[c]; }, pattern.size(), text,
                     static_cast<size_t>(-1));
}

size_t MyersBlocked(std::string_view pattern, std::string_view text) {
  MyersPattern p;
  BuildMyersPattern(pattern, &p);
  return MyersDistance(p, text);
}

bool BatchApproxMatcher::Match(ValueId a, ValueId b) {
  ++stats_.match_calls;
  if (a == b) return true;
  if (AreSynonymsVia(snapshot_, synonyms_, a, b)) return true;
  return approximate_ && Approx(Resolve(a), Resolve(b));
}

BatchApproxMatcher::Record BatchApproxMatcher::Resolve(ValueId id) {
  Record r;
  r.id = id;
  if (snapshot_ != nullptr) r.syn_class = snapshot_->ClassOf(id);
  if (approximate_) {
    const ValueInfo& vi = CachedInfo(id);
    r.length = static_cast<uint32_t>(vi.text.size());
    r.frac_floor = static_cast<uint32_t>(vi.frac_floor);
    r.char_mask = vi.char_mask;
    r.mask_bits = vi.mask_bits;
    r.text = vi.text.data();
  }
  return r;
}

bool BatchApproxMatcher::Kernel(const Record& a, const Record& b,
                                size_t band) {
  // One-entry MRU for the pattern side: the scoring loops hold one value
  // of `a` against many of `b`, so this usually skips the hash probe.
  if (a.id != mru_pattern_id_) {
    mru_pattern_ = &CachedInfo(a.id);
    mru_pattern_id_ = a.id;
  }
  const MyersPattern& p = PatternFor(*mru_pattern_);
  if (p.single_word()) {
    ++stats_.myers64_calls;
  } else {
    ++stats_.myers_blocked_calls;
  }
  return MyersDistanceBounded(p, b.view(), band) <= band;
}

std::string_view BatchApproxMatcher::Text(ValueId id) {
  return CachedInfo(id).text;
}

void BatchApproxMatcher::Reconfigure(const EditDistanceOptions& edit,
                                     bool approximate_matching,
                                     const SynonymDictionary* synonyms,
                                     const SynonymSnapshot* synonym_snapshot) {
  // frac_floor is the only cached value-state derived from the
  // configuration; everything else (text views, charmasks, pattern masks)
  // depends solely on the pool contents, which are append-only.
  if (edit.fractional != edit_.fractional) FlushCache();
  edit_ = edit;
  approximate_ = approximate_matching;
  synonyms_ = synonyms;
  snapshot_ = synonym_snapshot;
}

void BatchApproxMatcher::FlushCache() {
  index_.Clear();
  infos_.clear();
  cache_bytes_ = 0;
  mru_pattern_id_ = kInvalidValueId;
  mru_pattern_ = nullptr;
  ++stats_.cache_flushes;
}

BatchApproxMatcher::ValueInfo& BatchApproxMatcher::CachedInfo(ValueId id) {
  if (max_cached_values_ != 0 && infos_.size() + 1 > max_cached_values_ &&
      index_.Find(static_cast<uint64_t>(id) + 1) == nullptr) {
    FlushCache();
  }
  return InfoFor(id);
}

BatchApproxMatcher::ValueInfo& BatchApproxMatcher::InfoFor(ValueId id) {
  uint32_t& slot = index_[static_cast<uint64_t>(id) + 1];
  if (slot != 0) return infos_[slot - 1];
  infos_.emplace_back();
  ValueInfo& vi = infos_.back();
  vi.text = pool_.Get(id);
  vi.frac_floor = static_cast<size_t>(
      std::floor(static_cast<double>(vi.text.size()) * edit_.fractional));
  for (const char c : vi.text) {
    vi.char_mask |= 1ull << (static_cast<uint8_t>(c) & 63);
  }
  vi.mask_bits = static_cast<uint32_t>(__builtin_popcountll(vi.char_mask));
  cache_bytes_ += sizeof(ValueInfo);
  slot = static_cast<uint32_t>(infos_.size());
  return vi;
}

const MyersPattern& BatchApproxMatcher::PatternFor(ValueInfo& info) {
  if (info.pattern) {
    ++stats_.pattern_cache_hits;
    return *info.pattern;
  }
  ++stats_.pattern_cache_misses;
  info.pattern = std::make_unique<MyersPattern>();
  BuildMyersPattern(info.text, info.pattern.get());
  cache_bytes_ += sizeof(MyersPattern) + info.pattern->MaskBytes();
  return *info.pattern;
}

}  // namespace ms
