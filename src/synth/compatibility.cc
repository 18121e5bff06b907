#include "synth/compatibility.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <string_view>
#include <tuple>
#include <vector>

namespace ms {

Status CompatibilityOptions::Validate() const { return edit.Validate(); }

bool ValuesMatch(ValueId a, ValueId b, const StringPool& pool,
                 const CompatibilityOptions& opts) {
  if (a == b) return true;
  if (opts.synonyms != nullptr && opts.synonyms->View()->AreSynonyms(a, b)) {
    return true;
  }
  if (!opts.approximate_matching) return false;
  return ApproxMatch(pool.Get(a), pool.Get(b), opts.edit);
}

namespace {

using Record = BatchApproxMatcher::Record;

PairScores FinishScores(PairScores s, const BinaryTable& a,
                        const BinaryTable& b) {
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  const double ov = static_cast<double>(s.overlap);
  const double cf = static_cast<double>(s.conflicts);
  s.w_pos = std::max(ov / na, ov / nb);
  s.w_neg = -std::max(cf / na, cf / nb);
  return s;
}

}  // namespace

/// One table resolved through the matcher: each left-run's left value and
/// each row's right value as records, and the rows in content order. Rows
/// [run_begin[r], run_begin[r + 1]) share left value lefts[r]. Everything
/// here depends only on the table and the matching configuration, so one
/// resolution serves every pair the table meets.
struct PairScorer::ResolvedTable {
  std::vector<uint32_t> run_begin;  ///< one per run, plus the end mark
  std::vector<uint32_t> run_of;     ///< row -> its left-run
  std::vector<Record> lefts;        ///< one per run
  std::vector<Record> rights;       ///< one per row
  /// Rows sorted by (left string, right string); built by the first pair
  /// that needs the residue pass.
  std::vector<uint32_t> by_content;
  bool sorted = false;

  size_t runs() const { return lefts.size(); }

  void Resolve(const BinaryTable& t, BatchApproxMatcher& matcher) {
    const auto& pairs = t.pairs();
    run_begin.clear();
    run_of.clear();
    lefts.clear();
    rights.clear();
    sorted = false;
    for (uint32_t i = 0; i < pairs.size(); ++i) {
      if (i == 0 || pairs[i].left != pairs[i - 1].left) {
        run_begin.push_back(i);
        lefts.push_back(matcher.Resolve(pairs[i].left));
      }
      run_of.push_back(static_cast<uint32_t>(lefts.size() - 1));
      rights.push_back(matcher.Resolve(pairs[i].right));
    }
    run_begin.push_back(static_cast<uint32_t>(pairs.size()));
  }

  /// The greedy residue matching is order-sensitive when a residue value
  /// could pair with several counterparts, and pair lists arrive sorted by
  /// ValueId — i.e. by string-pool *interning order*, which is a corpus
  /// construction history, not a property of the tables. Canonicalize to
  /// value content so two corpora holding the same tables score
  /// identically no matter how their pools were grown (the incremental
  /// path's pool retains removed tables' values; a cold rebuild's does
  /// not). A residue in content order is this order with the exactly
  /// matched rows left out. The keys are the records' pool views, or come
  /// from the matcher's value cache when matching is not approximate
  /// (records then hold no text), never from StringPool::Get: every Get
  /// locks the pool, so calling it per comparison serializes the scoring
  /// workers on that one mutex. The pool stores each string once, so equal
  /// keys mean equal pairs and the order is the same as sorting through the
  /// pool.
  const std::vector<uint32_t>& ContentOrder(const BinaryTable& t,
                                            BatchApproxMatcher& matcher,
                                            bool records_have_text) {
    if (sorted) return by_content;
    struct Keyed {
      std::string_view left, right;
      uint32_t row;
    };
    static thread_local std::vector<Keyed> keyed;
    keyed.clear();
    for (uint32_t x = 0; x < rights.size(); ++x) {
      if (records_have_text) {
        keyed.push_back({lefts[run_of[x]].view(), rights[x].view(), x});
      } else {
        keyed.push_back({matcher.Text(t.pairs()[x].left),
                         matcher.Text(t.pairs()[x].right), x});
      }
    }
    std::sort(keyed.begin(), keyed.end(), [](const Keyed& p, const Keyed& q) {
      return std::tie(p.left, p.right) < std::tie(q.left, q.right);
    });
    by_content.clear();
    for (const Keyed& k : keyed) by_content.push_back(k.row);
    sorted = true;
    return by_content;
  }
};

/// Resolved tables cached by address, and the per-pair working set.
struct PairScorer::Tables {
  FlatMap64<uint32_t> slot_of;  ///< table address -> entries slot + 1
  /// A deque, so resolving b never moves a's entry; a flush keeps the
  /// entries' buffers for reuse.
  std::deque<ResolvedTable> entries;
  size_t in_use = 0;  ///< entries holding a cached table

  /// Lazily filled left-run x left-run verdicts of the pair being scored
  /// (0 unknown, 1 no, 2 yes).
  std::vector<uint8_t> verdicts;
  std::vector<uint8_t> matched_a, matched_b;
  std::vector<uint32_t> rest_a, rest_b;
  std::vector<uint8_t> used_b;
};

/// The pair's shared grid of left verdicts: the overlap and conflict passes
/// both read it, so each (left of a, left of b) is decided at most once
/// per pair, with a's left as the pattern side, exactly as every per-
/// comparison Match(a_left, b_left) would have decided it.
class PairScorer::LeftVerdicts {
 public:
  LeftVerdicts(const ResolvedTable& a, const ResolvedTable& b,
               BatchApproxMatcher& matcher, std::vector<uint8_t>* cells)
      : a_(a), b_(b), matcher_(matcher), cells_(*cells) {
    cells_.assign(a.runs() * b.runs(), kUnknown);
  }

  bool Match(uint32_t ra, uint32_t rb) {
    uint8_t& c = cells_[static_cast<size_t>(ra) * b_.runs() + rb];
    if (c == kUnknown) {
      c = matcher_.Match(a_.lefts[ra], b_.lefts[rb]) ? kYes : kNo;
    }
    return c == kYes;
  }

 private:
  static constexpr uint8_t kUnknown = 0, kNo = 1, kYes = 2;
  const ResolvedTable& a_;
  const ResolvedTable& b_;
  BatchApproxMatcher& matcher_;
  std::vector<uint8_t>& cells_;
};

PairScorer::PairScorer(const CompatibilityOptions& opts,
                       BatchApproxMatcher* matcher)
    : opts_(opts), matcher_(matcher), tables_(std::make_unique<Tables>()) {}

PairScorer::~PairScorer() = default;

PairScorer::ResolvedTable& PairScorer::Resolved(const BinaryTable& t) {
  uint32_t& slot = tables_->slot_of[reinterpret_cast<uintptr_t>(&t)];
  if (slot == 0) {
    if (tables_->in_use == tables_->entries.size()) {
      tables_->entries.emplace_back();
    }
    tables_->entries[tables_->in_use].Resolve(t, *matcher_);
    slot = static_cast<uint32_t>(++tables_->in_use);
  }
  return tables_->entries[slot - 1];
}

PairScores PairScorer::Score(const BinaryTable& a, const BinaryTable& b,
                             const BlockingHint* hint, ScoringStats* stats) {
  PairScores s;
  if (hint) {
    s.shared_pairs = hint->shared_pairs;
    s.shared_lefts = hint->shared_lefts;
  }
  if (a.empty() || b.empty()) return s;
  // An overflowing cache is flushed whole, so flush before resolving
  // either table: `ra` must stay valid while `b` resolves.
  Tables& tc = *tables_;
  if (tc.in_use + 2 > kMaxTables) {
    tc.slot_of.Clear();
    tc.in_use = 0;
  }
  ResolvedTable& ra = Resolved(a);
  ResolvedTable& rb = Resolved(b);
  LeftVerdicts lefts(ra, rb, *matcher_, &tc.verdicts);
  BatchApproxMatcher& matcher = *matcher_;
  const bool exact_only = !opts_.approximate_matching && !opts_.synonyms;

  // Overlap: greedy one-to-one matching of a's pairs against b's pairs.
  // Under exact-only matching, |B ∩ B'| is precisely blocking's shared-pair
  // co-occurrence count, so an exact hint replaces the merge. Otherwise
  // exact matches are resolved with a sorted merge first, and only the
  // residue pays the quadratic approximate pass (candidate tables are
  // small), reading left verdicts from the pair's grid.
  if (exact_only && hint && hint->exact) {
    s.overlap = hint->shared_pairs;
    if (stats) ++stats->overlap_merges_skipped;
  } else {
    const auto& pa = a.pairs();
    const auto& pb = b.pairs();
    tc.matched_a.assign(pa.size(), 0);
    tc.matched_b.assign(pb.size(), 0);
    size_t exact = 0;
    size_t i = 0, j = 0;
    while (i < pa.size() && j < pb.size()) {
      if (pa[i] < pb[j]) {
        ++i;
      } else if (pb[j] < pa[i]) {
        ++j;
      } else {
        tc.matched_a[i++] = 1;
        tc.matched_b[j++] = 1;
        ++exact;
      }
    }
    size_t approx = 0;
    if (!exact_only && exact < pa.size() && exact < pb.size()) {
      const auto residue = [&](ResolvedTable& r, const BinaryTable& t,
                               const std::vector<uint8_t>& matched,
                               std::vector<uint32_t>* rest) {
        rest->clear();
        for (uint32_t x :
             r.ContentOrder(t, matcher, opts_.approximate_matching)) {
          if (!matched[x]) rest->push_back(x);
        }
      };
      residue(ra, a, tc.matched_a, &tc.rest_a);
      residue(rb, b, tc.matched_b, &tc.rest_b);
      // Approximate residue matching (greedy, each b-pair used once).
      tc.used_b.assign(tc.rest_b.size(), 0);
      for (const uint32_t x : tc.rest_a) {
        const uint32_t run = ra.run_of[x];
        const Record& right = ra.rights[x];
        for (size_t k = 0; k < tc.rest_b.size(); ++k) {
          if (tc.used_b[k]) continue;
          const uint32_t y = tc.rest_b[k];
          if (lefts.Match(run, rb.run_of[y]) &&
              matcher.Match(right, rb.rights[y])) {
            tc.used_b[k] = 1;
            ++approx;
            break;
          }
        }
      }
    }
    s.overlap = exact + approx;
  }

  // Conflicts: a's left-runs whose left matches some b left while their
  // rights differ (and are not synonyms / approximate matches). The
  // predicate per a-run is purely existential over b's runs. This scan
  // always runs: blocking's left counts cannot prove the conflict set
  // empty for any pair that survived blocking (an untruncated shared value
  // pair implies a shared left, so every exact-hinted survivor has
  // shared_lefts >= 1).
  size_t conflicts = 0;
  for (uint32_t x_run = 0; x_run < ra.runs(); ++x_run) {
    bool any_left_match = false;
    bool any_right_conflict = false;
    for (uint32_t y_run = 0; y_run < rb.runs(); ++y_run) {
      if (!lefts.Match(x_run, y_run)) continue;
      any_left_match = true;
      // Conflict if some right of a's run fails to match some right of
      // b's run (paper: ∃ r != r').
      for (uint32_t x = ra.run_begin[x_run];
           x < ra.run_begin[x_run + 1] && !any_right_conflict; ++x) {
        for (uint32_t y = rb.run_begin[y_run]; y < rb.run_begin[y_run + 1];
             ++y) {
          if (!matcher.Match(ra.rights[x], rb.rights[y])) {
            any_right_conflict = true;
            break;
          }
        }
      }
      if (any_right_conflict) break;
    }
    if (any_left_match && any_right_conflict) ++conflicts;
  }
  s.conflicts = conflicts;
  return FinishScores(s, a, b);
}

PairScores ComputeCompatibility(const BinaryTable& a, const BinaryTable& b,
                                const StringPool& pool,
                                const CompatibilityOptions& opts) {
  BatchApproxMatcher matcher(pool, opts.edit, opts.approximate_matching,
                             opts.synonyms);
  return ComputeCompatibility(a, b, pool, opts, &matcher);
}

PairScores ComputeCompatibility(const BinaryTable& a, const BinaryTable& b,
                                const StringPool& pool,
                                const CompatibilityOptions& opts,
                                BatchApproxMatcher* matcher,
                                const BlockingHint* hint,
                                ScoringStats* stats) {
  // Ids resolve against the matcher's pool; a mismatched pool would yield
  // plausible but wrong scores with nothing else flagging it.
  assert(&matcher->pool() == &pool);
  (void)pool;
  return PairScorer(opts, matcher).Score(a, b, hint, stats);
}

}  // namespace ms
