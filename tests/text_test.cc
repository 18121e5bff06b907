// Tests for cell normalization, the banded edit distance of Algorithm 2
// (validated against the full-matrix reference on random inputs), the
// bit-parallel Myers kernels (locked to the full DP by a differential fuzz
// harness), the fractional matching threshold, and the synonym dictionary.
#include <memory>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "common/random.h"
#include "oracles/edit_distance_reference.h"
#include "text/edit_distance.h"
#include "text/myers.h"
#include "text/normalize.h"
#include "text/synonyms.h"

namespace ms {
namespace {

// -------------------------------------------------------------- Normalize

TEST(NormalizeTest, LowercasesAndCollapsesWhitespace) {
  EXPECT_EQ(NormalizeCell("  South   KOREA "), "south korea");
}

TEST(NormalizeTest, StripsPunctuation) {
  EXPECT_EQ(NormalizeCell("Korea, Republic of"), "korea republic of");
  EXPECT_EQ(NormalizeCell("American Samoa (US)"), "american samoa us");
}

TEST(NormalizeTest, StripsFootnoteMarks) {
  EXPECT_EQ(NormalizeCell("American Samoa[1]"), "american samoa");
  EXPECT_EQ(NormalizeCell("France[12][3]"), "france");
}

TEST(NormalizeTest, KeepsInnerBracketsThatAreNotFootnotes) {
  // "[ab]" is not a numeric footnote; punctuation stripping still removes
  // the brackets themselves.
  EXPECT_EQ(NormalizeCell("x [ab]"), "x ab");
}

TEST(NormalizeTest, OptionsCanDisableEachStep) {
  NormalizeOptions opts;
  opts.lowercase = false;
  opts.strip_punctuation = false;
  opts.strip_footnote_marks = false;
  opts.collapse_whitespace = false;
  EXPECT_EQ(NormalizeCell("A,b [1]", opts), "A,b [1]");
}

TEST(NormalizeTest, EmptyAndWhitespaceOnly) {
  EXPECT_EQ(NormalizeCell(""), "");
  EXPECT_EQ(NormalizeCell("   "), "");
  EXPECT_EQ(NormalizeCell("..."), "");
}

TEST(NormalizeTest, LooksNumeric) {
  EXPECT_TRUE(LooksNumeric("123"));
  EXPECT_TRUE(LooksNumeric("1,234.56"));
  EXPECT_TRUE(LooksNumeric("-42%"));
  EXPECT_TRUE(LooksNumeric("$1000"));
  EXPECT_FALSE(LooksNumeric("abc"));
  EXPECT_FALSE(LooksNumeric("12 apples"));
  EXPECT_FALSE(LooksNumeric(""));
}

TEST(NormalizeTest, LooksTemporal) {
  EXPECT_TRUE(LooksTemporal("1994"));
  EXPECT_TRUE(LooksTemporal("2017"));
  EXPECT_TRUE(LooksTemporal("10-12"));
  EXPECT_TRUE(LooksTemporal("7:30"));
  EXPECT_FALSE(LooksTemporal("3127"));  // not 1xxx/2xxx year
  EXPECT_FALSE(LooksTemporal("hello"));
  EXPECT_FALSE(LooksTemporal("10-12 pm"));
}

// ---------------------------------------------------------- EditDistance

TEST(EditDistanceTest, FullBasics) {
  EXPECT_EQ(EditDistanceFull("", ""), 0u);
  EXPECT_EQ(EditDistanceFull("abc", ""), 3u);
  EXPECT_EQ(EditDistanceFull("", "abc"), 3u);
  EXPECT_EQ(EditDistanceFull("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistanceFull("abc", "abc"), 0u);
  EXPECT_EQ(EditDistanceFull("usa", "rsa"), 1u);
}

TEST(EditDistanceTest, BandedMatchesFullWithinBand) {
  EXPECT_EQ(EditDistanceBanded("kitten", "sitting", 3), 3u);
  EXPECT_EQ(EditDistanceBanded("abc", "abc", 0), 0u);
  EXPECT_EQ(EditDistanceBanded("american samoa", "american samoa us", 3), 3u);
}

TEST(EditDistanceTest, BandedReportsExceededBand) {
  EXPECT_GT(EditDistanceBanded("kitten", "sitting", 2), 2u);
  EXPECT_GT(EditDistanceBanded("aaaa", "bbbb", 3), 3u);
  EXPECT_GT(EditDistanceBanded("short", "muchlongerstring", 3), 3u);
}

TEST(EditDistanceTest, BandedHandlesEmptyStrings) {
  EXPECT_EQ(EditDistanceBanded("", "", 0), 0u);
  EXPECT_EQ(EditDistanceBanded("", "ab", 2), 2u);
  EXPECT_GT(EditDistanceBanded("", "abc", 2), 2u);
}

TEST(EditDistanceTest, BandedIsSymmetric) {
  EXPECT_EQ(EditDistanceBanded("abcdef", "abdf", 4),
            EditDistanceBanded("abdf", "abcdef", 4));
}

/// Property sweep: the banded distance must agree with the full DP whenever
/// the true distance fits the band, and must report > band otherwise.
class BandedVsFullTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BandedVsFullTest, AgreesWithReference) {
  Rng rng(GetParam());
  const char alphabet[] = "abcde";
  for (int iter = 0; iter < 300; ++iter) {
    std::string a, b;
    const size_t la = rng.Uniform(15);
    const size_t lb = rng.Uniform(15);
    for (size_t i = 0; i < la; ++i) a += alphabet[rng.Uniform(5)];
    for (size_t i = 0; i < lb; ++i) b += alphabet[rng.Uniform(5)];
    const size_t truth = EditDistanceFull(a, b);
    for (size_t band = 0; band <= 6; ++band) {
      const size_t got = EditDistanceBanded(a, b, band);
      if (truth <= band) {
        EXPECT_EQ(got, truth) << "a=" << a << " b=" << b << " band=" << band;
      } else {
        EXPECT_GT(got, band) << "a=" << a << " b=" << b << " band=" << band;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, BandedVsFullTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ------------------------------------------------------------------ Myers

TEST(MyersTest, SingleWordBasics) {
  EXPECT_EQ(Myers64("", ""), 0u);
  EXPECT_EQ(Myers64("abc", ""), 3u);
  EXPECT_EQ(Myers64("", "abc"), 3u);
  EXPECT_EQ(Myers64("kitten", "sitting"), 3u);
  EXPECT_EQ(Myers64("abc", "abc"), 0u);
  EXPECT_EQ(Myers64("usa", "rsa"), 1u);
  EXPECT_EQ(Myers64("american samoa", "american samoa us"), 3u);
}

TEST(MyersTest, BlockedMatchesSingleWordOnSharedInputs) {
  EXPECT_EQ(MyersBlocked("kitten", "sitting"), 3u);
  EXPECT_EQ(MyersBlocked("", "xy"), 2u);
  EXPECT_EQ(MyersBlocked("xy", ""), 2u);
}

TEST(MyersTest, WordBoundaryPatterns) {
  // Patterns straddling the 64-bit word boundary exercise the carry chain
  // between blocks: lengths 63..65, 127..129, and a 3-block case.
  for (size_t len : {63u, 64u, 65u, 127u, 128u, 129u, 200u}) {
    std::string a(len, 'a');
    std::string b = a;
    b[len / 2] = 'b';            // one substitution
    std::string c = a + "xyz";   // three insertions
    EXPECT_EQ(MyersBlocked(a, a), 0u) << len;
    EXPECT_EQ(MyersBlocked(a, b), 1u) << len;
    EXPECT_EQ(MyersBlocked(a, c), 3u) << len;
    EXPECT_EQ(MyersBlocked(a, b), EditDistanceFull(a, b)) << len;
    if (len <= 64) {
      EXPECT_EQ(Myers64(a, b), 1u) << len;
      EXPECT_EQ(Myers64(a, c), 3u) << len;
    }
  }
}

TEST(MyersTest, PrebuiltPatternReuse) {
  MyersPattern p;
  BuildMyersPattern("washington", &p);
  EXPECT_TRUE(p.single_word());
  EXPECT_EQ(MyersDistance(p, "washington"), 0u);
  EXPECT_EQ(MyersDistance(p, "wisconsin"),
            EditDistanceFull("washington", "wisconsin"));
  // Rebuilding over the same object must fully reset the masks.
  BuildMyersPattern("ohio", &p);
  EXPECT_EQ(MyersDistance(p, "ohio"), 0u);
  EXPECT_EQ(MyersDistance(p, "iowa"), EditDistanceFull("ohio", "iowa"));
  BuildMyersPattern("", &p);
  EXPECT_EQ(MyersDistance(p, "xyz"), 3u);
}

TEST(MyersTest, UnicodeBytesAreByteLevel) {
  // Distances are over bytes, matching the scalar DP: "é" is two UTF-8
  // bytes, so café -> cafe is one substitution plus one deletion.
  const std::string accented = "caf\xc3\xa9";
  EXPECT_EQ(MyersBlocked(accented, "cafe"), EditDistanceFull(accented, "cafe"));
  EXPECT_EQ(Myers64(accented, "cafe"), 2u);
  const std::string high(3, '\xff');
  EXPECT_EQ(Myers64(high, "abc"), 3u);
  EXPECT_EQ(Myers64(high, high), 0u);
}

/// Differential fuzz generator: mixed lengths 0–200 over several alphabets
/// (tiny, lowercase, raw bytes, multi-byte UTF-8), long shared prefixes and
/// suffixes, mutated copies, and repeated-character blocks — the shapes that
/// break bit-parallel implementations (carry propagation, partial top
/// blocks, high-bit bytes).
struct DiffCase {
  std::string a, b;
};

/// The scalar form of the ApproxMatch predicate: the same fractional
/// threshold, decided by the banded DP instead of the Myers kernel.
bool BandedApproxMatch(std::string_view a, std::string_view b,
                       const EditDistanceOptions& opts = {}) {
  if (a == b) return true;
  const size_t band = FractionalThreshold(a, b, opts);
  return band > 0 && EditDistanceBanded(a, b, band) <= band;
}

DiffCase MakeDiffCase(Rng& rng) {
  auto rand_char = [&](int alphabet) -> char {
    switch (alphabet) {
      case 0: return static_cast<char>('a' + rng.Uniform(3));
      case 1: return static_cast<char>('a' + rng.Uniform(26));
      default: return static_cast<char>(rng.Uniform(256));
    }
  };
  auto rand_len = [&]() -> size_t {
    const double r = rng.UniformDouble();
    if (r < 0.55) return rng.Uniform(25);        // short: the corpus case
    if (r < 0.85) return 40 + rng.Uniform(60);   // 1-2 words
    return 120 + rng.Uniform(81);                // multi-block, up to 200
  };
  auto rand_str = [&](size_t len, int alphabet) {
    std::string s;
    s.reserve(len);
    if (alphabet == 3) {  // UTF-8 multibyte runs
      while (s.size() < len) {
        const uint64_t cp = 0x80 + rng.Uniform(0xffff - 0x80);
        if (cp < 0x800) {
          s += static_cast<char>(0xc0 | (cp >> 6));
          s += static_cast<char>(0x80 | (cp & 0x3f));
        } else {
          s += static_cast<char>(0xe0 | (cp >> 12));
          s += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
          s += static_cast<char>(0x80 | (cp & 0x3f));
        }
      }
      s.resize(len);
      return s;
    }
    if (alphabet == 4) {  // repeated-char blocks
      while (s.size() < len) {
        const char c = static_cast<char>('a' + rng.Uniform(3));
        const size_t run = 1 + rng.Uniform(12);
        s.append(std::min(run, len - s.size()), c);
      }
      return s;
    }
    for (size_t i = 0; i < len; ++i) s += rand_char(alphabet);
    return s;
  };

  const int alphabet = static_cast<int>(rng.Uniform(5));
  DiffCase c;
  c.a = rand_str(rand_len(), alphabet);
  switch (rng.Uniform(4)) {
    case 0:  // independent
      c.b = rand_str(rand_len(), alphabet);
      break;
    case 1: {  // mutated copy: substitutions + indels
      c.b = c.a;
      const size_t edits = rng.Uniform(8);
      for (size_t e = 0; e < edits && !c.b.empty(); ++e) {
        const size_t pos = rng.Uniform(c.b.size() + 1);
        switch (rng.Uniform(3)) {
          case 0:
            if (pos < c.b.size()) c.b[pos] = rand_char(alphabet);
            break;
          case 1:
            c.b.insert(c.b.begin() + pos, rand_char(alphabet));
            break;
          default:
            if (pos < c.b.size()) c.b.erase(c.b.begin() + pos);
            break;
        }
      }
      break;
    }
    case 2: {  // shared prefix, divergent middle, shared suffix
      const std::string prefix = rand_str(rng.Uniform(80), alphabet);
      const std::string suffix = rand_str(rng.Uniform(80), alphabet);
      c.a = prefix + rand_str(rng.Uniform(12), alphabet) + suffix;
      c.b = prefix + rand_str(rng.Uniform(12), alphabet) + suffix;
      break;
    }
    default:  // length-skewed: one side much longer
      c.b = c.a + rand_str(rand_len(), alphabet);
      if (rng.Bernoulli(0.5)) std::swap(c.a, c.b);
      break;
  }
  if (c.a.size() > 200) c.a.resize(200);
  if (c.b.size() > 200) c.b.resize(200);
  return c;
}

/// ≥ 10k seeded cases across the suite: every fast path must agree with the
/// O(nm) full-matrix oracle, and the banded DP must agree within its band.
class MyersDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MyersDifferentialTest, AllImplementationsAgree) {
  Rng rng(GetParam());
  MyersPattern prebuilt;
  for (int iter = 0; iter < 1300; ++iter) {
    const DiffCase c = MakeDiffCase(rng);
    const size_t truth = EditDistanceFull(c.a, c.b);

    // Bit-parallel kernels are exact everywhere.
    EXPECT_EQ(MyersBlocked(c.a, c.b), truth)
        << "|a|=" << c.a.size() << " |b|=" << c.b.size() << " iter=" << iter;
    if (c.a.size() <= 64) {
      EXPECT_EQ(Myers64(c.a, c.b), truth) << "iter=" << iter;
    }
    BuildMyersPattern(c.a, &prebuilt);
    EXPECT_EQ(MyersDistance(prebuilt, c.b), truth) << "iter=" << iter;

    // The banded scalar and the bounded (early-abandoning) Myers variant
    // agree whenever the distance fits the band, and both report > band
    // otherwise.
    for (const size_t band :
         {size_t{0}, size_t{2}, size_t{10}, truth, truth + 1}) {
      const size_t got = EditDistanceBanded(c.a, c.b, band);
      const size_t bounded = MyersDistanceBounded(prebuilt, c.b, band);
      if (truth <= band) {
        EXPECT_EQ(got, truth) << "band=" << band << " iter=" << iter;
        EXPECT_EQ(bounded, truth) << "band=" << band << " iter=" << iter;
      } else {
        EXPECT_GT(got, band) << "band=" << band << " iter=" << iter;
        EXPECT_GT(bounded, band) << "band=" << band << " iter=" << iter;
      }
    }

    // The Myers-backed ApproxMatch predicate agrees with the banded DP and
    // with the full-matrix distance under the same threshold.
    EXPECT_EQ(ApproxMatch(c.a, c.b), BandedApproxMatch(c.a, c.b))
        << "iter=" << iter;
    const size_t threshold = FractionalThreshold(c.a, c.b);
    EXPECT_EQ(ApproxMatch(c.a, c.b),
              c.a == c.b || (threshold > 0 && truth <= threshold))
        << "iter=" << iter;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, MyersDifferentialTest,
                         ::testing::Values(101, 102, 103, 104, 105, 106, 107,
                                           108));

// ----------------------------------------------------- ApproxMatch properties

TEST(ApproxMatchPropertyTest, SymmetricLikeTheBandedDp) {
  Rng rng(555);
  for (int iter = 0; iter < 2000; ++iter) {
    const DiffCase c = MakeDiffCase(rng);
    EXPECT_EQ(ApproxMatch(c.a, c.b), ApproxMatch(c.b, c.a))
        << "iter=" << iter;
    EXPECT_EQ(BandedApproxMatch(c.a, c.b), BandedApproxMatch(c.b, c.a))
        << "iter=" << iter;
  }
}

TEST(EditDistancePropertyTest, BandMonotonicity) {
  // Once the band admits the true distance, widening it never changes the
  // result; below it, the reported value always exceeds the band.
  Rng rng(556);
  for (int iter = 0; iter < 1000; ++iter) {
    const DiffCase c = MakeDiffCase(rng);
    const size_t truth = EditDistanceFull(c.a, c.b);
    size_t prev = EditDistanceBanded(c.a, c.b, 0);
    for (size_t band = 1; band <= 12; ++band) {
      const size_t cur = EditDistanceBanded(c.a, c.b, band);
      if (truth <= band - 1) {
        EXPECT_EQ(cur, prev) << "band=" << band;  // stable once admitted
      }
      EXPECT_TRUE(cur == truth || cur > band) << "band=" << band;
      prev = cur;
    }
  }
}

TEST(FractionalThresholdTest, EmptyStringBoundaries) {
  EXPECT_EQ(FractionalThreshold("", ""), 0u);
  EXPECT_EQ(FractionalThreshold("", "abcdefghij"), 0u);
  // Equal strings still match (exact equality shortcut), empty-vs-nonempty
  // never does, in the Myers predicate and the banded DP alike.
  EXPECT_TRUE(ApproxMatch("", ""));
  EXPECT_FALSE(ApproxMatch("", "a"));
  EXPECT_FALSE(ApproxMatch("abcdefghij", ""));
  EXPECT_TRUE(BandedApproxMatch("", ""));
  EXPECT_FALSE(BandedApproxMatch("", "a"));
  EXPECT_FALSE(BandedApproxMatch("abcdefghij", ""));
}

TEST(FractionalThresholdTest, ExactlyIntegralProducts) {
  // len · f_ed landing exactly on an integer must not round up: |a| = 10,
  // f = 0.2 → θ = 2, so distance-3 pairs of 10-char strings never match.
  EXPECT_EQ(FractionalThreshold("aaaaaaaaaa", "bbbbbbbbbb"), 2u);
  EXPECT_EQ(FractionalThreshold("aaaaa", "bbbbb"), 1u);
  EditDistanceOptions opts;
  EXPECT_TRUE(ApproxMatch("aaaaaaaaaa", "aaaaaaaabb", opts));   // d=2 == θ
  EXPECT_FALSE(ApproxMatch("aaaaaaaaaa", "aaaaaaabbb", opts));  // d=3 > θ
}

TEST(FractionalThresholdTest, CapSaturationBoundary) {
  // 50 · 0.2 = 10 hits k_ed exactly; longer strings stay clamped at 10.
  const std::string a50(50, 'x'), b50(50, 'y');
  EXPECT_EQ(FractionalThreshold(a50, b50), 10u);
  const std::string a55(55, 'x'), b55(55, 'y');
  EXPECT_EQ(FractionalThreshold(a55, b55), 10u);  // min(11, 11, cap)
  EditDistanceOptions uncapped;
  uncapped.cap = 100;
  EXPECT_EQ(FractionalThreshold(a55, b55, uncapped), 11u);
  // At the cap boundary the predicate is exact: 10 edits match, 11 don't.
  std::string base(60, 'x');
  std::string ten_edits = base, eleven_edits = base;
  for (int i = 0; i < 10; ++i) ten_edits[i] = 'y';
  for (int i = 0; i < 11; ++i) eleven_edits[i] = 'y';
  EXPECT_TRUE(ApproxMatch(base, ten_edits));
  EXPECT_FALSE(ApproxMatch(base, eleven_edits));
  EXPECT_TRUE(BandedApproxMatch(base, ten_edits));
  EXPECT_FALSE(BandedApproxMatch(base, eleven_edits));
}

TEST(FractionalThresholdTest, PaperExample8) {
  // θ_ed("American Samoa"(13ch no punct? use raw), ...) = min{⌊13*0.2⌋,
  // ⌊15*0.2⌋, 10} = 2 per the paper's walk-through.
  std::string a = "american samoa";     // 14 chars
  std::string b = "american samoa us";  // 17 chars
  EXPECT_EQ(FractionalThreshold(a, b), 2u);
}

TEST(FractionalThresholdTest, ShortCodesRequireExactMatch) {
  EXPECT_EQ(FractionalThreshold("USA", "RSA"), 0u);
  EXPECT_FALSE(ApproxMatch("USA", "RSA"));
  EXPECT_TRUE(ApproxMatch("USA", "USA"));
}

TEST(FractionalThresholdTest, CapAppliesToVeryLongStrings) {
  std::string a(200, 'x');
  std::string b(200, 'y');
  EXPECT_EQ(FractionalThreshold(a, b), 10u);  // k_ed cap
}

TEST(ApproxMatchTest, ToleratesSmallVariation) {
  // 2 edits, threshold min(⌊17·0.2⌋, ⌊15·0.2⌋, 10) = 3: match.
  EXPECT_TRUE(ApproxMatch("korea republic of", "korea republic f"));
  // 3 edits, threshold min(3, ⌊14·0.2⌋ = 2, 10) = 2: no match.
  EXPECT_FALSE(ApproxMatch("korea republic of", "korea republic"));
  EXPECT_FALSE(ApproxMatch("washington", "wisconsin"));
}

TEST(ApproxMatchTest, CustomOptions) {
  EditDistanceOptions strict;
  strict.fractional = 0.0;
  EXPECT_FALSE(ApproxMatch("abcdefgh", "abcdefgx", strict));
  EditDistanceOptions loose;
  loose.fractional = 0.5;
  EXPECT_TRUE(ApproxMatch("abcdefgh", "abcdxxgh", loose));
}

// ---------------------------------------------------------------- Synonyms

class SynonymTest : public ::testing::Test {
 protected:
  SynonymTest() : pool_(std::make_shared<StringPool>()), dict_(pool_) {}
  std::shared_ptr<StringPool> pool_;
  SynonymDictionary dict_;
};

TEST_F(SynonymTest, BasicPairs) {
  dict_.AddSynonym("US Virgin Islands", "United States Virgin Islands");
  EXPECT_TRUE(
      dict_.AreSynonyms("US Virgin Islands", "United States Virgin Islands"));
  EXPECT_FALSE(dict_.AreSynonyms("US Virgin Islands", "Guam"));
}

TEST_F(SynonymTest, Transitivity) {
  dict_.AddSynonym("a", "b");
  dict_.AddSynonym("b", "c");
  EXPECT_TRUE(dict_.AreSynonyms("a", "c"));
}

TEST_F(SynonymTest, SelfSynonymAlwaysTrue) {
  ValueId v = pool_->Intern("solo");
  EXPECT_TRUE(dict_.AreSynonyms(v, v));
  EXPECT_TRUE(dict_.AreSynonyms("never seen", "never seen"));
}

TEST_F(SynonymTest, UnknownStringsAreNotSynonyms) {
  EXPECT_FALSE(dict_.AreSynonyms("ghost1", "ghost2"));
}

TEST_F(SynonymTest, ClassMembersEnumeratesClass) {
  dict_.AddSynonym("x", "y");
  dict_.AddSynonym("y", "z");
  ValueId x = pool_->Find("x");
  auto members = dict_.ClassMembers(x);
  EXPECT_EQ(members.size(), 3u);
}

TEST_F(SynonymTest, ClassOfSingletonIsSelf) {
  ValueId v = pool_->Intern("lonely");
  EXPECT_EQ(dict_.ClassOf(v), v);
  auto members = dict_.ClassMembers(v);
  ASSERT_EQ(members.size(), 1u);
  EXPECT_EQ(members[0], v);
}

TEST_F(SynonymTest, IdempotentAdd) {
  dict_.AddSynonym("p", "q");
  dict_.AddSynonym("p", "q");
  dict_.AddSynonym("q", "p");
  EXPECT_TRUE(dict_.AreSynonyms("p", "q"));
  EXPECT_EQ(dict_.ClassMembers(pool_->Find("p")).size(), 2u);
}

}  // namespace
}  // namespace ms
