// Tests for the artifact persistence layer (src/persist/): snapshot
// save/load must round-trip every stage artifact bit-exactly, a restored
// session must resolve byte-identical mappings to the uninterrupted run,
// the mmap corpus store must reproduce the TSV-parsed corpus exactly, and
// — the durability contract — any bit flip or truncation of a container
// must surface as Status::DataLoss, never a crash or a silently different
// artifact. Options-fingerprint mismatches are FailedPrecondition (the file
// is intact, the configuration is not compatible).
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/serving.h"
#include "common/crc32.h"
#include "common/random.h"
#include "corpusgen/builtin_domains.h"
#include "corpusgen/generator.h"
#include "persist/artifact_codec.h"
#include "persist/corpus_store.h"
#include "persist/mapping_text.h"
#include "persist/mmap_file.h"
#include "persist/snapshot.h"
#include "synth/session.h"
#include "table/tsv.h"

namespace ms {
namespace {

GeneratedWorld SmallWorld(uint64_t seed = 7) {
  auto all = BuiltinWebRelationships();
  std::vector<RelationshipSpec> specs;
  for (auto& s : all) {
    if (s.name == "country_iso3" || s.name == "country_ioc" ||
        s.name == "state_abbrev" || s.name == "element_symbol") {
      s.popularity = 12;
      specs.push_back(std::move(s));
    }
  }
  GeneratorOptions opts;
  opts.seed = seed;
  opts.noise_table_fraction = 0.2;
  return GenerateWorld(std::move(specs), opts);
}

SynthesisOptions FastOptions() {
  SynthesisOptions o;
  o.num_threads = 4;
  o.min_domains = 2;
  return o;
}

/// Canonical string-level view of a mapping set (pool-independent, so
/// results restored against a different StringPool instance compare).
std::multiset<std::string> CanonicalMappings(const SynthesisResult& r,
                                             const StringPool& pool) {
  std::multiset<std::string> out;
  for (const auto& m : r.mappings) {
    std::string key = m.left_label + "\x1f" + m.right_label + "\x1f" +
                      std::to_string(m.kept_tables.size()) + "\x1f";
    for (const auto& p : m.merged.pairs()) {
      key += std::string(pool.Get(p.left)) + "\x1e" +
             std::string(pool.Get(p.right)) + "\x1f";
    }
    out.insert(std::move(key));
  }
  return out;
}

std::string TempPath(const std::string& name) { return "/tmp/" + name; }

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

// ------------------------------------------------------------- string pool

TEST(StringPoolPersistTest, AdoptExternalIsZeroCopyAndIndexed) {
  // Backing the pool pins: views must point INTO this buffer, not copies.
  auto backing = std::make_shared<std::string>("alphabetagamma");
  std::vector<std::string_view> views = {
      std::string_view(*backing).substr(0, 5),   // "alpha"
      std::string_view(*backing).substr(5, 4),   // "beta"
      std::string_view(*backing).substr(9, 5)};  // "gamma"

  StringPool pool;
  ValueId first = pool.Intern("zero");
  pool.AdoptExternal(views);
  pool.RetainBacking(backing);

  EXPECT_EQ(first, 0u);
  EXPECT_EQ(pool.size(), 4u);
  EXPECT_EQ(pool.Get(1), "alpha");
  EXPECT_EQ(pool.Get(3), "gamma");
  // Zero-copy: the returned view aliases the backing buffer.
  EXPECT_EQ(pool.Get(1).data(), backing->data());
  // The string -> id index over adopted views is deferred: id-based reads
  // leave it unbuilt...
  EXPECT_EQ(pool.indexed_strings(), 1u);  // only the Intern()'d "zero"
  // ...and the first string -> id operation materializes it transparently.
  EXPECT_EQ(pool.Find("beta"), 2u);
  EXPECT_EQ(pool.indexed_strings(), 4u);
  EXPECT_EQ(pool.Intern("beta"), 2u);
}

TEST(StringPoolPersistTest, CorpusStoreOpenDefersPoolIndexing) {
  GeneratedWorld world = SmallWorld(17);
  const std::string store = TempPath("lazy_index.mscorp");
  ASSERT_TRUE(persist::SaveCorpusStore(world.corpus, store).ok());

  auto opened = persist::OpenCorpusStore(store);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  TableCorpus corpus = std::move(opened).value();
  // Opening adopts every value zero-copy WITHOUT building the string -> id
  // hash — the dominant open cost for id-only consumers.
  EXPECT_GT(corpus.pool().size(), 0u);
  EXPECT_EQ(corpus.pool().indexed_strings(), 0u);
  // Id-based reads (what serving lookups and synthesis scoring do) never
  // trigger the build.
  for (ValueId v = 0; v < 16 && v < corpus.pool().size(); ++v) {
    corpus.pool().Get(v);
  }
  EXPECT_EQ(corpus.pool().indexed_strings(), 0u);
  // The first intern (e.g. extraction normalizing on top) builds it once.
  corpus.pool().Intern("a brand new value");
  EXPECT_EQ(corpus.pool().indexed_strings(), corpus.pool().size());
  std::remove(store.c_str());
}

TEST(StringPoolPersistTest, ReadOnlyServingNeverBuildsPoolIndex) {
  // The restore-and-serve path: snapshot -> MappingStore -> lookups. The
  // store normalizes probes itself and maps strings through its own hashes,
  // so the snapshot pool's lazy index must never materialize.
  GeneratedWorld world = SmallWorld(19);
  SynthesisOptions options = FastOptions();
  const std::string path = TempPath("lazy_serving.mssnap");
  {
    SynthesisSession session(options);
    auto cands = session.ExtractCandidates(world.corpus);
    ASSERT_TRUE(cands.ok());
    auto result = session.FinishFromCandidates(cands.value());
    ASSERT_TRUE(result.ok());
    ASSERT_TRUE(session
                    .SaveSnapshot(path, cands.value(), nullptr, nullptr,
                                  &result.value())
                    .ok());
  }
  SynthesisSession session(options);
  auto restored = session.RestoreSnapshot(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const SessionSnapshot& snap = restored.value();
  snap.pool->MarkReadOnly();
  EXPECT_EQ(snap.pool->indexed_strings(), 0u);

  MappingStore store(snap.pool, options.extraction.normalize);
  ASSERT_TRUE(snap.has_result);
  for (const auto& m : snap.result.mappings) {
    store.Add(m, m.left_label + "->" + m.right_label);
  }
  if (store.size() > 0) {
    store.Probe(0, "washington");
    store.LookupRight(0, "oregon");
    store.FindByContainment({"california", "texas"}, 1);
  }
  // Serving built its own indexes; the pool's stayed lazy.
  EXPECT_EQ(snap.pool->indexed_strings(), 0u);
  std::remove(path.c_str());
}

TEST(StringPoolPersistTest, ReadOnlyModeRefusesNewStrings) {
  StringPool pool;
  ValueId a = pool.Intern("hello");
  pool.MarkReadOnly();
  EXPECT_TRUE(pool.read_only());
  // Existing strings still resolve; unseen ones refuse instead of mutating.
  EXPECT_EQ(pool.Intern("hello"), a);
  EXPECT_EQ(pool.Intern("world"), kInvalidValueId);
  EXPECT_EQ(pool.Find("world"), kInvalidValueId);
  EXPECT_EQ(pool.size(), 1u);
  std::vector<ValueId> ids;
  pool.InternBatch({"hello", "world"}, &ids);
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], a);
  EXPECT_EQ(ids[1], kInvalidValueId);
}

// ------------------------------------------------------------ corpus store

TEST(CorpusStoreTest, RoundTripReproducesCorpusExactly) {
  GeneratedWorld world = SmallWorld(11);
  const std::string path = TempPath("ms_persist_corpus.mscorp");
  ASSERT_TRUE(persist::SaveCorpusStore(world.corpus, path).ok());

  auto opened = persist::OpenCorpusStore(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const TableCorpus& restored = opened.value();

  ASSERT_EQ(restored.size(), world.corpus.size());
  ASSERT_EQ(restored.pool().size(), world.corpus.pool().size());
  for (size_t v = 0; v < world.corpus.pool().size(); ++v) {
    ASSERT_EQ(restored.pool().Get(static_cast<ValueId>(v)),
              world.corpus.pool().Get(static_cast<ValueId>(v)));
  }
  for (size_t t = 0; t < world.corpus.size(); ++t) {
    const Table& a = world.corpus.tables()[t];
    const Table& b = restored.tables()[t];
    ASSERT_EQ(a.id, b.id);
    ASSERT_EQ(a.domain, b.domain);
    ASSERT_EQ(a.source, b.source);
    ASSERT_EQ(a.columns.size(), b.columns.size());
    for (size_t c = 0; c < a.columns.size(); ++c) {
      ASSERT_EQ(a.columns[c].name, b.columns[c].name);
      ASSERT_EQ(a.columns[c].cells, b.columns[c].cells);
    }
  }
  std::remove(path.c_str());
}

TEST(CorpusStoreTest, TsvConversionSynthesizesIdentically) {
  GeneratedWorld world = SmallWorld(12);
  const std::string tsv = TempPath("ms_persist_corpus.tsv");
  const std::string store = TempPath("ms_persist_converted.mscorp");
  ASSERT_TRUE(SaveCorpus(world.corpus, tsv).ok());
  ASSERT_TRUE(persist::ConvertTsvCorpusToStore(tsv, store).ok());

  TableCorpus from_tsv;
  ASSERT_TRUE(LoadCorpus(tsv, &from_tsv).ok());
  auto from_store = persist::OpenCorpusStore(store);
  ASSERT_TRUE(from_store.ok());

  // Single-threaded: the two corpora are id-identical, but parallel
  // extraction interns *newly normalized* variants in scheduling-dependent
  // order, and downstream tie-breaks (majority voting, pair sort order) are
  // ValueId-based — so cross-corpus determinism needs a deterministic
  // intern order. (Snapshot restores are immune: the saved pool already
  // contains the extraction-time strings in their final order.)
  SynthesisOptions serial = FastOptions();
  serial.num_threads = 1;
  SynthesisSession s1(serial);
  SynthesisSession s2(serial);
  auto r1 = s1.Run(from_tsv);
  auto r2 = s2.Run(from_store.value());
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(CanonicalMappings(r1.value(), from_tsv.pool()),
            CanonicalMappings(r2.value(), from_store.value().pool()));
  std::remove(tsv.c_str());
  std::remove(store.c_str());
}

TEST(CorpusStoreTest, WrongMagicIsDataLossNotMisparse) {
  // A valid *session snapshot* opened as a corpus store must fail cleanly.
  GeneratedWorld world = SmallWorld(13);
  SynthesisSession session(FastOptions());
  auto cands = session.ExtractCandidates(world.corpus);
  ASSERT_TRUE(cands.ok());
  const std::string path = TempPath("ms_persist_wrong_magic.mssnap");
  ASSERT_TRUE(session.SaveSnapshot(path, cands.value()).ok());
  auto opened = persist::OpenCorpusStore(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

// -------------------------------------------------------- session snapshot

struct StagedRun {
  GeneratedWorld world;
  SynthesisSession session;
  CandidateSet candidates;
  BlockedPairs blocked;
  ScoredGraph scored;
  SynthesisResult result;

  explicit StagedRun(uint64_t seed, SynthesisOptions options = FastOptions())
      : world(SmallWorld(seed)), session(options) {
    EXPECT_TRUE(session.status().ok());
    auto c = session.ExtractCandidates(world.corpus);
    EXPECT_TRUE(c.ok());
    candidates = std::move(c).value();
    auto b = session.BlockPairs(candidates);
    EXPECT_TRUE(b.ok());
    blocked = std::move(b).value();
    auto g = session.ScorePairs(candidates, blocked);
    EXPECT_TRUE(g.ok());
    scored = std::move(g).value();
    auto p = session.Partition(scored);
    EXPECT_TRUE(p.ok());
    auto r = session.Resolve(candidates, scored, p.value());
    EXPECT_TRUE(r.ok());
    result = std::move(r).value();
  }
};

TEST(SessionSnapshotTest, RoundTripRestoresArtifactsAndResolvesIdentically) {
  StagedRun run(21);
  const std::string path = TempPath("ms_persist_roundtrip.mssnap");
  ASSERT_TRUE(run.session
                  .SaveSnapshot(path, run.candidates, &run.blocked,
                                &run.scored, &run.result)
                  .ok());
  EXPECT_EQ(run.session.session_stats().snapshot_saves, 1u);

  // "Fresh process": a brand-new session restores the snapshot.
  SynthesisSession fresh(FastOptions());
  auto restored = fresh.RestoreSnapshot(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  SessionSnapshot& snap = restored.value();
  EXPECT_EQ(fresh.session_stats().snapshot_restores, 1u);

  // Lineage ids and cumulative stats survive the round trip.
  ASSERT_TRUE(snap.candidates != nullptr);
  ASSERT_TRUE(snap.blocked != nullptr);
  ASSERT_TRUE(snap.scored != nullptr);
  EXPECT_EQ(snap.candidates->artifact_id, run.candidates.artifact_id);
  EXPECT_EQ(snap.blocked->artifact_id, run.blocked.artifact_id);
  EXPECT_EQ(snap.blocked->candidates_id, run.blocked.candidates_id);
  EXPECT_EQ(snap.scored->candidates_id, run.scored.candidates_id);
  EXPECT_EQ(snap.candidates->stats.candidates, run.candidates.stats.candidates);
  EXPECT_EQ(snap.blocked->stats.candidate_pairs,
            run.blocked.stats.candidate_pairs);
  EXPECT_EQ(snap.scored->stats.graph_edges, run.scored.stats.graph_edges);
  EXPECT_DOUBLE_EQ(snap.scored->stats.scoring_seconds,
                   run.scored.stats.scoring_seconds);
  EXPECT_EQ(snap.scored->stats.scoring.matcher.match_calls,
            run.scored.stats.scoring.matcher.match_calls);

  // Artifact payloads: blocked pairs bit-exact, graph edge-exact (every
  // edge's endpoints, and its weights bitwise).
  ASSERT_EQ(snap.blocked->pairs.size(), run.blocked.pairs.size());
  for (size_t i = 0; i < run.blocked.pairs.size(); ++i) {
    EXPECT_EQ(snap.blocked->pairs[i].a, run.blocked.pairs[i].a);
    EXPECT_EQ(snap.blocked->pairs[i].b, run.blocked.pairs[i].b);
    EXPECT_EQ(snap.blocked->pairs[i].counts_exact,
              run.blocked.pairs[i].counts_exact);
  }
  const std::vector<CompatEdge>& saved = run.scored.graph.edges();
  const std::vector<CompatEdge>& loaded = snap.scored->graph.edges();
  ASSERT_GT(saved.size(), 0u);
  ASSERT_EQ(loaded.size(), saved.size());
  for (size_t e = 0; e < saved.size(); ++e) {
    EXPECT_EQ(loaded[e].u, saved[e].u) << "edge " << e;
    EXPECT_EQ(loaded[e].v, saved[e].v) << "edge " << e;
    EXPECT_EQ(std::bit_cast<uint64_t>(loaded[e].w_pos),
              std::bit_cast<uint64_t>(saved[e].w_pos))
        << "edge " << e;
    EXPECT_EQ(std::bit_cast<uint64_t>(loaded[e].w_neg),
              std::bit_cast<uint64_t>(saved[e].w_neg))
        << "edge " << e;
  }
  // The restored adjacency lists every vertex's incident edges exactly as
  // the saved graph does.
  ASSERT_EQ(snap.scored->graph.num_vertices(),
            run.scored.graph.num_vertices());
  for (VertexId v = 0; v < run.scored.graph.num_vertices(); ++v) {
    const std::span<const uint32_t> want = run.scored.graph.IncidentEdges(v);
    const std::span<const uint32_t> got = snap.scored->graph.IncidentEdges(v);
    EXPECT_EQ(std::vector<uint32_t>(got.begin(), got.end()),
              std::vector<uint32_t>(want.begin(), want.end()))
        << "vertex " << v;
  }

  // The saved result round-trips...
  ASSERT_TRUE(snap.has_result);
  EXPECT_EQ(CanonicalMappings(snap.result, *snap.pool),
            CanonicalMappings(run.result, run.world.corpus.pool()));

  // ...and resolving from the restored artifacts is byte-identical to the
  // uninterrupted run (the PR acceptance criterion).
  auto parts = fresh.Partition(*snap.scored);
  ASSERT_TRUE(parts.ok()) << parts.status().ToString();
  auto resolved = fresh.Resolve(*snap.candidates, *snap.scored, parts.value());
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(CanonicalMappings(resolved.value(), *snap.pool),
            CanonicalMappings(run.result, run.world.corpus.pool()));
  std::remove(path.c_str());
}

TEST(SessionSnapshotTest, CandidatesOnlySnapshotFinishesIdentically) {
  StagedRun run(22);
  const std::string path = TempPath("ms_persist_cands_only.mssnap");
  ASSERT_TRUE(run.session.SaveSnapshot(path, run.candidates).ok());

  SynthesisSession fresh(FastOptions());
  auto restored = fresh.RestoreSnapshot(path);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().blocked, nullptr);
  EXPECT_EQ(restored.value().scored, nullptr);
  EXPECT_FALSE(restored.value().has_result);

  auto finished = fresh.FinishFromCandidates(*restored.value().candidates);
  ASSERT_TRUE(finished.ok());
  EXPECT_EQ(CanonicalMappings(finished.value(), *restored.value().pool),
            CanonicalMappings(run.result, run.world.corpus.pool()));
  std::remove(path.c_str());
}

TEST(SessionSnapshotTest, FingerprintMismatchIsFailedPrecondition) {
  StagedRun run(23);
  const std::string path = TempPath("ms_persist_fingerprint.mssnap");
  ASSERT_TRUE(run.session.SaveSnapshot(path, run.candidates).ok());

  SynthesisOptions other = FastOptions();
  other.compat.edit.cap = 6;  // result-affecting change
  SynthesisSession mismatched(other);
  auto restored = mismatched.RestoreSnapshot(path);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kFailedPrecondition);

  // Speed-only knobs are excluded from the fingerprint: a snapshot saved on
  // one machine's tuning restores under another's.
  SynthesisOptions tuned = FastOptions();
  tuned.num_threads = 2;
  tuned.matcher_cache_cap = 123;
  SynthesisSession tuned_session(tuned);
  auto ok_restore = tuned_session.RestoreSnapshot(path);
  EXPECT_TRUE(ok_restore.ok()) << ok_restore.status().ToString();
  std::remove(path.c_str());
}

TEST(SessionSnapshotTest, RestoredArtifactsRejectForeignSessions) {
  StagedRun run(24);
  const std::string path = TempPath("ms_persist_foreign.mssnap");
  ASSERT_TRUE(run.session
                  .SaveSnapshot(path, run.candidates, &run.blocked,
                                &run.scored, nullptr)
                  .ok());
  SynthesisSession a(FastOptions());
  SynthesisSession b(FastOptions());
  auto restored = a.RestoreSnapshot(path);
  ASSERT_TRUE(restored.ok());
  // Artifacts restored into session `a` must not be usable from `b`.
  auto r = b.Partition(*restored.value().scored);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(SessionSnapshotTest, RestoreIntoUsedSessionRebasesLineageIds) {
  StagedRun run(25);
  const std::string path = TempPath("ms_persist_rebase.mssnap");
  ASSERT_TRUE(run.session
                  .SaveSnapshot(path, run.candidates, &run.blocked,
                                &run.scored, nullptr)
                  .ok());

  // A session that already issued artifact ids restores the snapshot; the
  // restored family must not collide with the existing artifacts.
  SynthesisSession busy(FastOptions());
  auto own = busy.ExtractCandidates(run.world.corpus);
  ASSERT_TRUE(own.ok());
  auto restored = busy.RestoreSnapshot(path);
  ASSERT_TRUE(restored.ok());
  const SessionSnapshot& snap = restored.value();
  EXPECT_NE(snap.candidates->artifact_id, own.value().artifact_id);
  // Internal links stay consistent after the rebase...
  EXPECT_EQ(snap.blocked->candidates_id, snap.candidates->artifact_id);
  EXPECT_EQ(snap.scored->candidates_id, snap.candidates->artifact_id);
  // ...so the downstream stages accept the restored family.
  auto parts = busy.Partition(*snap.scored);
  EXPECT_TRUE(parts.ok()) << parts.status().ToString();
  // And mixing the restored graph with the session's own candidate set
  // still fails the lineage check.
  auto mixed = busy.ScorePairs(own.value(), *snap.blocked);
  ASSERT_FALSE(mixed.ok());
  EXPECT_EQ(mixed.status().code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(SessionSnapshotTest, MaintenanceStateRoundTripsThroughV3) {
  // A family that went through RemoveTables carries tombstones, dead
  // candidates, and the margin cache; all of it must survive save/restore
  // so a restored session resumes incremental maintenance where the saver
  // left off instead of re-checking every verdict from scratch.
  StagedRun run(26);
  auto parts = run.session.Partition(run.scored);
  ASSERT_TRUE(parts.ok());
  auto mutated = run.session.RemoveTables(
      &run.world.corpus, {1, 4}, run.candidates, run.blocked, run.scored,
      parts.value(), run.result);
  ASSERT_TRUE(mutated.ok()) << mutated.status().ToString();
  const CandidateSet& cands = mutated.value().candidates;
  ASSERT_FALSE(cands.tombstoned_tables.empty());
  ASSERT_GT(cands.num_dead(), 0u);
  ASSERT_FALSE(cands.margins.empty());

  const std::string path = TempPath("ms_persist_maintenance.mssnap");
  ASSERT_TRUE(run.session
                  .SaveSnapshot(path, cands, &mutated.value().blocked,
                                &mutated.value().scored,
                                &mutated.value().result)
                  .ok());
  SynthesisSession fresh(FastOptions());
  auto restored = fresh.RestoreSnapshot(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const CandidateSet& back = *restored.value().candidates;
  EXPECT_EQ(back.tombstoned_tables, cands.tombstoned_tables);
  EXPECT_EQ(back.dead, cands.dead);
  EXPECT_EQ(back.margin_offsets, cands.margin_offsets);
  EXPECT_EQ(back.margins, cands.margins);
  std::remove(path.c_str());
}

/// Little-endian u32 patcher for header surgery.
void PatchU32(std::string* bytes, size_t off, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    (*bytes)[off + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

uint32_t ReadU32At(const std::string& bytes, size_t off) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(bytes[off + i]))
         << (8 * i);
  }
  return v;
}

uint64_t ReadU64At(const std::string& bytes, size_t off) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(bytes[off + i]))
         << (8 * i);
  }
  return v;
}

TEST(SessionSnapshotTest, V2SnapshotRestoresWithEmptyMaintenanceState) {
  // Backward compatibility: a v2 file (no maintenance section) written by
  // the previous release must keep loading — with empty maintenance state,
  // which is exactly the state a v2 build carried. Synthesize a v2 file by
  // surgery on a v3 save: strip section 7, patch the version field, and
  // re-checksum the header.
  StagedRun run(27);
  const std::string path = TempPath("ms_persist_v2compat.mssnap");
  ASSERT_TRUE(run.session
                  .SaveSnapshot(path, run.candidates, &run.blocked,
                                &run.scored, &run.result)
                  .ok());
  std::string bytes = ReadFileBytes(path);
  // Header: u64 magic, u32 version, u32 section_count, u64 fingerprint,
  // u32 crc. Sections: u32 id, u32 crc, u64 size, payload.
  ASSERT_EQ(ReadU32At(bytes, 8), persist::kSnapshotFormatVersion);
  const uint32_t section_count = ReadU32At(bytes, 12);
  size_t off = 28;
  size_t maint_begin = 0, maint_end = 0;
  for (uint32_t i = 0; i < section_count; ++i) {
    const uint32_t id = ReadU32At(bytes, off);
    const uint64_t size = ReadU64At(bytes, off + 8);
    const size_t end = off + 16 + static_cast<size_t>(size);
    if (id == persist::kSectionMaintenance) {
      maint_begin = off;
      maint_end = end;
    }
    off = end;
  }
  ASSERT_NE(maint_begin, maint_end) << "v3 save has no maintenance section";
  bytes.erase(maint_begin, maint_end - maint_begin);
  PatchU32(&bytes, 8, 2);                   // version: 3 -> 2
  PatchU32(&bytes, 12, section_count - 1);  // one section fewer
  PatchU32(&bytes, 24, Crc32(bytes.data(), 24));
  WriteFileBytes(path, bytes);

  SynthesisSession fresh(FastOptions());
  auto restored = fresh.RestoreSnapshot(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const CandidateSet& back = *restored.value().candidates;
  EXPECT_TRUE(back.tombstoned_tables.empty());
  EXPECT_TRUE(back.dead.empty());
  EXPECT_TRUE(back.margin_offsets.empty());
  EXPECT_TRUE(back.margins.empty());
  // The restored family still resolves identically — nothing besides the
  // maintenance state was lost.
  auto parts = fresh.Partition(*restored.value().scored);
  ASSERT_TRUE(parts.ok());
  auto resolved = fresh.Resolve(*restored.value().candidates,
                                *restored.value().scored, parts.value());
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(CanonicalMappings(resolved.value(), *restored.value().pool),
            CanonicalMappings(run.result, run.world.corpus.pool()));

  // A version outside the supported range stays FailedPrecondition.
  PatchU32(&bytes, 8, 1);
  PatchU32(&bytes, 24, Crc32(bytes.data(), 24));
  WriteFileBytes(path, bytes);
  auto too_old = fresh.RestoreSnapshot(path);
  ASSERT_FALSE(too_old.ok());
  EXPECT_EQ(too_old.status().code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

// ------------------------------------------------- corruption / fuzz gates

TEST(SnapshotCorruptionTest, EveryBitFlipIsDataLossNeverACrash) {
  StagedRun run(31);
  const std::string path = TempPath("ms_persist_fuzz.mssnap");
  ASSERT_TRUE(run.session
                  .SaveSnapshot(path, run.candidates, &run.blocked,
                                &run.scored, &run.result)
                  .ok());
  const std::string original = ReadFileBytes(path);
  ASSERT_GT(original.size(), 64u);
  const std::string mutated_path = TempPath("ms_persist_fuzz_mut.mssnap");

  const uint64_t fingerprint = OptionsFingerprint(FastOptions());
  auto expect_dataloss = [&](size_t byte_pos, int bit) {
    std::string mutated = original;
    mutated[byte_pos] =
        static_cast<char>(mutated[byte_pos] ^ static_cast<char>(1 << bit));
    WriteFileBytes(mutated_path, mutated);
    auto restored = persist::LoadSessionSnapshot(mutated_path, fingerprint);
    ASSERT_FALSE(restored.ok())
        << "bit flip at byte " << byte_pos << " bit " << bit
        << " loaded successfully";
    EXPECT_EQ(restored.status().code(), StatusCode::kDataLoss)
        << "byte " << byte_pos << " bit " << bit << " -> "
        << restored.status().ToString();
  };

  // Exhaustive over the header and first section header (the region where
  // a single flip could redirect parsing), random over the payloads.
  for (size_t pos = 0; pos < 44 && pos < original.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) expect_dataloss(pos, bit);
  }
  Rng rng(20260729);
  for (int i = 0; i < 200; ++i) {
    expect_dataloss(rng.Uniform(original.size()),
                    static_cast<int>(rng.Uniform(8)));
  }
  std::remove(path.c_str());
  std::remove(mutated_path.c_str());
}

TEST(SnapshotCorruptionTest, EveryTruncationIsDataLoss) {
  StagedRun run(32);
  const std::string path = TempPath("ms_persist_trunc.mssnap");
  ASSERT_TRUE(run.session
                  .SaveSnapshot(path, run.candidates, &run.blocked,
                                &run.scored, &run.result)
                  .ok());
  const std::string original = ReadFileBytes(path);
  const std::string mutated_path = TempPath("ms_persist_trunc_mut.mssnap");

  const uint64_t fingerprint = OptionsFingerprint(FastOptions());
  std::vector<size_t> lengths = {0, 1, 27, 28, 43, 44};
  Rng rng(987);
  for (int i = 0; i < 60; ++i) lengths.push_back(rng.Uniform(original.size()));
  for (size_t len : lengths) {
    WriteFileBytes(mutated_path, original.substr(0, len));
    auto restored = persist::LoadSessionSnapshot(mutated_path, fingerprint);
    ASSERT_FALSE(restored.ok()) << "truncation to " << len << " loaded";
    EXPECT_EQ(restored.status().code(), StatusCode::kDataLoss)
        << "len " << len << " -> " << restored.status().ToString();
  }
  // Trailing garbage after the last section is corruption too.
  WriteFileBytes(mutated_path, original + "extra");
  auto restored = persist::LoadSessionSnapshot(mutated_path, fingerprint);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
  std::remove(mutated_path.c_str());
}

TEST(SnapshotCorruptionTest, CorpusStoreBitFlipsAreDataLoss) {
  GeneratedWorld world = SmallWorld(33);
  const std::string path = TempPath("ms_persist_corp_fuzz.mscorp");
  ASSERT_TRUE(persist::SaveCorpusStore(world.corpus, path).ok());
  const std::string original = ReadFileBytes(path);
  const std::string mutated_path = TempPath("ms_persist_corp_fuzz_mut.mscorp");

  Rng rng(555);
  for (int i = 0; i < 120; ++i) {
    std::string mutated = original;
    const size_t pos = rng.Uniform(original.size());
    mutated[pos] = static_cast<char>(
        mutated[pos] ^ static_cast<char>(1u << rng.Uniform(8)));
    WriteFileBytes(mutated_path, mutated);
    auto opened = persist::OpenCorpusStore(mutated_path);
    ASSERT_FALSE(opened.ok()) << "flip at byte " << pos << " loaded";
    EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss);
  }
  std::remove(path.c_str());
  std::remove(mutated_path.c_str());
}

TEST(SnapshotCorruptionTest, MissingFileIsNotFound) {
  SynthesisSession session(FastOptions());
  auto restored = session.RestoreSnapshot("/tmp/ms_no_such_snapshot.mssnap");
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kNotFound);
}

// --------------------------------------------------------- serving restart

// ------------------------------------------------------------- atomic saves

/// A minimal valid container with one distinguishing payload byte.
persist::ContainerWriter TinyContainer(char marker) {
  persist::ContainerWriter writer(persist::kSessionSnapshotMagic, 42);
  writer.AddSection(persist::kSectionLineage, std::string(8, marker));
  return writer;
}

std::string SectionPayload(const std::string& path) {
  auto reader =
      persist::ContainerReader::Open(path, persist::kSessionSnapshotMagic);
  EXPECT_TRUE(reader.ok()) << reader.status().ToString();
  auto payload = reader.value().Section(persist::kSectionLineage);
  EXPECT_TRUE(payload.ok());
  return std::string(payload.value());
}

TEST(AtomicSavePersistTest, ContainerFamiliesVersionIndependently) {
  // Snapshot layout bumps (v2 in PR 5, v3's additive maintenance section
  // here) must not orphan corpus stores whose bytes never changed:
  // snapshots write v3 and still read v2, corpus stores are still v1.
  GeneratedWorld world = SmallWorld(23);
  const std::string store = TempPath("family_version.mscorp");
  ASSERT_TRUE(persist::SaveCorpusStore(world.corpus, store).ok());
  auto reader =
      persist::ContainerReader::Open(store, persist::kCorpusStoreMagic);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader.value().format_version(),
            persist::kCorpusStoreFormatVersion);
  EXPECT_EQ(persist::kCorpusStoreFormatVersion, 1u);
  EXPECT_EQ(persist::kSnapshotFormatVersion, 3u);
  EXPECT_EQ(persist::kMinSnapshotFormatVersion, 2u);
  std::remove(store.c_str());
}

TEST(AtomicSavePersistTest, SaveLeavesNoTmpDebris) {
  const std::string path = TempPath("atomic_basic.mssnap");
  ASSERT_TRUE(TinyContainer('a').WriteFile(path).ok());
  EXPECT_EQ(SectionPayload(path), std::string(8, 'a'));
  // The write went through a tmp file that must be gone after the rename.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
}

TEST(AtomicSavePersistTest, FailedSaveNeverClobbersPreviousGoodFile) {
  const std::string path = TempPath("atomic_fail.mssnap");
  ASSERT_TRUE(TinyContainer('a').WriteFile(path).ok());

  // Force the tmp-file open to fail: occupy its name with a directory.
  const std::string tmp = path + ".tmp";
  std::remove(tmp.c_str());
  ASSERT_EQ(::mkdir(tmp.c_str(), 0700), 0);
  Status failed = TinyContainer('b').WriteFile(path);
  EXPECT_EQ(failed.code(), StatusCode::kIOError);
  // The previous snapshot is untouched and still loads as 'a'.
  EXPECT_EQ(SectionPayload(path), std::string(8, 'a'));
  ASSERT_EQ(::rmdir(tmp.c_str()), 0);

  // With the obstruction gone, the next save atomically replaces it.
  ASSERT_TRUE(TinyContainer('b').WriteFile(path).ok());
  EXPECT_EQ(SectionPayload(path), std::string(8, 'b'));
  std::remove(path.c_str());
}

TEST(AtomicSavePersistTest, CrashedPartialTmpWriteNeverClobbers) {
  // Simulate a writer that died mid-save: a torn, half-written tmp file
  // next to a good snapshot. The good file must be unaffected (the rename
  // never happened), and the next successful save must reclaim the debris.
  const std::string path = TempPath("atomic_crash.mssnap");
  ASSERT_TRUE(TinyContainer('a').WriteFile(path).ok());
  const std::string good_bytes = ReadFileBytes(path);

  WriteFileBytes(path + ".tmp", good_bytes.substr(0, good_bytes.size() / 2));
  EXPECT_EQ(SectionPayload(path), std::string(8, 'a'));
  EXPECT_EQ(ReadFileBytes(path), good_bytes);
  // And the torn tmp itself would be refused as DataLoss if ever opened.
  auto torn = persist::ContainerReader::Open(path + ".tmp",
                                             persist::kSessionSnapshotMagic);
  EXPECT_EQ(torn.status().code(), StatusCode::kDataLoss);

  ASSERT_TRUE(TinyContainer('c').WriteFile(path).ok());
  EXPECT_EQ(SectionPayload(path), std::string(8, 'c'));
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
}

TEST(ServiceSnapshotTest, OpenFromSnapshotServesImmediately) {
  GeneratedWorld world = SmallWorld(41);
  MappingService service(FastOptions());
  ASSERT_TRUE(service.Synthesize(world.corpus).ok());
  ASSERT_TRUE(service.has_store());
  const size_t num_mappings = service.num_mappings();

  const std::string path = TempPath("ms_persist_service.mssnap");
  ASSERT_TRUE(service.SaveSnapshot(path).ok());

  // Fresh service, no corpus anywhere in sight: restore and serve.
  MappingService restarted(FastOptions());
  Status st = restarted.OpenFromSnapshot(path);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_TRUE(restarted.has_store());
  EXPECT_EQ(restarted.num_mappings(), num_mappings);
  // Restoring reuses the saved result: no pipeline stage re-runs.
  EXPECT_EQ(restarted.session_stats().scoring_runs, 0u);
  EXPECT_EQ(restarted.session_stats().partition_runs, 0u);

  // Same lookups out of both stores, which index the result's mappings in
  // order.
  for (size_t i = 0; i < num_mappings; ++i) {
    const auto& mapping = service.last_result().mappings[i];
    if (mapping.size() == 0) continue;
    const std::string probe(
        world.corpus.pool().Get(mapping.merged.pairs()[0].left));
    auto want = service.store().LookupRight(i, probe);
    auto got = restarted.store().LookupRight(i, probe);
    ASSERT_TRUE(want.has_value());
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*want, *got);
  }
  std::remove(path.c_str());
}

TEST(ServiceSnapshotTest, OpenFromSnapshotFailsClosed) {
  GeneratedWorld world = SmallWorld(42);
  MappingService service(FastOptions());
  ASSERT_TRUE(service.Synthesize(world.corpus).ok());
  const size_t num_mappings = service.num_mappings();

  const std::string path = TempPath("ms_persist_service_bad.mssnap");
  ASSERT_TRUE(service.SaveSnapshot(path).ok());
  std::string bytes = ReadFileBytes(path);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  WriteFileBytes(path, bytes);

  Status st = service.OpenFromSnapshot(path);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kDataLoss);
  // The previous store keeps serving.
  ASSERT_TRUE(service.has_store());
  EXPECT_EQ(service.num_mappings(), num_mappings);
  std::remove(path.c_str());
}

TEST(ServiceSnapshotTest, OpenFromMappingsFilePropagatesStatusFailClosed) {
  GeneratedWorld world = SmallWorld(43);
  MappingService service(FastOptions());
  ASSERT_TRUE(service.Synthesize(world.corpus).ok());
  const size_t before = service.num_mappings();

  // Unreadable input: Status propagates, the store is untouched (previously
  // this class of load yielded a silently empty store). A missing file is
  // NotFound since the env refactor; IO failures on existing files stay
  // IOError.
  Status st = service.OpenFromMappingsFile("/tmp/ms_no_such_mappings.tsv");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(service.num_mappings(), before);

  // Malformed input: same discipline.
  const std::string bad = TempPath("ms_persist_bad_mappings.tsv");
  WriteFileBytes(bad, "not a mapping header\n");
  st = service.OpenFromMappingsFile(bad);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(service.num_mappings(), before);

  // Non-numeric / overflowing / allocation-bomb header counts must come
  // back as InvalidArgument, never abort (std::stoull used to throw here).
  for (const char* header :
       {"#mapping\t-\t-\tnotanumber\t0\t0\n",
        "#mapping\t-\t-\t1\t18446744073709551615\t0\n",
        "#mapping\t-\t-\t1\t0\t99999999999999999999\n",
        "#mapping\t-\t-\t1\t0\t-3\n"}) {
    WriteFileBytes(bad, header);
    st = service.OpenFromMappingsFile(bad);
    ASSERT_FALSE(st.ok()) << header;
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << header;
    EXPECT_EQ(service.num_mappings(), before);
  }

  // A real file round-trips through the legacy-format path.
  const std::string good = TempPath("ms_persist_good_mappings.tsv");
  ASSERT_TRUE(persist::SaveMappingsTsv(service.last_result().mappings,
                                      world.corpus.pool(), good)
                  .ok());
  st = service.OpenFromMappingsFile(good);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(service.num_mappings(), before);
  std::remove(bad.c_str());
  std::remove(good.c_str());
}

TEST(ServiceSnapshotTest, ResynthesizeDownstreamOfSnapshotWorks) {
  GeneratedWorld world = SmallWorld(44);
  MappingService service(FastOptions());
  ASSERT_TRUE(service.Synthesize(world.corpus).ok());
  const std::string path = TempPath("ms_persist_resynth.mssnap");
  ASSERT_TRUE(service.SaveSnapshot(path).ok());

  MappingService restarted(FastOptions());
  ASSERT_TRUE(restarted.OpenFromSnapshot(path).ok());

  // Downstream-only change: re-partitions the restored graph.
  SynthesisOptions tweaked = FastOptions();
  tweaked.partitioner.theta_edge = 0.6;
  Status st = restarted.Resynthesize(tweaked);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(restarted.session_stats().blocking_runs, 0u);

  // Extraction-invalidating change: no corpus to re-extract from.
  SynthesisOptions upstream = FastOptions();
  upstream.extraction.min_pairs = 5;
  st = restarted.Resynthesize(upstream);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ms
