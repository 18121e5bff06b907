#include "persist/artifact_codec.h"

#include <utility>

#include "persist/snapshot.h"
#include "persist/wire.h"

namespace ms::persist {
namespace {

// Field orders below are the on-disk format; reorder only with a
// kSnapshotFormatVersion bump.

void EncodeMatcherStats(const MatcherStats& m, WireWriter* w) {
  w->U64(m.match_calls);
  w->U64(m.myers64_calls);
  w->U64(m.myers_blocked_calls);
  w->U64(m.banded_calls);
  w->U64(m.pattern_cache_hits);
  w->U64(m.pattern_cache_misses);
  w->U64(m.charmask_rejects);
  w->U64(m.cache_flushes);
}

void DecodeMatcherStats(WireReader* r, MatcherStats* m) {
  m->match_calls = r->U64();
  m->myers64_calls = r->U64();
  m->myers_blocked_calls = r->U64();
  m->banded_calls = r->U64();
  m->pattern_cache_hits = r->U64();
  m->pattern_cache_misses = r->U64();
  m->charmask_rejects = r->U64();
  m->cache_flushes = r->U64();
}

void EncodePipelineStats(const PipelineStats& s, WireWriter* w) {
  w->F64(s.index_seconds);
  w->F64(s.extract_seconds);
  w->F64(s.blocking_seconds);
  w->F64(s.scoring_seconds);
  w->F64(s.partition_seconds);
  w->F64(s.resolve_seconds);
  w->F64(s.total_seconds);
  w->F64(s.blocking_map_shuffle_seconds);
  w->F64(s.blocking_count_seconds);
  w->F64(s.blocking_reduce_seconds);
  EncodeMatcherStats(s.scoring.matcher, w);
  w->U64(s.scoring.overlap_merges_skipped);
  w->U64(s.candidates);
  w->U64(s.candidate_pairs);
  w->U64(s.blocking_keys);
  w->U64(s.blocking_dropped_postings);
  w->U64(s.blocking_tainted_candidates);
  w->U64(s.graph_edges);
  w->U64(s.components);
  w->U64(s.partitions);
  w->U64(s.mappings);
  w->U64(s.extraction.tables_seen);
  w->U64(s.extraction.columns_seen);
  w->U64(s.extraction.columns_kept);
  w->U64(s.extraction.pairs_considered);
  w->U64(s.extraction.pairs_kept);
  w->U64(s.extraction.normalize_cache_hits);
  w->U64(s.extraction.normalize_cache_misses);
}

void DecodePipelineStats(WireReader* r, PipelineStats* s) {
  s->index_seconds = r->F64();
  s->extract_seconds = r->F64();
  s->blocking_seconds = r->F64();
  s->scoring_seconds = r->F64();
  s->partition_seconds = r->F64();
  s->resolve_seconds = r->F64();
  s->total_seconds = r->F64();
  s->blocking_map_shuffle_seconds = r->F64();
  s->blocking_count_seconds = r->F64();
  s->blocking_reduce_seconds = r->F64();
  DecodeMatcherStats(r, &s->scoring.matcher);
  s->scoring.overlap_merges_skipped = r->U64();
  s->candidates = r->U64();
  s->candidate_pairs = r->U64();
  s->blocking_keys = r->U64();
  s->blocking_dropped_postings = r->U64();
  s->blocking_tainted_candidates = r->U64();
  s->graph_edges = r->U64();
  s->components = r->U64();
  s->partitions = r->U64();
  s->mappings = r->U64();
  s->extraction.tables_seen = r->U64();
  s->extraction.columns_seen = r->U64();
  s->extraction.columns_kept = r->U64();
  s->extraction.pairs_considered = r->U64();
  s->extraction.pairs_kept = r->U64();
  s->extraction.normalize_cache_hits = r->U64();
  s->extraction.normalize_cache_misses = r->U64();
}

void EncodePairList(const std::vector<ValuePair>& pairs, WireWriter* w) {
  w->U64(pairs.size());
  for (const ValuePair& p : pairs) {
    w->U32(p.left);
    w->U32(p.right);
  }
}

/// Pairs are stored canonical (sorted, deduped — BinaryTable's invariant),
/// so FromPairs on the decode side reproduces the identical table.
bool DecodePairList(WireReader* r, size_t pool_size,
                    std::vector<ValuePair>* pairs) {
  const uint64_t n = r->U64();
  if (n > r->remaining() / 8) return false;  // 8 bytes per encoded pair
  pairs->clear();
  pairs->reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    ValuePair p{r->U32(), r->U32()};
    if (p.left >= pool_size || p.right >= pool_size) return false;
    pairs->push_back(p);
  }
  return r->ok();
}

void EncodeIdList(const std::vector<BinaryTableId>& ids, WireWriter* w) {
  w->U64(ids.size());
  for (BinaryTableId id : ids) w->U32(id);
}

bool DecodeIdList(WireReader* r, std::vector<BinaryTableId>* ids) {
  const uint64_t n = r->U64();
  if (n > r->remaining() / 4) return false;
  ids->clear();
  ids->reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) ids->push_back(r->U32());
  return r->ok();
}

std::string EncodeCandidates(const CandidateSet& candidates) {
  WireWriter w;
  EncodePipelineStats(candidates.stats, &w);
  const std::vector<BinaryTable>& tables = candidates.tables();
  w.U64(tables.size());
  for (const BinaryTable& t : tables) {
    w.U32(t.id);
    w.U32(t.source_table);
    w.U8(static_cast<uint8_t>(t.source));
    w.Str(t.domain);
    w.Str(t.left_name);
    w.Str(t.right_name);
    EncodePairList(t.pairs(), &w);
  }
  // Format v2: append provenance — the extraction signatures incremental
  // corpus growth re-checks, so restore-then-append works.
  w.U32(candidates.generation);
  w.U64(candidates.source_tables);
  w.U64(candidates.kept_offsets.size());
  for (uint32_t o : candidates.kept_offsets) w.U32(o);
  w.U64(candidates.kept_columns.size());
  for (uint32_t c : candidates.kept_columns) w.U32(c);
  return w.Take();
}

Status DecodeCandidates(std::string_view payload, size_t pool_size,
                        CandidateSet* out) {
  WireReader r(payload);
  DecodePipelineStats(&r, &out->stats);
  const uint64_t n = r.U64();
  // 29 bytes = the minimum encoded table (all strings and pairs empty);
  // bounding the count by it keeps a bad count from demanding a giant
  // reserve instead of returning DataLoss.
  if (!r.ok() || n > UINT32_MAX || n > r.remaining() / 29) {
    return Status::DataLoss("candidates section is malformed");
  }
  out->owned.clear();
  out->owned.reserve(static_cast<size_t>(n));
  std::vector<ValuePair> pairs;
  for (uint64_t i = 0; i < n; ++i) {
    BinaryTableId id = r.U32();
    uint32_t source_table = r.U32();
    uint8_t source = r.U8();
    std::string_view domain = r.Str();
    std::string_view left_name = r.Str();
    std::string_view right_name = r.Str();
    if (!DecodePairList(&r, pool_size, &pairs)) {
      return Status::DataLoss("candidates section has a malformed table");
    }
    // Dense ids are the graph-vertex invariant every downstream stage
    // assumes (AdoptCandidates enforces the same).
    if (id != static_cast<BinaryTableId>(i) ||
        source > static_cast<uint8_t>(TableSource::kTrusted)) {
      return Status::DataLoss("candidates section has invalid table ids");
    }
    BinaryTable t = BinaryTable::FromPairs(std::move(pairs));
    t.id = id;
    t.source_table = source_table;
    t.source = static_cast<TableSource>(source);
    t.domain = std::string(domain);
    t.left_name = std::string(left_name);
    t.right_name = std::string(right_name);
    out->owned.push_back(std::move(t));
    pairs.clear();
  }
  out->generation = r.U32();
  out->source_tables = r.U64();
  const uint64_t num_offsets = r.U64();
  if (!r.ok() || num_offsets > r.remaining() / 4) {
    return Status::DataLoss("candidates section has malformed signatures");
  }
  out->kept_offsets.clear();
  out->kept_offsets.reserve(static_cast<size_t>(num_offsets));
  for (uint64_t i = 0; i < num_offsets; ++i) {
    out->kept_offsets.push_back(r.U32());
  }
  const uint64_t num_kept = r.U64();
  if (!r.ok() || num_kept > r.remaining() / 4) {
    return Status::DataLoss("candidates section has malformed signatures");
  }
  out->kept_columns.clear();
  out->kept_columns.reserve(static_cast<size_t>(num_kept));
  for (uint64_t i = 0; i < num_kept; ++i) {
    out->kept_columns.push_back(r.U32());
  }
  // Signature invariants: adopted candidate sets legitimately persist with
  // no signatures (they cannot be appended to); extracted ones carry one
  // monotone offset run per source table ending at the kept-column count.
  const bool no_signatures =
      num_offsets == 0 && num_kept == 0 && out->source_tables == 0;
  if (!no_signatures) {
    bool valid_csr = num_offsets == out->source_tables + 1 &&
                     !out->kept_offsets.empty() &&
                     out->kept_offsets.front() == 0 &&
                     out->kept_offsets.back() == num_kept;
    for (size_t i = 0; valid_csr && i + 1 < out->kept_offsets.size(); ++i) {
      valid_csr = out->kept_offsets[i] <= out->kept_offsets[i + 1];
    }
    if (!valid_csr) {
      return Status::DataLoss(
          "candidates section has inconsistent extraction signatures");
    }
  }
  if (!r.AtEnd()) {
    return Status::DataLoss("candidates section has trailing bytes");
  }
  return Status::OK();
}

/// Format v3 maintenance section: the state RemoveTables/ReplaceTables
/// accumulate, without which a restored session would see tombstoned
/// tables as live and would pay a full coherence re-check on the first
/// mutation. Additive — none of the v2 sections changed layout.
std::string EncodeMaintenance(const CandidateSet& candidates) {
  WireWriter w;
  w.U64(candidates.tombstoned_tables.size());
  for (uint32_t t : candidates.tombstoned_tables) w.U32(t);
  // The dead bitmap as an id list, like the taint bitmap: removals are
  // sparse relative to the candidate count.
  uint64_t num_dead = 0;
  for (uint8_t d : candidates.dead) num_dead += d;
  w.U64(num_dead);
  for (size_t id = 0; id < candidates.dead.size(); ++id) {
    if (candidates.dead[id]) w.U32(static_cast<uint32_t>(id));
  }
  w.U64(candidates.margin_offsets.size());
  for (uint32_t o : candidates.margin_offsets) w.U32(o);
  w.U64(candidates.margins.size());
  for (const CoherenceProfile& p : candidates.margins) {
    w.F64(p.score);
    w.F64(p.sum_pos);
    w.U32(p.pairs);
    w.U32(p.sup_pos);
    w.U32(p.sup_zero);
    w.U32(p.b_max);
    w.U32(p.n_eval);
  }
  return w.Take();
}

Status DecodeMaintenance(std::string_view payload, size_t num_candidates,
                         uint64_t source_tables, CandidateSet* out) {
  WireReader r(payload);
  const uint64_t num_tombstoned = r.U64();
  if (!r.ok() || num_tombstoned > r.remaining() / 4 ||
      num_tombstoned > source_tables) {
    return Status::DataLoss("maintenance section is malformed");
  }
  out->tombstoned_tables.clear();
  out->tombstoned_tables.reserve(static_cast<size_t>(num_tombstoned));
  for (uint64_t i = 0; i < num_tombstoned; ++i) {
    const uint32_t t = r.U32();
    // Sorted-unique is the in-memory invariant every consumer relies on.
    if (t >= source_tables ||
        (!out->tombstoned_tables.empty() && t <= out->tombstoned_tables.back())) {
      return Status::DataLoss(
          "maintenance section has an invalid tombstoned-table list");
    }
    out->tombstoned_tables.push_back(t);
  }
  const uint64_t num_dead = r.U64();
  if (!r.ok() || num_dead > r.remaining() / 4 || num_dead > num_candidates) {
    return Status::DataLoss("maintenance section has a malformed dead list");
  }
  out->dead.clear();
  if (num_dead > 0) {
    out->dead.assign(num_candidates, 0);
    for (uint64_t i = 0; i < num_dead; ++i) {
      const uint32_t id = r.U32();
      if (id >= num_candidates || out->dead[id] != 0) {
        return Status::DataLoss(
            "maintenance dead list references candidates outside the "
            "candidate set");
      }
      out->dead[id] = 1;
    }
  }
  const uint64_t num_offsets = r.U64();
  if (!r.ok() || num_offsets > r.remaining() / 4) {
    return Status::DataLoss("maintenance section has a malformed margin CSR");
  }
  out->margin_offsets.clear();
  out->margin_offsets.reserve(static_cast<size_t>(num_offsets));
  for (uint64_t i = 0; i < num_offsets; ++i) {
    out->margin_offsets.push_back(r.U32());
  }
  const uint64_t num_margins = r.U64();
  if (!r.ok() || num_margins > r.remaining() / 36) {  // 36 bytes per profile
    return Status::DataLoss("maintenance section has a malformed margin "
                            "cache");
  }
  out->margins.clear();
  out->margins.reserve(static_cast<size_t>(num_margins));
  for (uint64_t i = 0; i < num_margins; ++i) {
    CoherenceProfile p;
    p.score = r.F64();
    p.sum_pos = r.F64();
    p.pairs = r.U32();
    p.sup_pos = r.U32();
    p.sup_zero = r.U32();
    p.b_max = r.U32();
    p.n_eval = r.U32();
    out->margins.push_back(p);
  }
  // The margin cache is either absent or a CSR over every source table.
  if (!out->margin_offsets.empty()) {
    bool valid_csr = num_offsets == source_tables + 1 &&
                     out->margin_offsets.front() == 0 &&
                     out->margin_offsets.back() == num_margins;
    for (size_t i = 0; valid_csr && i + 1 < out->margin_offsets.size(); ++i) {
      valid_csr = out->margin_offsets[i] <= out->margin_offsets[i + 1];
    }
    if (!valid_csr) {
      return Status::DataLoss(
          "maintenance section has an inconsistent margin CSR");
    }
  } else if (num_margins != 0) {
    return Status::DataLoss(
        "maintenance section has margins without a margin CSR");
  }
  if (!r.AtEnd()) {
    return Status::DataLoss("maintenance section has trailing bytes");
  }
  return Status::OK();
}

std::string EncodeBlocked(const BlockedPairs& blocked) {
  WireWriter w;
  EncodePipelineStats(blocked.stats, &w);
  w.F64(blocked.blocking.map_shuffle_seconds);
  w.F64(blocked.blocking.count_seconds);
  w.F64(blocked.blocking.reduce_seconds);
  w.U64(blocked.blocking.keys);
  w.U64(blocked.blocking.dropped_postings);
  w.U64(blocked.blocking.tainted_candidates);
  w.Bool(blocked.blocking.exact_counts);
  w.U64(blocked.pairs.size());
  for (const CandidateTablePair& p : blocked.pairs) {
    w.U32(p.a);
    w.U32(p.b);
    w.U32(p.shared_pairs);
    w.U32(p.shared_lefts);
    w.Bool(p.counts_exact);
  }
  // Format v2: the taint bitmap as an id list — the state delta blocking
  // needs to extend truncation bookkeeping across appends.
  uint64_t num_tainted = 0;
  for (uint8_t t : blocked.blocking.tainted) num_tainted += t;
  w.U64(num_tainted);
  for (size_t id = 0; id < blocked.blocking.tainted.size(); ++id) {
    if (blocked.blocking.tainted[id]) w.U32(static_cast<uint32_t>(id));
  }
  return w.Take();
}

Status DecodeBlocked(std::string_view payload, size_t num_candidates,
                     BlockedPairs* out) {
  WireReader r(payload);
  DecodePipelineStats(&r, &out->stats);
  out->blocking.map_shuffle_seconds = r.F64();
  out->blocking.count_seconds = r.F64();
  out->blocking.reduce_seconds = r.F64();
  out->blocking.keys = r.U64();
  out->blocking.dropped_postings = r.U64();
  out->blocking.tainted_candidates = r.U64();
  out->blocking.exact_counts = r.Bool();
  const uint64_t n = r.U64();
  if (!r.ok() || n > r.remaining() / 17) {  // 17 bytes per encoded pair
    return Status::DataLoss("blocked-pairs section is malformed");
  }
  out->pairs.clear();
  out->pairs.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    CandidateTablePair p;
    p.a = r.U32();
    p.b = r.U32();
    p.shared_pairs = r.U32();
    p.shared_lefts = r.U32();
    p.counts_exact = r.Bool();
    if (p.a >= num_candidates || p.b >= num_candidates || p.a >= p.b) {
      return Status::DataLoss("blocked-pairs section references candidates "
                              "outside the candidate set");
    }
    out->pairs.push_back(p);
  }
  const uint64_t num_tainted = r.U64();
  if (!r.ok() || num_tainted > r.remaining() / 4 ||
      num_tainted > num_candidates) {
    return Status::DataLoss("blocked-pairs section has a malformed taint "
                            "list");
  }
  out->blocking.tainted.clear();
  if (num_tainted > 0) {
    out->blocking.tainted.assign(num_candidates, 0);
    for (uint64_t i = 0; i < num_tainted; ++i) {
      const uint32_t id = r.U32();
      if (id >= num_candidates) {
        return Status::DataLoss(
            "blocked-pairs taint list references candidates outside the "
            "candidate set");
      }
      out->blocking.tainted[id] = 1;
    }
  }
  if (!r.AtEnd()) {
    return Status::DataLoss("blocked-pairs section has trailing bytes");
  }
  return Status::OK();
}

std::string EncodeScored(const ScoredGraph& scored) {
  WireWriter w;
  EncodePipelineStats(scored.stats, &w);
  w.U64(scored.graph.num_vertices());
  w.U64(scored.graph.num_edges());
  for (const CompatEdge& e : scored.graph.edges()) {
    w.U32(e.u);
    w.U32(e.v);
    w.F64(e.w_pos);
    w.F64(e.w_neg);
  }
  return w.Take();
}

Status DecodeScored(std::string_view payload, size_t num_candidates,
                    ScoredGraph* out) {
  WireReader r(payload);
  DecodePipelineStats(&r, &out->stats);
  const uint64_t num_vertices = r.U64();
  const uint64_t num_edges = r.U64();
  if (!r.ok() || num_vertices != num_candidates ||
      num_edges > r.remaining() / 24) {  // 24 bytes per encoded edge
    return Status::DataLoss("scored-graph section is malformed");
  }
  std::vector<CompatEdge> edges(static_cast<size_t>(num_edges));
  for (CompatEdge& e : edges) {
    e.u = r.U32();
    e.v = r.U32();
    e.w_pos = r.F64();
    e.w_neg = r.F64();
    if (e.u >= num_vertices || e.v >= num_vertices || e.u == e.v) {
      return Status::DataLoss("scored-graph section has an invalid edge");
    }
    if (e.u > e.v) std::swap(e.u, e.v);
  }
  if (!r.AtEnd()) {
    return Status::DataLoss("scored-graph section has trailing bytes");
  }
  out->graph =
      CompatibilityGraph(static_cast<size_t>(num_vertices), std::move(edges));
  return Status::OK();
}

std::string EncodeResult(const SynthesisResult& result) {
  WireWriter w;
  EncodePipelineStats(result.stats, &w);
  w.U64(result.mappings.size());
  for (const SynthesizedMapping& m : result.mappings) {
    EncodePairList(m.merged.pairs(), &w);
    EncodeIdList(m.member_tables, &w);
    EncodeIdList(m.kept_tables, &w);
    w.U64(m.num_domains);
    w.Str(m.left_label);
    w.Str(m.right_label);
  }
  return w.Take();
}

Status DecodeResult(std::string_view payload, size_t pool_size,
                    SynthesisResult* out) {
  WireReader r(payload);
  DecodePipelineStats(&r, &out->stats);
  const uint64_t n = r.U64();
  // 40 bytes = the minimum encoded mapping (empty pair/id lists + labels).
  if (!r.ok() || n > r.remaining() / 40) {
    return Status::DataLoss("result section is malformed");
  }
  out->mappings.clear();
  out->mappings.reserve(static_cast<size_t>(n));
  std::vector<ValuePair> pairs;
  for (uint64_t i = 0; i < n; ++i) {
    SynthesizedMapping m;
    if (!DecodePairList(&r, pool_size, &pairs) ||
        !DecodeIdList(&r, &m.member_tables) ||
        !DecodeIdList(&r, &m.kept_tables)) {
      return Status::DataLoss("result section has a malformed mapping");
    }
    m.merged = BinaryTable::FromPairs(std::move(pairs));
    m.num_domains = r.U64();
    m.left_label = std::string(r.Str());
    m.right_label = std::string(r.Str());
    out->mappings.push_back(std::move(m));
    pairs.clear();
  }
  if (!r.AtEnd()) {
    return Status::DataLoss("result section has trailing bytes");
  }
  return Status::OK();
}

struct Lineage {
  bool has_blocked = false;
  bool has_scored = false;
  bool has_result = false;
  uint64_t candidates_id = 0;
  uint64_t blocked_id = 0;
  uint64_t scored_id = 0;
  uint64_t blocked_candidates_id = 0;
  uint64_t scored_candidates_id = 0;
};

std::string EncodeLineage(const Lineage& l) {
  WireWriter w;
  w.Bool(l.has_blocked);
  w.Bool(l.has_scored);
  w.Bool(l.has_result);
  w.U64(l.candidates_id);
  w.U64(l.blocked_id);
  w.U64(l.scored_id);
  w.U64(l.blocked_candidates_id);
  w.U64(l.scored_candidates_id);
  return w.Take();
}

Status DecodeLineage(std::string_view payload, Lineage* l) {
  WireReader r(payload);
  l->has_blocked = r.Bool();
  l->has_scored = r.Bool();
  l->has_result = r.Bool();
  l->candidates_id = r.U64();
  l->blocked_id = r.U64();
  l->scored_id = r.U64();
  l->blocked_candidates_id = r.U64();
  l->scored_candidates_id = r.U64();
  if (!r.AtEnd()) return Status::DataLoss("lineage section is malformed");
  return Status::OK();
}

}  // namespace

std::string EncodeStringPool(const StringPool& pool) {
  WireWriter w;
  const size_t n = pool.size();
  w.U64(n);
  for (size_t i = 0; i < n; ++i) {
    w.U32(static_cast<uint32_t>(pool.Get(static_cast<ValueId>(i)).size()));
  }
  for (size_t i = 0; i < n; ++i) {
    std::string_view s = pool.Get(static_cast<ValueId>(i));
    w.Raw(s.data(), s.size());
  }
  return w.Take();
}

Status DecodeStringPoolViews(std::string_view payload,
                             std::vector<std::string_view>* views) {
  WireReader r(payload);
  const uint64_t n = r.U64();
  if (!r.ok() || n > r.remaining() / 4 || n > UINT32_MAX) {
    return Status::DataLoss("string-pool section is malformed");
  }
  std::vector<uint32_t> lens(static_cast<size_t>(n));
  uint64_t total = 0;
  for (uint64_t i = 0; i < n; ++i) {
    lens[i] = r.U32();
    total += lens[i];
  }
  if (!r.ok() || total != r.remaining()) {
    return Status::DataLoss("string-pool section blob size mismatch");
  }
  views->clear();
  views->reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    views->push_back(r.View(lens[i]));
  }
  return Status::OK();
}

Status SaveSessionSnapshot(const std::string& path,
                           uint64_t options_fingerprint,
                           const CandidateSet& candidates,
                           const BlockedPairs* blocked,
                           const ScoredGraph* scored,
                           const SynthesisResult* result, Env* env) {
  if (candidates.pool == nullptr) {
    return Status::InvalidArgument(
        "SaveSessionSnapshot: candidate set has no string pool");
  }
  ContainerWriter writer(kSessionSnapshotMagic, options_fingerprint);
  writer.AddSection(kSectionStringPool, EncodeStringPool(*candidates.pool));
  writer.AddSection(kSectionCandidates, EncodeCandidates(candidates));
  writer.AddSection(kSectionMaintenance, EncodeMaintenance(candidates));
  Lineage lineage;
  lineage.candidates_id = candidates.artifact_id;
  if (blocked != nullptr) {
    lineage.has_blocked = true;
    lineage.blocked_id = blocked->artifact_id;
    lineage.blocked_candidates_id = blocked->candidates_id;
    writer.AddSection(kSectionBlockedPairs, EncodeBlocked(*blocked));
  }
  if (scored != nullptr) {
    lineage.has_scored = true;
    lineage.scored_id = scored->artifact_id;
    lineage.scored_candidates_id = scored->candidates_id;
    writer.AddSection(kSectionScoredGraph, EncodeScored(*scored));
  }
  if (result != nullptr) {
    lineage.has_result = true;
    writer.AddSection(kSectionResult, EncodeResult(*result));
  }
  writer.AddSection(kSectionLineage, EncodeLineage(lineage));
  return writer.WriteFile(path, env);
}

Result<SessionSnapshot> LoadSessionSnapshot(const std::string& path,
                                            uint64_t expected_fingerprint,
                                            Env* env) {
  Result<ContainerReader> opened =
      ContainerReader::Open(path, kSessionSnapshotMagic, env);
  if (!opened.ok()) return opened.status();
  const ContainerReader& reader = opened.value();
  MS_RETURN_IF_ERROR(reader.RequireKnownSections(
      {kSectionStringPool, kSectionCandidates, kSectionBlockedPairs,
       kSectionScoredGraph, kSectionResult, kSectionLineage,
       kSectionMaintenance}));
  if (reader.options_fingerprint() != expected_fingerprint) {
    return Status::FailedPrecondition(
        "snapshot options fingerprint mismatch: the snapshot was saved "
        "under a different synthesis configuration than this session's "
        "(re-create the session with the saving options, or re-synthesize)");
  }

  // Required sections. A missing section means framing survived the CRCs
  // but the content set is inconsistent — corruption, not API misuse.
  Result<std::string_view> pool_payload = reader.Section(kSectionStringPool);
  Result<std::string_view> cand_payload = reader.Section(kSectionCandidates);
  Result<std::string_view> lineage_payload = reader.Section(kSectionLineage);
  if (!pool_payload.ok() || !cand_payload.ok() || !lineage_payload.ok()) {
    return Status::DataLoss("snapshot is missing a required section: " + path);
  }
  Lineage lineage;
  MS_RETURN_IF_ERROR(DecodeLineage(lineage_payload.value(), &lineage));
  if (lineage.has_blocked != reader.HasSection(kSectionBlockedPairs) ||
      lineage.has_scored != reader.HasSection(kSectionScoredGraph) ||
      lineage.has_result != reader.HasSection(kSectionResult)) {
    return Status::DataLoss(
        "snapshot sections disagree with its lineage manifest: " + path);
  }

  SessionSnapshot out;
  std::vector<std::string_view> views;
  MS_RETURN_IF_ERROR(DecodeStringPoolViews(pool_payload.value(), &views));
  out.pool = std::make_shared<StringPool>();
  out.pool->AdoptExternal(views);
  out.pool->RetainBacking(reader.file());

  out.candidates = std::make_unique<CandidateSet>();
  MS_RETURN_IF_ERROR(
      DecodeCandidates(cand_payload.value(), views.size(), out.candidates.get()));
  out.candidates->pool = out.pool.get();
  out.candidates->artifact_id = lineage.candidates_id;
  const size_t num_candidates = out.candidates->owned.size();

  // v2 snapshots have no maintenance section; they restore with empty
  // maintenance state — no tombstones, no dead candidates, no margin cache
  // (the first mutation pays full coherence re-checks, exactly as a v2
  // build would have).
  if (reader.HasSection(kSectionMaintenance)) {
    MS_RETURN_IF_ERROR(DecodeMaintenance(
        reader.Section(kSectionMaintenance).value(), num_candidates,
        out.candidates->source_tables, out.candidates.get()));
  }

  if (lineage.has_blocked) {
    out.blocked = std::make_unique<BlockedPairs>();
    MS_RETURN_IF_ERROR(DecodeBlocked(reader.Section(kSectionBlockedPairs).value(),
                                     num_candidates, out.blocked.get()));
    out.blocked->artifact_id = lineage.blocked_id;
    out.blocked->candidates_id = lineage.blocked_candidates_id;
  }
  if (lineage.has_scored) {
    out.scored = std::make_unique<ScoredGraph>();
    MS_RETURN_IF_ERROR(DecodeScored(reader.Section(kSectionScoredGraph).value(),
                                    num_candidates, out.scored.get()));
    out.scored->artifact_id = lineage.scored_id;
    out.scored->candidates_id = lineage.scored_candidates_id;
  }
  if (lineage.has_result) {
    out.has_result = true;
    MS_RETURN_IF_ERROR(DecodeResult(reader.Section(kSectionResult).value(),
                                    views.size(), &out.result));
  }
  return out;
}

}  // namespace ms::persist
