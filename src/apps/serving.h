// Serving-style façade over the staged synthesis API: one long-lived object
// that owns a SynthesisSession, the materialized stage artifacts of the
// last synthesis, and the indexed MappingStore the paper's three
// applications (auto-correct Table 3, auto-fill Table 4, auto-join Table 5)
// query. This is the ROADMAP's production shape — a service under heavy
// traffic where repeated queries must not re-pay pipeline setup and
// re-synthesis with tweaked thresholds must only re-run the stages
// downstream of the change:
//
//   MappingService svc(options);
//   svc.Synthesize(corpus);                  // cold: full staged chain
//   svc.AutoJoin(tickers, companies);        // serve from the indexed store
//   opts.compat.edit.cap = 6;
//   svc.Resynthesize(opts);                  // warm: re-scores the cached
//                                            // BlockedPairs, nothing above
//
// Concurrency model (docs/serving.md has the full contract): the service
// separates wait-free readers from serialized writers RCU-style.
//
//   - Readers (SuggestCorrections / AutoFill / AutoJoin / LookupBatch /
//     AcquireSnapshot / has_store / num_mappings / health) never touch
//     mutable session state: each call acquire-loads the current immutable
//     ServingSnapshot from one atomic pointer and runs entirely against it.
//     No locks, no waiting on writers, any number of threads.
//   - Writers (Synthesize* / Resynthesize / AppendAndResynthesize /
//     ResynthesizeAppended / RemoveAndResynthesize / ReplaceAndResynthesize /
//     Open* / Save* / AttachCorpus / set_env)
//     serialize on an internal mutex, build the next generation's
//     artifacts and store off to the side, and publish them with a single
//     atomic store. A reader holding the old snapshot keeps serving it —
//     shared_ptr ownership keeps the old store and pool alive until the
//     last in-flight call drops its handle.
//
// Every fallible entry point returns Status and is fail-closed: a failed
// transition leaves the previous serving state — store, pool, artifacts,
// corpus, options, and health() — exactly as it was.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "apps/auto_correct.h"
#include "apps/auto_fill.h"
#include "apps/auto_join.h"
#include "apps/mapping_store.h"
#include "common/env.h"
#include "persist/rotation.h"
#include "synth/session.h"

namespace ms {

/// Remote-serving load counters, reported by a MappingServer (net/server.h)
/// attached to this service and folded into ServiceHealth so one health
/// probe covers both the storage story and the network story. All zeros
/// when no server is attached.
struct RemoteServingStats {
  uint64_t requests = 0;
  uint64_t errors = 0;
  uint64_t malformed_frames = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t connections_opened = 0;
  uint64_t connections_active = 0;
};

/// Operator-facing account of how the service got to its current serving
/// state. Rotation fields are populated by the rotation-aware entry points
/// and reset by every successful serving-state transition (a freshly
/// synthesized or plainly opened service is healthy by definition — see
/// docs/serving.md for the exact reset semantics).
struct ServiceHealth {
  /// Generation currently served (0 until a rotating open/save succeeds).
  uint64_t generation_served = 0;
  /// Generations OpenLatestSnapshot walked past before finding an intact
  /// one (torn, corrupt, unreadable, or options-incompatible files).
  uint64_t generations_skipped = 0;
  /// Basenames quarantined (renamed to *.corrupt) by the last recovery
  /// walk. Checksum-failing files only — never deleted, kept for
  /// post-mortem.
  std::vector<std::string> quarantined_files;
  /// Cumulative transient-IO retries the service's env absorbed (short
  /// writes, EINTR stalls) across all operations so far.
  uint64_t retries_performed = 0;
  /// Cumulative terminal IO failures the service's env reported (injected
  /// faults included; expected NotFound probes excluded).
  uint64_t io_failures = 0;
  /// Load counters of the attached remote server (zeros without one).
  RemoteServingStats remote;

  /// True when serving required falling back past the newest generation —
  /// the data served is valid but older than what a writer tried to commit.
  bool degraded() const {
    return generations_skipped > 0 || !quarantined_files.empty();
  }
};

/// One immutable serving generation: everything a lookup needs, published
/// atomically as a unit. Acquire a handle once per request (or batch of
/// requests that must agree) and every probe against it is consistent —
/// the store was built from exactly `result`'s mappings against exactly
/// `pool`. Handles are plain shared_ptrs: safe to hold across writer
/// transitions (the generation stays alive until the last handle drops)
/// and safe to pass between threads.
struct ServingSnapshot {
  std::shared_ptr<const MappingStore> store;   ///< never null when published
  std::shared_ptr<StringPool> pool;            ///< pins store's value strings
  std::shared_ptr<const SynthesisResult> result;  ///< never null; has stats
  /// Monotonic publication counter (1 = first successful transition).
  /// Readers can assert they never observe it moving backwards.
  uint64_t version = 0;
};

namespace internal {

#if !defined(MS_TSAN_BUILD) && defined(__SANITIZE_THREAD__)
#define MS_TSAN_BUILD 1
#endif
#if !defined(MS_TSAN_BUILD) && defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MS_TSAN_BUILD 1
#endif
#endif

#if defined(MS_TSAN_BUILD)
/// TSan builds publish through a mutex instead of std::atomic<shared_ptr>.
/// GCC 12's _Sp_atomic::load releases its internal spin-bit with
/// memory_order_relaxed after reading _M_ptr (bits/shared_ptr_atomic.h), so
/// the writer's later lock acquisition never formally synchronizes with a
/// reader's unlock — ThreadSanitizer reports the _M_ptr swap racing reader
/// loads inside the standard library. Substituting a mutex here (identical
/// semantics: one publication point, immutable snapshots) lets TSan verify
/// OUR protocol instead of libstdc++'s internals. Production builds keep
/// the wait-free atomic below.
class ServingSnapshotCell {
 public:
  std::shared_ptr<const ServingSnapshot> load(std::memory_order) const {
    const std::lock_guard<std::mutex> lk(mu_);
    return ptr_;
  }
  void store(std::shared_ptr<const ServingSnapshot> next, std::memory_order) {
    const std::lock_guard<std::mutex> lk(mu_);
    ptr_ = std::move(next);
  }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const ServingSnapshot> ptr_;
};
#else
/// The RCU publication slot: readers acquire-load a handle wait-free,
/// writers release-store the next finished generation.
using ServingSnapshotCell = std::atomic<std::shared_ptr<const ServingSnapshot>>;
#endif

}  // namespace internal

class MappingService {
 public:
  explicit MappingService(SynthesisOptions options = {});
  ~MappingService();

  MappingService(const MappingService&) = delete;
  MappingService& operator=(const MappingService&) = delete;

  /// Construction-time options validation verdict (mirrors the session's).
  Status status() const { return session_.status(); }

  /// Routes every filesystem operation the service performs (corpus loads,
  /// snapshot save/restore, rotation bookkeeping) through `env`. nullptr
  /// restores the process-wide PosixEnv. The env must outlive the service;
  /// it is not part of the options fingerprint, so snapshots interoperate
  /// across envs. Writer-serialized.
  void set_env(Env* env);
  Env* env() const { return env_; }

  /// Runs the full staged chain on `corpus` and rebuilds the store. The
  /// corpus must outlive the service (stage artifacts borrow its tables;
  /// the string pool is kept alive via its shared handle regardless).
  Status Synthesize(const TableCorpus& corpus);

  /// Loads a TSV corpus (owned by the service) and synthesizes from it.
  /// IO/parse failures propagate instead of yielding an empty store.
  Status SynthesizeFromFile(const std::string& path);

  /// Opens an mmap-backed corpus store (persist/corpus_store.h — build one
  /// with ConvertTsvCorpusToStore) and synthesizes from it. The store's
  /// cell values stay zero-copy views into the mapping, which the corpus
  /// pool pins for as long as any consumer holds it.
  Status SynthesizeFromCorpusStore(const std::string& path);

  // ------------------------------------------------------------ persistence

  /// Writes the materialized stage artifacts and last result to a
  /// checksummed snapshot (*.mssnap). FailedPrecondition when nothing was
  /// synthesized yet.
  Status SaveSnapshot(const std::string& path);

  /// Restores a snapshot saved by SaveSnapshot (or by a SynthesisSession
  /// directly) and serves from it immediately — the restart story: restore,
  /// then AutoJoin/AutoFill/SuggestCorrections with zero re-synthesis.
  /// Fail-closed: on any error (DataLoss corruption, FailedPrecondition
  /// options-fingerprint mismatch) the service keeps its previous state.
  /// The service has no corpus afterwards, so a later Resynthesize may only
  /// change options downstream of extraction.
  Status OpenFromSnapshot(const std::string& path);

  /// Generational save (persist/rotation.h): writes the next generation as
  /// `dir/snap-<gen>.mssnap` (atomic tmp+fsync+rename), commits the
  /// durable CURRENT pointer only after the snapshot is on disk, then
  /// prunes live generations beyond `keep` (quarantined *.corrupt files
  /// are never touched). A failure at any step leaves every previously
  /// committed generation intact — the tmp file is the only possible
  /// debris, and the next save reclaims it. On success health() serves the
  /// new generation with a cleared skip/quarantine record: the committed
  /// write proves the degradation recorded by an earlier recovery walk is
  /// behind us.
  Status SaveSnapshotRotating(const std::string& dir,
                              int keep = persist::kDefaultRetainedGenerations);

  /// Last-good recovery: walks `dir`'s generations newest → oldest and
  /// serves the first one that fully verifies. Checksum-failing (DataLoss)
  /// generations are quarantined to *.corrupt on the way down; torn,
  /// unreadable, or options-incompatible ones are skipped. The walk is
  /// recorded in health(). Fail-closed like OpenFromSnapshot: when no
  /// generation is intact the previous serving state survives and the last
  /// (oldest) failure is returned — NotFound when the directory holds no
  /// generations at all.
  Status OpenLatestSnapshot(const std::string& dir);

  /// How the service got to its serving state: generation served,
  /// fallbacks taken, files quarantined, transient retries absorbed, and —
  /// when a remote server is attached — network load counters.
  /// Wait-free for readers (internal bookkeeping mutex, never held across
  /// a chain run).
  ServiceHealth health() const;

  /// Registers the source of ServiceHealth::remote — a MappingServer
  /// (net/server.h) installs its own counter aggregation on Start and
  /// clears it (nullptr) on Stop. The callback runs under the health
  /// bookkeeping mutex, so it must be lock-free and cheap (the server's is
  /// a relaxed-atomic sweep). Not a general-purpose surface.
  void SetRemoteStatsSource(std::function<RemoteServingStats()> source);

  /// Serving-only bootstrap from a curated mappings TSV
  /// (persist/mapping_text.h): loads the file into a fresh store. Status
  /// from the underlying file load propagates — an unreadable or malformed
  /// file leaves the existing store untouched instead of silently serving
  /// an empty one.
  Status OpenFromMappingsFile(const std::string& path);

  // ------------------------------------------------- incremental growth

  /// Incremental corpus growth without a cold rebuild: runs
  /// SynthesisSession::AppendCorpus, which merges `delta`'s tables into the
  /// service's corpus and grows the cached artifacts — extraction,
  /// blocking, and scoring run only over the delta (plus the corpus-global
  /// coherence re-check), untouched components' mappings carry over, and
  /// the store is rebuilt from the merged result. Requires a corpus the
  /// service loaded itself (SynthesizeFromFile/SynthesizeFromCorpusStore).
  ///
  /// The corpus changes (this, RemoveAndResynthesize and
  /// ReplaceAndResynthesize) share one transition and are fail-closed AND
  /// recoverable: the session undoes a corpus change it could not finish,
  /// and the service applies the undo the session returned when the
  /// publish fails, so the corpus (tables, columns, and pool tail) is back
  /// at the served prefix and the same call can simply be retried.
  Status AppendAndResynthesize(const TableCorpus& delta);

  /// Same append path for an externally-owned corpus the caller already
  /// grew in place (SynthesisSession::AppendTables): picks up every table
  /// added since the last synthesis. The service never touches that
  /// corpus, so a failure has nothing to undo. FailedPrecondition when the
  /// corpus did not grow.
  Status ResynthesizeAppended();

  /// Incremental removal without a cold rebuild: tombstones `removed`
  /// tables in the service's corpus (slots and ids stay stable) through
  /// SynthesisSession::RemoveTables — only graph components that lost a
  /// candidate are re-partitioned and re-resolved, and the store is rebuilt
  /// from the surviving mappings. Same owned-corpus requirement and
  /// retryable undo as AppendAndResynthesize: removal mutates the corpus in
  /// place, which the service must not do to a caller-owned one.
  Status RemoveAndResynthesize(const std::vector<uint32_t>& removed);

  /// Atomic remove + append in one maintenance pass
  /// (SynthesisSession::ReplaceTables): tombstones `removed`, merges
  /// `delta`'s tables at the tail, reconciles the artifact family once, and
  /// rebuilds the store. Same owned-corpus requirement and retryable undo
  /// as AppendAndResynthesize.
  Status ReplaceAndResynthesize(const std::vector<uint32_t>& removed,
                                const TableCorpus& delta);

  /// Attaches a corpus to a snapshot-restored service, re-enabling
  /// extraction-dependent operations (appends; extraction-option
  /// Resynthesize). The corpus must be the one the snapshot was synthesized
  /// from — same tables, and a pool id-compatible with the snapshot's (save
  /// the corpus store from the same pool state as the snapshot; AppendTables
  /// verifies the shared pool prefix). The corpus must outlive the service.
  Status AttachCorpus(const TableCorpus& corpus);

  /// Warm re-synthesis: diffs `new_options` against the current options and
  /// re-runs only the stages downstream of the first difference, reusing
  /// the materialized artifacts above it verbatim — changed
  /// CompatibilityOptions re-score the cached BlockedPairs; changed
  /// partitioner/conflict/curation options re-partition the cached
  /// ScoredGraph. FailedPrecondition when nothing was synthesized yet.
  /// Fail-closed including the options themselves: a failed re-run restores
  /// the previous options, so the served artifacts and the session
  /// configuration never drift apart.
  Status Resynthesize(SynthesisOptions new_options);

  // --------------------------------------------------- snapshot readers

  /// The current serving generation, or nullptr before the first
  /// successful transition. One acquire-load; hold the handle for as many
  /// lookups as must agree with each other (a single app call does this
  /// internally). See ServingSnapshot for lifetime rules.
  std::shared_ptr<const ServingSnapshot> AcquireSnapshot() const {
    return serving_.load(std::memory_order_acquire);
  }

  /// Lookup direction for LookupBatch.
  enum class LookupDirection { kLeftToRight, kRightToLeft };

  /// Batched functional lookup against the current snapshot: element k is
  /// mapping `mapping_index`'s (normalized) image of values[k], or nullopt
  /// when absent. Amortizes normalization and hash probes over the batch
  /// (distinct values probe once — see MappingStore::LookupRightBatch).
  /// All-nullopt when nothing is served yet or the index is out of range.
  /// Wait-free reader.
  std::vector<std::optional<std::string>> LookupBatch(
      size_t mapping_index, const std::vector<std::string>& values,
      LookupDirection direction = LookupDirection::kLeftToRight) const;

  /// True when a serving snapshot is published. Wait-free reader.
  bool has_store() const { return AcquireSnapshot() != nullptr; }
  /// Mappings in the current snapshot's store (0 before the first
  /// transition). Wait-free reader.
  size_t num_mappings() const {
    const auto snap = AcquireSnapshot();
    return snap ? snap->store->size() : 0;
  }

  /// The indexed store applications query. Valid after a successful
  /// Synthesize*/Resynthesize. NOT a wait-free reader: the reference is
  /// only stable while no writer runs — single-threaded callers and tests
  /// use this; concurrent readers must AcquireSnapshot() and use
  /// snapshot->store.
  const MappingStore& store() const { return *store_; }

  /// Full result (stats included) of the last successful synthesis. Same
  /// writer-synchronization caveat as store(); concurrent readers use
  /// AcquireSnapshot()->result. The store indexes these mappings without
  /// copying them, so the service keeps one copy of the mapping set.
  const SynthesisResult& last_result() const {
    static const SynthesisResult kEmpty;
    return last_result_ ? *last_result_ : kEmpty;
  }

  /// The string pool serving state resolves against (snapshot pool after a
  /// restore, corpus pool otherwise). Lets callers compare mapping content
  /// across services without assuming id compatibility. Same
  /// writer-synchronization caveat as store().
  const std::shared_ptr<StringPool>& shared_pool() const {
    return pool_keepalive_;
  }

  /// Stage-run counters of the underlying session; lets operators verify a
  /// Resynthesize actually skipped the upstream stages. Writer-side
  /// observability (same caveat as store()).
  const SynthesisSession::SessionStats& session_stats() const {
    return session_.session_stats();
  }

  // ------------------------------------------------- serving entry points
  // Thin forwards to the paper's three applications, each bound to one
  // acquired snapshot for its whole run. Wait-free readers.

  AutoCorrectResult SuggestCorrections(
      const std::vector<std::string>& column,
      const AutoCorrectOptions& options = {}) const;

  AutoFillResult AutoFill(
      const std::vector<std::string>& keys,
      const std::vector<std::pair<size_t, std::string>>& examples,
      const AutoFillOptions& options = {}) const;

  AutoJoinResult AutoJoin(const std::vector<std::string>& left_keys,
                          const std::vector<std::string>& right_keys,
                          const AutoJoinOptions& options = {}) const;

  // --------------------------------------------------- test-only faults

  /// Deterministic chain-failure points for the fail-closed regression
  /// tests — the CPU-side analog of the persistence layer's
  /// FaultInjectionEnv (tests/fault_test.cc). The next time any entry
  /// point reaches the armed point it fails once with Internal. Not a
  /// production surface.
  enum class ServingFault {
    kNone = 0,
    kExtract,        ///< before stage 1 of a chain run
    kBlock,          ///< before stage 2
    kScore,          ///< before stage 3
    kPartition,      ///< before stage 4
    kResolve,        ///< before stage 5
    kAppendCommit,   ///< after the session mutation succeeded, before commit
    kPublish,        ///< at the head of commit, before any state mutates
  };
  void InjectFaultForTests(ServingFault point);

 private:
  /// The next generation under construction: every transition stages its
  /// entire outcome here (cheap shared_ptr aliases of whatever it reuses)
  /// and only CommitAndPublish moves it into the served members — mid-chain
  /// failures cannot leave mixed-generation state by construction.
  struct BuildState {
    /// When true the commit replaces the service's corpus with
    /// owned_corpus/corpus below (fresh runs and snapshot opens); when
    /// false the current corpus pointers are kept (resynthesis, appends).
    bool replace_corpus = false;
    std::unique_ptr<TableCorpus> owned_corpus;
    const TableCorpus* corpus = nullptr;  ///< extraction source for the build
    std::shared_ptr<StringPool> pool;
    std::shared_ptr<const CandidateSet> candidates;
    std::shared_ptr<const BlockedPairs> blocked;
    std::shared_ptr<const ScoredGraph> scored;
    std::shared_ptr<const Partitions> partitions;
    std::shared_ptr<const SynthesisResult> result;
  };

  /// Stages the current family (shared aliases, current corpus) as the
  /// starting point of an incremental transition.
  BuildState StageFromCurrent() const;
  /// Runs the staged chain into `s` from the deepest present artifact.
  Status RunChain(BuildState* s, bool have_candidates, bool have_blocked,
                  bool have_scored);
  /// Builds the next store from `s` and atomically publishes the new
  /// generation; on success also resets the rotation bookkeeping (every
  /// successful transition serves fresh, healthy state). The only method
  /// that mutates served members, and it never fails after the first
  /// member assignment.
  Status CommitAndPublish(BuildState&& s);
  Status ConsumeFault(ServingFault point);

  // Writer implementations; writer_mu_ must be held.
  Status StartFreshRunLocked(std::unique_ptr<TableCorpus> owned,
                             const TableCorpus* external);
  Status OpenFromSnapshotLocked(const std::string& path);
  Status SaveSnapshotLocked(const std::string& path);
  /// The four corpus changes (MutateChainLocked's error messages name the
  /// entry points in this order).
  enum class CorpusChange { kAppend, kAppended, kRemove, kReplace };
  /// The one transition behind AppendAndResynthesize (`delta`),
  /// ResynthesizeAppended (neither), RemoveAndResynthesize (`removed`) and
  /// ReplaceAndResynthesize (both): the session mutates the corpus and
  /// undoes its own failures; when the commit fails, the service applies
  /// the undo the session returned.
  Status MutateChainLocked(CorpusChange change, std::vector<uint32_t> removed,
                           const TableCorpus* delta);
  /// The mutation's preamble: re-scores the staged graph if the synonym
  /// dictionary moved past the version it was scored at, then materializes
  /// whatever family members a snapshot restore left out.
  Status PrepareIncrementalFamilyLocked(BuildState* s);
  Status ResynthesizeLocked(SynthesisOptions new_options);

  SynthesisSession session_;
  Env* env_ = Env::Default();

  /// Serializes every mutating entry point; never held by readers.
  mutable std::mutex writer_mu_;

  std::unique_ptr<TableCorpus> owned_corpus_;     ///< SynthesizeFromFile
  const TableCorpus* corpus_ = nullptr;           ///< source of artifacts
  std::shared_ptr<StringPool> pool_keepalive_;

  // Materialized stage artifacts of the last chain (resume points). Shared
  // const handles so staging a transition aliases them for free and a
  // commit swaps the whole family at once.
  std::shared_ptr<const CandidateSet> candidates_;
  std::shared_ptr<const BlockedPairs> blocked_;
  std::shared_ptr<const ScoredGraph> scored_;
  std::shared_ptr<const Partitions> partitions_;

  std::shared_ptr<const SynthesisResult> last_result_;
  std::shared_ptr<const MappingStore> store_;
  uint64_t versions_published_ = 0;
  ServingFault injected_fault_ = ServingFault::kNone;

  /// The RCU publication point: readers acquire-load, CommitAndPublish
  /// release-stores. Never null after the first successful transition.
  /// (Mutex-guarded under TSan — see internal::ServingSnapshotCell.)
  internal::ServingSnapshotCell serving_;

  /// Rotation bookkeeping behind health(); its own mutex so readers polling
  /// health never contend with a chain run (writer_mu_ is held across
  /// whole transitions). Lock order: writer_mu_ before health_mu_.
  mutable std::mutex health_mu_;
  uint64_t generation_served_ = 0;
  uint64_t generations_skipped_ = 0;
  std::vector<std::string> quarantined_files_;
  /// Set by an attached MappingServer; consulted by health().
  std::function<RemoteServingStats()> remote_stats_source_;
};

}  // namespace ms
