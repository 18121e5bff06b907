// Deterministic fault injection for the persistence layer: wraps a real Env
// and assigns every fallible IO call a global op index, so a test can make
// exactly the Nth syscall fail — with ENOSPC, EIO, EACCES, a short write,
// or EINTR — or simulate a crash by freezing every write-class op after op
// N. The torture suite (tests/fault_test.cc) enumerates every op index of a
// save→restore→append→save schedule and asserts the recovery invariant for
// both variants at each index; targeted tests use single injections
// (disk-full saves, read-only directories, short-write absorption).
//
// Model notes:
//  - Ops are counted in call order across the whole env: file opens, each
//    write attempt, fsyncs, closes, renames, unlinks, directory syncs and
//    reads all get consecutive indices. FileExists and SleepForMs are
//    infallible and uncounted.
//  - A fail-op injection fires exactly once (the op with that index); a
//    retry of the same logical operation gets a fresh index and passes,
//    which is exactly how a transient EINTR/short-write is absorbed by
//    AppendFully's retry loop.
//  - kShortWrite and kEintr only have meaning on a write attempt; when the
//    target op is anything else they degrade to a terminal EIO-style
//    failure (the sweep cycles kinds over op indices, so every op still
//    sees every kind that can apply to it).
//  - Crash simulation freezes WRITE-class ops only (the bytes already on
//    disk stay readable, as they would for a recovering process); every
//    frozen op fails with IOError mentioning the simulated crash. Reads
//    continue to serve the post-crash filesystem state.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "common/env.h"

namespace ms {

enum class FaultKind {
  kEnospc,      ///< terminal: No space left on device
  kEio,         ///< terminal: Input/output error
  kEacces,      ///< terminal: Permission denied
  kShortWrite,  ///< transient: the write attempt persists only a prefix
  kEintr,       ///< transient: the write attempt persists nothing
};

const char* FaultKindName(FaultKind kind);

class FaultInjectionEnv final : public Env {
 public:
  explicit FaultInjectionEnv(Env* base = Env::Default());

  // -------------------------------------------------------- fault plans
  // At most one plan is active; setting a new one replaces the old. The op
  // counter keeps running across plan changes unless ResetOpCount is
  // called, so a plan set mid-run targets upcoming ops.

  /// The op with global index `index` fails with `kind` (fires once).
  void FailOp(uint64_t index, FaultKind kind);

  /// Every write-class op with index > `index` fails ("writes frozen") —
  /// the crash point. Ops up to and including `index` run normally.
  void CrashAfterOp(uint64_t index);

  void ResetOpCount();

  // ------------------------------------------------------ observability

  /// Total fallible ops seen so far — run a schedule once with no plan to
  /// learn the sweep bound.
  uint64_t ops_seen() const;

  /// Whether the active/last FailOp plan actually fired.
  bool fault_fired() const;

  /// Whether the crash point has been passed (some op was frozen).
  bool crashed() const;

  // ------------------------------------------------------ Env interface

  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override;
  Result<std::shared_ptr<MmapFile>> MapReadOnly(
      const std::string& path) override;
  Result<std::string> ReadFileToString(const std::string& path) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Status RemoveFile(const std::string& path) override;
  Status SyncDir(const std::string& dir) override;
  Result<std::vector<std::string>> ListDir(const std::string& dir) override;
  Status CreateDirIfMissing(const std::string& dir) override;
  bool FileExists(const std::string& path) override;
  /// Counts the backoff request but never sleeps — the injectable clock.
  void SleepForMs(int ms) override;

  uint64_t sleeps_requested() const;

 private:
  friend class FaultWritableFile;

  /// What the current op should do. Write attempts additionally handle the
  /// transient kinds; all other ops treat any injection as terminal.
  struct Decision {
    bool short_write = false;
    bool eintr = false;
    Status failure;  ///< non-OK = terminal failure for this op
  };
  Decision NextOp(const char* op, const std::string& path, bool write_class,
                  bool is_write_attempt);

  Env* base_;
  mutable std::mutex mu_;
  uint64_t ops_ = 0;
  uint64_t sleeps_ = 0;
  std::optional<std::pair<uint64_t, FaultKind>> fail_plan_;
  std::optional<uint64_t> crash_after_;
  bool fault_fired_ = false;
  bool crashed_ = false;
};

}  // namespace ms
