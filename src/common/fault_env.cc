#include "common/fault_env.h"

#include <cerrno>
#include <cstring>
#include <utility>

namespace ms {

namespace {

/// Mirrors the PosixEnv message shape — "<op> failed for <path>:
/// <strerror>" — with an [injected] marker, so the path/errno message audit
/// holds for injected failures exactly as for real ones.
Status InjectedError(const char* op, const std::string& path, int err) {
  return Status::IOError(std::string(op) + " failed for " + path + ": " +
                         std::strerror(err) + " [injected]");
}

int TerminalErrno(FaultKind kind) {
  switch (kind) {
    case FaultKind::kEnospc:
      return ENOSPC;
    case FaultKind::kEacces:
      return EACCES;
    case FaultKind::kEio:
    case FaultKind::kShortWrite:  // degraded on non-write-attempt ops
    case FaultKind::kEintr:
      return EIO;
  }
  return EIO;
}

}  // namespace

/// Wraps a real WritableFile so each write attempt is a counted, injectable
/// op. Short-write injection persists a genuine prefix through the base
/// file — the bytes really land on disk, as a real short write's would.
class FaultWritableFile final : public WritableFile {
 public:
  FaultWritableFile(FaultInjectionEnv* env, std::unique_ptr<WritableFile> base)
      : env_(env), base_(std::move(base)) {}

  Result<size_t> AppendSome(std::string_view data) override {
    FaultInjectionEnv::Decision d = env_->NextOp(
        "write", base_->path(), /*write_class=*/true, /*is_write_attempt=*/true);
    if (!d.failure.ok()) return d.failure;
    if (d.eintr) return size_t{0};
    if (d.short_write) {
      // Persist a strict prefix (half, at least 1 byte when possible) and
      // report the short count — AppendFully must resume from the middle.
      const size_t n = data.size() <= 1 ? 0 : data.size() / 2;
      if (n == 0) return size_t{0};
      return base_->AppendSome(data.substr(0, n));
    }
    return base_->AppendSome(data);
  }

  Status Sync() override {
    FaultInjectionEnv::Decision d = env_->NextOp(
        "fsync", base_->path(), /*write_class=*/true, /*is_write_attempt=*/false);
    if (!d.failure.ok()) return d.failure;
    return base_->Sync();
  }

  Status Close() override {
    FaultInjectionEnv::Decision d = env_->NextOp(
        "close", base_->path(), /*write_class=*/true, /*is_write_attempt=*/false);
    if (!d.failure.ok()) {
      base_->Close();  // really release the descriptor either way
      return d.failure;
    }
    return base_->Close();
  }

  const std::string& path() const override { return base_->path(); }

 private:
  FaultInjectionEnv* env_;
  std::unique_ptr<WritableFile> base_;
};

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kEnospc:
      return "ENOSPC";
    case FaultKind::kEio:
      return "EIO";
    case FaultKind::kEacces:
      return "EACCES";
    case FaultKind::kShortWrite:
      return "short-write";
    case FaultKind::kEintr:
      return "EINTR";
  }
  return "unknown";
}

FaultInjectionEnv::FaultInjectionEnv(Env* base) : base_(base) {}

void FaultInjectionEnv::FailOp(uint64_t index, FaultKind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  fail_plan_ = {index, kind};
  crash_after_.reset();
  fault_fired_ = false;
}

void FaultInjectionEnv::CrashAfterOp(uint64_t index) {
  std::lock_guard<std::mutex> lock(mu_);
  crash_after_ = index;
  fail_plan_.reset();
  crashed_ = false;
}

void FaultInjectionEnv::ResetOpCount() {
  std::lock_guard<std::mutex> lock(mu_);
  ops_ = 0;
}

uint64_t FaultInjectionEnv::ops_seen() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ops_;
}

bool FaultInjectionEnv::fault_fired() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fault_fired_;
}

bool FaultInjectionEnv::crashed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return crashed_;
}

uint64_t FaultInjectionEnv::sleeps_requested() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sleeps_;
}

FaultInjectionEnv::Decision FaultInjectionEnv::NextOp(const char* op,
                                                      const std::string& path,
                                                      bool write_class,
                                                      bool is_write_attempt) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t index = ops_++;
  Decision d;
  if (crash_after_.has_value() && index > *crash_after_ && write_class) {
    crashed_ = true;
    // Frozen ops count as IO failures on this env — the registry fold sees
    // injected faults exactly as it would real ones.
    NoteIoFailure();
    d.failure = Status::IOError(
        std::string(op) + " failed for " + path +
        ": writes frozen [simulated crash]");
    return d;
  }
  if (fail_plan_.has_value() && index == fail_plan_->first) {
    fault_fired_ = true;
    const FaultKind kind = fail_plan_->second;
    if (is_write_attempt && kind == FaultKind::kShortWrite) {
      d.short_write = true;
      return d;
    }
    if (is_write_attempt && kind == FaultKind::kEintr) {
      d.eintr = true;
      return d;
    }
    NoteIoFailure();
    d.failure = InjectedError(op, path, TerminalErrno(kind));
    return d;
  }
  return d;
}

Result<std::unique_ptr<WritableFile>> FaultInjectionEnv::NewWritableFile(
    const std::string& path) {
  Decision d = NextOp("open for write", path, /*write_class=*/true,
                      /*is_write_attempt=*/false);
  if (!d.failure.ok()) return d.failure;
  Result<std::unique_ptr<WritableFile>> base = base_->NewWritableFile(path);
  if (!base.ok()) return base.status();
  return std::unique_ptr<WritableFile>(
      std::make_unique<FaultWritableFile>(this, std::move(base).value()));
}

Result<std::shared_ptr<MmapFile>> FaultInjectionEnv::MapReadOnly(
    const std::string& path) {
  Decision d = NextOp("mmap open", path, /*write_class=*/false,
                      /*is_write_attempt=*/false);
  if (!d.failure.ok()) return d.failure;
  return base_->MapReadOnly(path);
}

Result<std::string> FaultInjectionEnv::ReadFileToString(
    const std::string& path) {
  Decision d = NextOp("open for read", path, /*write_class=*/false,
                      /*is_write_attempt=*/false);
  if (!d.failure.ok()) return d.failure;
  return base_->ReadFileToString(path);
}

Status FaultInjectionEnv::RenameFile(const std::string& from,
                                     const std::string& to) {
  Decision d = NextOp("rename", from + " -> " + to, /*write_class=*/true,
                      /*is_write_attempt=*/false);
  if (!d.failure.ok()) return d.failure;
  return base_->RenameFile(from, to);
}

Status FaultInjectionEnv::RemoveFile(const std::string& path) {
  Decision d = NextOp("unlink", path, /*write_class=*/true,
                      /*is_write_attempt=*/false);
  if (!d.failure.ok()) return d.failure;
  return base_->RemoveFile(path);
}

Status FaultInjectionEnv::SyncDir(const std::string& dir) {
  Decision d = NextOp("fsync", dir, /*write_class=*/true,
                      /*is_write_attempt=*/false);
  if (!d.failure.ok()) return d.failure;
  return base_->SyncDir(dir);
}

Result<std::vector<std::string>> FaultInjectionEnv::ListDir(
    const std::string& dir) {
  Decision d = NextOp("opendir", dir, /*write_class=*/false,
                      /*is_write_attempt=*/false);
  if (!d.failure.ok()) return d.failure;
  return base_->ListDir(dir);
}

Status FaultInjectionEnv::CreateDirIfMissing(const std::string& dir) {
  Decision d = NextOp("mkdir", dir, /*write_class=*/true,
                      /*is_write_attempt=*/false);
  if (!d.failure.ok()) return d.failure;
  return base_->CreateDirIfMissing(dir);
}

bool FaultInjectionEnv::FileExists(const std::string& path) {
  return base_->FileExists(path);
}

void FaultInjectionEnv::SleepForMs(int) {
  std::lock_guard<std::mutex> lock(mu_);
  ++sleeps_;  // the injectable clock: count, never sleep
}

}  // namespace ms
