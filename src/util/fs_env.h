#ifndef RELCOMP_UTIL_FS_ENV_H_
#define RELCOMP_UTIL_FS_ENV_H_

#include <dirent.h>
#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>

namespace relcomp {

/// The filesystem operations the store issues, for fault addressing.
enum class FsOp {
  kOpen,
  kRead,
  kWrite,
  kFsync,
  kRename,
  kUnlink,
  kFlock,
  kMkdir,
  kOpendir,
};

const char* FsOpToString(FsOp op);

/// What a storage fault does when it fires. Sibling of FaultInjector
/// (decision points) and SocketFaultPlan (wire bytes): the same
/// deterministic, ordinal-addressed discipline, one level down.
enum class StorageFaultKind {
  kNone,
  /// The op fails with EIO without being performed.
  kEio,
  /// The op fails with ENOSPC without being performed.
  kEnospc,
  /// A write() genuinely writes a prefix and returns the short count —
  /// the ENOSPC-mid-line / torn-tail producer. Only write ops match.
  kShortWrite,
  /// fsync() returns EIO without syncing: the kernel admits it may
  /// have lost the data. Only fsync ops match.
  kFsyncFail,
  /// rename() reports success but does nothing — the power-cut where
  /// the metadata update never reached the platter. Only rename ops
  /// match.
  kLostRename,
  /// write() reports full success but writes nothing — the lying disk
  /// that acked from its volatile cache. Only write ops match.
  kLostAppend,
};

const char* StorageFaultKindToString(StorageFaultKind kind);

/// A deterministic storage-fault schedule. The plan is addressed by
/// the ordinal of *matching* operations issued through one FsEnv:
/// `at` fires exactly once, on the at-th match (1-based); `every`
/// fires on every every-th match. A match is any op whose kind the
/// fault applies to (see StorageFaultKind) at a site whose tag starts
/// with `site` (empty = every site). Replaying the same operation
/// sequence against the same plan reproduces the same faults —
/// that is what makes the kill-the-disk sweeps replayable.
struct StorageFaultPlan {
  StorageFaultKind kind = StorageFaultKind::kNone;
  /// Fire once, on the `at`-th matching op (1-based). 0 disables.
  uint64_t at = 0;
  /// Fire on every `every`-th matching op. 0 disables.
  uint64_t every = 0;
  /// Site-tag prefix filter; empty matches every site. Store sites:
  /// "record.<kind>" (tmp write + fsync + rename of a record file),
  /// "dirsync" (directory fsync), "read", "lock", "scan", "mkdir",
  /// "gc" (unlinks: generation garbage collection and Forget), "probe"
  /// (health probe).
  std::string site;
  /// For kShortWrite: how many bytes actually land. When 0, half the
  /// requested count (rounded down) lands — always strictly short.
  size_t short_bytes = 0;

  bool active() const {
    return kind != StorageFaultKind::kNone && (at != 0 || every != 0);
  }
  /// Whether a matching op with this 1-based ordinal faults.
  bool Fires(uint64_t ordinal) const {
    if (!active()) return false;
    if (at != 0 && ordinal == at) return true;
    if (every != 0 && ordinal % every == 0) return true;
    return false;
  }
};

/// An injectable filesystem environment. CheckpointStore routes ALL
/// its I/O through one of these, tagging each call with a site so a
/// StorageFaultPlan can hit "the 3rd directory fsync" or "every record
/// fsync" deterministically. The default environment is a pure
/// passthrough to the real syscalls; tests (and the chaos harness)
/// hand the store an env armed with a plan.
///
/// Each method mirrors its syscall's contract: -1 + errno on failure.
/// Thread safe — one env may serve several stores (a fabric member's
/// shards share the member's "disk").
class FsEnv {
 public:
  FsEnv() = default;
  virtual ~FsEnv() = default;
  FsEnv(const FsEnv&) = delete;
  FsEnv& operator=(const FsEnv&) = delete;

  /// The process-wide passthrough environment (no faults, shared).
  static FsEnv* Default();

  virtual int Open(std::string_view site, const char* path, int flags,
                   mode_t mode);
  virtual ssize_t Read(std::string_view site, int fd, void* buf,
                       size_t count);
  virtual ssize_t Write(std::string_view site, int fd, const void* buf,
                        size_t count);
  virtual int Fsync(std::string_view site, int fd);
  virtual int Rename(std::string_view site, const char* from,
                     const char* to);
  virtual int Unlink(std::string_view site, const char* path);
  virtual int Flock(std::string_view site, int fd, int operation);
  virtual int Mkdir(std::string_view site, const char* path, mode_t mode);
  virtual DIR* Opendir(std::string_view site, const char* path);

  /// Arms (or, with an inactive plan, disarms) the fault schedule and
  /// resets the matching-op ordinal so plans compose per scenario.
  void set_fault_plan(const StorageFaultPlan& plan);
  StorageFaultPlan fault_plan() const;

  /// Total operations issued through this env (faulted or not) — the
  /// sweep bound: an unfaulted run's count is the number of ordinals a
  /// kill-the-disk sweep must visit.
  uint64_t ops_issued() const;
  /// Matching operations seen by the current plan so far.
  uint64_t matches_seen() const;
  /// Faults injected so far (a sweep asserts its fault actually hit).
  uint64_t faults_injected() const;
  /// Site tag of the most recent injected fault, for diagnostics.
  std::string last_fault_site() const;

 private:
  /// Consults the plan for an op of `op` kind at `site`. Returns the
  /// fault to apply (kNone = proceed) and, for short writes, the
  /// prefix length via *short_count.
  StorageFaultKind Consult(FsOp op, std::string_view site, size_t count,
                           size_t* short_count);

  mutable std::mutex mu_;
  StorageFaultPlan plan_;
  uint64_t ops_issued_ = 0;
  uint64_t matches_seen_ = 0;
  uint64_t faults_injected_ = 0;
  std::string last_fault_site_;
};

}  // namespace relcomp

#endif  // RELCOMP_UTIL_FS_ENV_H_
