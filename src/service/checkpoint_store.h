#ifndef RELCOMP_SERVICE_CHECKPOINT_STORE_H_
#define RELCOMP_SERVICE_CHECKPOINT_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/execution_control.h"
#include "util/fs_env.h"
#include "util/status.h"

namespace relcomp {

/// Store health, as observed from its own write path. kHealthy means
/// no failure since the last successful probe; kDegraded means the
/// write path has failed at least once (writes are still attempted);
/// kReadOnly means an fsync failed — the kernel may have lost
/// acknowledged bytes, so every further mutating op is refused typed
/// (kUnavailable) without touching the disk until a probe succeeds
/// (fsync-gate semantics). The ONLY edge back to kHealthy is a
/// successful ProbeHealth() — an ordinary write that happens to
/// succeed does not clear degradation, so health cannot flap on a
/// disk that fails intermittently.
enum class StoreHealth {
  kHealthy,
  kDegraded,
  kReadOnly,
};

const char* StoreHealthToString(StoreHealth health);

/// Health counters, for operators and the degraded-mode tests.
struct StoreHealthReport {
  StoreHealth health = StoreHealth::kHealthy;
  /// Every I/O failure seen (read or write path).
  size_t io_errors = 0;
  /// Write-path failures (open/write/rename on a persist).
  size_t write_failures = 0;
  /// Fsync failures — each one tripped the fsync gate.
  size_t fsync_failures = 0;
  size_t probes_attempted = 0;
  size_t probes_succeeded = 0;
};

/// A checkpoint loaded back from the store, with its provenance.
struct PersistedCheckpoint {
  SearchCheckpoint checkpoint;
  /// Monotonic per-request generation (1, 2, ...). A later generation
  /// strictly supersedes an earlier one.
  uint64_t generation = 0;
  /// The file it was read from, for operator messages.
  std::string path;
};

/// Store tuning.
struct CheckpointStoreOptions {
  /// Journal compaction threshold: once the journal holds more than
  /// this many lines, it is rewritten to the minimal set describing
  /// the live state (one "ckpt" line per request with checkpoints, one
  /// "job" line per in-flight job record) via the same crash-atomic
  /// temp + fsync + rename + directory-fsync dance as record files —
  /// a kill at any byte of the compaction leaves either the old
  /// journal or the new one, never a mix. 0 disables compaction.
  size_t journal_compaction_threshold = 1024;
  /// Fabric shard addressing. When `fabric_root` is non-empty the store
  /// opens the named shard directory `<fabric_root>/<shard_name>`
  /// instead of the `directory` argument to Open() (which must then be
  /// empty). `shard_name` obeys the same character set as request ids,
  /// so a hostile shard name can never escape the fabric root. Each
  /// shard keeps the full flock-exclusive + crash-atomic contract of a
  /// standalone store directory — the fabric's handoff safety rests on
  /// exactly that per-shard exclusion.
  std::string fabric_root;
  std::string shard_name;
  /// Filesystem environment ALL store I/O is routed through. nullptr
  /// selects the process-wide passthrough (FsEnv::Default()). Tests
  /// and the kill-the-disk chaos harness inject an env armed with a
  /// StorageFaultPlan; a fabric member hands every shard store the
  /// same env, so one sick "disk" sickens exactly that member. The
  /// env must outlive the store.
  FsEnv* fs_env = nullptr;
};

/// Durable, directory-scoped checkpoint store.
///
/// One directory holds the crash-recovery state of one DecisionService
/// (or one relcheck --resume-dir session): per request, a sequence of
/// checkpoint generations plus an optional opaque job record, and an
/// append-only recovery journal mapping request ids to their latest
/// valid generation.
///
/// Durability contract:
///  * Every record file is written to a temp name, fsync'd, then
///    renamed into place (atomic on POSIX), and the directory is
///    fsync'd after the rename — a reader never observes a
///    half-renamed file.
///  * Every record carries a versioned header and a CRC32 footer over
///    the header + payload. Torn, truncated, bit-flipped or otherwise
///    corrupted files fail the CRC (or the payload-length check) and
///    are rejected with a typed kInvalidArgument naming the file and
///    the defect — a corrupted file is NEVER surfaced as a checkpoint.
///  * LoadLatestCheckpoint walks generations newest-first and returns
///    the first one that passes integrity AND parses as a
///    SearchCheckpoint; corrupted newer generations are skipped (and
///    counted in corrupt_files_skipped()), so a crash mid-write costs
///    at most the interrupted generation, never prior progress.
///  * The journal is append-only with a per-line CRC; torn tail lines
///    (the crash-mid-append case) are ignored on replay. Files present
///    in the directory but missing from the journal (crash between
///    rename and journal append) are still found by the directory
///    scan.
///
/// Exclusion: Open() takes an exclusive flock on <dir>/LOCK. A second
/// store on the same live directory — e.g. two DecisionService
/// instances racing — gets kFailedPrecondition instead of interleaving
/// torn generations. The kernel releases the lock on process death, so
/// a crashed owner never wedges the directory; the simulated-kill
/// harness mirrors that by closing the lock fd.
///
/// Thread safety: all methods are safe to call concurrently; a single
/// mutex serializes directory mutations.
class CheckpointStore {
 public:
  /// Opens (creating if needed) the store at `directory` and acquires
  /// its exclusive lock. kFailedPrecondition if another live store
  /// holds the directory.
  static Result<std::unique_ptr<CheckpointStore>> Open(
      const std::string& directory,
      const CheckpointStoreOptions& options = CheckpointStoreOptions());

  ~CheckpointStore();
  CheckpointStore(const CheckpointStore&) = delete;
  CheckpointStore& operator=(const CheckpointStore&) = delete;

  /// Durably writes `ckpt` as the next generation for `request_id` and
  /// journals it. Returns the generation written. Older generations of
  /// the same request are garbage-collected (best-effort: a crash
  /// between rename and unlink only leaves stale files that recovery
  /// ignores in favor of the newest valid one).
  Result<uint64_t> PersistCheckpoint(const std::string& request_id,
                                     const SearchCheckpoint& ckpt);

  /// Loads the newest generation of `request_id` that passes integrity
  /// and parses. kNotFound when no valid checkpoint exists.
  Result<PersistedCheckpoint> LoadLatestCheckpoint(
      const std::string& request_id) const;

  /// Durably writes an opaque job record (the DecisionService persists
  /// the serialized JobSpec here at submit time, so a restarted
  /// process can re-create and resume every in-flight job).
  Status PersistJob(const std::string& request_id,
                    const std::string& payload);

  /// Loads the job record. kNotFound if none; kInvalidArgument if the
  /// file fails integrity.
  Result<std::string> LoadJob(const std::string& request_id) const;

  /// Request ids with a live (not forgotten) job record — the
  /// in-flight set a restarted service must resume. Sorted.
  std::vector<std::string> PendingRequests() const;

  /// Removes every file of `request_id` (job record + all checkpoint
  /// generations) and journals the completion. Idempotent. Verdict
  /// records are NOT touched — they live outside the job lifecycle.
  Status Forget(const std::string& request_id);

  /// Durably writes an opaque verdict record under `key` and journals
  /// it, overwriting any previous record for the key. The verdict
  /// cache stores fingerprinted certificates here so cached verdicts
  /// survive restarts; unlike checkpoints and job records, verdicts
  /// have no generations and are untouched by Forget() — a completed
  /// job's verdict outlives the job.
  Status PersistVerdict(const std::string& key, const std::string& payload);

  /// Loads the verdict record for `key`. kNotFound if none;
  /// kInvalidArgument (counted in corrupt_files_skipped()) if the file
  /// fails integrity.
  Result<std::string> LoadVerdict(const std::string& key) const;

  /// Removes the verdict record for `key` and journals the removal.
  /// Idempotent.
  Status ForgetVerdict(const std::string& key);

  /// Keys with a live verdict record. Sorted.
  std::vector<std::string> VerdictKeys() const;

  /// Durably writes an opaque control record under `key` and journals
  /// it, overwriting any previous record for the key. The fabric
  /// journals its `relcomp-fabric/1` ring epoch here so every shard
  /// carries the placement agreement across restarts and handoffs;
  /// like verdicts, control records have no generations and are
  /// untouched by Forget().
  Status PersistControl(const std::string& key, const std::string& payload);

  /// Loads the control record for `key`. kNotFound if none;
  /// kInvalidArgument (counted in corrupt_files_skipped()) if the file
  /// fails integrity.
  Result<std::string> LoadControl(const std::string& key) const;

  /// Keys with a live control record. Sorted.
  std::vector<std::string> ControlKeys() const;

  const std::string& directory() const { return dir_; }

  /// Files that failed integrity and were skipped by loads so far —
  /// the "no corrupted store file is ever loaded" counter the crash
  /// sweep asserts on.
  size_t corrupt_files_skipped() const;

  /// Journal lines that failed their CRC on replay at Open (torn
  /// tail from a crash mid-append).
  size_t journal_lines_skipped() const { return journal_lines_skipped_; }

  /// Journal compactions performed by this store instance.
  size_t journal_compactions() const;

  /// Lines currently in the journal (replayed at Open + appended or
  /// rewritten since) — what the compaction threshold is compared to.
  size_t journal_entries() const;

  /// Current health (see StoreHealth). Changes only on write-path
  /// failures and successful probes — never on a lucky write.
  StoreHealth health() const;

  /// Health plus the error/probe counters.
  StoreHealthReport health_report() const;

  /// One full write-probe cycle through the environment: create,
  /// write, fsync and unlink a scratch file in the store directory.
  /// Success is the single healing edge — it clears the fsync gate
  /// and degradation. Failure leaves (or makes) the store degraded
  /// and returns the underlying error. Works in kReadOnly: the probe
  /// is exactly the op allowed past the gate.
  Status ProbeHealth();

  /// Releases the directory lock and refuses all further operations,
  /// simulating the kernel-side lock release of a killed process. Used
  /// by the DecisionService crash harness; a real crash needs no call.
  void SimulateCrash();

 private:
  CheckpointStore(std::string dir, CheckpointStoreOptions options)
      : dir_(std::move(dir)),
        options_(options),
        env_(options.fs_env != nullptr ? options.fs_env
                                       : FsEnv::Default()) {}

  Status WriteRecord(const std::string& path, std::string_view kind,
                     const std::string& request_id, uint64_t generation,
                     std::string_view payload);
  Result<std::string> ReadRecord(const std::string& path,
                                 std::string_view expect_kind,
                                 const std::string& expect_request_id,
                                 uint64_t expect_generation) const;
  Status AppendJournal(std::string_view op, const std::string& request_id,
                       uint64_t generation);
  /// Rewrites the journal to the minimal live-state lines when it has
  /// outgrown the threshold. Crash-atomic; requires mu_ held.
  Status MaybeCompactJournalLocked();
  Status ReplayJournal();
  Status ScanDirectory();
  Status CheckAlive() const;
  /// kUnavailable when the fsync gate is closed; requires mu_ held.
  Status CheckWritableLocked() const;
  /// Records a write-path failure; an fsync failure closes the gate
  /// (kReadOnly), anything else degrades. Requires mu_ held.
  void NoteWriteFailureLocked(bool fsync_failure);
  FsEnv* env() const { return env_; }

  std::string dir_;
  CheckpointStoreOptions options_;
  FsEnv* env_ = nullptr;
  int lock_fd_ = -1;
  bool crashed_ = false;
  /// Highest generation ever written per request (journal ∪ directory).
  std::map<std::string, uint64_t> last_generation_;
  /// Requests with a live job record.
  std::map<std::string, bool> has_job_;
  /// Keys with a live verdict record.
  std::map<std::string, bool> has_verdict_;
  /// Keys with a live control record.
  std::map<std::string, bool> has_control_;
  size_t journal_lines_skipped_ = 0;
  size_t journal_entries_ = 0;
  size_t journal_compactions_ = 0;
  /// A failed or short journal append may have left a tail without
  /// its newline; the next append starts with one so the torn
  /// fragment becomes its own (CRC-failing, counted) line instead of
  /// merging with — and corrupting — the new entry.
  bool journal_tainted_ = false;
  StoreHealth health_ = StoreHealth::kHealthy;
  size_t write_failures_ = 0;
  size_t fsync_failures_ = 0;
  size_t probes_attempted_ = 0;
  size_t probes_succeeded_ = 0;
  mutable size_t io_errors_ = 0;
  mutable size_t corrupt_files_skipped_ = 0;
  mutable std::mutex mu_;
};

}  // namespace relcomp

#endif  // RELCOMP_SERVICE_CHECKPOINT_STORE_H_
