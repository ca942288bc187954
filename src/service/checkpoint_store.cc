#include "service/checkpoint_store.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "util/codec.h"
#include "util/str.h"

namespace relcomp {
namespace {

constexpr char kRecordMagic[] = "relcomp-store/1";
constexpr char kCrcSeparator[] = "#crc32:";
constexpr char kJournalMagic[] = "J1";
constexpr char kLockFile[] = "LOCK";
constexpr char kJournalFile[] = "journal";

/// Request ids become file names; anything outside this set (or an
/// empty / dot-leading / oversized id) is refused up front so a hostile
/// id can never escape the store directory.
bool ValidRequestId(const std::string& id) {
  if (id.empty() || id.size() > 100 || id[0] == '.') return false;
  for (char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    if (!ok) return false;
  }
  return true;
}

std::string CkptPath(const std::string& dir, const std::string& id,
                     uint64_t generation) {
  return StrCat(dir, "/", id, ".g", generation, ".ckpt");
}

std::string JobPath(const std::string& dir, const std::string& id) {
  return StrCat(dir, "/", id, ".job");
}

std::string VrdPath(const std::string& dir, const std::string& id) {
  return StrCat(dir, "/", id, ".vrd");
}

std::string CtlPath(const std::string& dir, const std::string& id) {
  return StrCat(dir, "/", id, ".ctl");
}

Status ErrnoStatus(std::string_view what, const std::string& path) {
  return Status::Internal(
      StrCat(what, " ", path, ": ", std::strerror(errno)));
}

/// mkdir -p: creates every missing component of `dir`.
Status MakeDirs(FsEnv* env, const std::string& dir) {
  std::string partial;
  size_t pos = 0;
  while (pos <= dir.size()) {
    size_t next = dir.find('/', pos);
    if (next == std::string::npos) next = dir.size();
    partial = dir.substr(0, next);
    pos = next + 1;
    if (partial.empty()) continue;
    if (env->Mkdir("mkdir", partial.c_str(), 0755) != 0 &&
        errno != EEXIST) {
      return ErrnoStatus("mkdir", partial);
    }
  }
  return Status::OK();
}

Status FsyncDirectory(FsEnv* env, const std::string& dir) {
  int fd = env->Open("dirsync", dir.c_str(), O_RDONLY | O_DIRECTORY, 0);
  if (fd < 0) return ErrnoStatus("open dir", dir);
  if (env->Fsync("dirsync", fd) != 0) {
    Status st = ErrnoStatus("fsync dir", dir);
    ::close(fd);
    return st;
  }
  ::close(fd);
  return Status::OK();
}

Result<std::string> ReadWholeFile(FsEnv* env, const std::string& path) {
  int fd = env->Open("read", path.c_str(), O_RDONLY, 0);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound(StrCat("no such store file: ", path));
    }
    return ErrnoStatus("open", path);
  }
  std::string out;
  char buf[1 << 14];
  for (;;) {
    ssize_t n = env->Read("read", fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      Status st = ErrnoStatus("read", path);
      ::close(fd);
      return st;
    }
    if (n == 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

/// The header and payload of a record body whose CRC already checked
/// out. The identity checks catch a record renamed (or journal-mapped)
/// to the wrong request, kind or generation.
Result<std::string_view> ParseRecordBody(std::string_view body,
                                         std::string_view kind,
                                         std::string_view request_id,
                                         uint64_t generation) {
  CodecReader r(kRecordMagic, body);
  RELCOMP_RETURN_NOT_OK(r.Magic(kRecordMagic));
  RELCOMP_ASSIGN_OR_RETURN(const std::string_view got_kind, r.Field());
  if (got_kind != kind) {
    return r.Malformed(StrCat("record kind \"", got_kind, "\" is not ", kind));
  }
  RELCOMP_ASSIGN_OR_RETURN(const std::string_view got_id, r.Field());
  if (got_id != request_id) return r.Malformed("request id mismatch");
  RELCOMP_ASSIGN_OR_RETURN(const uint64_t got_generation, r.U64());
  if (got_generation != generation) return r.Malformed("generation mismatch");
  RELCOMP_RETURN_NOT_OK(r.Expect(" "));
  RELCOMP_ASSIGN_OR_RETURN(const std::string_view payload, r.Sized());
  RELCOMP_RETURN_NOT_OK(r.End());
  return payload;
}

struct JournalLine {
  std::string_view op;
  std::string_view request_id;
  uint64_t generation = 0;
};

/// "J1 <op> <id> <gen> <8-hex crc>", the CRC covering "<op> <id> <gen>".
Result<JournalLine> ParseJournalLine(std::string_view text) {
  CodecReader r("J1 journal line", text);
  JournalLine line;
  RELCOMP_RETURN_NOT_OK(r.Magic(kJournalMagic));
  RELCOMP_ASSIGN_OR_RETURN(line.op, r.Field());
  RELCOMP_ASSIGN_OR_RETURN(line.request_id, r.Field());
  RELCOMP_ASSIGN_OR_RETURN(line.generation, r.U64());
  RELCOMP_RETURN_NOT_OK(r.Expect(" "));
  RELCOMP_ASSIGN_OR_RETURN(const uint64_t crc, r.Hex(8));
  RELCOMP_RETURN_NOT_OK(r.End());
  if (Crc32(StrCat(line.op, " ", line.request_id, " ", line.generation)) !=
      crc) {
    return r.Malformed("crc mismatch");
  }
  return line;
}

}  // namespace

Result<std::unique_ptr<CheckpointStore>> CheckpointStore::Open(
    const std::string& directory, const CheckpointStoreOptions& options) {
  std::string resolved = directory;
  if (!options.fabric_root.empty()) {
    if (!directory.empty()) {
      return Status::InvalidArgument(
          "pass either a store directory or fabric_root/shard_name, "
          "not both");
    }
    if (!ValidRequestId(options.shard_name)) {
      return Status::InvalidArgument(
          StrCat("invalid shard name for fabric store: \"",
                 options.shard_name, "\""));
    }
    resolved = StrCat(options.fabric_root, "/", options.shard_name);
  }
  if (resolved.empty()) {
    return Status::InvalidArgument("store directory must not be empty");
  }
  std::unique_ptr<CheckpointStore> store(
      new CheckpointStore(resolved, options));
  RELCOMP_RETURN_NOT_OK(MakeDirs(store->env(), resolved));

  const std::string lock_path = StrCat(resolved, "/", kLockFile);
  int fd = store->env()->Open("lock", lock_path.c_str(),
                              O_RDWR | O_CREAT, 0644);
  if (fd < 0) return ErrnoStatus("open lock", lock_path);
  if (store->env()->Flock("lock", fd, LOCK_EX | LOCK_NB) != 0) {
    ::close(fd);
    if (errno == EWOULDBLOCK) {
      return Status::FailedPrecondition(
          StrCat("checkpoint store ", resolved,
                 " is locked by another live owner; refusing to "
                 "interleave generations"));
    }
    return ErrnoStatus("flock", lock_path);
  }
  store->lock_fd_ = fd;

  RELCOMP_RETURN_NOT_OK(store->ReplayJournal());
  RELCOMP_RETURN_NOT_OK(store->ScanDirectory());
  return store;
}

CheckpointStore::~CheckpointStore() {
  if (lock_fd_ >= 0) {
    ::flock(lock_fd_, LOCK_UN);
    ::close(lock_fd_);
    lock_fd_ = -1;
  }
}

void CheckpointStore::SimulateCrash() {
  std::lock_guard<std::mutex> lock(mu_);
  crashed_ = true;
  // A killed process's flock is released by the kernel; mirror that so
  // the restarted service can take the directory over.
  if (lock_fd_ >= 0) {
    ::flock(lock_fd_, LOCK_UN);
    ::close(lock_fd_);
    lock_fd_ = -1;
  }
}

Status CheckpointStore::CheckAlive() const {
  if (crashed_) {
    return Status::FailedPrecondition(
        StrCat("checkpoint store ", dir_,
               " simulated a crash; no further operations"));
  }
  return Status::OK();
}

size_t CheckpointStore::corrupt_files_skipped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return corrupt_files_skipped_;
}

const char* StoreHealthToString(StoreHealth health) {
  switch (health) {
    case StoreHealth::kHealthy: return "healthy";
    case StoreHealth::kDegraded: return "degraded";
    case StoreHealth::kReadOnly: return "readonly";
  }
  return "?";
}

Status CheckpointStore::CheckWritableLocked() const {
  if (health_ == StoreHealth::kReadOnly) {
    return Status::Unavailable(
        StrCat("checkpoint store ", dir_, " is read-only: a failed fsync "
               "poisoned the write path (fsync-gate); refusing mutations "
               "until a health probe succeeds"));
  }
  return Status::OK();
}

void CheckpointStore::NoteWriteFailureLocked(bool fsync_failure) {
  ++io_errors_;
  ++write_failures_;
  if (fsync_failure) {
    ++fsync_failures_;
    health_ = StoreHealth::kReadOnly;
  } else if (health_ == StoreHealth::kHealthy) {
    health_ = StoreHealth::kDegraded;
  }
}

StoreHealth CheckpointStore::health() const {
  std::lock_guard<std::mutex> lock(mu_);
  return health_;
}

StoreHealthReport CheckpointStore::health_report() const {
  std::lock_guard<std::mutex> lock(mu_);
  StoreHealthReport report;
  report.health = health_;
  report.io_errors = io_errors_;
  report.write_failures = write_failures_;
  report.fsync_failures = fsync_failures_;
  report.probes_attempted = probes_attempted_;
  report.probes_succeeded = probes_succeeded_;
  return report;
}

Status CheckpointStore::ProbeHealth() {
  std::lock_guard<std::mutex> lock(mu_);
  RELCOMP_RETURN_NOT_OK(CheckAlive());
  ++probes_attempted_;
  // A full durability cycle through the environment — the same ops a
  // real persist issues. The probe file is dot-leading, so it can
  // never collide with a record (request ids may not start with a
  // dot) and the directory scan ignores it.
  const std::string path = StrCat(dir_, "/.probe");
  const std::string body = StrCat("probe ", probes_attempted_, "\n");
  auto fail = [&](std::string_view what, bool fsync_failure) {
    Status st = ErrnoStatus(what, path);
    NoteWriteFailureLocked(fsync_failure);
    return st;
  };
  int fd = env_->Open("probe", path.c_str(),
                      O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return fail("probe open", false);
  errno = 0;
  ssize_t n = env_->Write("probe", fd, body.data(), body.size());
  if (n < 0 || static_cast<size_t>(n) != body.size()) {
    ::close(fd);
    env_->Unlink("probe", path.c_str());
    return fail("probe write", false);
  }
  if (env_->Fsync("probe", fd) != 0) {
    ::close(fd);
    env_->Unlink("probe", path.c_str());
    return fail("probe fsync", true);
  }
  ::close(fd);
  if (env_->Unlink("probe", path.c_str()) != 0) {
    return fail("probe unlink", false);
  }
  ++probes_succeeded_;
  // The one healing edge: the disk demonstrably completed a full
  // write-fsync cycle just now.
  health_ = StoreHealth::kHealthy;
  return Status::OK();
}

// --- Record envelope -------------------------------------------------
//
//   relcomp-store/1 <kind> <request_id> <generation> <len>:<payload>
//   #crc32:<8 hex>
//
// (one byte stream, no newline framing — the payload may contain
// anything). The CRC covers every byte before the separator, so any
// truncation, torn tail, or bit flip anywhere in header or payload is
// caught. The <len>:<payload> framing additionally pins the payload
// size, so an appended tail cannot masquerade as payload either.

Status CheckpointStore::WriteRecord(const std::string& path,
                                    std::string_view kind,
                                    const std::string& request_id,
                                    uint64_t generation,
                                    std::string_view payload) {
  std::string body =
      StrCat(kRecordMagic, " ", kind, " ", request_id, " ", generation, " ");
  AppendSized(payload, &body);
  body += StrCat(kCrcSeparator, Hex(Crc32(body), 8));

  const std::string site = StrCat("record.", kind);
  const std::string tmp = StrCat(path, ".tmp.", ::getpid());
  int fd = env_->Open(site, tmp.c_str(),
                      O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    NoteWriteFailureLocked(false);
    return ErrnoStatus("open", tmp);
  }
  size_t off = 0;
  while (off < body.size()) {
    errno = 0;
    ssize_t n = env_->Write(site, fd, body.data() + off, body.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      Status st = ErrnoStatus("write", tmp);
      ::close(fd);
      env_->Unlink(site, tmp.c_str());
      NoteWriteFailureLocked(false);
      return st;
    }
    if (static_cast<size_t>(n) < body.size() - off && errno == ENOSPC) {
      // A short write that blames the disk will never complete; a
      // retry loop here would just hammer a full volume. The tmp file
      // holds the torn prefix — unlink it and poison the path.
      Status st = ErrnoStatus("short write", tmp);
      ::close(fd);
      env_->Unlink(site, tmp.c_str());
      NoteWriteFailureLocked(false);
      return st;
    }
    off += static_cast<size_t>(n);
  }
  if (env_->Fsync(site, fd) != 0) {
    // Fsync-gate: the kernel may have dropped any of these bytes, so
    // the record path is poisoned — unlink the tmp instead of
    // retrying, and let health flip to read-only.
    Status st = ErrnoStatus("fsync", tmp);
    ::close(fd);
    env_->Unlink(site, tmp.c_str());
    NoteWriteFailureLocked(true);
    return st;
  }
  ::close(fd);
  if (env_->Rename(site, tmp.c_str(), path.c_str()) != 0) {
    Status st = ErrnoStatus("rename", tmp);
    env_->Unlink(site, tmp.c_str());
    NoteWriteFailureLocked(false);
    return st;
  }
  Status synced = FsyncDirectory(env_, dir_);
  if (!synced.ok()) NoteWriteFailureLocked(true);
  return synced;
}

Result<std::string> CheckpointStore::ReadRecord(
    const std::string& path, std::string_view expect_kind,
    const std::string& expect_request_id, uint64_t expect_generation) const {
  Result<std::string> read = ReadWholeFile(env_, path);
  if (!read.ok()) {
    if (read.status().code() == StatusCode::kInternal) ++io_errors_;
    return read.status();
  }
  std::string content = *std::move(read);
  auto corrupt = [&](std::string_view why) {
    return Status::InvalidArgument(
        StrCat("corrupted store file ", path, " (", std::string(why), ")"));
  };
  // Footer first: everything before the final separator must hash to
  // the trailing CRC. rfind — the payload may itself contain the
  // separator bytes.
  size_t sep = content.rfind(kCrcSeparator);
  if (sep == std::string::npos) return corrupt("missing integrity footer");
  CodecReader footer(
      "integrity footer",
      std::string_view(content).substr(sep + std::strlen(kCrcSeparator)));
  Result<uint64_t> want_crc = footer.Hex(8);
  if (!want_crc.ok() || !footer.End().ok()) {
    return corrupt("malformed integrity footer");
  }
  std::string_view body(content.data(), sep);
  if (Crc32(body) != *want_crc) {
    return corrupt(StrCat("crc mismatch: file says ", Hex(*want_crc, 8),
                          ", content hashes to ", Hex(Crc32(body), 8)));
  }
  Result<std::string_view> payload =
      ParseRecordBody(body, expect_kind, expect_request_id, expect_generation);
  if (!payload.ok()) return corrupt(payload.status().message());
  return std::string(*payload);
}

// --- Journal ---------------------------------------------------------
//
//   J1 <op> <request_id> <generation> <8-hex crc>\n
//
// ops: "ckpt" (a generation became durable), "job" (a job record
// became durable), "done" (the request completed and its files were
// removed), "vrd"/"vgone" (a verdict record appeared/vanished), "ctl"
// (a control record — e.g. the fabric ring — became durable). The
// per-line CRC covers "<op> <id> <gen>"; replay ignores
// any line that fails it — a crash mid-append tears at most the final
// line.

Status CheckpointStore::AppendJournal(std::string_view op,
                                      const std::string& request_id,
                                      uint64_t generation) {
  const std::string fields =
      StrCat(op, " ", request_id, " ", generation);
  std::string line =
      StrCat(kJournalMagic, " ", fields, " ", Hex(Crc32(fields), 8), "\n");
  // A previous append failed after possibly landing a prefix without
  // its newline. Start this line with one so that torn fragment stays
  // its own (CRC-failing, skipped-and-counted) line — appending
  // directly would merge it with this entry and lose BOTH.
  if (journal_tainted_) line.insert(line.begin(), '\n');
  const std::string path = StrCat(dir_, "/", kJournalFile);
  int fd = env_->Open("journal", path.c_str(),
                      O_WRONLY | O_APPEND | O_CREAT, 0644);
  if (fd < 0) {
    NoteWriteFailureLocked(false);
    return ErrnoStatus("open journal", path);
  }
  // One write() call per line: POSIX O_APPEND writes are atomic with
  // respect to each other for this size, so concurrent appends from
  // the submit path and the worker never interleave bytes.
  ssize_t n = env_->Write("journal", fd, line.data(), line.size());
  if (n < 0 || static_cast<size_t>(n) != line.size()) {
    Status st = n < 0 ? ErrnoStatus("append journal", path)
                      : ErrnoStatus("short journal append", path);
    ::close(fd);
    // Anything from zero to line.size()-1 bytes may now sit at the
    // tail with no newline.
    journal_tainted_ = true;
    NoteWriteFailureLocked(false);
    return st;
  }
  if (env_->Fsync("journal", fd) != 0) {
    Status st = ErrnoStatus("fsync journal", path);
    ::close(fd);
    // The kernel may keep or drop any suffix of the unsynced line.
    journal_tainted_ = true;
    NoteWriteFailureLocked(true);
    return st;
  }
  ::close(fd);
  journal_tainted_ = false;
  ++journal_entries_;
  return MaybeCompactJournalLocked();
}

Status CheckpointStore::MaybeCompactJournalLocked() {
  if (options_.journal_compaction_threshold == 0 ||
      journal_entries_ <= options_.journal_compaction_threshold) {
    return Status::OK();
  }
  // Rebuild the minimal journal from the in-memory state (which the
  // journal exists to reconstruct): one "ckpt" line per request with a
  // live generation, one "job" line per in-flight job record. "done"
  // entries vanish — their whole purpose was to cancel earlier lines.
  std::string content;
  size_t lines = 0;
  auto emit = [&](std::string_view op, const std::string& id, uint64_t gen) {
    const std::string fields = StrCat(op, " ", id, " ", gen);
    content += StrCat(kJournalMagic, " ", fields, " ",
                      Hex(Crc32(fields), 8), "\n");
    ++lines;
  };
  for (const auto& [id, gen] : last_generation_) emit("ckpt", id, gen);
  for (const auto& [id, live] : has_job_) {
    if (live) emit("job", id, 0);
  }
  for (const auto& [id, live] : has_verdict_) {
    if (live) emit("vrd", id, 0);
  }
  for (const auto& [id, live] : has_control_) {
    if (live) emit("ctl", id, 0);
  }
  // Same crash-atomicity dance as record files: a kill before the
  // rename leaves the old journal plus tmp garbage (the directory scan
  // ignores journal.tmp.*); a kill after it leaves the new journal.
  // Either replays to the same state.
  const std::string path = StrCat(dir_, "/", kJournalFile);
  const std::string tmp = StrCat(path, ".tmp.", ::getpid());
  int fd = env_->Open("compact", tmp.c_str(),
                      O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    NoteWriteFailureLocked(false);
    return ErrnoStatus("open", tmp);
  }
  size_t off = 0;
  while (off < content.size()) {
    errno = 0;
    ssize_t n =
        env_->Write("compact", fd, content.data() + off,
                    content.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      Status st = ErrnoStatus("write", tmp);
      ::close(fd);
      env_->Unlink("compact", tmp.c_str());
      NoteWriteFailureLocked(false);
      return st;
    }
    if (static_cast<size_t>(n) < content.size() - off &&
        errno == ENOSPC) {
      Status st = ErrnoStatus("short write", tmp);
      ::close(fd);
      env_->Unlink("compact", tmp.c_str());
      NoteWriteFailureLocked(false);
      return st;
    }
    off += static_cast<size_t>(n);
  }
  if (env_->Fsync("compact", fd) != 0) {
    Status st = ErrnoStatus("fsync", tmp);
    ::close(fd);
    env_->Unlink("compact", tmp.c_str());
    NoteWriteFailureLocked(true);
    return st;
  }
  ::close(fd);
  if (env_->Rename("compact", tmp.c_str(), path.c_str()) != 0) {
    Status st = ErrnoStatus("rename", tmp);
    env_->Unlink("compact", tmp.c_str());
    NoteWriteFailureLocked(false);
    return st;
  }
  Status synced = FsyncDirectory(env_, dir_);
  if (!synced.ok()) {
    NoteWriteFailureLocked(true);
    return synced;
  }
  journal_entries_ = lines;
  ++journal_compactions_;
  // A fully rewritten journal ends in a newline by construction.
  journal_tainted_ = false;
  return Status::OK();
}

size_t CheckpointStore::journal_compactions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return journal_compactions_;
}

size_t CheckpointStore::journal_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return journal_entries_;
}

Status CheckpointStore::ReplayJournal() {
  const std::string path = StrCat(dir_, "/", kJournalFile);
  Result<std::string> content = ReadWholeFile(env_, path);
  if (!content.ok()) {
    if (content.status().code() == StatusCode::kNotFound) {
      return Status::OK();  // fresh store
    }
    return content.status();
  }
  // A journal that does not end in a newline carries a torn tail from
  // a crash (or lying disk) mid-append in a PREVIOUS process. The
  // in-process taint flag died with that process, so re-arm it here:
  // this store's first append then starts with a newline, keeping the
  // fragment its own skipped line instead of merging with — and
  // corrupting — the new entry.
  if (!content->empty() && content->back() != '\n') journal_tainted_ = true;
  std::string_view rest = *content;
  while (!rest.empty()) {
    size_t nl = rest.find('\n');
    std::string_view line = rest.substr(0, nl);
    rest = nl == std::string_view::npos ? std::string_view()
                                        : rest.substr(nl + 1);
    if (line.empty()) continue;
    ++journal_entries_;  // torn lines occupy journal space too
    // Skip (count) anything torn.
    Result<JournalLine> entry = ParseJournalLine(line);
    if (!entry.ok()) {
      ++journal_lines_skipped_;
      continue;
    }
    const std::string_view op = entry->op;
    const uint64_t generation = entry->generation;
    const std::string request_id(entry->request_id);
    if (op == "ckpt") {
      uint64_t& g = last_generation_[request_id];
      g = std::max(g, generation);
    } else if (op == "job") {
      has_job_[request_id] = true;
    } else if (op == "vrd") {
      has_verdict_[request_id] = true;
    } else if (op == "ctl") {
      has_control_[request_id] = true;
    } else if (op == "vgone") {
      has_verdict_.erase(request_id);
    } else if (op == "done") {
      last_generation_.erase(request_id);
      has_job_.erase(request_id);
    } else {
      ++journal_lines_skipped_;
    }
  }
  return Status::OK();
}

Status CheckpointStore::ScanDirectory() {
  // Catch files that became durable without a journal entry (crash
  // between rename and append): checkpoint generations newer than the
  // journal knows, and job records. A request whose final journal op
  // was "done" has had its files unlinked before the journal entry —
  // any survivor file simply re-enters the in-flight set, which is
  // safe (re-running a completed, deterministic job reproduces its
  // result).
  DIR* d = env_->Opendir("scan", dir_.c_str());
  if (d == nullptr) return ErrnoStatus("opendir", dir_);
  while (struct dirent* entry = ::readdir(d)) {
    std::string_view name(entry->d_name);
    if (name == "." || name == ".." || name == kLockFile ||
        name == kJournalFile) {
      continue;
    }
    if (name.size() > 4 && name.substr(name.size() - 4) == ".job") {
      has_job_[std::string(name.substr(0, name.size() - 4))] = true;
      continue;
    }
    if (name.size() > 4 && name.substr(name.size() - 4) == ".vrd") {
      has_verdict_[std::string(name.substr(0, name.size() - 4))] = true;
      continue;
    }
    if (name.size() > 4 && name.substr(name.size() - 4) == ".ctl") {
      has_control_[std::string(name.substr(0, name.size() - 4))] = true;
      continue;
    }
    if (name.size() > 5 && name.substr(name.size() - 5) == ".ckpt") {
      std::string_view stem = name.substr(0, name.size() - 5);
      size_t dot_g = stem.rfind(".g");
      if (dot_g == std::string_view::npos) continue;
      CodecReader number("checkpoint file name", stem.substr(dot_g + 2));
      Result<uint64_t> generation = number.U64();
      if (!generation.ok() || !number.End().ok()) continue;
      const std::string request_id(stem.substr(0, dot_g));
      uint64_t& g = last_generation_[request_id];
      g = std::max(g, *generation);
    }
    // .tmp.* leftovers from a crash mid-write are ignored (and
    // overwritten by the next writer with the same pid, or left as
    // harmless garbage).
  }
  ::closedir(d);
  return Status::OK();
}

// --- Public operations -----------------------------------------------

Result<uint64_t> CheckpointStore::PersistCheckpoint(
    const std::string& request_id, const SearchCheckpoint& ckpt) {
  if (!ValidRequestId(request_id)) {
    return Status::InvalidArgument(
        StrCat("invalid request id for store: \"", request_id, "\""));
  }
  std::lock_guard<std::mutex> lock(mu_);
  RELCOMP_RETURN_NOT_OK(CheckAlive());
  RELCOMP_RETURN_NOT_OK(CheckWritableLocked());
  const uint64_t generation = last_generation_[request_id] + 1;
  RELCOMP_RETURN_NOT_OK(WriteRecord(CkptPath(dir_, request_id, generation),
                                    "ckpt", request_id, generation,
                                    ckpt.Serialize()));
  last_generation_[request_id] = generation;
  RELCOMP_RETURN_NOT_OK(AppendJournal("ckpt", request_id, generation));
  // Keep the latest two generations: the newest, plus one fallback in
  // case the newest file is damaged after the fact. Everything older
  // is garbage.
  if (generation >= 3) {
    env_->Unlink("gc", CkptPath(dir_, request_id, generation - 2).c_str());
  }
  return generation;
}

Result<PersistedCheckpoint> CheckpointStore::LoadLatestCheckpoint(
    const std::string& request_id) const {
  if (!ValidRequestId(request_id)) {
    return Status::InvalidArgument(
        StrCat("invalid request id for store: \"", request_id, "\""));
  }
  std::lock_guard<std::mutex> lock(mu_);
  RELCOMP_RETURN_NOT_OK(CheckAlive());
  auto it = last_generation_.find(request_id);
  if (it == last_generation_.end()) {
    return Status::NotFound(
        StrCat("no checkpoint for request ", request_id));
  }
  // Newest first; a generation that fails integrity or does not parse
  // is skipped, never surfaced.
  for (uint64_t g = it->second; g >= 1; --g) {
    const std::string path = CkptPath(dir_, request_id, g);
    Result<std::string> payload = ReadRecord(path, "ckpt", request_id, g);
    if (!payload.ok()) {
      if (payload.status().code() != StatusCode::kNotFound) {
        ++corrupt_files_skipped_;
      }
      continue;
    }
    Result<SearchCheckpoint> parsed =
        SearchCheckpoint::Deserialize(*payload);
    if (!parsed.ok()) {
      ++corrupt_files_skipped_;
      continue;
    }
    PersistedCheckpoint out;
    out.checkpoint = std::move(*parsed);
    out.generation = g;
    out.path = path;
    return out;
  }
  return Status::NotFound(
      StrCat("no valid checkpoint for request ", request_id,
             " (newest generations failed integrity)"));
}

Status CheckpointStore::PersistJob(const std::string& request_id,
                                   const std::string& payload) {
  if (!ValidRequestId(request_id)) {
    return Status::InvalidArgument(
        StrCat("invalid request id for store: \"", request_id, "\""));
  }
  std::lock_guard<std::mutex> lock(mu_);
  RELCOMP_RETURN_NOT_OK(CheckAlive());
  RELCOMP_RETURN_NOT_OK(CheckWritableLocked());
  RELCOMP_RETURN_NOT_OK(WriteRecord(JobPath(dir_, request_id), "job",
                                    request_id, 0, payload));
  has_job_[request_id] = true;
  return AppendJournal("job", request_id, 0);
}

Result<std::string> CheckpointStore::LoadJob(
    const std::string& request_id) const {
  if (!ValidRequestId(request_id)) {
    return Status::InvalidArgument(
        StrCat("invalid request id for store: \"", request_id, "\""));
  }
  std::lock_guard<std::mutex> lock(mu_);
  RELCOMP_RETURN_NOT_OK(CheckAlive());
  Result<std::string> payload =
      ReadRecord(JobPath(dir_, request_id), "job", request_id, 0);
  if (!payload.ok() &&
      payload.status().code() == StatusCode::kInvalidArgument) {
    ++corrupt_files_skipped_;
  }
  return payload;
}

std::vector<std::string> CheckpointStore::PendingRequests() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(has_job_.size());
  for (const auto& [id, live] : has_job_) {
    if (live) out.push_back(id);
  }
  return out;
}

Status CheckpointStore::Forget(const std::string& request_id) {
  if (!ValidRequestId(request_id)) {
    return Status::InvalidArgument(
        StrCat("invalid request id for store: \"", request_id, "\""));
  }
  std::lock_guard<std::mutex> lock(mu_);
  RELCOMP_RETURN_NOT_OK(CheckAlive());
  RELCOMP_RETURN_NOT_OK(CheckWritableLocked());
  auto it = last_generation_.find(request_id);
  const uint64_t last = it == last_generation_.end() ? 0 : it->second;
  for (uint64_t g = last; g >= 1; --g) {
    env_->Unlink("gc", CkptPath(dir_, request_id, g).c_str());
  }
  env_->Unlink("gc", JobPath(dir_, request_id).c_str());
  last_generation_.erase(request_id);
  has_job_.erase(request_id);
  return AppendJournal("done", request_id, 0);
}

Status CheckpointStore::PersistVerdict(const std::string& key,
                                       const std::string& payload) {
  if (!ValidRequestId(key)) {
    return Status::InvalidArgument(
        StrCat("invalid verdict key for store: \"", key, "\""));
  }
  std::lock_guard<std::mutex> lock(mu_);
  RELCOMP_RETURN_NOT_OK(CheckAlive());
  RELCOMP_RETURN_NOT_OK(CheckWritableLocked());
  RELCOMP_RETURN_NOT_OK(
      WriteRecord(VrdPath(dir_, key), "vrd", key, 0, payload));
  has_verdict_[key] = true;
  return AppendJournal("vrd", key, 0);
}

Result<std::string> CheckpointStore::LoadVerdict(
    const std::string& key) const {
  if (!ValidRequestId(key)) {
    return Status::InvalidArgument(
        StrCat("invalid verdict key for store: \"", key, "\""));
  }
  std::lock_guard<std::mutex> lock(mu_);
  RELCOMP_RETURN_NOT_OK(CheckAlive());
  Result<std::string> payload =
      ReadRecord(VrdPath(dir_, key), "vrd", key, 0);
  if (!payload.ok() &&
      payload.status().code() == StatusCode::kInvalidArgument) {
    ++corrupt_files_skipped_;
  }
  return payload;
}

Status CheckpointStore::ForgetVerdict(const std::string& key) {
  if (!ValidRequestId(key)) {
    return Status::InvalidArgument(
        StrCat("invalid verdict key for store: \"", key, "\""));
  }
  std::lock_guard<std::mutex> lock(mu_);
  RELCOMP_RETURN_NOT_OK(CheckAlive());
  RELCOMP_RETURN_NOT_OK(CheckWritableLocked());
  env_->Unlink("gc", VrdPath(dir_, key).c_str());
  has_verdict_.erase(key);
  return AppendJournal("vgone", key, 0);
}

std::vector<std::string> CheckpointStore::VerdictKeys() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(has_verdict_.size());
  for (const auto& [id, live] : has_verdict_) {
    if (live) out.push_back(id);
  }
  return out;
}

Status CheckpointStore::PersistControl(const std::string& key,
                                       const std::string& payload) {
  if (!ValidRequestId(key)) {
    return Status::InvalidArgument(
        StrCat("invalid control key for store: \"", key, "\""));
  }
  std::lock_guard<std::mutex> lock(mu_);
  RELCOMP_RETURN_NOT_OK(CheckAlive());
  RELCOMP_RETURN_NOT_OK(CheckWritableLocked());
  RELCOMP_RETURN_NOT_OK(
      WriteRecord(CtlPath(dir_, key), "ctl", key, 0, payload));
  has_control_[key] = true;
  return AppendJournal("ctl", key, 0);
}

Result<std::string> CheckpointStore::LoadControl(
    const std::string& key) const {
  if (!ValidRequestId(key)) {
    return Status::InvalidArgument(
        StrCat("invalid control key for store: \"", key, "\""));
  }
  std::lock_guard<std::mutex> lock(mu_);
  RELCOMP_RETURN_NOT_OK(CheckAlive());
  Result<std::string> payload =
      ReadRecord(CtlPath(dir_, key), "ctl", key, 0);
  if (!payload.ok() &&
      payload.status().code() == StatusCode::kInvalidArgument) {
    ++corrupt_files_skipped_;
  }
  return payload;
}

std::vector<std::string> CheckpointStore::ControlKeys() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(has_control_.size());
  for (const auto& [id, live] : has_control_) {
    if (live) out.push_back(id);
  }
  return out;
}

}  // namespace relcomp
