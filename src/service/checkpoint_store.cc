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
constexpr char kLockFile[] = "LOCK";

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
/// out. The identity checks catch a record renamed to the wrong
/// request, kind or generation.
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
      new CheckpointStore(resolved, options.fs_env));
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

Status CheckpointStore::ScanDirectory() {
  // The record file names are the whole index: "<id>.job" marks a
  // request in flight and "<id>.g<N>.ckpt" a durable generation. A
  // request whose Forget() lost its unlinks to a power cut simply
  // re-enters the in-flight set, which is safe (re-running a
  // completed, deterministic job reproduces its result). Anything
  // else — LOCK, .tmp.* leftovers from a crash mid-write, verdict and
  // control records (loaded by key), a `journal` from older versions
  // of the store — is not part of the index.
  DIR* d = env_->Opendir("scan", dir_.c_str());
  if (d == nullptr) return ErrnoStatus("opendir", dir_);
  while (struct dirent* entry = ::readdir(d)) {
    std::string_view name(entry->d_name);
    if (name.size() > 4 && name.substr(name.size() - 4) == ".job") {
      has_job_.insert(std::string(name.substr(0, name.size() - 4)));
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
  // Newest first, over the two generations PersistCheckpoint retains;
  // one that fails integrity or does not parse is skipped, never
  // surfaced. An older file a lost gc unlink left behind is not
  // consulted: with both retained generations damaged the job re-runs
  // from rank 0, which the retention contract allows.
  const uint64_t newest = it->second;
  for (uint64_t g = newest; g >= 1 && g + 2 > newest; --g) {
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
  has_job_.insert(request_id);
  return Status::OK();
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
  return std::vector<std::string>(has_job_.begin(), has_job_.end());
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
  return Status::OK();
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
  return WriteRecord(VrdPath(dir_, key), "vrd", key, 0, payload);
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

Status CheckpointStore::PersistControl(const std::string& key,
                                       const std::string& payload) {
  if (!ValidRequestId(key)) {
    return Status::InvalidArgument(
        StrCat("invalid control key for store: \"", key, "\""));
  }
  std::lock_guard<std::mutex> lock(mu_);
  RELCOMP_RETURN_NOT_OK(CheckAlive());
  RELCOMP_RETURN_NOT_OK(CheckWritableLocked());
  return WriteRecord(CtlPath(dir_, key), "ctl", key, 0, payload);
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

}  // namespace relcomp
