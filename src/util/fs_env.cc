#include "util/fs_env.h"

#include <fcntl.h>
#include <stdio.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>

namespace relcomp {
namespace {

/// Whether a fault kind can apply to this op kind at all. The
/// kind-specific faults (short write, fsync-fail, lost-rename,
/// lost-append) never match other ops — a plan naming one of them
/// counts only the ops it could hit, so "at = 3" means "the 3rd
/// record write", not "the 3rd syscall that happened to be one".
bool KindMatchesOp(StorageFaultKind kind, FsOp op) {
  switch (kind) {
    case StorageFaultKind::kNone:
      return false;
    case StorageFaultKind::kEio:
    case StorageFaultKind::kEnospc:
      return true;
    case StorageFaultKind::kShortWrite:
    case StorageFaultKind::kLostAppend:
      return op == FsOp::kWrite;
    case StorageFaultKind::kFsyncFail:
      return op == FsOp::kFsync;
    case StorageFaultKind::kLostRename:
      return op == FsOp::kRename;
  }
  return false;
}

bool SiteMatches(std::string_view filter, std::string_view site) {
  return filter.empty() ||
         (site.size() >= filter.size() &&
          site.substr(0, filter.size()) == filter);
}

}  // namespace

const char* FsOpToString(FsOp op) {
  switch (op) {
    case FsOp::kOpen: return "open";
    case FsOp::kRead: return "read";
    case FsOp::kWrite: return "write";
    case FsOp::kFsync: return "fsync";
    case FsOp::kRename: return "rename";
    case FsOp::kUnlink: return "unlink";
    case FsOp::kFlock: return "flock";
    case FsOp::kMkdir: return "mkdir";
    case FsOp::kOpendir: return "opendir";
  }
  return "?";
}

const char* StorageFaultKindToString(StorageFaultKind kind) {
  switch (kind) {
    case StorageFaultKind::kNone: return "none";
    case StorageFaultKind::kEio: return "eio";
    case StorageFaultKind::kEnospc: return "enospc";
    case StorageFaultKind::kShortWrite: return "short-write";
    case StorageFaultKind::kFsyncFail: return "fsync-fail";
    case StorageFaultKind::kLostRename: return "lost-rename";
    case StorageFaultKind::kLostAppend: return "lost-append";
  }
  return "?";
}

FsEnv* FsEnv::Default() {
  static FsEnv* env = new FsEnv();
  return env;
}

StorageFaultKind FsEnv::Consult(FsOp op, std::string_view site,
                                size_t count, size_t* short_count) {
  std::lock_guard<std::mutex> lock(mu_);
  ++ops_issued_;
  if (!plan_.active() || !KindMatchesOp(plan_.kind, op) ||
      !SiteMatches(plan_.site, site)) {
    return StorageFaultKind::kNone;
  }
  ++matches_seen_;
  if (!plan_.Fires(matches_seen_)) return StorageFaultKind::kNone;
  ++faults_injected_;
  last_fault_site_ = std::string(site);
  if (plan_.kind == StorageFaultKind::kShortWrite && short_count != nullptr) {
    *short_count =
        plan_.short_bytes != 0 && plan_.short_bytes < count
            ? plan_.short_bytes
            : count / 2;
  }
  return plan_.kind;
}

int FsEnv::Open(std::string_view site, const char* path, int flags,
                mode_t mode) {
  switch (Consult(FsOp::kOpen, site, 0, nullptr)) {
    case StorageFaultKind::kEio: errno = EIO; return -1;
    case StorageFaultKind::kEnospc: errno = ENOSPC; return -1;
    default: break;
  }
  return ::open(path, flags, mode);
}

ssize_t FsEnv::Read(std::string_view site, int fd, void* buf, size_t count) {
  switch (Consult(FsOp::kRead, site, count, nullptr)) {
    case StorageFaultKind::kEio: errno = EIO; return -1;
    case StorageFaultKind::kEnospc: errno = ENOSPC; return -1;
    default: break;
  }
  return ::read(fd, buf, count);
}

ssize_t FsEnv::Write(std::string_view site, int fd, const void* buf,
                     size_t count) {
  size_t short_count = 0;
  switch (Consult(FsOp::kWrite, site, count, &short_count)) {
    case StorageFaultKind::kEio: errno = EIO; return -1;
    case StorageFaultKind::kEnospc: errno = ENOSPC; return -1;
    case StorageFaultKind::kShortWrite: {
      // The prefix genuinely lands — that is the torn tail the reopen
      // scan must survive. ENOSPC explains why the rest never came.
      ssize_t n = ::write(fd, buf, short_count);
      if (n < 0) return n;
      errno = ENOSPC;
      return n;
    }
    case StorageFaultKind::kLostAppend:
      return static_cast<ssize_t>(count);
    default: break;
  }
  return ::write(fd, buf, count);
}

int FsEnv::Fsync(std::string_view site, int fd) {
  switch (Consult(FsOp::kFsync, site, 0, nullptr)) {
    case StorageFaultKind::kEio:
    case StorageFaultKind::kFsyncFail: errno = EIO; return -1;
    case StorageFaultKind::kEnospc: errno = ENOSPC; return -1;
    default: break;
  }
  return ::fsync(fd);
}

int FsEnv::Rename(std::string_view site, const char* from, const char* to) {
  switch (Consult(FsOp::kRename, site, 0, nullptr)) {
    case StorageFaultKind::kEio: errno = EIO; return -1;
    case StorageFaultKind::kEnospc: errno = ENOSPC; return -1;
    case StorageFaultKind::kLostRename: return 0;
    default: break;
  }
  return ::rename(from, to);
}

int FsEnv::Unlink(std::string_view site, const char* path) {
  switch (Consult(FsOp::kUnlink, site, 0, nullptr)) {
    case StorageFaultKind::kEio: errno = EIO; return -1;
    case StorageFaultKind::kEnospc: errno = ENOSPC; return -1;
    default: break;
  }
  return ::unlink(path);
}

int FsEnv::Flock(std::string_view site, int fd, int operation) {
  switch (Consult(FsOp::kFlock, site, 0, nullptr)) {
    case StorageFaultKind::kEio: errno = EIO; return -1;
    case StorageFaultKind::kEnospc: errno = ENOSPC; return -1;
    default: break;
  }
  return ::flock(fd, operation);
}

int FsEnv::Mkdir(std::string_view site, const char* path, mode_t mode) {
  switch (Consult(FsOp::kMkdir, site, 0, nullptr)) {
    case StorageFaultKind::kEio: errno = EIO; return -1;
    case StorageFaultKind::kEnospc: errno = ENOSPC; return -1;
    default: break;
  }
  return ::mkdir(path, mode);
}

DIR* FsEnv::Opendir(std::string_view site, const char* path) {
  switch (Consult(FsOp::kOpendir, site, 0, nullptr)) {
    case StorageFaultKind::kEio: errno = EIO; return nullptr;
    case StorageFaultKind::kEnospc: errno = ENOSPC; return nullptr;
    default: break;
  }
  return ::opendir(path);
}

void FsEnv::set_fault_plan(const StorageFaultPlan& plan) {
  std::lock_guard<std::mutex> lock(mu_);
  plan_ = plan;
  matches_seen_ = 0;
}

StorageFaultPlan FsEnv::fault_plan() const {
  std::lock_guard<std::mutex> lock(mu_);
  return plan_;
}

uint64_t FsEnv::ops_issued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ops_issued_;
}

uint64_t FsEnv::matches_seen() const {
  std::lock_guard<std::mutex> lock(mu_);
  return matches_seen_;
}

uint64_t FsEnv::faults_injected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return faults_injected_;
}

std::string FsEnv::last_fault_site() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_fault_site_;
}

}  // namespace relcomp
