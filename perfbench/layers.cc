#include "layers.h"

#include <cstdio>

namespace perfbench {

int64_t Tracer::Begin(std::string name, int64_t parent, uint64_t audit) {
  const Clock::time_point now = Clock::now();
  return Add(std::move(name), now, now, parent, audit);
}

void Tracer::End(int64_t index) {
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end = now;
}

int64_t Tracer::Add(std::string name, Clock::time_point start,
                    Clock::time_point end, int64_t parent, uint64_t audit) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{std::move(name), start, end, parent, audit});
  return static_cast<int64_t>(spans_.size()) - 1;
}

int64_t Tracer::AddDuration(std::string name, Clock::time_point at,
                            double ms, int64_t parent, uint64_t audit) {
  const auto length = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
  return Add(std::move(name), at, at + length, parent, audit);
}

std::vector<double> Tracer::SelfMs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].ms();
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[static_cast<size_t>(s.parent)] -= s.ms();
  }
  return self;
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const Clock::time_point origin =
      spans_.empty() ? Clock::time_point() : spans_.front().start;
  auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  std::fprintf(f, "name\tstart_us\tend_us\tparent\taudit\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%s\t%.1f\t%.1f\t%lld\t%llu\n", s.name.c_str(),
                 us(s.start), us(s.end), static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.audit));
  }
  return std::fclose(f) == 0;
}

SiteIo& CountingFsEnv::At(std::string_view site) {
  auto it = sites_.find(site);
  if (it == sites_.end()) it = sites_.emplace(std::string(site), SiteIo{}).first;
  return it->second;
}

void CountingFsEnv::Record(std::string_view site, Clock::time_point start,
                           uint64_t fsyncs, uint64_t bytes) {
  const double ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  std::lock_guard<std::mutex> lock(mu_);
  SiteIo& io = At(site);
  ++io.ops;
  io.fsyncs += fsyncs;
  io.bytes_written += bytes;
  io.io_ms += ms;
}

int CountingFsEnv::Open(std::string_view site, const char* path, int flags,
                        mode_t mode) {
  const Clock::time_point start = Clock::now();
  const int fd = FsEnv::Open(site, path, flags, mode);
  Record(site, start, 0, 0);
  return fd;
}

ssize_t CountingFsEnv::Read(std::string_view site, int fd, void* buf,
                            size_t count) {
  const Clock::time_point start = Clock::now();
  const ssize_t n = FsEnv::Read(site, fd, buf, count);
  Record(site, start, 0, 0);
  return n;
}

ssize_t CountingFsEnv::Write(std::string_view site, int fd, const void* buf,
                             size_t count) {
  const Clock::time_point start = Clock::now();
  const ssize_t n = FsEnv::Write(site, fd, buf, count);
  Record(site, start, 0, n > 0 ? static_cast<uint64_t>(n) : 0);
  return n;
}

int CountingFsEnv::Fsync(std::string_view site, int fd) {
  const Clock::time_point start = Clock::now();
  const int rc = FsEnv::Fsync(site, fd);
  Record(site, start, 1, 0);
  return rc;
}

int CountingFsEnv::Rename(std::string_view site, const char* from,
                          const char* to) {
  const Clock::time_point start = Clock::now();
  const int rc = FsEnv::Rename(site, from, to);
  Record(site, start, 0, 0);
  return rc;
}

int CountingFsEnv::Unlink(std::string_view site, const char* path) {
  const Clock::time_point start = Clock::now();
  const int rc = FsEnv::Unlink(site, path);
  Record(site, start, 0, 0);
  return rc;
}

int CountingFsEnv::Mkdir(std::string_view site, const char* path,
                         mode_t mode) {
  const Clock::time_point start = Clock::now();
  const int rc = FsEnv::Mkdir(site, path, mode);
  Record(site, start, 0, 0);
  return rc;
}

std::map<std::string, SiteIo> CountingFsEnv::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {sites_.begin(), sites_.end()};
}

std::map<std::string, SiteIo> IoDelta(
    const std::map<std::string, SiteIo>& before,
    const std::map<std::string, SiteIo>& after) {
  std::map<std::string, SiteIo> out;
  for (const auto& [site, a] : after) {
    SiteIo d = a;
    auto it = before.find(site);
    if (it != before.end()) {
      d.ops -= it->second.ops;
      d.fsyncs -= it->second.fsyncs;
      d.bytes_written -= it->second.bytes_written;
      d.io_ms -= it->second.io_ms;
    }
    out[site] = d;
  }
  return out;
}

SiteIo IoTotal(const std::map<std::string, SiteIo>& sites) {
  SiteIo total;
  for (const auto& [site, io] : sites) {
    total.ops += io.ops;
    total.fsyncs += io.fsyncs;
    total.bytes_written += io.bytes_written;
    total.io_ms += io.io_ms;
  }
  return total;
}

}  // namespace perfbench
