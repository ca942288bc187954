#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

// Measurement plumbing of the benchmark's traced run: an in-memory span
// recorder and a counting FsEnv. Neither touches the program's code;
// both observe it at public boundaries.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/fs_env.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// One recorded span. `parent` is the index of the span it is
/// attributed to (-1 for a root). A replayed call may run outside its
/// parent's interval; self time therefore subtracts the durations of
/// the attributed children rather than their interval overlap.
struct Span {
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  int64_t parent = -1;
  uint64_t audit = 0;

  double ms() const {
    return std::chrono::duration<double, std::milli>(end - start).count();
  }
};

/// Spans kept in memory, written out when the run ends. Thread safe.
class Tracer {
 public:
  /// Opens a span at the current time; End() closes it.
  int64_t Begin(std::string name, int64_t parent, uint64_t audit);
  void End(int64_t index);
  /// Records a finished span; returns its index.
  int64_t Add(std::string name, Clock::time_point start,
              Clock::time_point end, int64_t parent, uint64_t audit);
  /// Records a span of `ms` milliseconds measured elsewhere (an I/O
  /// total from the counting env), anchored at `at`.
  int64_t AddDuration(std::string name, Clock::time_point at, double ms,
                      int64_t parent, uint64_t audit);

  /// The recorded spans; call once recording has stopped.
  const std::vector<Span>& spans() const { return spans_; }
  /// Duration of span `i` minus the durations of its children.
  std::vector<double> SelfMs() const;

  /// Writes one line per span: name start_us end_us parent audit.
  bool WriteTsv(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Times `fn` as a span attributed to `parent`.
template <typename Fn>
int64_t Timed(Tracer* tracer, std::string name, int64_t parent,
              uint64_t audit, Fn&& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  return tracer->Add(std::move(name), start, Clock::now(), parent, audit);
}

/// Store I/O tallied at the device boundary, per site tag.
struct SiteIo {
  uint64_t ops = 0;
  uint64_t fsyncs = 0;
  uint64_t bytes_written = 0;
  double io_ms = 0;
};

/// A pass-through FsEnv that counts every operation the store issues
/// and the time spent in it, keyed by the store's site tag.
class CountingFsEnv : public relcomp::FsEnv {
 public:
  int Open(std::string_view site, const char* path, int flags,
           mode_t mode) override;
  ssize_t Read(std::string_view site, int fd, void* buf,
               size_t count) override;
  ssize_t Write(std::string_view site, int fd, const void* buf,
                size_t count) override;
  int Fsync(std::string_view site, int fd) override;
  int Rename(std::string_view site, const char* from,
             const char* to) override;
  int Unlink(std::string_view site, const char* path) override;
  int Mkdir(std::string_view site, const char* path, mode_t mode) override;

  /// Snapshot of the per-site tallies.
  std::map<std::string, SiteIo> Snapshot() const;

 private:
  SiteIo& At(std::string_view site);
  void Record(std::string_view site, Clock::time_point start,
              uint64_t fsyncs, uint64_t bytes);

  mutable std::mutex mu_;
  std::map<std::string, SiteIo, std::less<>> sites_;
};

/// Per-site difference `after - before`.
std::map<std::string, SiteIo> IoDelta(
    const std::map<std::string, SiteIo>& before,
    const std::map<std::string, SiteIo>& after);

/// Sum over every site.
SiteIo IoTotal(const std::map<std::string, SiteIo>& sites);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
