//===- Common.h - Shared benchmark types, clocks and statistics -*- C++ -*-===//
///
/// \file
/// Clocks (wall, thread CPU, process CPU), the order statistics every
/// metric is reported with, and the Result a workload hands back to main.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall clock, seconds.
double wallNow();
/// CPU time of the calling thread, seconds.
double threadCpuNow();
/// User + system CPU of the whole process (every thread), seconds.
double processCpuNow();
/// Peak resident set size of the process, MB.
double peakRssMB();

/// Median of \p V (0 when empty).
double median(std::vector<double> V);

/// The tail of a latency sample: the highest percentile that still has at
/// least ten samples beyond it (nearest rank). With ten or fewer samples
/// no such percentile exists and the tail is the maximum.
struct Tail {
  double Value = 0;
  double Percentile = 100;
  size_t Beyond = 0;
};
Tail tailOf(std::vector<double> V);

/// Command-line configuration of one benchmark run.
struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  /// Scratch directory for dumped projects, the cache and trace files.
  std::string WorkDir;
  /// File of committed default-seed digests ("<workload> <hex>" lines).
  std::string DigestFile;
  /// Print the digest instead of checking it (used to re-bless).
  bool Bless = false;
};

/// One reported metric.
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// What a workload run hands back: the metrics, the check counts, and
/// human-readable notes printed above the JSON result line.
struct Result {
  std::vector<Metric> Metrics;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Set when the default-seed digest differs from the committed one; the
  /// run then exits nonzero without a result line.
  bool DigestDrift = false;
  std::vector<std::string> Notes;

  void add(std::string Name, double Value, std::string Unit) {
    Metrics.push_back({std::move(Name), Value, std::move(Unit)});
  }
  void note(std::string Line) { Notes.push_back(std::move(Line)); }
  /// 1 - Failed / Attempted: the failed fraction reads 0 on a healthy run,
  /// and a metric that reads 0 has no relative spread.
  double passedFrac() const {
    return Attempted ? 1.0 - double(Failed) / double(Attempted) : 0.0;
  }
};

/// Adds latency_p50_ms and latency_tail_ms over the per-item latencies
/// \p Ms, with a note naming the tail's percentile and sample count.
void addLatency(Result &Res, const std::vector<double> &Ms);

/// Set-up repetitions per run (setup_s is their median), spread over the
/// run a few after each pass so that they sample the same phases of the
/// machine's speed as the passes do.
constexpr unsigned SetupRepeats = 11;
constexpr unsigned SetupsPerPass = 3;

/// The workload seed `SuiteOptions` uses, and the held-out seed later
/// claims are confirmed on.
constexpr uint64_t DefaultSeed = 20240624;
constexpr uint64_t HeldOutSeed = 7;

Result runBatch(const Options &Opts);
Result runServeEdit(const Options &Opts);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
