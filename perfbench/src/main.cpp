//===- main.cpp - The repository benchmark ---------------------------------===//
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>] [--digests <file>] [--bless]
//
// Workloads: suite141, large-solve, large-exec, serve-edit (see
// WORKLOADS.md). With --trace 0 the run measures the end-to-end metrics;
// with --trace 1 it records spans around every layer call and reports the
// per-layer metrics. Human-readable notes come first; the last line of
// standard output is one JSON object:
//
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
//
// Exit codes: 0 ok (the result line says whether every check passed),
// 2 bad arguments, 3 the default-seed digest drifted from the committed
// one, 1 the run itself failed.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>

using namespace perfbench;

namespace {

struct MetricDef {
  const char *Name;
  const char *Unit;
};

const MetricDef EndToEnd[] = {
    {"setup_s", "s"},          {"throughput_kB_s", "kB/s"},
    {"cpu_s", "s"},            {"latency_p50_ms", "ms"},
    {"latency_tail_ms", "ms"}, {"peak_rss_MB", "MB"},
    {"passed_frac", "fraction"},
};

const MetricDef PerLayer[] = {
    {"frontend.parse_s", "s"},
    {"frontend.kB_per_s", "kB/s"},
    {"cache.partition_s", "s"},
    {"cache.hit_frac", "fraction"},
    {"cache.writes", "count"},
    {"cache.bytes_written", "B"},
    {"approx.hints_s", "s"},
    {"approx.forced_executions", "count"},
    {"approx.aborts", "count"},
    {"approx.visited_frac", "fraction"},
    {"approx.hints", "count"},
    {"approx.ic_hit_rate", "fraction"},
    {"analysis.baseline_s", "s"},
    {"analysis.extended_s", "s"},
    {"solver.tokens_propagated", "count"},
    {"solver.edges", "count"},
    {"solver.duplicate_edge_frac", "fraction"},
    {"solver.cycles_collapsed", "count"},
    {"solver.set_bytes_peak", "B"},
    {"callgraph.dynamic_s", "s"},
    {"callgraph.compare_s", "s"},
    {"callgraph.dynamic_edges", "count"},
    {"driver.report_s", "s"},
    {"pipeline.self_s", "s"},
    {"pipeline.teardown_s", "s"},
    {"pipeline.project_cpu_s", "s"},
    {"serve.handle_ms.cold", "ms"},
    {"serve.handle_ms.edit", "ms"},
    {"serve.handle_ms.replay", "ms"},
    {"serve.handle_ms.warm", "ms"},
    {"serve.requests.cold", "count"},
    {"serve.requests.edit", "count"},
    {"serve.requests.replay", "count"},
    {"serve.requests.warm", "count"},
    {"serve.transport_ms", "ms"},
    {"serve.replay_hit_frac", "fraction"},
    {"trace.child_coverage", "fraction"},
    {"trace.overhead_frac", "fraction"},
};

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "suite141|large-solve|large-exec|serve-edit --seed N "
               "--seconds S --trace 0|1 [--work-dir D] [--digests F] "
               "[--bless]\n(default seed %llu; held-out seed %llu)\n",
               Why, (unsigned long long)DefaultSeed,
               (unsigned long long)HeldOutSeed);
  return 2;
}

/// Orders \p Res's metrics as \p Defs lists them. Metrics of layers the
/// workload does not exercise read 0 and are named in a note; a metric
/// missing from \p Defs is a benchmark bug.
template <size_t N>
bool canonicalize(Result &Res, const MetricDef (&Defs)[N]) {
  for (const Metric &M : Res.Metrics) {
    bool Known = false;
    for (const MetricDef &D : Defs)
      Known |= M.Name == D.Name && M.Unit == D.Unit;
    if (!Known)
      return false;
  }
  std::vector<Metric> Out;
  std::string Absent;
  for (const MetricDef &D : Defs) {
    const Metric *Found = nullptr;
    for (const Metric &M : Res.Metrics)
      if (M.Name == D.Name)
        Found = &M;
    if (!Found)
      Absent += std::string(Absent.empty() ? "" : " ") + D.Name;
    Out.push_back({D.Name, Found ? Found->Value : 0.0, D.Unit});
  }
  if (!Absent.empty())
    Res.note("not exercised by this workload (reported as 0): " + Absent);
  Res.Metrics = std::move(Out);
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  Opts.WorkDir = ".perfbench-work";
  Opts.DigestFile = "perfbench/digests.txt";
  bool HaveSeed = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--bless") {
      Opts.Bless = true;
      continue;
    }
    if (I + 1 >= Argc)
      return usage(("missing value for " + A).c_str());
    std::string V = Argv[++I];
    char *End = nullptr;
    if (A == "--workload") {
      Opts.Workload = V;
    } else if (A == "--seed") {
      Opts.Seed = std::strtoull(V.c_str(), &End, 10);
      HaveSeed = *End == 0 && !V.empty();
      if (!HaveSeed)
        return usage("bad --seed");
    } else if (A == "--seconds") {
      Opts.Seconds = std::strtod(V.c_str(), &End);
      if (*End != 0 || !(Opts.Seconds > 0))
        return usage("bad --seconds");
    } else if (A == "--trace") {
      if (V != "0" && V != "1")
        return usage("bad --trace");
      Opts.Trace = V == "1";
    } else if (A == "--work-dir") {
      Opts.WorkDir = V;
    } else if (A == "--digests") {
      Opts.DigestFile = V;
    } else {
      return usage(("unknown argument " + A).c_str());
    }
  }
  if (!HaveSeed)
    Opts.Seed = DefaultSeed;
  bool Batch = Opts.Workload == "suite141" || Opts.Workload == "large-solve" ||
               Opts.Workload == "large-exec";
  if (!Batch && Opts.Workload != "serve-edit")
    return usage("unknown --workload");

  Result Res;
  try {
    std::filesystem::create_directories(Opts.WorkDir);
    Res = Batch ? runBatch(Opts) : runServeEdit(Opts);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s\n", E.what());
    return 1;
  }
  if (Opts.Bless)
    return 0;
  bool Ok = Opts.Trace ? canonicalize(Res, PerLayer)
                       : canonicalize(Res, EndToEnd);
  if (!Ok) {
    std::fprintf(stderr, "perfbench: workload reported an unknown metric\n");
    return 1;
  }
  for (const std::string &N : Res.Notes)
    std::printf("# %s\n", N.c_str());
  if (Res.DigestDrift) {
    std::fprintf(stderr, "perfbench: default-seed digest drifted\n");
    return 3;
  }
  for (const Metric &M : Res.Metrics)
    std::printf("# %-28s %16.6f %s\n", M.Name.c_str(), M.Value, M.Unit.c_str());
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{",
              Res.Failed == 0 ? "true" : "false",
              (unsigned long long)Res.Attempted,
              (unsigned long long)Res.Failed);
  for (size_t I = 0; I != Res.Metrics.size(); ++I)
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", I ? "," : "",
                Res.Metrics[I].Name.c_str(), Res.Metrics[I].Value,
                Res.Metrics[I].Unit.c_str());
  std::printf("}}\n");
  return 0;
}
