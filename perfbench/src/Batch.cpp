//===- Batch.cpp - The batch workloads: suite141, large-solve, large-exec -===//
//
// One pass analyzes every project of the workload once. The untraced run
// repeats passes through CorpusDriver (Jobs=1, default flags) and renders
// the JSONL report of each pass; the traced run walks the same projects
// through ProjectAnalyzer's public calls, one span per layer call, and
// interleaves an untraced Pipeline run of each project to measure what the
// spans cost.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Gate.h"
#include "Trace.h"

#include "corpus/BenchmarkSuite.h"
#include "corpus/PatternGenerators.h"
#include "driver/Telemetry.h"

#include <algorithm>
#include <cstdio>
#include <optional>

using namespace jsai;
using namespace perfbench;

namespace {

/// Large projects per pass, and the generator size knob they use.
constexpr unsigned LargeSolveProjects = 3;
constexpr unsigned LargeSolveSize = 64;
constexpr unsigned LargeExecProjects = 3;
constexpr unsigned LargeExecSize = 40;

std::vector<ProjectSpec> makeInputs(const std::string &Workload,
                                    uint64_t Seed) {
  if (Workload == "suite141") {
    SuiteOptions SO;
    SO.Seed = Seed;
    return buildBenchmarkSuite(SO);
  }
  bool Solve = Workload == "large-solve";
  unsigned N = Solve ? LargeSolveProjects : LargeExecProjects;
  std::vector<ProjectSpec> Out;
  for (unsigned I = 0; I != N; ++I) {
    Rng R(Seed + I);
    ProjectSpec P = Solve ? makeExpressLike(R, LargeSolveSize)
                          : makeUtilityLib(R, LargeExecSize);
    P.Name = P.Pattern + "-large-" + std::to_string(I);
    Out.push_back(std::move(P));
  }
  return Out;
}

/// The roots ProjectAnalyzer::hints() partitions: the main module first,
/// then every other application module.
std::vector<std::string> approxRoots(const ProjectSpec &Spec) {
  std::string AppPrefix =
      Spec.MainModule.substr(0, Spec.MainModule.find('/') + 1);
  std::vector<std::string> Roots{Spec.MainModule};
  for (const std::string &Path : Spec.Files.allPaths())
    if (Path != Spec.MainModule && Path.rfind(AppPrefix, 0) == 0)
      Roots.push_back(Path);
  return Roots;
}

/// Pipeline::analyzeProject's sequence (no deadlines, cache or interrupt),
/// spelled out through ProjectAnalyzer so that each layer call gets a span.
JobResult tracedProject(Tracer &T, const ProjectSpec &Spec, uint32_t Id) {
  JobResult J;
  ProjectReport &R = J.Report;
  double Start = wallNow();
  Scope Project(&T, "pipeline.project", Id);
  std::optional<ProjectAnalyzer> A;
  {
    Scope S(&T, "frontend.parse", Id);
    A.emplace(Spec);
  }
  R.Name = Spec.Name;
  R.Pattern = Spec.Pattern;
  R.NumPackages = A->numPackages();
  R.NumModules = A->numModules();
  R.CodeBytes = A->codeBytes();
  {
    Scope S(&T, "analysis.baseline", Id);
    R.Baseline = A->analyze(AnalysisMode::Baseline);
  }
  {
    Scope S(&T, "approx.hints", Id);
    R.NumHints = A->hints().size();
  }
  R.ApproxSeconds = A->approxSeconds();
  R.Approx = A->approxStats();
  R.NumFunctions = A->numFunctions();
  {
    Scope S(&T, "analysis.extended", Id);
    R.Extended = A->analyze(AnalysisMode::Hints);
  }
  if (Spec.hasDynamicCallGraph()) {
    R.HasDynamicCG = true;
    const CallGraph *Dyn = nullptr;
    {
      Scope S(&T, "callgraph.dynamic", Id);
      Dyn = &A->dynamicCallGraph();
    }
    Scope S(&T, "callgraph.compare", Id);
    R.DynamicEdges = Dyn->numEdges();
    R.BaselineRP = compareCallGraphs(R.Baseline.CG, *Dyn);
    R.ExtendedRP = compareCallGraphs(R.Extended.CG, *Dyn);
  }
  R.VmOpt = A->vmOptStats();
  {
    Scope S(&T, "pipeline.teardown", Id);
    A.reset();
  }
  J.TotalSeconds = wallNow() - Start;
  return J;
}

/// Counts one pass's check results into \p Res and clears \p Passed[I]
/// for every project that failed one.
void checkPass(const std::vector<ProjectSpec> &Inputs,
               const std::vector<JobResult> &Jobs,
               const std::vector<bool> &ParseOk, Result &Res,
               std::vector<bool> &Passed) {
  for (size_t I = 0; I != Jobs.size(); ++I) {
    ++Res.Attempted;
    std::string Why = ParseOk[I] ? checkJob(Jobs[I]) : "parse errors";
    if (Why.empty())
      continue;
    Passed[I] = false;
    ++Res.Failed;
    if (Res.Failed <= 5)
      Res.note("FAIL " + Inputs[I].Name + ": " + Why);
  }
}

/// Compares a pass digest with the first pass (every seed) and with the
/// committed digest (default seed).
void checkDigest(const Options &Opts, const std::string &Digest,
                 std::string &First, Result &Res) {
  if (First.empty()) {
    First = Digest;
    if (Opts.Bless) {
      std::printf("%s %s\n", Opts.Workload.c_str(), Digest.c_str());
      return;
    }
    if (Opts.Seed != DefaultSeed)
      return;
    std::string Want = committedDigest(Opts.DigestFile, Opts.Workload);
    if (Want != Digest) {
      Res.DigestDrift = true;
      Res.note("digest drift: got " + Digest + ", committed " +
               (Want.empty() ? "<none>" : Want));
    } else {
      Res.note("default-seed digest matches the committed one");
    }
    return;
  }
  if (Digest != First) {
    ++Res.Failed;
    Res.note("FAIL pass digest differs from the first pass");
  }
}

Result untracedRun(const Options &Opts, const std::vector<ProjectSpec> &Inputs,
                   const std::vector<bool> &ParseOk,
                   std::vector<double> SetupTimes) {
  Result Res;
  CorpusDriver Driver; // Jobs=1, default flags.
  // Each project is its own driver run and report, so every project gets
  // its own best repetition: the machine's speed drifts between phases of
  // a few seconds, and the fastest repetition is the one least disturbed
  // by other tenants.
  std::vector<std::vector<ProjectSpec>> Singles;
  for (const ProjectSpec &P : Inputs)
    Singles.push_back({P});
  const double Inf = 1e300;
  std::vector<double> BestMs(Inputs.size(), Inf), BestCpu(Inputs.size(), Inf);
  std::vector<bool> Passed(Inputs.size(), true);
  std::string FirstDigest;
  size_t Passes = 0, ReportBytes = 0;
  double Begin = wallNow();
  do {
    std::vector<JobResult> Jobs;
    for (size_t I = 0; I != Inputs.size(); ++I) {
      double C0 = processCpuNow(), W0 = wallNow();
      RunSummary S = Driver.run(Singles[I]);
      ReportBytes += renderReport(S, Driver.options()).size();
      double W1 = wallNow(), C1 = processCpuNow();
      BestMs[I] = std::min(BestMs[I], (W1 - W0) * 1e3);
      BestCpu[I] = std::min(BestCpu[I], C1 - C0);
      Jobs.push_back(std::move(S.Jobs[0]));
    }
    checkPass(Inputs, Jobs, ParseOk, Res, Passed);
    checkDigest(Opts, digestJobs(Jobs), FirstDigest, Res);
    ++Passes;
    for (unsigned K = 0;
         K != SetupsPerPass && SetupTimes.size() < SetupRepeats; ++K) {
      double S0 = wallNow();
      std::vector<ProjectSpec> Again = makeInputs(Opts.Workload, Opts.Seed);
      SetupTimes.push_back(wallNow() - S0);
    }
  } while (wallNow() - Begin < Opts.Seconds ||
           SetupTimes.size() < SetupRepeats);

  // Only projects that passed every check count towards throughput.
  double KB = 0, Ms = 0, Cpu = 0;
  for (size_t I = 0; I != Inputs.size(); ++I) {
    if (Passed[I])
      KB += double(Inputs[I].codeBytes()) / 1024.0;
    Ms += BestMs[I];
    Cpu += BestCpu[I];
  }
  Res.add("setup_s", median(SetupTimes), "s");
  Res.add("throughput_kB_s", KB / (Ms * 1e-3), "kB/s");
  Res.add("cpu_s", Cpu, "s");
  addLatency(Res, BestMs);
  Res.add("peak_rss_MB", peakRssMB(), "MB");
  Res.add("passed_frac", Res.passedFrac(), "fraction");
  Res.note("passes: " + std::to_string(Passes) +
           ", report bytes rendered: " + std::to_string(ReportBytes));
  return Res;
}

Result tracedRun(const Options &Opts, const std::vector<ProjectSpec> &Inputs,
                 const std::vector<bool> &ParseOk) {
  Result Res;
  Tracer T;
  Pipeline Plain;
  std::string FirstDigest;
  // Best untraced Pipeline CPU per project, against which the traced
  // project spans give the tracing overhead.
  std::vector<double> PlainCpu(Inputs.size(), 1e300);
  // Work counters of one pass (every pass repeats them exactly).
  uint64_t Forced = 0, Aborts = 0, Visited = 0, FnTotal = 0, Hints = 0,
           IcHits = 0, IcAll = 0, Tokens = 0, Edges = 0, DupEdges = 0,
           Cycles = 0, SetBytesPeak = 0, DynEdges = 0;
  double KB = 0;
  size_t Passes = 0;
  double Begin = wallNow();
  do {
    std::vector<JobResult> Jobs;
    for (size_t I = 0; I != Inputs.size(); ++I) {
      const ProjectSpec &Spec = Inputs[I];
      uint32_t Id = uint32_t(I);
      {
        Scope S(&T, "cache.partition", Id);
        computeModulePartition(Spec.Files, approxRoots(Spec));
      }
      double C0 = threadCpuNow();
      JobResult Untraced;
      Untraced.Report = Plain.analyzeProject(Spec);
      PlainCpu[I] = std::min(PlainCpu[I], threadCpuNow() - C0);

      JobResult J = tracedProject(T, Spec, Id);
      if (jobRecordJson(J, false) != jobRecordJson(Untraced, false)) {
        ++Res.Failed;
        Res.note("FAIL " + Spec.Name + ": traced run differs from Pipeline");
      }
      const ProjectReport &R = J.Report;
      if (Passes == 0) {
        Forced += R.Approx.NumForcedExecutions;
        Aborts += R.Approx.NumAborts;
        Visited += R.Approx.NumFunctionsVisited;
        FnTotal += R.Approx.NumFunctionsTotal;
        Hints += R.NumHints;
        IcHits += R.Approx.Interp.icHits();
        IcAll += R.Approx.Interp.icHits() + R.Approx.Interp.icMisses();
        for (const AnalysisResult *A : {&R.Baseline, &R.Extended}) {
          Tokens += A->Solver.NumTokensPropagated;
          Edges += A->Solver.NumEdges;
          DupEdges += A->Solver.NumDuplicateEdges;
          Cycles += A->Solver.NumCyclesCollapsed;
          SetBytesPeak = std::max(SetBytesPeak, A->Solver.SetBytesPeak);
        }
        DynEdges += R.DynamicEdges;
        KB += double(Spec.codeBytes()) / 1024.0;
      }
      Jobs.push_back(std::move(J));
    }
    RunSummary S;
    S.Jobs = std::move(Jobs);
    {
      Scope Sp(&T, "driver.report", 0);
      renderReport(S, DriverOptions());
    }
    std::vector<bool> Passed(Inputs.size(), true);
    checkPass(Inputs, S.Jobs, ParseOk, Res, Passed);
    checkDigest(Opts, digestJobs(S.Jobs), FirstDigest, Res);
    ++Passes;
  } while (wallNow() - Begin < Opts.Seconds);

  // Times are per pass: each project's fastest span of a layer, summed.
  auto Totals = T.totals();
  auto CpuOf = [&](const char *Name) { return Totals[Name].BestCpu; };
  double ProjectCpu = CpuOf("pipeline.project");
  double ParseCpu = CpuOf("frontend.parse");
  double Approx = CpuOf("approx.hints");
  double Base = CpuOf("analysis.baseline"), Ext = CpuOf("analysis.extended");
  double Dyn = CpuOf("callgraph.dynamic"), Cmp = CpuOf("callgraph.compare");
  const LayerTotals &P = Totals["pipeline.project"];
  double Coverage = P.Wall > 0 ? 1.0 - P.SelfWall / P.Wall : 1.0;
  double Untraced = 0;
  for (double C : PlainCpu)
    Untraced += C;

  Res.add("frontend.parse_s", ParseCpu, "s");
  Res.add("frontend.kB_per_s", ParseCpu > 0 ? KB / ParseCpu : 0, "kB/s");
  Res.add("cache.partition_s", CpuOf("cache.partition"), "s");
  Res.add("approx.hints_s", Approx, "s");
  Res.add("approx.forced_executions", double(Forced), "count");
  Res.add("approx.aborts", double(Aborts), "count");
  Res.add("approx.visited_frac", FnTotal ? double(Visited) / double(FnTotal) : 0,
          "fraction");
  Res.add("approx.hints", double(Hints), "count");
  Res.add("approx.ic_hit_rate", IcAll ? double(IcHits) / double(IcAll) : 0,
          "fraction");
  Res.add("analysis.baseline_s", Base, "s");
  Res.add("analysis.extended_s", Ext, "s");
  Res.add("solver.tokens_propagated", double(Tokens), "count");
  Res.add("solver.edges", double(Edges), "count");
  Res.add("solver.duplicate_edge_frac",
          Edges + DupEdges ? double(DupEdges) / double(Edges + DupEdges) : 0,
          "fraction");
  Res.add("solver.cycles_collapsed", double(Cycles), "count");
  Res.add("solver.set_bytes_peak", double(SetBytesPeak), "B");
  Res.add("callgraph.dynamic_s", Dyn, "s");
  Res.add("callgraph.compare_s", Cmp, "s");
  Res.add("callgraph.dynamic_edges", double(DynEdges), "count");
  Res.add("driver.report_s", CpuOf("driver.report"), "s");
  Res.add("pipeline.self_s", P.BestSelfCpu, "s");
  Res.add("pipeline.teardown_s", CpuOf("pipeline.teardown"), "s");
  Res.add("pipeline.project_cpu_s", ProjectCpu, "s");
  Res.add("trace.child_coverage", Coverage, "fraction");
  Res.add("trace.overhead_frac", ProjectCpu / Untraced - 1.0, "fraction");

  // Child spans must account for the project span: the benchmark's own
  // glue between layer calls is allowed 2% of project wall time.
  if (Coverage < 0.98) {
    ++Res.Failed;
    Res.note("FAIL child spans cover only " + std::to_string(Coverage) +
             " of project spans (tolerance 0.98)");
  }
  char Buf[200];
  std::snprintf(Buf, sizeof(Buf),
                "shares of project CPU: frontend %.1f%%, approx %.1f%%, "
                "analysis %.1f%%, callgraph %.1f%%, approx+dynamic %.1f%%",
                100 * ParseCpu / ProjectCpu, 100 * Approx / ProjectCpu,
                100 * (Base + Ext) / ProjectCpu, 100 * (Dyn + Cmp) / ProjectCpu,
                100 * (Approx + Dyn) / ProjectCpu);
  Res.note(Buf);
  std::string TracePath = Opts.WorkDir + "/trace-" + Opts.Workload + ".jsonl";
  Res.note(T.write(TracePath) ? "spans written to " + TracePath
                              : "could not write " + TracePath);
  Res.note("traced passes: " + std::to_string(Passes));
  return Res;
}

} // namespace

Result perfbench::runBatch(const Options &Opts) {
  double S0 = wallNow();
  std::vector<ProjectSpec> Inputs = makeInputs(Opts.Workload, Opts.Seed);
  std::vector<double> SetupTimes{wallNow() - S0};
  std::vector<bool> ParseOk;
  for (const ProjectSpec &P : Inputs)
    ParseOk.push_back(parseErrors(P) == 0);
  return Opts.Trace ? tracedRun(Opts, Inputs, ParseOk)
                    : untracedRun(Opts, Inputs, ParseOk, SetupTimes);
}
