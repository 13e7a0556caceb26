//===- Gate.cpp -----------------------------------------------------------===//

#include "Gate.h"

#include "cache/Sha256.h"
#include "driver/Telemetry.h"

#include <fstream>
#include <sstream>

using namespace jsai;
using namespace perfbench;

size_t perfbench::parseErrors(const ProjectSpec &Spec) {
  ProjectAnalyzer A(Spec);
  return A.diagnostics().errorCount();
}

std::string perfbench::checkJob(const JobResult &Job) {
  const ProjectReport &R = Job.Report;
  if (R.Outcome != ProjectOutcome::Ok)
    return std::string("outcome ") + projectOutcomeName(R.Outcome) +
           (Job.Error.empty() ? "" : ": " + Job.Error);
  for (const auto &[Site, Callees] : R.Baseline.CG.edges())
    for (const SourceLoc &Callee : Callees)
      if (!R.Extended.CG.hasEdge(Site, Callee))
        return "extended call graph lost a baseline edge";
  if (R.Extended.NumReachableFunctions < R.Baseline.NumReachableFunctions)
    return "extended reaches fewer functions than baseline";
  if (R.HasDynamicCG && R.ExtendedRP.Recall < R.BaselineRP.Recall)
    return "extended recall below baseline recall";
  return "";
}

std::string perfbench::digestJobs(const std::vector<JobResult> &Jobs) {
  Sha256 H;
  for (const JobResult &J : Jobs) {
    H.update(jobRecordJson(J, /*IncludeTimings=*/false));
    H.update("\n", 1);
  }
  return Sha256::hex(H.digest());
}

std::string perfbench::committedDigest(const std::string &File,
                                       const std::string &Workload) {
  std::ifstream In(File);
  std::string Line;
  while (std::getline(In, Line)) {
    std::istringstream L(Line);
    std::string Name, Hex;
    if (L >> Name >> Hex && Name == Workload)
      return Hex;
  }
  return "";
}
