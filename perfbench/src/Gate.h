//===- Gate.h - Correctness checks run on every benchmark run ---*- C++ -*-===//
///
/// \file
/// The checks behind the `correct`/`failed` fields: generated projects
/// parse cleanly, every outcome is ok, the hint-extended analysis never
/// loses what the baseline found, and the metric rows hash to the digest
/// committed for the default seed.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_GATE_H
#define PERFBENCH_GATE_H

#include "driver/CorpusDriver.h"

#include <string>
#include <vector>

namespace perfbench {

/// Parse errors in \p Spec (parsed once, outside any timed region).
size_t parseErrors(const jsai::ProjectSpec &Spec);

/// Checks one analyzed project. \returns an empty string when it passes,
/// else the first violated check:
///  - the outcome is ok;
///  - the extended call-edge set contains the baseline set;
///  - extended reachable functions >= baseline;
///  - extended recall >= baseline recall (projects with a dynamic CG).
std::string checkJob(const jsai::JobResult &Job);

/// SHA-256 over every project's default (timing-free) JSONL metric row, in
/// project order.
std::string digestJobs(const std::vector<jsai::JobResult> &Jobs);

/// The digest committed for \p Workload in \p File, or "" when absent.
std::string committedDigest(const std::string &File,
                            const std::string &Workload);

} // namespace perfbench

#endif // PERFBENCH_GATE_H
