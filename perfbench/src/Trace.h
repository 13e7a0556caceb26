//===- Trace.h - In-memory span recorder ------------------------*- C++ -*-===//
///
/// \file
/// Spans recorded by the benchmark around its calls into each layer. A span
/// holds its name, parent, project id, and start/end in both wall time and
/// thread-CPU time. Spans stay in memory and are written out as JSONL once
/// the run ends. Self time is a span's duration minus its children's (the
/// children of one span run one after another on one thread, so their sum
/// is the part of the parent they cover).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char *Name = "";
  int Parent = -1;
  uint32_t Project = 0;
  double Wall0 = 0, Wall1 = 0;
  double Cpu0 = 0, Cpu1 = 0;
  /// Summed durations of the direct children.
  double ChildWall = 0, ChildCpu = 0;

  double wall() const { return Wall1 - Wall0; }
  double cpu() const { return Cpu1 - Cpu0; }
};

/// Totals of every span sharing one name. The Best* sums of thread CPU
/// take, for each project id, only its fastest span of that name (the
/// repetition least disturbed by other tenants of the machine).
struct LayerTotals {
  double Wall = 0, SelfWall = 0;
  double BestCpu = 0, BestSelfCpu = 0;
};

class Tracer {
public:
  /// Opens a span nested in the innermost open one. \returns its id.
  int begin(const char *Name, uint32_t Project);
  /// Closes span \p Id, which must be the innermost open one.
  void end(int Id);

  const std::vector<Span> &spans() const { return Spans; }
  /// Totals per span name.
  std::map<std::string, LayerTotals> totals() const;
  /// Writes one JSON object per span. \returns false when \p Path cannot
  /// be written.
  bool write(const std::string &Path) const;

private:
  std::vector<Span> Spans;
  int Open = -1;
};

/// RAII span; a null tracer records nothing.
class Scope {
public:
  Scope(Tracer *T, const char *Name, uint32_t Project)
      : T(T), Id(T ? T->begin(Name, Project) : -1) {}
  ~Scope() {
    if (T)
      T->end(Id);
  }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  Tracer *T;
  int Id;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
