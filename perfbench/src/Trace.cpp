//===- Trace.cpp ----------------------------------------------------------===//

#include "Trace.h"

#include "Common.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

using namespace perfbench;

int Tracer::begin(const char *Name, uint32_t Project) {
  Span S;
  S.Name = Name;
  S.Parent = Open;
  S.Project = Project;
  S.Wall0 = wallNow();
  S.Cpu0 = threadCpuNow();
  Spans.push_back(S);
  Open = int(Spans.size() - 1);
  return Open;
}

void Tracer::end(int Id) {
  assert(Id == Open && "spans must close innermost first");
  Span &S = Spans[size_t(Id)];
  S.Cpu1 = threadCpuNow();
  S.Wall1 = wallNow();
  Open = S.Parent;
  if (Open >= 0) {
    Spans[size_t(Open)].ChildWall += S.wall();
    Spans[size_t(Open)].ChildCpu += S.cpu();
  }
}

std::map<std::string, LayerTotals> Tracer::totals() const {
  std::map<std::string, LayerTotals> T;
  std::map<std::pair<std::string, uint32_t>, std::pair<double, double>> Best;
  for (const Span &S : Spans) {
    LayerTotals &L = T[S.Name];
    L.Wall += S.wall();
    L.SelfWall += S.wall() - S.ChildWall;
    auto [It, New] = Best.try_emplace({S.Name, S.Project}, S.cpu(),
                                      S.cpu() - S.ChildCpu);
    if (!New) {
      It->second.first = std::min(It->second.first, S.cpu());
      It->second.second = std::min(It->second.second, S.cpu() - S.ChildCpu);
    }
  }
  for (const auto &[Key, B] : Best) {
    T[Key.first].BestCpu += B.first;
    T[Key.first].BestSelfCpu += B.second;
  }
  return T;
}

bool Tracer::write(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  double Origin = Spans.empty() ? 0 : Spans.front().Wall0;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "{\"id\":%zu,\"name\":\"%s\",\"parent\":%d,\"project\":%u,"
                 "\"start_s\":%.9f,\"end_s\":%.9f,\"cpu_s\":%.9f,"
                 "\"self_s\":%.9f,\"self_cpu_s\":%.9f}\n",
                 I, S.Name, S.Parent, S.Project, S.Wall0 - Origin,
                 S.Wall1 - Origin, S.cpu(), S.wall() - S.ChildWall,
                 S.cpu() - S.ChildCpu);
  }
  return std::fclose(F) == 0;
}
