//===- Common.cpp ---------------------------------------------------------===//

#include "Common.h"

#include <algorithm>
#include <cstdio>
#include <ctime>

#include <sys/resource.h>

using namespace perfbench;

namespace {

double clockSeconds(clockid_t Clock) {
  timespec TS;
  clock_gettime(Clock, &TS);
  return double(TS.tv_sec) + double(TS.tv_nsec) * 1e-9;
}

} // namespace

double perfbench::wallNow() { return clockSeconds(CLOCK_MONOTONIC); }
double perfbench::threadCpuNow() {
  return clockSeconds(CLOCK_THREAD_CPUTIME_ID);
}
double perfbench::processCpuNow() {
  return clockSeconds(CLOCK_PROCESS_CPUTIME_ID);
}

double perfbench::peakRssMB() {
  rusage U;
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in kB on Linux.
}

double perfbench::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  size_t Mid = V.size() / 2;
  std::nth_element(V.begin(), V.begin() + Mid, V.end());
  if (V.size() % 2)
    return V[Mid];
  double Hi = V[Mid];
  return (*std::max_element(V.begin(), V.begin() + Mid) + Hi) / 2;
}

Tail perfbench::tailOf(std::vector<double> V) {
  Tail T;
  if (V.empty())
    return T;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  if (N <= 10) {
    T.Value = V.back();
    return T;
  }
  size_t K = N - 11; // The last index with ten samples above it.
  T.Value = V[K];
  T.Percentile = 100.0 * double(K + 1) / double(N);
  T.Beyond = N - 1 - K;
  return T;
}

void perfbench::addLatency(Result &Res, const std::vector<double> &Ms) {
  Tail T = tailOf(Ms);
  Res.add("latency_p50_ms", median(Ms), "ms");
  Res.add("latency_tail_ms", T.Value, "ms");
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "latency_tail_ms is p%.2f over %zu samples (%zu beyond)",
                T.Percentile, Ms.size(), T.Beyond);
  Res.note(Buf);
}
