//===- ServeEdit.cpp - The serve-edit workload -----------------------------===//
//
// The seed's suite projects, dumped to disk, served by an in-process
// serve::Server on a Unix socket with a read-write cache. One client on one
// connection sends requests in a closed loop (the next request goes out
// only after the previous response arrived). One pass, per project in
// seeded order:
//
//   cold    first analyze: cache miss, full run, cache write
//   edit    analyze after appending a statement to one app module
//   replay  the identical request again: answered from the replay map
//   edit    a second appended statement: miss, re-run, write
//
// then a daemon restart on the same cache and, per project:
//
//   warm    analyze of the unchanged edited tree: whole-project cache hit
//
// The second edit keeps the median request inside the cold/edit group
// instead of on the boundary between equally large groups.
//
// Every response is checked byte for byte against a one-shot renderReport
// of the same tree, computed before any timed request.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Gate.h"
#include "Trace.h"

#include "corpus/BenchmarkSuite.h"
#include "driver/Telemetry.h"
#include "serve/Client.h"
#include "serve/Server.h"
#include "support/Rng.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include <fcntl.h>
#include <pthread.h>
#include <time.h>
#include <unistd.h>

using namespace jsai;
using namespace jsai::serve;
using namespace perfbench;
namespace fs = std::filesystem;

namespace {

enum Kind { Cold, Edit, Replay, Warm, NumKinds };
const char *const KindNames[NumKinds] = {"cold", "edit", "replay", "warm"};
const char *const KindSpans[NumKinds] = {"serve.cold", "serve.edit",
                                         "serve.replay", "serve.warm"};

/// Writes \p Text to \p Path without first truncating it to zero. On ext4
/// an emptied-and-rewritten file gets its blocks allocated at close, and
/// freeing them on the next rewrite queues discards that slow every file
/// creation for the next minute: the benchmark would slow the cache writes
/// it times, more with every run.
void writeFile(const fs::path &Path, const std::string &Text) {
  fs::create_directories(Path.parent_path());
  int Fd = ::open(Path.c_str(), O_WRONLY | O_CREAT, 0644);
  bool Ok = Fd >= 0 &&
            ::pwrite(Fd, Text.data(), Text.size(), 0) == ssize_t(Text.size()) &&
            ::ftruncate(Fd, off_t(Text.size())) == 0;
  if (Fd >= 0)
    ::close(Fd);
  if (!Ok)
    throw std::runtime_error("cannot write " + Path.string());
}

/// One dumped project and the edit applied to it.
struct Tree {
  std::string Dir;
  std::string Main;
  std::string EditPath; ///< Relative to Dir.
  std::string Original; ///< EditPath's content before the edit.
  double KB = 0;

  /// Rewrites EditPath as the original plus \p N appended statements.
  void applyEdits(unsigned N) const {
    std::string Text = Original;
    for (unsigned K = 1; K <= N; ++K)
      Text += "\nvar perfbenchEdit" + std::to_string(K) + " = " +
              std::to_string(K) + ";\n";
    writeFile(fs::path(Dir) / EditPath, Text);
  }
};

/// The report a one-shot `jsai suite --report=` run writes for the tree on
/// disk, or "" when the project fails a check.
std::string oneShot(const Tree &T, Result &Res) {
  ProjectSpec Spec;
  Spec.Files.addDirectory(T.Dir);
  Spec.Name = T.Dir;
  Spec.MainModule = T.Main;
  DriverOptions DO;
  RunSummary S = CorpusDriver(DO).run({Spec});
  std::string Why = parseErrors(Spec) ? "parse errors" : checkJob(S.Jobs[0]);
  if (!Why.empty()) {
    Res.note("FAIL reference " + T.Dir + ": " + Why);
    return "";
  }
  return renderReport(S, DO);
}

/// A daemon served from a thread of this process.
class Daemon {
public:
  Daemon(const std::string &Socket, const std::string &CacheDir) {
    ServeOptions SO;
    SO.SocketPath = Socket;
    SO.Cache.Dir = CacheDir;
    S = std::make_unique<Server>(SO);
    std::string Err;
    if (!S->start(Err))
      throw std::runtime_error("daemon start failed: " + Err);
    Loop = std::thread([this] {
      try {
        S->run();
      } catch (const std::exception &E) {
        // The client sees the closed socket; every later request fails
        // its check.
        std::fprintf(stderr, "perfbench: daemon failed: %s\n", E.what());
      }
    });
    JsonValue Id;
    if (!C.connect(Socket, Err) || !C.handshake(Id, Err)) {
      stop();
      throw std::runtime_error("connect failed: " + Err);
    }
    pthread_getcpuclockid(Loop.native_handle(), &ServerClock);
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// CPU time the serving thread has used so far, seconds.
  double serverCpu() const {
    timespec TS;
    clock_gettime(ServerClock, &TS);
    return double(TS.tv_sec) + double(TS.tv_nsec) * 1e-9;
  }

  /// Sends shutdown on the served connection and joins the thread.
  void stop() {
    if (!Loop.joinable())
      return;
    JsonValue Req = JsonValue::object(), Resp;
    Req.set("cmd", JsonValue::str("shutdown"));
    std::string Err;
    if (!C.connected() || !C.request(Req, Resp, Err))
      S->requestStop();
    Loop.join();
    C.close();
  }

  Client C;
  std::unique_ptr<Server> S;

private:
  std::thread Loop;
  clockid_t ServerClock{};
};

struct Setup {
  /// This run's directory: the trees, the socket and one cache per pass.
  fs::path Root;
  std::vector<Tree> Trees;
  std::vector<uint32_t> Order; ///< Seeded request order over Trees.
  std::string Socket;

  std::string cacheDir(const std::string &Name) const {
    return (Root / ("cache-" + Name)).string();
  }
};

/// Runs delete nothing while they run, and leave their directory behind:
/// on ext4 without a journal the inode allocator skips inodes deleted in
/// the last minute or more, one lookup each, so every file created after a
/// mass delete (a cache wiped between passes) costs up to 20x more, and
/// the cache writes this workload times drift from run to run. Instead each
/// pass gets a fresh cache directory and each run a fresh tree, about
/// 50 MB per run. Once more than this many runs have accumulated, the next
/// one removes them all before it starts.
constexpr size_t MaxKeptRuns = 40;

/// A fresh directory for this run, after pruning old ones.
fs::path newRunDir(const Options &Opts) {
  fs::path Base = fs::path(Opts.WorkDir) / "serve-edit";
  fs::create_directories(Base);
  std::vector<fs::path> Old;
  for (const fs::directory_entry &E : fs::directory_iterator(Base))
    Old.push_back(E.path());
  if (Old.size() >= MaxKeptRuns)
    for (const fs::path &P : Old)
      fs::remove_all(P);
  std::string Name = "run-" + std::to_string(::getpid()) + "-" +
                     std::to_string(uint64_t(wallNow() * 1e9));
  fs::create_directories(Base / Name);
  return Base / Name;
}

/// Generates the corpus, dumps it to disk and starts (then stops) a
/// daemon: the set-up timed by setup_s. The first set-up of a run creates
/// the files; later ones rewrite them in place.
void setUp(const Options &Opts, Setup &St) {
  const fs::path &Root = St.Root;
  SuiteOptions SO;
  SO.Seed = Opts.Seed;
  std::vector<ProjectSpec> Suite = buildBenchmarkSuite(SO);
  Rng R(Opts.Seed ^ 0x5e57e5e57ULL);
  St.Trees.clear();
  for (size_t I = 0; I != Suite.size(); ++I) {
    const ProjectSpec &P = Suite[I];
    Tree T;
    char Name[16];
    std::snprintf(Name, sizeof(Name), "p%03zu", I);
    T.Dir = (Root / "projects" / Name).string();
    T.Main = P.MainModule;
    T.KB = double(P.codeBytes()) / 1024.0;
    std::vector<std::string> App;
    for (const std::string &Path : P.Files.allPaths()) {
      writeFile(fs::path(T.Dir) / Path, P.Files.read(Path));
      if (Path.rfind("app/", 0) == 0)
        App.push_back(Path);
    }
    T.EditPath = App[R.below(App.size())];
    T.Original = P.Files.read(T.EditPath);
    St.Trees.push_back(std::move(T));
  }
  St.Order.resize(St.Trees.size());
  for (size_t I = 0; I != St.Order.size(); ++I)
    St.Order[I] = uint32_t(I);
  for (size_t I = St.Order.size(); I > 1; --I)
    std::swap(St.Order[I - 1], St.Order[R.below(I)]);
  // Relative to the working directory, to fit in sun_path's 108 bytes.
  St.Socket = fs::proximate(Root / "d.sock").string();
  Daemon D(St.Socket, St.cacheDir("setup"));
}

/// The requests of one pass per project, in order, with the number of
/// edits on disk when each is sent. The last one follows the restart.
struct Step {
  Kind K;
  unsigned Edits;
};
const Step Steps[] = {{Cold, 0}, {Edit, 1}, {Replay, 1}, {Edit, 2}, {Warm, 2}};
constexpr unsigned NumSteps = sizeof(Steps) / sizeof(Steps[0]);
constexpr unsigned MaxEdits = 2;

/// One request of a pass.
struct Request {
  uint8_t Seq; ///< Index into Steps.
  uint32_t Project;
  bool Passed;
  double RttMs;
  double CpuMs;    ///< Process CPU: the client and the serving thread.
  double HandleMs; ///< Serving-thread CPU (traced passes only).
};

/// One-shot reports of every tree after 0..MaxEdits edits; "" where the
/// reference itself failed a check.
using References = std::vector<std::array<std::string, MaxEdits + 1>>;

/// Sends request \p Seq for tree \p Id and checks the response against the
/// one-shot reference.
void analyze(Daemon &D, const Setup &St, const References &Refs, uint32_t Id,
             uint8_t Seq, Tracer *Tr, std::vector<Request> &Log) {
  const Tree &T = St.Trees[Id];
  const std::string &Want = Refs[Id][Steps[Seq].Edits];
  JsonValue Req = JsonValue::object(), Resp;
  Req.set("cmd", JsonValue::str("analyze"));
  Req.set("dir", JsonValue::str(T.Dir));
  Req.set("main", JsonValue::str(T.Main));
  std::string Err;
  double S0 = Tr ? D.serverCpu() : 0;
  double C0 = processCpuNow(), W0 = wallNow();
  bool Ok = false;
  {
    Scope Sp(Tr, KindSpans[Steps[Seq].K], Id);
    Ok = D.C.request(Req, Resp, Err);
  }
  double W1 = wallNow(), C1 = processCpuNow();
  double S1 = Tr ? D.serverCpu() : 0;
  Ok = Ok && Resp.boolField("ok") && Resp.stringField("outcome") == "ok" &&
       !Want.empty() && Resp.stringField("report") == Want;
  Log.push_back({Seq, Id, Ok, (W1 - W0) * 1e3, (C1 - C0) * 1e3,
                 (S1 - S0) * 1e3});
}

void addServeStats(ServeStats &Sum, const ServeStats &S) {
  Sum.Analyses += S.Analyses;
  Sum.ReplayHits += S.ReplayHits;
  Sum.Cache.Hits += S.Cache.Hits;
  Sum.Cache.Misses += S.Cache.Misses;
  Sum.Cache.Writes += S.Cache.Writes;
  Sum.Cache.BytesWritten += S.Cache.BytesWritten;
}

/// Runs pass \p Pass from a cold cache and unedited trees; \returns the
/// counters of both daemons.
ServeStats runPass(const Setup &St, const References &Refs, size_t Pass,
                   Tracer *Tr, std::vector<Request> &Log) {
  std::string CacheDir = St.cacheDir(std::to_string(Pass));
  for (const Tree &T : St.Trees)
    T.applyEdits(0);
  ServeStats Served;
  std::optional<Daemon> D;
  D.emplace(St.Socket, CacheDir);
  for (uint32_t I : St.Order)
    for (uint8_t Seq = 0; Seq + 1 != NumSteps; ++Seq) {
      if (Seq && Steps[Seq].Edits != Steps[Seq - 1].Edits)
        St.Trees[I].applyEdits(Steps[Seq].Edits);
      analyze(*D, St, Refs, I, Seq, Tr, Log);
    }
  D->stop();
  addServeStats(Served, D->S->stats());
  {
    Scope Sp(Tr, "serve.restart", 0);
    D.emplace(St.Socket, CacheDir);
  }
  for (uint32_t I : St.Order)
    analyze(*D, St, Refs, I, NumSteps - 1, Tr, Log);
  D->stop();
  addServeStats(Served, D->S->stats());
  return Served;
}

/// The fastest repetition of every (project, step) request: the machine's
/// speed drifts between phases of a few seconds, and the fastest repetition
/// is the one least disturbed by other tenants.
struct Best {
  std::vector<double> RttMs, CpuMs;
  std::vector<Kind> K;
  double PassedKB = 0;
};

Best bestOf(const std::vector<Request> &Log, const Setup &St) {
  std::map<std::pair<uint32_t, int>, size_t> Slot;
  std::vector<bool> Passed;
  Best B;
  for (const Request &R : Log) {
    auto [It, New] = Slot.try_emplace({R.Project, R.Seq}, B.RttMs.size());
    if (New) {
      B.RttMs.push_back(R.RttMs);
      B.CpuMs.push_back(R.CpuMs);
      B.K.push_back(Steps[R.Seq].K);
      Passed.push_back(R.Passed);
      B.PassedKB += R.Passed ? St.Trees[R.Project].KB : 0;
      continue;
    }
    size_t I = It->second;
    B.RttMs[I] = std::min(B.RttMs[I], R.RttMs);
    B.CpuMs[I] = std::min(B.CpuMs[I], R.CpuMs);
    if (Passed[I] && !R.Passed) {
      Passed[I] = false;
      B.PassedKB -= St.Trees[R.Project].KB;
    }
  }
  return B;
}

double sum(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return S;
}

void addEndToEnd(Result &Res, double SetupS, const Best &B) {
  Res.add("setup_s", SetupS, "s");
  Res.add("throughput_kB_s", B.PassedKB / (sum(B.RttMs) * 1e-3), "kB/s");
  Res.add("cpu_s", sum(B.CpuMs) * 1e-3, "s");
  addLatency(Res, B.RttMs);
  Res.add("peak_rss_MB", peakRssMB(), "MB");
  Res.add("passed_frac", Res.passedFrac(), "fraction");
  char Buf[160];
  for (int K = 0; K != NumKinds; ++K) {
    std::vector<double> V;
    for (size_t I = 0; I != B.K.size(); ++I)
      if (B.K[I] == K)
        V.push_back(B.RttMs[I]);
    std::snprintf(Buf, sizeof(Buf), "round trip p50 %-6s %8.3f ms",
                  KindNames[K], median(V));
    Res.note(Buf);
  }
}

void addLayers(Result &Res, const ServeStats &Sum, double Passes,
               const std::vector<Request> &Log, const Best &Traced,
               const Best &Plain) {
  uint64_t Lookups = Sum.Cache.Hits + Sum.Cache.Misses;
  Res.add("cache.hit_frac", Lookups ? double(Sum.Cache.Hits) / double(Lookups) : 0,
          "fraction");
  Res.add("cache.writes", double(Sum.Cache.Writes) / Passes, "count");
  Res.add("cache.bytes_written", double(Sum.Cache.BytesWritten) / Passes, "B");
  uint64_t Analyzes = Sum.Analyses + Sum.ReplayHits;
  Res.add("serve.replay_hit_frac",
          Analyzes ? double(Sum.ReplayHits) / double(Analyzes) : 0, "fraction");
  std::vector<double> Transport;
  for (const Request &R : Log)
    Transport.push_back(R.RttMs - R.HandleMs);
  Res.add("serve.transport_ms", median(Transport), "ms");
  for (int K = 0; K != NumKinds; ++K) {
    std::vector<double> H;
    for (const Request &R : Log)
      if (Steps[R.Seq].K == K)
        H.push_back(R.HandleMs);
    Res.add(std::string("serve.handle_ms.") + KindNames[K], median(H), "ms");
    Res.add(std::string("serve.requests.") + KindNames[K],
            double(H.size()) / Passes, "count");
  }
  Res.add("trace.overhead_frac", sum(Traced.RttMs) / sum(Plain.RttMs) - 1.0,
          "fraction");
}

} // namespace

Result perfbench::runServeEdit(const Options &Opts) {
  Setup St;
  St.Root = newRunDir(Opts);
  double S0 = wallNow();
  setUp(Opts, St);
  std::vector<double> SetupTimes{wallNow() - S0};

  Result Res;
  // References, computed outside the timed requests.
  References Refs(St.Trees.size());
  for (size_t I = 0; I != St.Trees.size(); ++I) {
    for (unsigned N = 0; N <= MaxEdits; ++N) {
      St.Trees[I].applyEdits(N);
      Refs[I][N] = oneShot(St.Trees[I], Res);
    }
    St.Trees[I].applyEdits(0);
  }

  // The traced run alternates traced and plain passes, so the spans' cost
  // shows as the difference between the two.
  Tracer Tr;
  ServeStats Served;
  std::vector<Request> Log, PlainLog;
  size_t Passes = 0;
  double Begin = wallNow();
  for (;;) {
    bool Traced = Opts.Trace && Passes % 2 == 0;
    std::vector<Request> &L = Opts.Trace && !Traced ? PlainLog : Log;
    size_t First = L.size();
    ServeStats P = runPass(St, Refs, Passes, Traced ? &Tr : nullptr, L);
    if (Traced)
      addServeStats(Served, P);
    ++Passes;
    for (size_t I = First; I != L.size(); ++I) {
      ++Res.Attempted;
      if (L[I].Passed)
        continue;
      if (++Res.Failed <= 5)
        Res.note(std::string("FAIL ") + KindNames[Steps[L[I].Seq].K] + " " +
                 St.Trees[L[I].Project].Dir);
    }
    for (unsigned K = 0;
         K != SetupsPerPass && SetupTimes.size() < SetupRepeats; ++K) {
      S0 = wallNow();
      setUp(Opts, St);
      SetupTimes.push_back(wallNow() - S0);
    }
    if (wallNow() - Begin >= Opts.Seconds &&
        SetupTimes.size() >= SetupRepeats && (!Opts.Trace || Passes % 2 == 0))
      break;
  }

  if (!Opts.Trace) {
    addEndToEnd(Res, median(SetupTimes), bestOf(Log, St));
  } else {
    addLayers(Res, Served, double((Passes + 1) / 2), Log, bestOf(Log, St),
              bestOf(PlainLog, St));
    std::string TracePath = Opts.WorkDir + "/trace-serve-edit.jsonl";
    Res.note(Tr.write(TracePath) ? "spans written to " + TracePath
                                 : "could not write " + TracePath);
  }
  Res.note("passes: " + std::to_string(Passes));
  return Res;
}
