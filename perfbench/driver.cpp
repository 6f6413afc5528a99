//===- perfbench/driver.cpp - Timed legs of the TaskCheck benchmark -------===//
//
// Part of TaskCheck (CGO'16 atomicity-checker reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measuring half of the benchmark (run.py is the other half: it builds
/// this binary, picks the workload parameters, checks verdicts against the
/// reference and turns the raw samples printed here into metrics).
///
/// One run is: set-up (repeated, each repetition timed), then closed-loop
/// rounds until the time budget is spent. Every round runs each kernel,
/// in a seeded order, under each configuration, again in a seeded order:
///
///   none       ToolContext(none)       uninstrumented baseline
///   atomicity  ToolContext(atomicity)  the paper's checker, defaults
///   velodrome  ToolContext(velodrome)  the Velodrome baseline, defaults
///   record     TaskRuntime + TraceRecorder (never touches checker or dpst)
///
/// and then checks every trace file written at set-up (recordings of the
/// kernels plus the generated fleet) with runBatch(atomicity).
///
/// With --traced=1 the round adds the per-layer legs. Layer costs are
/// timed from outside the program: a forwarding ExecutionObserver sits
/// between the runtime and an engine built through the ToolRegistry and
/// times every callback by class; a no-op observer gives the cost of hook
/// dispatch alone. Trace files are additionally replayed one at a time with
/// the load, decode and check steps timed separately.
///
/// A fixed speed probe (SpeedProbe) runs before every set-up repetition and
/// every kernel of every round; run.py scales the end-to-end times by it.
/// run.py splits one run over a few driver processes (--part), each with
/// its share of the time budget, and pools their samples.
///
/// Output is one JSON document on stdout with the raw samples.
///
//===----------------------------------------------------------------------===//

#include <sys/mman.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "checker/ToolRegistry.h"
#include "instrument/ToolContext.h"
#include "obs/Metrics.h"
#include "runtime/TaskRuntime.h"
#include "trace/BatchReplay.h"
#include "trace/TraceCodec.h"
#include "trace/TraceGenerator.h"
#include "trace/TraceRecorder.h"
#include "trace/TraceReplayer.h"
#include "workloads/Workloads.h"

using namespace avc;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// CPU seconds used by every thread of this process so far.
double processCpuSeconds() {
  timespec Ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &Ts);
  return double(Ts.tv_sec) + double(Ts.tv_nsec) * 1e-9;
}

//===----------------------------------------------------------------------===//
// Minimal JSON emission
//===----------------------------------------------------------------------===//

std::string jsonNum(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string jsonStr(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      continue;
    Out += C;
  }
  return Out + "\"";
}

class JsonObj {
public:
  JsonObj &num(const std::string &K, double V) { return raw(K, jsonNum(V)); }
  JsonObj &str(const std::string &K, const std::string &V) {
    return raw(K, jsonStr(V));
  }
  JsonObj &raw(const std::string &K, const std::string &Json) {
    Body += (Body.empty() ? "" : ",") + jsonStr(K) + ":" + Json;
    return *this;
  }
  std::string done() const { return "{" + Body + "}"; }

private:
  std::string Body;
};

std::string jsonArray(const std::vector<std::string> &Items) {
  std::string Out = "[";
  for (size_t I = 0; I < Items.size(); ++I)
    Out += (I ? "," : "") + Items[I];
  return Out + "]";
}

std::string jsonStats(const std::map<std::string, double> &Stats) {
  JsonObj O;
  for (const auto &[K, V] : Stats)
    O.num(K, V);
  return O.done();
}

//===----------------------------------------------------------------------===//
// Observers used by the traced legs
//===----------------------------------------------------------------------===//

/// Callback classes the forwarder times separately. Spawn, sync, group
/// wait, task begin and task end are where the DPST grows; program start
/// and site registration are where the engine takes in the site registry.
enum LayerClass : unsigned { Access, Lock, Struct, Start, End, NumClasses };
const char *const LayerClassNames[NumClasses] = {"access", "lock", "struct",
                                                 "start", "end"};

/// Per-access durations are kept at 1 ns resolution up to this bound.
constexpr size_t HistBuckets = 16384;

struct ThreadTally {
  uint64_t Ns[NumClasses] = {};
  uint64_t Count[NumClasses] = {};
  std::vector<uint32_t> AccessHist = std::vector<uint32_t>(HistBuckets);
};

struct LayerTotals {
  uint64_t Ns[NumClasses] = {};
  uint64_t Count[NumClasses] = {};
  std::vector<uint64_t> AccessHist = std::vector<uint64_t>(HistBuckets);
};

/// Passes every callback through to \p Inner and charges its duration to
/// the callback's class. Tallies are per thread, so the timing adds no
/// shared writes to the contended 4-worker runs.
class TimingForwarder final : public ExecutionObserver {
public:
  explicit TimingForwarder(ExecutionObserver &Inner)
      : Inner(Inner), Id(NextId.fetch_add(1) + 1) {}

  void onProgramStart(TaskId Root) override {
    Timed T(local(), Start);
    Inner.onProgramStart(Root);
  }
  void onProgramEnd() override {
    Timed T(local(), End);
    Inner.onProgramEnd();
  }
  void onTaskSpawn(TaskId Parent, const void *Tag, TaskId Child) override {
    Timed T(local(), Struct);
    Inner.onTaskSpawn(Parent, Tag, Child);
  }
  void onTaskExecuteBegin(TaskId Task) override {
    Timed T(local(), Struct);
    Inner.onTaskExecuteBegin(Task);
  }
  void onTaskEnd(TaskId Task) override {
    Timed T(local(), Struct);
    Inner.onTaskEnd(Task);
  }
  void onSync(TaskId Task) override {
    Timed T(local(), Struct);
    Inner.onSync(Task);
  }
  void onGroupWait(TaskId Task, const void *Tag) override {
    Timed T(local(), Struct);
    Inner.onGroupWait(Task, Tag);
  }
  void onLockAcquire(TaskId Task, LockId Lock) override {
    Timed T(local(), LayerClass::Lock);
    Inner.onLockAcquire(Task, Lock);
  }
  void onLockRelease(TaskId Task, LockId Lock) override {
    Timed T(local(), LayerClass::Lock);
    Inner.onLockRelease(Task, Lock);
  }
  void onRead(TaskId Task, MemAddr Addr) override {
    Timed T(local(), Access);
    Inner.onRead(Task, Addr);
  }
  void onWrite(TaskId Task, MemAddr Addr) override {
    Timed T(local(), Access);
    Inner.onWrite(Task, Addr);
  }
  void onSiteRegister(MemAddr Base, uint64_t Size, uint32_t Stride) override {
    Timed T(local(), Start);
    Inner.onSiteRegister(Base, Size, Stride);
  }

  /// Sum over every thread that delivered a callback. Call after the run.
  LayerTotals totals() const {
    LayerTotals Out;
    std::lock_guard<std::mutex> Guard(TalliesLock);
    for (const auto &T : Tallies) {
      for (unsigned C = 0; C < NumClasses; ++C) {
        Out.Ns[C] += T->Ns[C];
        Out.Count[C] += T->Count[C];
      }
      for (size_t B = 0; B < HistBuckets; ++B)
        Out.AccessHist[B] += T->AccessHist[B];
    }
    return Out;
  }

private:
  struct Timed {
    ThreadTally &Tally;
    LayerClass Class;
    Clock::time_point Begin;
    Timed(ThreadTally &Tally, LayerClass Class)
        : Tally(Tally), Class(Class), Begin(Clock::now()) {}
    ~Timed() {
      uint64_t Ns = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               Begin)
              .count());
      Tally.Ns[Class] += Ns;
      ++Tally.Count[Class];
      if (Class == Access)
        ++Tally.AccessHist[std::min<uint64_t>(Ns, HistBuckets - 1)];
    }
  };

  ThreadTally &local() {
    // Forwarders are short-lived and may reuse an address, so the cache is
    // keyed by a process-unique id rather than by `this`.
    thread_local uint64_t CachedId = 0;
    thread_local ThreadTally *Cached = nullptr;
    if (CachedId != Id) {
      std::lock_guard<std::mutex> Guard(TalliesLock);
      Tallies.push_back(std::make_unique<ThreadTally>());
      Cached = Tallies.back().get();
      CachedId = Id;
    }
    return *Cached;
  }

  static inline std::atomic<uint64_t> NextId{0};
  ExecutionObserver &Inner;
  const uint64_t Id;
  mutable std::mutex TalliesLock; ///< guards Tallies (once per thread)
  std::vector<std::unique_ptr<ThreadTally>> Tallies;
};

/// Receives every callback and does nothing: the run's extra time over the
/// uninstrumented one is the cost of delivering the hooks.
class NoOpObserver final : public ExecutionObserver {
public:
  void onProgramStart(TaskId) override {}
  void onProgramEnd() override {}
  void onTaskSpawn(TaskId, const void *, TaskId) override {}
  void onTaskExecuteBegin(TaskId) override {}
  void onTaskEnd(TaskId) override {}
  void onSync(TaskId) override {}
  void onGroupWait(TaskId, const void *) override {}
  void onLockAcquire(TaskId, LockId) override {}
  void onLockRelease(TaskId, LockId) override {}
  void onRead(TaskId, MemAddr) override {}
  void onWrite(TaskId, MemAddr) override {}
  void onSiteRegister(MemAddr, uint64_t, uint32_t) override {}
};

/// Median cost of one back-to-back pair of clock reads; the forwarder's
/// per-callback figures carry this much timing cost each.
double calibrateClockNs() {
  std::vector<double> Samples(20001);
  for (double &S : Samples) {
    Clock::time_point A = Clock::now();
    Clock::time_point B = Clock::now();
    S = std::chrono::duration<double, std::nano>(B - A).count();
  }
  std::nth_element(Samples.begin(), Samples.begin() + Samples.size() / 2,
                   Samples.end());
  return Samples[Samples.size() / 2];
}

//===----------------------------------------------------------------------===//
// Machine-speed probe
//===----------------------------------------------------------------------===//

/// A fixed piece of work that does not touch TaskCheck: a pointer chase
/// over a shared 16 MiB cycle, page faults on a fresh 4 MiB mapping, an
/// open-addressing table of 2^16 slots and an integer mixing loop, done at
/// once by as many threads as the workload has workers. The shared host
/// this benchmark runs on changes speed by tens of percent over minutes
/// while every kernel and config moves together, so run.py scales each
/// run's times by this probe's.
class SpeedProbe {
public:
  explicit SpeedProbe(unsigned Threads)
      : Next(size_t(1) << 22), Tables(Threads), Sinks(Threads) {
    // Sattolo's shuffle: one cycle through every slot, so the chase
    // cannot settle into a short loop that fits in cache.
    std::mt19937_64 Rng(0x5eed);
    for (uint32_t I = 0; I < Next.size(); ++I)
      Next[I] = I;
    for (size_t I = Next.size() - 1; I > 0; --I)
      std::swap(Next[I], Next[Rng() % I]);
    for (std::vector<uint64_t> &T : Tables)
      T.resize(size_t(1) << 16);
  }

  /// Wall seconds until every thread has done its share.
  double run() {
    Clock::time_point Start = Clock::now();
    std::vector<std::thread> Helpers;
    for (unsigned T = 1; T < Tables.size(); ++T)
      Helpers.emplace_back([this, T] { work(T); });
    work(0);
    for (std::thread &H : Helpers)
      H.join();
    return secondsSince(Start);
  }

private:
  void work(unsigned T) {
    uint32_t At = uint32_t(T * (Next.size() / Tables.size()));
    for (unsigned I = 0; I < (1u << 16); ++I)
      At = Next[At];
    // The checker's shadow memory is fresh for every run, so its cost
    // includes the kernel's page-fault path; so does the probe's.
    const size_t MapBytes = size_t(4) << 20;
    void *Map = mmap(nullptr, MapBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (Map != MAP_FAILED) {
      for (size_t Off = 0; Off < MapBytes; Off += 4096)
        static_cast<volatile char *>(Map)[Off] = char(Off >> 12);
      munmap(Map, MapBytes);
    }
    std::vector<uint64_t> &Table = Tables[T];
    std::fill(Table.begin(), Table.end(), 0);
    const uint64_t Mask = Table.size() - 1;
    uint64_t H = At + 1, Found = 0;
    for (unsigned I = 0; I < (1u << 16); ++I) {
      H = H * 0x9e3779b97f4a7c15ULL + 0x632be59bd9b4e019ULL;
      uint64_t Key = (H >> 20) | 1;
      uint64_t Slot = (Key * 0xff51afd7ed558ccdULL) >> 48 & Mask;
      while (Table[Slot] != 0 && Table[Slot] != Key)
        Slot = (Slot + 1) & Mask;
      if (Table[Slot] == Key)
        ++Found;
      else if (I % 4 == 0) // at most 2^14 keys: the table stays 3/4 empty
        Table[Slot] = Key;
    }
    for (unsigned I = 0; I < (1u << 20); ++I)
      H ^= (H << 13) ^ (H >> 7) ^ (H << 17) ^ I;
    Sinks[T].Value = H + Found + At;
  }

  struct alignas(64) Sink {
    volatile uint64_t Value = 0;
  };
  std::vector<uint32_t> Next; ///< read-only once built; shared by threads
  std::vector<std::vector<uint64_t>> Tables;
  std::vector<Sink> Sinks;
};

std::string layerJson(const LayerTotals &T) {
  JsonObj Ns, Count;
  for (unsigned C = 0; C < NumClasses; ++C) {
    Ns.num(LayerClassNames[C], double(T.Ns[C]));
    Count.num(LayerClassNames[C], double(T.Count[C]));
  }
  // The access-time histogram is sent sparsely: [ns, count] pairs.
  std::vector<std::string> Hist;
  for (size_t B = 0; B < HistBuckets; ++B)
    if (T.AccessHist[B])
      Hist.push_back("[" + std::to_string(B) + "," +
                     std::to_string(T.AccessHist[B]) + "]");
  return JsonObj()
      .raw("ns", Ns.done())
      .raw("count", Count.done())
      .raw("access_hist", jsonArray(Hist))
      .done();
}

//===----------------------------------------------------------------------===//
// Live legs
//===----------------------------------------------------------------------===//

struct Params {
  std::string WorkDir;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Traced = false;
  unsigned Workers = 1;
  double Scale = 1;
  unsigned Fleet = 0;
  /// Which of the run's driver processes this is. Each part shuffles the
  /// kernels in its own order. Only part 0 runs the set-up checks: the
  /// generated fleet, whose set-up verdicts the batch checks use, depends on
  /// the seed alone, so it is the same in every part.
  unsigned Part = 0;
};

/// Set-up repetitions per driver process; setup_s is the median over every
/// process of the run.
constexpr unsigned SetupReps = 2;
/// Each (kernel, config) cell repeats until this much time has passed.
constexpr double MinCellSeconds = 0.02;

enum class Config {
  None,
  Atomicity,
  Velodrome,
  Record,
  NoOp,
  AtomicityTraced,
  VelodromeTraced
};

const char *configName(Config C) {
  switch (C) {
  case Config::None:
    return "none";
  case Config::Atomicity:
    return "atomicity";
  case Config::Velodrome:
    return "velodrome";
  case Config::Record:
    return "record";
  case Config::NoOp:
    return "noop";
  case Config::AtomicityTraced:
    return "atomicity_traced";
  case Config::VelodromeTraced:
    return "velodrome_traced";
  }
  return "?";
}

double counterValue(const char *Name) {
  metrics::Snapshot S = metrics::MetricsRegistry::instance().snapshot();
  const metrics::MetricSample *M = S.find(Name);
  return M ? M->Value : 0;
}

std::map<std::string, double> toolStats(const CheckerTool &Tool) {
  std::map<std::string, double> Stats;
  Tool.visitStats([&](const char *K, double V) { Stats[K] = V; });
  return Stats;
}

/// One execution of a kernel under one configuration.
struct RunResult {
  double Seconds = 0;
  double CpuSeconds = 0;
  std::map<std::string, double> Stats;
  bool HasLayers = false;
  LayerTotals Layers;
};

RunResult runOnce(const workloads::Workload &W, Config C, const Params &P) {
  RunResult R;
  auto Timed = [&](auto &&Run) {
    double Cpu0 = processCpuSeconds();
    Clock::time_point Start = Clock::now();
    Run();
    R.Seconds = secondsSince(Start);
    R.CpuSeconds = processCpuSeconds() - Cpu0;
  };
  auto Body = [&] { W.Run(P.Scale); };
  double Tasks0 = counterValue(metrics::names::RuntimeTasksTotal);
  double Steals0 = counterValue(metrics::names::RuntimeStealsTotal);

  switch (C) {
  case Config::None:
  case Config::Atomicity:
  case Config::Velodrome: {
    ToolContext::Options Opts;
    Opts.Tool = C == Config::None        ? ToolKind::None
                : C == Config::Atomicity ? ToolKind::Atomicity
                                         : ToolKind::Velodrome;
    Opts.Checker.NumThreads = P.Workers;
    ToolContext Tool(Opts);
    Timed([&] { Tool.run(Body); });
    if (Tool.tool())
      R.Stats = toolStats(*Tool.tool());
    break;
  }
  case Config::Record:
  case Config::NoOp: {
    // Observers are declared before the runtime so they outlive its
    // worker threads.
    TraceRecorder Recorder;
    NoOpObserver NoOp;
    TaskRuntime::Options RtOpts;
    RtOpts.NumThreads = P.Workers;
    TaskRuntime RT(RtOpts);
    if (C == Config::Record)
      RT.addObserver(&Recorder);
    else
      RT.addObserver(&NoOp);
    Timed([&] { RT.run(Body); });
    if (C == Config::Record) {
      R.Stats["events"] = double(Recorder.stats().NumEvents);
      R.Stats["contended_merges"] = double(Recorder.stats().NumContendedMerges);
    }
    break;
  }
  case Config::AtomicityTraced:
  case Config::VelodromeTraced: {
    ToolOptions Opts;
    Opts.NumThreads = P.Workers;
    const ToolRegistration *Reg = ToolRegistry::instance().find(
        C == Config::AtomicityTraced ? ToolKind::Atomicity
                                     : ToolKind::Velodrome);
    std::unique_ptr<CheckerTool> Tool = Reg->Factory(Opts, nullptr);
    TimingForwarder Forwarder(*Tool);
    TaskRuntime::Options RtOpts;
    RtOpts.NumThreads = P.Workers;
    TaskRuntime RT(RtOpts);
    RT.addObserver(&Forwarder);
    Timed([&] { RT.run(Body); });
    R.Stats = toolStats(*Tool);
    R.HasLayers = true;
    R.Layers = Forwarder.totals();
    break;
  }
  }
  R.Stats["runtime_tasks"] =
      counterValue(metrics::names::RuntimeTasksTotal) - Tasks0;
  R.Stats["runtime_steals"] =
      counterValue(metrics::names::RuntimeStealsTotal) - Steals0;
  return R;
}

/// Repeats a kernel under one configuration until MinCellSeconds have
/// passed, so that the 2-3 ms kernels are not timed from a single run.
/// Counts (the verdict and checker statistics) are taken from the first
/// repetition; `consistent` records whether every repetition agreed on the
/// verdict and the location count. Read and write counts are left out of
/// that comparison: delrefine's worklist does schedule-dependent work.
std::string runCell(unsigned Round, const workloads::Workload &W, Config C,
                    const Params &P) {
  std::vector<double> Times;
  RunResult First;
  bool Consistent = true;
  double Total = 0, TotalCpu = 0;
  do {
    RunResult R = runOnce(W, C, P);
    Times.push_back(R.Seconds);
    Total += R.Seconds;
    TotalCpu += R.CpuSeconds;
    if (Times.size() == 1) {
      First = std::move(R);
    } else {
      for (const char *K : {"violations", "locations"}) {
        auto A = First.Stats.find(K), B = R.Stats.find(K);
        if (A != First.Stats.end() && B != R.Stats.end() &&
            A->second != B->second)
          Consistent = false;
      }
    }
  } while (Total < MinCellSeconds);

  JsonObj O;
  O.num("round", Round)
      .str("kernel", W.Name)
      .str("config", configName(C))
      .num("s", Total / double(Times.size()))
      .raw("rep_s", jsonArray([&] {
             std::vector<std::string> Out;
             for (double T : Times)
               Out.push_back(jsonNum(T));
             return Out;
           }()))
      .num("cpu_s", TotalCpu / double(Times.size()))
      .num("reps", double(Times.size()))
      .raw("consistent", Consistent ? "true" : "false")
      .raw("stats", jsonStats(First.Stats));
  if (First.HasLayers)
    O.raw("layers", layerJson(First.Layers));
  return O.done();
}

//===----------------------------------------------------------------------===//
// Set-up: recordings and the generated fleet
//===----------------------------------------------------------------------===//

/// A trace file written at set-up, with what checking it must give.
struct TraceFile {
  std::string Name;
  std::string Path;
  bool Generated = false;
  uint64_t Events = 0;
  uint64_t Bytes = 0;
  /// Generated traces: violations found when the written trace was
  /// replayed at set-up. Recordings: checked by run.py against the live
  /// verdict instead.
  uint64_t ExpectedViolations = 0;
};

bool writeFile(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  return static_cast<bool>(Out);
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::stringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// Replays \p Events through a fresh atomicity checker that keeps every
/// report, so violationKeys() is the complete violating-location set (the
/// default retention cap keeps the first 4096 reports only).
std::unique_ptr<CheckerTool> replayAtomicity(const Trace &Events) {
  ToolOptions Opts;
  Opts.MaxRetainedReports = std::numeric_limits<size_t>::max();
  std::unique_ptr<CheckerTool> Tool =
      ToolRegistry::instance().find(ToolKind::Atomicity)->Factory(Opts,
                                                                  nullptr);
  replayTraceTwoPass(Events, *Tool);
  return Tool;
}

/// Generator knobs for fleet program \p Index: the seed varies tasks,
/// locations, lock fraction and write fraction.
TraceGenOptions fleetOptions(uint64_t Seed, unsigned Index) {
  std::mt19937_64 Rng(Seed * 1000003ULL + Index);
  auto Uniform = [&](double Lo, double Hi) {
    return std::uniform_real_distribution<double>(Lo, Hi)(Rng);
  };
  TraceGenOptions Opts;
  Opts.Seed = Rng();
  Opts.NumTasks = 64 + uint32_t(Rng() % 448);
  Opts.NumLocations = 4 + uint32_t(Rng() % 61);
  Opts.NumLocks = 1 + uint32_t(Rng() % 8);
  Opts.LockedFraction = Uniform(0.1, 0.6);
  Opts.WriteFraction = Uniform(0.2, 0.7);
  return Opts;
}

/// Stopwatch whose paused intervals are left out of the total.
class Stopwatch {
public:
  void pause() { Total += secondsSince(Begin); }
  void resume() { Begin = Clock::now(); }
  double seconds() const { return Total; }

private:
  Clock::time_point Begin = Clock::now();
  double Total = 0;
};

struct Setup {
  std::vector<TraceFile> Files;
  std::vector<std::string> Verify; ///< JSON rows, from the last repetition
  std::vector<double> Seconds;     ///< one per repetition
};

/// One set-up repetition: record every kernel, encode it and write it;
/// generate, linearise, encode and write the fleet. When \p Verify is set
/// the checks run too, on a paused stopwatch.
double setupOnce(const Params &P, Setup &S, bool Verify) {
  S.Files.clear();
  size_t NumKernels = 0;
  const workloads::Workload *Kernels = workloads::allWorkloads(NumKernels);
  Stopwatch Watch;

  for (size_t K = 0; K < NumKernels; ++K) {
    TraceRecorder Recorder;
    TaskRuntime::Options RtOpts;
    RtOpts.NumThreads = P.Workers;
    TaskRuntime RT(RtOpts);
    RT.addObserver(&Recorder);
    RT.run([&] { Kernels[K].Run(P.Scale); });
    std::string Bytes = encodeTrace(Recorder.trace());
    TraceFile F;
    F.Name = Kernels[K].Name;
    F.Path = P.WorkDir + "/rec-" + F.Name + ".avct";
    F.Events = Recorder.trace().size();
    F.Bytes = Bytes.size();
    if (!writeFile(F.Path, Bytes)) {
      std::fprintf(stderr, "error: cannot write %s\n", F.Path.c_str());
      std::exit(1);
    }
    if (Verify) {
      Watch.pause();
      std::optional<Trace> Back = decodeTrace(readFile(F.Path));
      bool RoundTrip = Back && *Back == Recorder.trace();
      std::unique_ptr<CheckerTool> Tool = replayAtomicity(Recorder.trace());
      uint64_t Reads = 0, Writes = 0;
      for (const TraceEvent &E : Recorder.trace()) {
        Reads += E.Kind == TraceEventKind::Read;
        Writes += E.Kind == TraceEventKind::Write;
      }
      S.Verify.push_back(JsonObj()
                             .str("kind", "recording")
                             .str("name", F.Name)
                             .num("events", double(F.Events))
                             .num("trace_reads", double(Reads))
                             .num("trace_writes", double(Writes))
                             .raw("roundtrip", RoundTrip ? "true" : "false")
                             .raw("replay", jsonStats(toolStats(*Tool)))
                             .done());
      Watch.resume();
    }
    S.Files.push_back(F);
  }

  for (unsigned I = 0; I < P.Fleet; ++I) {
    TraceGenOptions Opts = fleetOptions(P.Seed, I);
    GenProgram Program = generateProgram(Opts);
    Trace Events = linearizeRandom(Program, Opts.Seed ^ 0x9e3779b97f4a7c15ULL);
    std::string Bytes = encodeTrace(Events);
    TraceFile F;
    F.Name = "gen-" + std::to_string(I);
    F.Path = P.WorkDir + "/" + F.Name + ".avct";
    F.Generated = true;
    F.Events = Events.size();
    F.Bytes = Bytes.size();
    if (!writeFile(F.Path, Bytes)) {
      std::fprintf(stderr, "error: cannot write %s\n", F.Path.c_str());
      std::exit(1);
    }
    if (Verify) {
      // Schedule independence: the violating-location set must not depend
      // on which linearisation of the program was observed.
      Watch.pause();
      std::optional<Trace> Back = decodeTrace(readFile(F.Path));
      bool RoundTrip = Back && *Back == Events;
      std::unique_ptr<CheckerTool> Written = replayAtomicity(Events);
      std::set<MemAddr> Keys = Written->violationKeys();
      bool SameSets =
          replayAtomicity(linearizeSerial(Program))->violationKeys() == Keys &&
          replayAtomicity(linearizeRandom(Program, Opts.Seed + 17))
                  ->violationKeys() == Keys;
      F.ExpectedViolations = Written->numViolations();
      S.Verify.push_back(
          JsonObj()
              .str("kind", "generated")
              .str("name", F.Name)
              .num("events", double(F.Events))
              .num("tasks", Opts.NumTasks)
              .num("locations", Opts.NumLocations)
              .num("violations", double(F.ExpectedViolations))
              .num("violating_locations", double(Keys.size()))
              .raw("roundtrip", RoundTrip ? "true" : "false")
              .raw("schedule_independent", SameSets ? "true" : "false")
              .done());
      Watch.resume();
    }
    S.Files.push_back(F);
  }
  Watch.pause();
  return Watch.seconds();
}

//===----------------------------------------------------------------------===//
// Replay legs
//===----------------------------------------------------------------------===//

std::string runBatchLeg(unsigned Round, const std::vector<TraceFile> &Files,
                        std::mt19937_64 &Rng, const Params &P) {
  std::vector<size_t> Order(Files.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  std::shuffle(Order.begin(), Order.end(), Rng);
  std::vector<std::string> Paths;
  for (size_t I : Order)
    Paths.push_back(Files[I].Path);

  BatchOptions Opts;
  Opts.Tool = ToolKind::Atomicity;
  Opts.NumWorkers = P.Workers;
  BatchResult Result = runBatch(Paths, Opts);

  std::vector<std::string> Rows;
  for (size_t J = 0; J < Order.size(); ++J) {
    const TraceFile &F = Files[Order[J]];
    const BatchTraceResult &T = Result.Traces[J];
    Rows.push_back(JsonObj()
                       .str("name", F.Name)
                       .raw("generated", F.Generated ? "true" : "false")
                       .raw("ok", T.ok() ? "true" : "false")
                       .num("events", double(T.NumEvents))
                       .num("expected_events", double(F.Events))
                       .num("violations", double(T.NumViolations))
                       .num("bytes", double(F.Bytes))
                       .num("wall_ms", T.WallMs)
                       .num("decode_ms", T.DecodeMs)
                       .num("check_ms", T.CheckMs)
                       .done());
  }
  return JsonObj()
      .num("round", Round)
      .num("wall_s", Result.WallMs * 1e-3)
      .raw("traces", jsonArray(Rows))
      .done();
}

/// Traced replay of every file, one at a time: the untraced checkTraceFile
/// wall next to the same work split into load, decode, hook dispatch
/// (replay into a no-op observer) and the engine's callback classes.
std::string runTracedReplayLeg(unsigned Round,
                               const std::vector<TraceFile> &Files) {
  std::vector<std::string> Rows;
  BatchOptions Opts;
  Opts.Tool = ToolKind::Atomicity;
  for (const TraceFile &F : Files) {
    BatchTraceResult Untraced = checkTraceFile(F.Path, Opts);

    Clock::time_point T0 = Clock::now();
    std::string Bytes = readFile(F.Path);
    double LoadS = secondsSince(T0);
    T0 = Clock::now();
    std::optional<Trace> Events = parseTraceAuto(Bytes);
    double DecodeS = secondsSince(T0);
    if (!Events) {
      std::fprintf(stderr, "error: cannot decode %s\n", F.Path.c_str());
      std::exit(1);
    }
    T0 = Clock::now();
    std::string Encoded = encodeTrace(*Events);
    double EncodeS = secondsSince(T0);

    NoOpObserver NoOp;
    T0 = Clock::now();
    replayTrace(*Events, NoOp);
    double DispatchS = secondsSince(T0);

    ToolOptions ToolOpts;
    T0 = Clock::now();
    std::unique_ptr<CheckerTool> Tool =
        ToolRegistry::instance().find(ToolKind::Atomicity)->Factory(ToolOpts,
                                                                    nullptr);
    double BuildS = secondsSince(T0);
    TimingForwarder Forwarder(*Tool);
    T0 = Clock::now();
    replayTrace(*Events, Forwarder);
    double TracedCheckS = secondsSince(T0);

    Rows.push_back(JsonObj()
                       .str("name", F.Name)
                       .raw("generated", F.Generated ? "true" : "false")
                       .num("events", double(Events->size()))
                       .num("bytes", double(Bytes.size()))
                       .num("violations", double(Tool->numViolations()))
                       .raw("roundtrip", Encoded == Bytes ? "true" : "false")
                       .num("untraced_wall_s", Untraced.WallMs * 1e-3)
                       .num("load_s", LoadS)
                       .num("decode_s", DecodeS)
                       .num("encode_s", EncodeS)
                       .num("dispatch_s", DispatchS)
                       .num("build_s", BuildS)
                       .num("traced_check_s", TracedCheckS)
                       .raw("stats", jsonStats(toolStats(*Tool)))
                       .raw("layers", layerJson(Forwarder.totals()))
                       .done());
  }
  return JsonObj().num("round", Round).raw("traces", jsonArray(Rows)).done();
}

//===----------------------------------------------------------------------===//
// main
//===----------------------------------------------------------------------===//

bool parseArgs(int Argc, char **Argv, Params &P) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    size_t Eq = A.find('=');
    if (A.rfind("--", 0) != 0 || Eq == std::string::npos) {
      std::fprintf(stderr, "error: expected --key=value, got '%s'\n", Argv[I]);
      return false;
    }
    std::string K = A.substr(2, Eq - 2), V = A.substr(Eq + 1);
    char *End = nullptr;
    double D = std::strtod(V.c_str(), &End);
    bool Numeric = End && *End == '\0' && !V.empty();
    if (K == "work-dir") {
      P.WorkDir = V;
      continue;
    }
    if (!Numeric || D < 0) {
      std::fprintf(stderr, "error: bad value for --%s: '%s'\n", K.c_str(),
                   V.c_str());
      return false;
    }
    if (K == "seed")
      P.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (K == "seconds")
      P.Seconds = D;
    else if (K == "traced")
      P.Traced = D != 0;
    else if (K == "workers")
      P.Workers = std::max(1u, unsigned(D));
    else if (K == "scale")
      P.Scale = D;
    else if (K == "fleet")
      P.Fleet = unsigned(D);
    else if (K == "part")
      P.Part = unsigned(D);
    else {
      std::fprintf(stderr, "error: unknown option --%s\n", K.c_str());
      return false;
    }
  }
  if (P.WorkDir.empty()) {
    std::fprintf(stderr, "error: --work-dir is required\n");
    return false;
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  Params P;
  if (!parseArgs(Argc, Argv, P))
    return 2;
  std::error_code Ec;
  std::filesystem::create_directories(P.WorkDir, Ec);
  if (Ec) {
    std::fprintf(stderr, "error: cannot create %s\n", P.WorkDir.c_str());
    return 1;
  }

  // The probe runs before every set-up repetition and before every kernel
  // of every round, so its samples cover the same stretch of time as the
  // samples they scale.
  SpeedProbe Probe(P.Workers);
  std::vector<double> SetupProbeS, ProbeS;
  Setup S;
  for (unsigned R = 0; R < SetupReps; ++R) {
    SetupProbeS.push_back(Probe.run());
    S.Seconds.push_back(setupOnce(P, S, P.Part == 0 && R + 1 == SetupReps));
  }

  size_t NumKernels = 0;
  const workloads::Workload *Kernels = workloads::allWorkloads(NumKernels);
  std::mt19937_64 Rng(P.Seed ^ (uint64_t(P.Part) << 32));
  std::vector<Config> Configs = {Config::None, Config::Atomicity,
                                 Config::Velodrome, Config::Record};
  if (P.Traced)
    Configs = {Config::None, Config::NoOp, Config::Atomicity,
               Config::AtomicityTraced, Config::VelodromeTraced,
               Config::Record};
  double ClockNs = calibrateClockNs();

  std::vector<std::string> Cells, Batches, Replays;
  Clock::time_point Start = Clock::now();
  unsigned Round = 0;
  do {
    std::vector<size_t> Order(NumKernels);
    for (size_t I = 0; I < NumKernels; ++I)
      Order[I] = I;
    std::shuffle(Order.begin(), Order.end(), Rng);
    for (size_t K : Order) {
      ProbeS.push_back(Probe.run());
      std::vector<Config> Cs = Configs;
      std::shuffle(Cs.begin(), Cs.end(), Rng);
      for (Config C : Cs)
        Cells.push_back(runCell(Round, Kernels[K], C, P));
    }
    // With more than one worker the batch wall depends on when the longest
    // traces start, so such rounds take three batches, each in its own
    // seeded order.
    for (unsigned B = 0; B < (P.Workers > 1 ? 3u : 1u); ++B)
      Batches.push_back(runBatchLeg(Round, S.Files, Rng, P));
    if (P.Traced)
      Replays.push_back(runTracedReplayLeg(Round, S.Files));
    ++Round;
    // Stop where the run comes closest to the budget: a further round is
    // started only if at least half of it fits.
  } while (secondsSince(Start) * (1 + 0.5 / Round) < P.Seconds);
  double MeasureS = secondsSince(Start);

  for (const TraceFile &F : S.Files)
    std::filesystem::remove(F.Path, Ec);

  struct rusage Usage;
  getrusage(RUSAGE_SELF, &Usage);
  auto Numbers = [](const std::vector<double> &Values) {
    std::vector<std::string> Out;
    for (double V : Values)
      Out.push_back(jsonNum(V));
    return jsonArray(Out);
  };

  std::printf("%s\n",
              JsonObj()
                  .num("workers", P.Workers)
                  .num("scale", P.Scale)
                  .num("fleet", P.Fleet)
                  .num("rounds", Round)
                  .num("measure_s", MeasureS)
                  .num("clock_pair_ns", ClockNs)
                  .num("peak_rss_kb", double(Usage.ru_maxrss))
                  .str("compiler", __VERSION__)
                  .str("cxx_flags", PERFBENCH_CXX_FLAGS)
                  .raw("setup_s", Numbers(S.Seconds))
                  .raw("setup_probe_s", Numbers(SetupProbeS))
                  .raw("probe_s", Numbers(ProbeS))
                  .raw("verify", jsonArray(S.Verify))
                  .raw("cells", jsonArray(Cells))
                  .raw("batches", jsonArray(Batches))
                  .raw("replays", jsonArray(Replays))
                  .done()
                  .c_str());
  return 0;
}
