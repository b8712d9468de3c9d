// atom_perfbench: runs one named workload and writes its raw samples as
// JSON for perfbench/run.py, which computes and prints the metrics.
//
//   atom_perfbench --workload microblog_trap|dialing_nizk|fleet_wan
//                  --seed N --seconds S --trace 0|1 --out raw.json
//                  [--trace-out trace.json]
//
// A run: generate identities from the seed; warm the cores; build the
// system under test several times (timing each build, keeping the last); build every
// submission from the seed; one warm-up of kRoundsInFlight rounds; then
// the timed closed loop. With --trace 1 the window is split: the first
// half runs dark, the second with obs::Trace and obs::SetTimingEnabled on,
// bracketed by registry snapshots; then the per-layer probes run and the
// Chrome trace is written. Every round's output is checked; the exit code
// is nonzero when any message was not delivered.
#include <sys/resource.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/workload.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/parallel.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args->seconds = std::stod(value);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--out") {
      args->out = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->out.empty() && args->seconds > 0;
}

// Peak gauges are process-lifetime maxima; zero them so the traced
// window's snapshot reports that window's peaks.
void ResetPeakGauges() {
  atom::obs::Registry& reg = atom::obs::Registry::Global();
  for (const auto& [name, value] : reg.Snapshot().gauges) {
    if (name.find("peak") != std::string::npos) {
      reg.GetGauge(name)->Set(0);
    }
  }
}

// Keeps every core busy for `seconds`. Virtual CPUs can come out of idle
// several times slower for about a second; without this, set-up would be
// timed on cold cores.
void WarmCores(double seconds) {
  const Clock::time_point until =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (size_t i = 0; i < atom::HardwareThreads(); i++) {
    threads.emplace_back([until] {
      uint64_t x = 1;
      while (Clock::now() < until) {
        for (int k = 0; k < 10000; k++) {
          x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        }
      }
      volatile uint64_t sink = x;
      (void)sink;
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

int Run(const Args& args) {
  std::unique_ptr<Workload> workload =
      args.workload == "fleet_wan"
          ? MakeFleetWorkload(args.seed)
          : MakeInProcessWorkload(args.workload, args.seed);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  std::printf("# seed %llu, build %s\n",
              static_cast<unsigned long long>(args.seed),
              PERFBENCH_BUILD_TYPE);
  workload->Describe(stdout);
  std::fflush(stdout);

  workload->PrepareIdentities();
  WarmCores(2.0);
  // At least kMinSetups set-ups, more while they take under kSetupBudget
  // in total, so a millisecond-scale set-up still gets a steady median.
  constexpr size_t kMinSetups = 5, kMaxSetups = 400;
  constexpr double kSetupBudget = 2.5;
  std::vector<double> setup_s;
  double setup_total = 0;
  while (setup_s.size() < kMinSetups ||
         (setup_total < kSetupBudget && setup_s.size() < kMaxSetups)) {
    if (!setup_s.empty()) {
      workload->Teardown();
    }
    const Clock::time_point t0 = Clock::now();
    workload->Setup();
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
    setup_total += setup_s.back();
  }
  workload->PrepareSubmissions();

  auto launch = [&](PhaseStats& intake) { return workload->Launch(intake); };
  const atom::Variant variant = workload->variant();
  // Warm-up: fill both pipeline slots once, untimed (lazy tables, first
  // connections, allocator growth).
  const PhaseStats warmup =
      RunClosedLoop(1e9, kRoundsInFlight, variant, launch);

  PhaseStats dark, traced;
  atom::obs::MetricsSnapshot before, after;
  ProbeValues probes;
  if (!args.trace) {
    dark = RunClosedLoop(args.seconds, 0, variant, launch);
  } else {
    dark = RunClosedLoop(args.seconds / 2, 0, variant, launch);
    ResetPeakGauges();
    before = atom::obs::Registry::Global().Snapshot();
    atom::obs::Trace::Clear();
    atom::obs::Trace::Enable();
    atom::obs::SetTimingEnabled(true);
    traced = RunClosedLoop(args.seconds / 2, 0, variant, launch);
    after = atom::obs::Registry::Global().Snapshot();
    workload->Probe(probes);
    atom::obs::SetTimingEnabled(false);
    atom::obs::Trace::Disable();
    if (!args.trace_out.empty() &&
        !atom::obs::Trace::WriteTo(args.trace_out)) {
      std::fprintf(stderr, "could not write %s\n", args.trace_out.c_str());
      return 1;
    }
  }
  const double rss_mb = PeakRssMb();
  workload->Teardown();

  std::FILE* f = std::fopen(args.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "could not write %s\n", args.out.c_str());
    return 1;
  }
  JsonWriter json(f);
  json.BeginObject();
  json.Str("workload", args.workload);
  json.Int("seed", args.seed);
  json.Str("build_type", PERFBENCH_BUILD_TYPE);
  json.Int("nproc", atom::HardwareThreads());
  json.NumArray("setup_s", setup_s);
  json.Num("peak_rss_mb", rss_mb);
  json.Phase("warmup", warmup);
  json.Phase("dark", dark);
  if (args.trace) {
    json.Phase("traced", traced);
    json.Snapshot("registry_before", before);
    json.Snapshot("registry_after", after);
    json.BeginObject("probes");
    for (const auto& [name, value] : probes) {
      json.Num(name.c_str(), value);
    }
    json.EndObject();
  }
  json.EndObject();
  std::fputc('\n', f);
  std::fclose(f);

  const uint64_t failed =
      warmup.failed() + dark.failed() + (args.trace ? traced.failed() : 0);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: atom_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --out FILE [--trace-out FILE]\n");
    return 2;
  }
  try {
    return perfbench::Run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "atom_perfbench: %s\n", e.what());
    return 1;
  }
}
