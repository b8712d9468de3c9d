// Shared pieces of the benchmark driver: clocks, seeded sub-generators,
// the per-phase sample record, the closed-loop round runner both kinds of
// workload use, the per-round output check, and a minimal JSON writer for
// the raw results perfbench/run.py turns into metrics.
//
// The driver measures; run.py computes. Everything here records raw
// samples (one per round, one per submission) so every percentile is
// taken from sorted samples, never from a power-of-two histogram.
#ifndef PERFBENCH_SRC_COMMON_H_
#define PERFBENCH_SRC_COMMON_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "src/core/exit.h"
#include "src/core/params.h"
#include "src/obs/metrics.h"
#include "src/util/bytes.h"
#include "src/util/rng.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Process CPU time (all threads), for util.cpu_busy_frac.
double ProcessCpuSeconds();

// Independent generator per purpose, all derived from the workload seed,
// so adding a draw in one place never shifts another's inputs.
atom::Rng SubRng(uint64_t seed, const std::string& label);

// Rounds kept in flight by every workload's closed loop: a new round's
// intake starts as soon as fewer than this many rounds are in flight.
inline constexpr size_t kRoundsInFlight = 2;

// Raw samples from one timed closed-loop window.
struct PhaseStats {
  double window_s = 0;  // first intake start -> last round result
  double intake_s = 0;  // summed over rounds
  double cpu_s = 0;     // process CPU time over the window
  uint64_t rounds = 0;
  uint64_t rounds_aborted = 0;
  uint64_t rounds_mismatched = 0;  // completed, but output != input
  uint64_t attempted = 0;  // messages users tried to send
  uint64_t accepted = 0;   // messages admitted by intake
  uint64_t delivered = 0;  // messages in a round output that checked out
  std::vector<double> round_latency_s;   // Submit -> RoundResult
  std::vector<double> admit_latency_ms;  // per accepted submission
  // Benchmark-side timings of single public calls (traced ledger).
  std::vector<double> take_ms;           // Round::TakeEngineRound
  std::vector<double> driver_submit_ms;  // DistributedRoundDriver::Submit
  std::vector<double> connect_ms;        // ClientSession::Connect
  std::vector<double> verdict_ms;        // Submit + WaitResult

  uint64_t failed() const;
};

// What one round's intake produced: the messages that must come out of
// the mix (exactly, as a multiset) and how to collect the result.
struct LaunchedRound {
  std::vector<atom::Bytes> expected;
  Clock::time_point submitted;
  std::function<atom::RoundResult()> wait;
};

// True when the round delivered exactly `expected` (as a multiset) and,
// in the trap variant, saw one trap and one inner ciphertext per message.
bool CheckRound(const atom::RoundResult& result, atom::Variant variant,
                std::vector<atom::Bytes> expected);

// Drives rounds with kRoundsInFlight in flight until `seconds` have
// passed since the first intake (or `max_rounds` rounds have launched,
// when nonzero), then drains the rounds still in flight.
// `launch` runs one round's intake on the calling thread (recording its
// intake/admission samples into the PhaseStats it is given, under no
// lock — only this thread writes those fields) and submits the round;
// a waiter thread per round collects and checks the result.
PhaseStats RunClosedLoop(
    double seconds, size_t max_rounds, atom::Variant variant,
    const std::function<LaunchedRound(PhaseStats&)>& launch);

// ------------------------------------------------------------ JSON out

// Streaming writer for the raw-results file: objects, arrays, numbers,
// strings. Keys and strings are escaped; non-finite numbers become null.
class JsonWriter {
 public:
  explicit JsonWriter(std::FILE* out) : out_(out) {}

  void BeginObject(const char* key = nullptr);
  void EndObject();
  void BeginArray(const char* key = nullptr);
  void EndArray();
  void Num(const char* key, double value);
  void Int(const char* key, uint64_t value);
  void Str(const char* key, const std::string& value);
  void NumArray(const char* key, const std::vector<double>& values);
  void Phase(const char* key, const PhaseStats& phase);
  // Counters, gauges and histogram sum/count of a registry snapshot.
  void Snapshot(const char* key, const atom::obs::MetricsSnapshot& snap);

 private:
  void Key(const char* key);
  void Sep();
  void Quoted(const std::string& s);

  std::FILE* out_;
  std::vector<bool> first_;  // per open container: nothing written yet
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_COMMON_H_
