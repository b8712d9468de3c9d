#include "perfbench/src/common.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <ctime>
#include <list>
#include <memory>
#include <mutex>
#include <thread>

namespace perfbench {

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

atom::Rng SubRng(uint64_t seed, const std::string& label) {
  atom::Bytes key = atom::ToBytes("perfbench/" + label + "/");
  for (int i = 0; i < 8; i++) {
    key.push_back(static_cast<uint8_t>(seed >> (8 * i)));
  }
  return atom::Rng(atom::BytesView(key));
}

uint64_t PhaseStats::failed() const {
  return attempted > delivered ? attempted - delivered : 0;
}

bool CheckRound(const atom::RoundResult& result, atom::Variant variant,
                std::vector<atom::Bytes> expected) {
  if (result.aborted) {
    return false;
  }
  const uint64_t n = expected.size();
  if (variant == atom::Variant::kTrap &&
      (result.traps_seen != n || result.inner_seen != n)) {
    return false;
  }
  std::vector<atom::Bytes> got = result.plaintexts;
  std::sort(got.begin(), got.end());
  std::sort(expected.begin(), expected.end());
  return got == expected;
}

namespace {

// One waiter thread per in-flight round; joined as soon as it finishes
// (and on every exit path), so a long run holds at most a few threads.
class Waiters {
 public:
  ~Waiters() { JoinAll(); }

  void Spawn(std::function<void()> fn) {
    auto done = std::make_shared<std::atomic<bool>>(false);
    threads_.push_back(Entry{std::thread([fn = std::move(fn), done] {
                               fn();
                               done->store(true, std::memory_order_release);
                             }),
                             done});
  }

  void ReapFinished() {
    for (auto it = threads_.begin(); it != threads_.end();) {
      if (it->done->load(std::memory_order_acquire)) {
        it->thread.join();
        it = threads_.erase(it);
      } else {
        ++it;
      }
    }
  }

  void JoinAll() {
    for (Entry& e : threads_) {
      e.thread.join();
    }
    threads_.clear();
  }

 private:
  struct Entry {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };
  std::list<Entry> threads_;
};

}  // namespace

PhaseStats RunClosedLoop(
    double seconds, size_t max_rounds, atom::Variant variant,
    const std::function<LaunchedRound(PhaseStats&)>& launch) {
  PhaseStats intake;   // written by this thread only (via `launch`)
  PhaseStats results;  // written by waiters, under `mu`
  std::mutex mu;
  std::condition_variable cv;
  size_t in_flight = 0;
  Clock::time_point last_result{};

  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  {
    Waiters waiters;
    size_t launched = 0;
    while (Clock::now() < deadline &&
           (max_rounds == 0 || launched < max_rounds)) {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return in_flight < kRoundsInFlight; });
        in_flight++;
      }
      waiters.ReapFinished();
      LaunchedRound round = launch(intake);
      launched++;
      waiters.Spawn([&, round = std::move(round)] {
        atom::RoundResult result = round.wait();
        const Clock::time_point done = Clock::now();
        const bool ok = CheckRound(result, variant, round.expected);
        std::lock_guard<std::mutex> lock(mu);
        results.round_latency_s.push_back(
            SecondsBetween(round.submitted, done));
        results.rounds++;
        if (result.aborted) {
          results.rounds_aborted++;
          std::fprintf(stderr, "round aborted: %s\n",
                       result.abort_reason.c_str());
        } else if (!ok) {
          results.rounds_mismatched++;
          std::fprintf(stderr, "round output does not match its input\n");
        } else {
          results.delivered += round.expected.size();
        }
        last_result = std::max(last_result, done);
        in_flight--;
        cv.notify_all();
      });
    }
  }  // joins every waiter: all rounds have resolved

  intake.window_s = SecondsBetween(start, last_result);
  intake.cpu_s = ProcessCpuSeconds() - cpu0;
  intake.rounds = results.rounds;
  intake.rounds_aborted = results.rounds_aborted;
  intake.rounds_mismatched = results.rounds_mismatched;
  intake.delivered = results.delivered;
  intake.round_latency_s = std::move(results.round_latency_s);
  return intake;
}

// ------------------------------------------------------------ JsonWriter

void JsonWriter::Sep() {
  if (!first_.empty()) {
    if (!first_.back()) {
      std::fputc(',', out_);
    }
    first_.back() = false;
  }
}

void JsonWriter::Quoted(const std::string& s) {
  std::fputc('"', out_);
  for (unsigned char c : s) {
    if (c == '"' || c == '\\') {
      std::fputc('\\', out_);
      std::fputc(c, out_);
    } else if (c < 0x20) {
      std::fprintf(out_, "\\u%04x", c);
    } else {
      std::fputc(c, out_);
    }
  }
  std::fputc('"', out_);
}

void JsonWriter::Key(const char* key) {
  Sep();
  if (key != nullptr) {
    Quoted(key);
    std::fputc(':', out_);
  }
}

void JsonWriter::BeginObject(const char* key) {
  Key(key);
  std::fputc('{', out_);
  first_.push_back(true);
}

void JsonWriter::EndObject() {
  first_.pop_back();
  std::fputc('}', out_);
}

void JsonWriter::BeginArray(const char* key) {
  Key(key);
  std::fputc('[', out_);
  first_.push_back(true);
}

void JsonWriter::EndArray() {
  first_.pop_back();
  std::fputc(']', out_);
}

void JsonWriter::Num(const char* key, double value) {
  Key(key);
  if (std::isfinite(value)) {
    std::fprintf(out_, "%.17g", value);
  } else {
    std::fputs("null", out_);
  }
}

void JsonWriter::Int(const char* key, uint64_t value) {
  Key(key);
  std::fprintf(out_, "%llu", static_cast<unsigned long long>(value));
}

void JsonWriter::Str(const char* key, const std::string& value) {
  Key(key);
  Quoted(value);
}

void JsonWriter::NumArray(const char* key, const std::vector<double>& values) {
  BeginArray(key);
  for (double v : values) {
    Num(nullptr, v);
  }
  EndArray();
}

void JsonWriter::Phase(const char* key, const PhaseStats& phase) {
  BeginObject(key);
  Num("window_s", phase.window_s);
  Num("intake_s", phase.intake_s);
  Num("cpu_s", phase.cpu_s);
  Int("rounds", phase.rounds);
  Int("rounds_aborted", phase.rounds_aborted);
  Int("rounds_mismatched", phase.rounds_mismatched);
  Int("attempted", phase.attempted);
  Int("accepted", phase.accepted);
  Int("delivered", phase.delivered);
  Int("failed", phase.failed());
  NumArray("round_latency_s", phase.round_latency_s);
  NumArray("admit_latency_ms", phase.admit_latency_ms);
  NumArray("take_ms", phase.take_ms);
  NumArray("driver_submit_ms", phase.driver_submit_ms);
  NumArray("connect_ms", phase.connect_ms);
  NumArray("verdict_ms", phase.verdict_ms);
  EndObject();
}

void JsonWriter::Snapshot(const char* key,
                          const atom::obs::MetricsSnapshot& snap) {
  BeginObject(key);
  BeginObject("counters");
  for (const auto& [name, value] : snap.counters) {
    Int(name.c_str(), value);
  }
  EndObject();
  BeginObject("gauges");
  for (const auto& [name, value] : snap.gauges) {
    Num(name.c_str(), static_cast<double>(value));
  }
  EndObject();
  BeginObject("histograms");
  for (const auto& [name, hist] : snap.histograms) {
    BeginObject(name.c_str());
    Int("sum", hist.sum);
    Int("count", hist.Total());
    EndObject();
  }
  EndObject();
  EndObject();
}

}  // namespace perfbench
