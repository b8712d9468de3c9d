// In-process workloads: one Round (group and trustee DKGs) and one
// RoundEngine on the shared ThreadPool, no sockets. Each closed-loop step
// submits one round's prepared batch through the sharded intake
// (SubmitTrapBatch / SubmitNizkBatch), drains it with TakeEngineRound and
// hands the spec to RoundEngine::Submit; a waiter collects the
// RoundResult with RoundEngine::Wait.
//
//   microblog_trap  trap variant, 160-byte messages (L = 7), 16 per entry
//                   group per round: re-encryption, shuffling and the trap
//                   exit (sort, check, trustee KEM decrypt).
//   dialing_nizk    NIZK variant, 80-byte messages (L = 3), 8 per entry
//                   group per round: shuffle proofs, ReEnc proofs and
//                   EncProof batches, no trustees.
#include <optional>

#include "perfbench/src/workload.h"
#include "src/core/client.h"
#include "src/core/engine.h"
#include "src/obs/trace.h"
#include "src/util/parallel.h"

namespace perfbench {
namespace {

using atom::Variant;

struct InProcessShape {
  const char* name;
  Variant variant;
  size_t message_len;
  size_t per_group;  // messages per entry group per round
};

constexpr InProcessShape kShapes[] = {
    {"microblog_trap", Variant::kTrap, 160, 16},
    {"dialing_nizk", Variant::kNizk, 80, 8},
};

constexpr size_t kGroups = 4;      // square topology width G
constexpr size_t kGroupSize = 2;   // servers per group k
constexpr size_t kServers = 8;
constexpr size_t kIterations = 4;  // mixing layers T
constexpr size_t kHopWorkers = 1;  // pipelining supplies the parallelism
// Intake verifies on the calling thread, beside the mixing on the pool,
// as an entry group's servers would. (With the pool's workers, intake
// only gets threads when no hop is queued, which made its latency
// bimodal from run to run.)
constexpr size_t kIntakeWorkers = 1;
// Distinct prepared rounds of submissions; the closed loop cycles through
// them (each take opens a fresh intake epoch, so resubmitting a batch in
// a later round is a new, valid round).
constexpr size_t kPreparedRounds = 8;

class InProcessWorkload : public Workload {
 public:
  InProcessWorkload(const InProcessShape& shape, uint64_t seed)
      : shape_(shape),
        seed_(seed),
        take_rng_(SubRng(seed, "take")) {}

  ~InProcessWorkload() override { Teardown(); }

  Variant variant() const override { return shape_.variant; }

  void Describe(std::FILE* out) const override {
    std::fprintf(out,
                 "# workload %s: in-process Round + RoundEngine, %s variant, "
                 "%zux%zu square, k=%zu, %zu-byte messages, %zu per entry "
                 "group per round, %zu rounds in flight\n",
                 shape_.name,
                 shape_.variant == Variant::kTrap ? "trap" : "nizk",
                 kGroups, kIterations, kGroupSize, shape_.message_len,
                 shape_.per_group, kRoundsInFlight);
    std::fprintf(out,
                 "# thread budget: shared pool %zu workers (hop and exit "
                 "tasks), 1 main thread (intake), %zu round waiters; "
                 "host nproc %zu\n",
                 atom::ThreadPool::Shared().num_threads(), kRoundsInFlight,
                 atom::HardwareThreads());
  }

  void Setup() override {
    atom::RoundConfig config;
    config.params.variant = shape_.variant;
    config.params.num_servers = kServers;
    config.params.num_groups = kGroups;
    config.params.group_size = kGroupSize;
    config.params.honest_needed = 1;
    config.params.iterations = kIterations;
    config.params.message_len = shape_.message_len;
    config.beacon = atom::ToBytes(std::string("perfbench/") + shape_.name);
    config.workers = kHopWorkers;
    atom::Rng rng = SubRng(seed_, "round");
    round_ = std::make_unique<atom::Round>(config, rng);
    engine_ = std::make_unique<atom::RoundEngine>(&atom::ThreadPool::Shared());
  }

  void Teardown() override {
    engine_.reset();  // drains anything still in flight
    round_.reset();
  }

  void PrepareSubmissions() override {
    const size_t per_round = kGroups * shape_.per_group;
    const size_t total = kPreparedRounds * per_round;
    std::vector<atom::FixedBaseTable> entry;
    for (uint32_t g = 0; g < kGroups; g++) {
      entry.emplace_back(round_->EntryPk(g));
    }
    const bool trap = shape_.variant == Variant::kTrap;
    std::optional<atom::FixedBaseTable> trustee;
    if (trap) {
      trustee.emplace(round_->TrusteePk());
    }
    messages_.assign(total, {});
    trap_subs_.assign(trap ? total : 0, {});
    nizk_subs_.assign(trap ? 0 : total, {});
    atom::ParallelFor(atom::HardwareThreads(), total, [&](size_t i) {
      atom::Rng rng = SubRng(seed_, "user/" + std::to_string(i));
      const uint32_t gid =
          static_cast<uint32_t>((i % per_round) / shape_.per_group);
      messages_[i] = rng.NextBytes(shape_.message_len);
      const atom::BytesView msg(messages_[i]);
      if (trap) {
        trap_subs_[i] = atom::MakeTrapSubmission(
            entry[gid], gid, *trustee, msg, round_->layout(), rng);
        trap_subs_[i].client_id = i + 1;
      } else {
        nizk_subs_[i] = atom::MakeNizkSubmission(entry[gid], gid, msg,
                                                 round_->layout(), rng);
        nizk_subs_[i].client_id = i + 1;
      }
    });
  }

  LaunchedRound Launch(PhaseStats& intake) override {
    const size_t per_round = kGroups * shape_.per_group;
    const size_t first = (next_round_++ % kPreparedRounds) * per_round;

    const Clock::time_point t0 = Clock::now();
    std::vector<bool> accepted;
    if (shape_.variant == Variant::kTrap) {
      atom::obs::TraceSpan span("Round::SubmitTrapBatch", "core");
      accepted = round_->SubmitTrapBatch(
          std::span<const atom::TrapSubmission>(&trap_subs_[first],
                                                per_round),
          kIntakeWorkers);
    } else {
      atom::obs::TraceSpan span("Round::SubmitNizkBatch", "core");
      accepted = round_->SubmitNizkBatch(
          std::span<const atom::NizkSubmission>(&nizk_subs_[first],
                                                per_round),
          kIntakeWorkers);
    }
    const Clock::time_point t1 = Clock::now();
    // In process, a submission's verdict arrives when its batch call
    // returns: that is the admission latency its user sees.
    const double admit_ms = SecondsBetween(t0, t1) * 1e3;
    intake.intake_s += SecondsBetween(t0, t1);
    intake.attempted += per_round;

    LaunchedRound out;
    for (size_t i = 0; i < per_round; i++) {
      if (accepted[i]) {
        intake.accepted++;
        intake.admit_latency_ms.push_back(admit_ms);
        out.expected.push_back(messages_[first + i]);
      }
    }

    atom::EngineRound spec;
    {
      atom::obs::TraceSpan span("Round::TakeEngineRound", "core");
      const Clock::time_point t = Clock::now();
      spec = round_->TakeEngineRound({}, take_rng_);
      intake.take_ms.push_back(SecondsBetween(t, Clock::now()) * 1e3);
    }
    out.submitted = Clock::now();
    uint64_t ticket = 0;
    {
      atom::obs::TraceSpan span("RoundEngine::Submit", "core");
      ticket = engine_->Submit(std::move(spec));
    }
    atom::RoundEngine* engine = engine_.get();
    out.wait = [engine, ticket] {
      atom::obs::TraceSpan span("RoundEngine::Wait", "wait");
      return engine->Wait(ticket).round;
    };
    return out;
  }

  void Probe(ProbeValues& out) override {
    const bool trap = shape_.variant == Variant::kTrap;
    HopShape hop;
    // A group's entry batch: one vector per message, two per user in the
    // trap variant (the message and its trap).
    hop.vectors = shape_.per_group * (trap ? 2 : 1);
    hop.points = round_->layout().num_points;
    hop.hop_workers = kHopWorkers;
    if (trap) {
      const atom::TrapSubmission& s = trap_subs_.front();
      ProbeLayers(*round_, hop, s.first, s.first_proofs, s.entry_gid, seed_,
                  out);
    } else {
      const atom::NizkSubmission& s = nizk_subs_.front();
      ProbeLayers(*round_, hop, s.ciphertext, s.proofs, s.entry_gid, seed_,
                  out);
    }
  }

 private:
  const InProcessShape shape_;
  const uint64_t seed_;
  atom::Rng take_rng_;
  std::unique_ptr<atom::Round> round_;
  std::unique_ptr<atom::RoundEngine> engine_;
  std::vector<atom::Bytes> messages_;
  std::vector<atom::TrapSubmission> trap_subs_;
  std::vector<atom::NizkSubmission> nizk_subs_;
  size_t next_round_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeInProcessWorkload(const std::string& name,
                                                uint64_t seed) {
  for (const InProcessShape& shape : kShapes) {
    if (name == shape.name) {
      return std::make_unique<InProcessWorkload>(shape, seed);
    }
  }
  return nullptr;
}

}  // namespace perfbench
