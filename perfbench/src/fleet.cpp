// fleet_wan: the deployment shape, all on loopback TCP inside this
// process. G = 4 groups are hosted on 2 NodeProcess servers behind a
// DistributedRoundDriver; every mesh link, the driver's included, carries
// a uniform 40 ms emulated WAN delay (WanProfile via set_peer_profile).
// Traffic crosses the loopback interface with emulated delay, not a real
// link. Submissions (trap variant, 80-byte messages) enter through a
// ReactorGateway: each of C client lanes acts as a stream of distinct
// registered users, each doing ClientSession::Connect, one signed
// submission, wait for the verdict, Close. A round ends with Cutoff ->
// TakeEngineRound -> DistributedRoundDriver::Submit.
#include <atomic>
#include <optional>
#include <stdexcept>
#include <thread>

#include "perfbench/src/workload.h"
#include "src/core/client.h"
#include "src/net/client_session.h"
#include "src/net/node_process.h"
#include "src/net/reactor.h"
#include "src/net/registry.h"
#include "src/net/round_driver.h"
#include "src/obs/trace.h"
#include "src/util/parallel.h"

namespace perfbench {
namespace {

using atom::Variant;

constexpr size_t kGroups = 4;
constexpr uint32_t kHosts = 2;  // NodeProcess servers, two groups each
constexpr size_t kGroupSize = 2;
constexpr size_t kServers = 8;
constexpr size_t kIterations = 4;
constexpr size_t kMessageLen = 80;
constexpr size_t kPerGroup = 4;  // messages per entry group per round
constexpr size_t kPerRound = kGroups * kPerGroup;
// Client lanes: streams of users admitted concurrently. One lane keeps
// users from queueing behind each other at the gateway, so admission
// latency measures the admission path itself; with more lanes its median
// moved by a third from run to run on a 4-core host.
constexpr size_t kLanes = 1;
constexpr size_t kNodePoolThreads = 2;  // per NodeProcess
// The gateway and the driver get pools of their own, as separate
// processes would: the driver's sender lanes sleep out the emulated WAN
// delay on their pool's threads.
constexpr size_t kGatewayPoolThreads = 2;
constexpr size_t kDriverPoolThreads = 1;
constexpr std::chrono::milliseconds kWanDelay{40};
// Users cycle through this many rounds' worth of distinct identities.
constexpr size_t kPreparedRounds = 4;
constexpr size_t kUsers = kPreparedRounds * kPerRound;

struct User {
  uint64_t id = 0;
  atom::KemKeypair key;  // registered identity (Schnorr key on P-256)
  uint32_t gid = 0;
  atom::Bytes message;
  atom::TrapSubmission submission;
};

// Lane-local samples, merged after the lanes join.
struct LaneSamples {
  uint64_t accepted = 0;
  std::vector<double> admit_ms, connect_ms, verdict_ms;
  std::vector<size_t> accepted_users;
};

class FleetWorkload : public Workload {
 public:
  explicit FleetWorkload(uint64_t seed)
      : seed_(seed), take_rng_(SubRng(seed, "take")) {}

  ~FleetWorkload() override { Teardown(); }

  Variant variant() const override { return Variant::kTrap; }

  void Describe(std::FILE* out) const override {
    std::fprintf(out,
                 "# workload fleet_wan: %zu groups on %u NodeProcess servers "
                 "+ DistributedRoundDriver over loopback TCP with %lld ms "
                 "emulated WAN delay on every link (not a real link); trap "
                 "variant, %zu-byte messages, %zu per round through a "
                 "ReactorGateway, %zux%zu square, k=%zu, %zu rounds in "
                 "flight\n",
                 kGroups, kHosts, static_cast<long long>(kWanDelay.count()),
                 kMessageLen, kPerRound, kGroups, kIterations, kGroupSize,
                 kRoundsInFlight);
    std::fprintf(out,
                 "# thread budget: %u node pools x %zu workers, gateway pool "
                 "%zu workers + %zu reactor loops, driver sender pool %zu, "
                 "%zu client lanes + %zu session reader threads, %zu round "
                 "waiters; host nproc %zu\n",
                 kHosts, kNodePoolThreads, kGatewayPoolThreads,
                 atom::GatewayConfig{}.reactor_loops, kDriverPoolThreads,
                 kLanes, kLanes, kRoundsInFlight, atom::HardwareThreads());
  }

  void PrepareIdentities() override {
    users_.resize(kUsers);
    for (size_t i = 0; i < kUsers; i++) {
      atom::Rng rng = SubRng(seed_, "user/" + std::to_string(i));
      atom::SchnorrKeypair kp = atom::SchnorrKeyGen(rng);
      users_[i].id = 1000 + i;
      users_[i].key = atom::KemKeypair{kp.sk, kp.pk};
      users_[i].gid = static_cast<uint32_t>(i % kGroups);
      users_[i].message = rng.NextBytes(kMessageLen);
    }
  }

  void Setup() override {
    atom::RoundConfig config;
    config.params.variant = Variant::kTrap;
    config.params.num_servers = kServers;
    config.params.num_groups = kGroups;
    config.params.group_size = kGroupSize;
    config.params.honest_needed = 1;
    config.params.iterations = kIterations;
    config.params.message_len = kMessageLen;
    config.beacon = atom::ToBytes("perfbench/fleet_wan");
    config.workers = 1;
    atom::Rng rng = SubRng(seed_, "round");
    round_ = std::make_unique<atom::Round>(config, rng);

    BringUpFleet();

    registry_ = std::make_unique<atom::ClientRegistry>();
    for (const User& user : users_) {
      registry_->Add(atom::ClientRecord{user.id, user.key.pk});
    }
    atom::ClientRegistry* registry = registry_.get();
    round_->SetClientAuth([registry](uint64_t id) {
      return registry->Lookup(id).has_value();
    });
    atom::Rng gateway_rng = SubRng(seed_, "gateway");
    gateway_key_ = atom::KemKeyGen(gateway_rng);
    atom::GatewayConfig gateway_config;
    gateway_config.require_sigs = true;
    gateway_pool_ = std::make_unique<atom::ThreadPool>(kGatewayPoolThreads);
    gateway_ = std::make_unique<atom::ReactorGateway>(
        round_.get(), registry_.get(), gateway_key_, gateway_config,
        gateway_pool_.get());
    if (!gateway_->Listen(0)) {
      throw std::runtime_error("gateway listen failed");
    }
    gateway_->Start();
  }

  void Teardown() override {
    if (gateway_ != nullptr) {
      gateway_->Stop();
    }
    gateway_.reset();
    gateway_pool_.reset();
    driver_.reset();
    if (mesh_ != nullptr) {
      mesh_->Stop();
    }
    mesh_.reset();
    driver_pool_.reset();
    for (auto& proc : procs_) {
      proc->Stop();
    }
    procs_.clear();
    pools_.clear();
    registry_.reset();
    round_.reset();
  }

  void PrepareSubmissions() override {
    std::vector<atom::FixedBaseTable> entry;
    for (uint32_t g = 0; g < kGroups; g++) {
      entry.emplace_back(round_->EntryPk(g));
    }
    const atom::FixedBaseTable trustee(round_->TrusteePk());
    atom::ParallelFor(atom::HardwareThreads(), kUsers, [&](size_t i) {
      User& user = users_[i];
      atom::Rng rng = SubRng(seed_, "submission/" + std::to_string(i));
      user.submission = atom::MakeTrapSubmission(
          entry[user.gid], user.gid, trustee, atom::BytesView(user.message),
          round_->layout(), rng);
      user.submission.client_id = user.id;
    });
  }

  LaunchedRound Launch(PhaseStats& intake) override {
    const size_t first = (next_round_++ % kPreparedRounds) * kPerRound;
    const Clock::time_point t0 = Clock::now();
    gateway_->OpenRound(next_round_);

    std::atomic<size_t> cursor{0};
    std::vector<LaneSamples> lanes(kLanes);
    std::vector<std::thread> threads;
    for (size_t l = 0; l < kLanes; l++) {
      threads.emplace_back([&, l] {
        for (size_t i; (i = cursor.fetch_add(1)) < kPerRound;) {
          SubmitOne(first + i, lanes[l]);
        }
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
    {
      atom::obs::TraceSpan span("ReactorGateway::Cutoff", "net");
      gateway_->Cutoff();
    }
    intake.intake_s += SecondsBetween(t0, Clock::now());
    intake.attempted += kPerRound;

    LaunchedRound out;
    for (LaneSamples& lane : lanes) {
      intake.accepted += lane.accepted;
      for (size_t u : lane.accepted_users) {
        out.expected.push_back(users_[u].message);
      }
      auto append = [](std::vector<double>& to, std::vector<double>& from) {
        to.insert(to.end(), from.begin(), from.end());
      };
      append(intake.admit_latency_ms, lane.admit_ms);
      append(intake.connect_ms, lane.connect_ms);
      append(intake.verdict_ms, lane.verdict_ms);
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
      atom::obs::TraceSpan span("DistributedRoundDriver::Submit", "net");
      ticket = driver_->Submit(std::move(spec));
      intake.driver_submit_ms.push_back(
          SecondsBetween(out.submitted, Clock::now()) * 1e3);
    }
    atom::DistributedRoundDriver* driver = driver_.get();
    out.wait = [driver, ticket] {
      atom::obs::TraceSpan span("DistributedRoundDriver::Wait", "wait");
      return driver->Wait(ticket).round;
    };
    return out;
  }

  void Probe(ProbeValues& out) override {
    HopShape hop;
    hop.vectors = kPerGroup * 2;  // message + trap per user
    hop.points = round_->layout().num_points;
    hop.hop_workers = 1;
    const atom::TrapSubmission& s = users_.front().submission;
    ProbeLayers(*round_, hop, s.first, s.first_proofs, s.entry_gid, seed_,
                out);
  }

 private:
  // Brings up the server fleet and the driver: server identities, WAN
  // profiles, roster push and group-material push. The only place that
  // decides which process holds which group's keys.
  void BringUpFleet() {
    atom::Rng rng = SubRng(seed_, "fleet");
    const atom::KemKeypair driver_key = atom::KemKeyGen(rng);
    const atom::WanProfile wan{kWanDelay, 0};
    std::vector<atom::MeshPeer> roster;
    for (uint32_t h = 1; h <= kHosts; h++) {
      const atom::KemKeypair key = atom::KemKeyGen(rng);
      pools_.push_back(std::make_unique<atom::ThreadPool>(kNodePoolThreads));
      auto proc = std::make_unique<atom::NodeProcess>(
          h, Variant::kTrap, key, driver_key.pk, /*max_rounds=*/8,
          pools_.back().get());
      for (uint32_t p = 1; p <= kHosts; p++) {
        if (p != h) {
          proc->set_peer_profile(p, wan);
        }
      }
      proc->set_peer_profile(atom::kMeshDriverId, wan);
      if (!proc->Listen(0)) {
        throw std::runtime_error("server listen failed");
      }
      proc->Start();
      roster.push_back(atom::MeshPeer{h, "127.0.0.1", proc->port(), key.pk});
      procs_.push_back(std::move(proc));
    }
    hosts_.clear();
    for (uint32_t g = 0; g < kGroups; g++) {
      hosts_.push_back(g / (kGroups / kHosts) + 1);
    }
    mesh_ = std::make_unique<atom::TcpPeerMesh>(
        atom::TcpPeerMesh::Role::kDriver, atom::kMeshDriverId, driver_key);
    driver_pool_ = std::make_unique<atom::ThreadPool>(kDriverPoolThreads);
    mesh_->set_sender_pool(driver_pool_.get());
    for (uint32_t h = 1; h <= kHosts; h++) {
      mesh_->set_peer_profile(h, wan);
    }
    mesh_->SetRoster(roster);
    if (!mesh_->ConnectAndPushRoster()) {
      throw std::runtime_error("roster push failed");
    }
    for (uint32_t g = 0; g < kGroups; g++) {
      if (!mesh_->SendHostGroup(hosts_[g], g, round_->group(g).dkg())) {
        throw std::runtime_error("group-material push failed");
      }
    }
    driver_ = std::make_unique<atom::DistributedRoundDriver>(mesh_.get(),
                                                             hosts_);
    driver_->set_round_timeout(std::chrono::seconds(60));
  }

  // One user: connect, one signed submission, wait for the verdict, close.
  void SubmitOne(size_t u, LaneSamples& lane) {
    const User& user = users_[u];
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<atom::ClientSession> session;
    {
      atom::obs::TraceSpan span("ClientSession::Connect", "net");
      session = atom::ClientSession::Connect("127.0.0.1", gateway_->port(),
                                             user.id, user.key,
                                             gateway_key_.pk);
    }
    const Clock::time_point t1 = Clock::now();
    if (session == nullptr) {
      std::fprintf(stderr, "user %llu could not connect\n",
                   static_cast<unsigned long long>(user.id));
      return;
    }
    lane.connect_ms.push_back(SecondsBetween(t0, t1) * 1e3);
    std::optional<atom::SubmitStatus> status;
    {
      atom::obs::TraceSpan span("ClientSession::Submit+WaitResult", "net");
      const uint64_t seq = session->Submit(user.submission);
      if (seq != 0) {
        status = session->WaitResult(seq);
      }
    }
    const Clock::time_point t2 = Clock::now();
    session->Close();
    lane.verdict_ms.push_back(SecondsBetween(t1, t2) * 1e3);
    if (status == atom::SubmitStatus::kAccepted) {
      lane.accepted++;
      lane.accepted_users.push_back(u);
      lane.admit_ms.push_back(SecondsBetween(t0, t2) * 1e3);
    } else {
      std::fprintf(stderr, "user %llu: submission not accepted\n",
                   static_cast<unsigned long long>(user.id));
    }
  }

  const uint64_t seed_;
  atom::Rng take_rng_;
  std::vector<User> users_;
  std::unique_ptr<atom::Round> round_;
  std::vector<std::unique_ptr<atom::ThreadPool>> pools_;
  std::vector<std::unique_ptr<atom::NodeProcess>> procs_;
  std::vector<uint32_t> hosts_;
  std::unique_ptr<atom::ThreadPool> driver_pool_;
  std::unique_ptr<atom::TcpPeerMesh> mesh_;
  std::unique_ptr<atom::DistributedRoundDriver> driver_;
  std::unique_ptr<atom::ClientRegistry> registry_;
  atom::KemKeypair gateway_key_;
  std::unique_ptr<atom::ThreadPool> gateway_pool_;
  std::unique_ptr<atom::ReactorGateway> gateway_;
  size_t next_round_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeFleetWorkload(uint64_t seed) {
  return std::make_unique<FleetWorkload>(seed);
}

}  // namespace perfbench
