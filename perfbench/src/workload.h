// The benchmark's workloads behind one interface, so the driver (main.cpp)
// runs set-up, input generation, the closed loop and the probes the same
// way for all of them. Workloads use only public entry points of the
// library: Round, RoundEngine, GroupRuntime::RunHop, the net tier's
// DistributedRoundDriver/NodeProcess/TcpPeerMesh and ReactorGateway/
// ClientSession, and the crypto free functions.
#ifndef PERFBENCH_SRC_WORKLOAD_H_
#define PERFBENCH_SRC_WORKLOAD_H_

#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include "perfbench/src/common.h"
#include "src/core/round.h"

namespace perfbench {

// Per-layer probe results, keyed by the metric names in BENCHMARK.json.
using ProbeValues = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  virtual atom::Variant variant() const = 0;
  // Prints the workload's shape and thread budget.
  virtual void Describe(std::FILE* out) const = 0;

  // Users' work that needs no round keys (identity keys). Untimed.
  virtual void PrepareIdentities() {}
  // Builds the system under test; this is what setup_s times. Setup and
  // Teardown alternate, so set-up can be timed several times per run.
  virtual void Setup() = 0;
  virtual void Teardown() = 0;
  // Users' work that needs the round keys (building, encrypting and
  // proving submissions). Untimed; runs after the last Setup.
  virtual void PrepareSubmissions() = 0;

  // One closed-loop step: runs a round's intake on the calling thread,
  // takes the round and submits it.
  virtual LaunchedRound Launch(PhaseStats& intake) = 0;

  // Per-layer probes, timed from outside on this workload's keys and
  // per-hop batch shape (traced runs only).
  virtual void Probe(ProbeValues& out) = 0;
};

// microblog_trap or dialing_nizk; nullptr for any other name.
std::unique_ptr<Workload> MakeInProcessWorkload(const std::string& name,
                                                uint64_t seed);
std::unique_ptr<Workload> MakeFleetWorkload(uint64_t seed);

// The batch shape one group hop processes: `vectors` ciphertext vectors
// of `points` components each.
struct HopShape {
  size_t vectors = 0;
  size_t points = 0;
  size_t hop_workers = 1;
};

// Crypto and hop probes shared by every workload: each primitive is timed
// from outside on `round`'s group keys at the workload's batch shape.
// `sample` is one of the workload's own submissions (its EncProofs are
// what the intake verifies).
void ProbeLayers(atom::Round& round, const HopShape& shape,
                 const atom::ElGamalCiphertextVec& sample_cts,
                 const std::vector<atom::EncProof>& sample_proofs,
                 uint32_t sample_gid, uint64_t seed, ProbeValues& out);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOAD_H_
