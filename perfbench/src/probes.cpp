// Per-layer probes: each crypto primitive and one group hop, timed from
// outside on a workload's own group keys at its per-hop batch shape. The
// probes go through Scalar / Point / FixedBaseTable and the crypto free
// functions, never the field layer underneath, so they keep measuring the
// same thing when that layer changes. Each probe reports the median of a
// few repetitions.
#include <algorithm>
#include <stdexcept>

#include "perfbench/src/workload.h"
#include "src/crypto/elgamal.h"
#include "src/crypto/kem.h"
#include "src/crypto/schnorr.h"
#include "src/crypto/shuffle.h"
#include "src/crypto/sigma.h"
#include "src/obs/trace.h"

namespace perfbench {
namespace {

constexpr int kReps = 5;

// Median over `reps` calls of the seconds one call of `fn` takes.
template <typename Fn>
double MedianSeconds(int reps, Fn&& fn) {
  std::vector<double> samples;
  for (int r = 0; r < reps; r++) {
    const Clock::time_point t0 = Clock::now();
    fn();
    samples.push_back(SecondsBetween(t0, Clock::now()));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

void Require(bool ok, const char* what) {
  if (!ok) {
    throw std::runtime_error(std::string("probe check failed: ") + what);
  }
}

atom::CiphertextBatch EncryptBatch(const atom::FixedBaseTable& pk,
                                   size_t vectors, size_t points,
                                   atom::Rng& rng) {
  atom::CiphertextBatch batch(vectors);
  for (auto& vec : batch) {
    for (size_t p = 0; p < points; p++) {
      vec.push_back(atom::ElGamalEncrypt(
          pk, atom::Point::BaseMul(atom::Scalar::Random(rng)), rng));
    }
  }
  return batch;
}

}  // namespace

void ProbeLayers(atom::Round& round, const HopShape& shape,
                 const atom::ElGamalCiphertextVec& sample_cts,
                 const std::vector<atom::EncProof>& sample_proofs,
                 uint32_t sample_gid, uint64_t seed, ProbeValues& out) {
  using namespace atom;
  Rng rng = SubRng(seed, "probes");
  const GroupRuntime& g0 = round.group(0);
  const GroupRuntime& g1 = round.group(1);
  const Scalar& share = g0.dkg().keys[0].share;
  const Point& share_pk = g0.dkg().pub.share_pks[0];
  const Point& next_pk = g1.pk();

  {
    obs::TraceSpan span("probe.scalar_mul", "probe");
    constexpr int kOps = 20000;
    Scalar acc = Scalar::Random(rng);
    const Scalar k = Scalar::Random(rng);
    const double s = MedianSeconds(kReps, [&] {
      for (int i = 0; i < kOps; i++) {
        acc = acc * k;
      }
    });
    Require(!acc.IsZero(), "scalar product");
    out["crypto.scalar_mul_ns"] = s / kOps * 1e9;
  }
  {
    obs::TraceSpan span("probe.point_mul", "probe");
    constexpr int kOps = 20;
    Point acc;
    const double s = MedianSeconds(kReps, [&] {
      for (int i = 0; i < kOps; i++) {
        acc = acc + g0.pk().Mul(Scalar::Random(rng));
      }
    });
    Require(acc.IsOnCurve(), "point product");
    out["crypto.point_mul_us"] = s / kOps * 1e6;
  }
  {
    obs::TraceSpan span("probe.fixed_base_mul", "probe");
    constexpr int kOps = 50;
    Point acc;
    const double s = MedianSeconds(kReps, [&] {
      for (int i = 0; i < kOps; i++) {
        acc = acc + g0.pk_table().Mul(Scalar::Random(rng));
      }
    });
    Require(acc.IsOnCurve(), "table product");
    out["crypto.fixed_base_mul_us"] = s / kOps * 1e6;
  }

  const CiphertextBatch batch =
      EncryptBatch(g0.pk_table(), shape.vectors, shape.points, rng);
  const ElGamalCiphertextVec& cts = batch.front();
  {
    obs::TraceSpan span("probe.reenc", "probe");
    const double s = MedianSeconds(kReps, [&] {
      for (const ElGamalCiphertext& ct : cts) {
        ElGamalReEnc(share, g1.pk_table(), ct, rng);
      }
    });
    out["crypto.reenc_us"] = s / static_cast<double>(cts.size()) * 1e6;
  }
  {
    obs::TraceSpan span("probe.reencproof_verify", "probe");
    std::vector<ElGamalCiphertext> outs;
    std::vector<ReEncProof> proofs;
    for (const ElGamalCiphertext& ct : cts) {
      Scalar r;
      outs.push_back(ElGamalReEnc(share, &next_pk, ct, rng, &r));
      proofs.push_back(
          MakeReEncProof(share, share_pk, &next_pk, ct, outs.back(), r, rng));
    }
    bool ok = true;
    const double s = MedianSeconds(kReps, [&] {
      for (size_t i = 0; i < cts.size(); i++) {
        ok &= VerifyReEncProof(share_pk, &next_pk, cts[i], outs[i],
                               proofs[i]);
      }
    });
    Require(ok, "ReEncProof");
    out["crypto.reencproof_verify_us"] =
        s / static_cast<double>(cts.size()) * 1e6;
  }
  {
    // The trustee secret never leaves a clean round's finalize step, so
    // the KEM probe decrypts under a seeded key of the same curve, on
    // inner ciphertexts of the workload's message length.
    obs::TraceSpan span("probe.kem_decrypt", "probe");
    const KemKeypair kem = KemKeyGen(rng);
    const size_t len = round.layout().plaintext_len;
    std::vector<Bytes> inner;
    for (int i = 0; i < 16; i++) {
      inner.push_back(KemEncrypt(kem.pk, BytesView(rng.NextBytes(len)), rng));
    }
    bool ok = true;
    const double s = MedianSeconds(kReps, [&] {
      for (const Bytes& ct : inner) {
        ok &= KemDecrypt(kem.sk, BytesView(ct)).has_value();
      }
    });
    Require(ok, "KEM decrypt");
    out["crypto.kem_decrypt_us"] =
        s / static_cast<double>(inner.size()) * 1e6;
  }
  {
    obs::TraceSpan span("probe.shuffle", "probe");
    ShuffleResult shuffled;
    out["crypto.shuffle_prove_ms"] =
        MedianSeconds(3, [&] {
          shuffled = ShuffleAndProve(g0.pk_table(), batch, rng,
                                     shape.hop_workers);
        }) * 1e3;
    bool ok = true;
    out["crypto.shuffle_verify_ms"] =
        MedianSeconds(3, [&] {
          ok &= VerifyShuffle(g0.pk(), batch, shuffled.output,
                              shuffled.proof, shape.hop_workers);
        }) * 1e3;
    Require(ok, "shuffle proof");
  }
  {
    obs::TraceSpan span("probe.encproof_verify", "probe");
    const Point& entry_pk = round.EntryPk(sample_gid);
    bool ok = true;
    const double s = MedianSeconds(kReps, [&] {
      ok &= VerifyEncProofBatch(entry_pk, sample_gid, sample_cts,
                                sample_proofs);
    });
    Require(ok, "EncProof batch");
    out["crypto.encproof_verify_us"] =
        s / static_cast<double>(sample_proofs.size()) * 1e6;
  }
  {
    obs::TraceSpan span("probe.schnorr_batch_verify", "probe");
    constexpr size_t kSigs = 16;  // one gateway pump span's worth
    std::vector<Point> pks;
    std::vector<Bytes> msgs;
    std::vector<SchnorrSignature> sigs;
    for (size_t i = 0; i < kSigs; i++) {
      const SchnorrKeypair kp = SchnorrKeyGen(rng);
      msgs.push_back(rng.NextBytes(64));
      pks.push_back(kp.pk);
      sigs.push_back(SchnorrSign(kp.sk, kp.pk, BytesView(msgs.back()), rng));
    }
    std::vector<BytesView> views(msgs.begin(), msgs.end());
    bool ok = true;
    const double s = MedianSeconds(kReps, [&] {
      ok &= SchnorrVerifyBatch(pks, views, sigs);
    });
    Require(ok, "Schnorr batch");
    out["crypto.schnorr_batch_verify_us_per_sig"] = s / kSigs * 1e6;
  }
  {
    // One group hop at the workload's batch shape, through the public
    // GroupRuntime::RunHop; its HopStats split the hop into stages.
    obs::TraceSpan span("probe.run_hop", "probe");
    std::vector<Point> next_pks;
    for (uint32_t g = 0; g < round.NumGroups(); g++) {
      next_pks.push_back(round.group(g).pk());
    }
    std::vector<HopStats> stats;
    for (int r = 0; r < 3; r++) {
      HopResult hop = g0.RunHop(batch, next_pks, round.variant(), rng,
                                shape.hop_workers);
      Require(!hop.aborted, "RunHop");
      stats.push_back(hop.stats);
    }
    auto median_ms = [&](double HopStats::*field) {
      std::vector<double> v;
      for (const HopStats& s : stats) {
        v.push_back(s.*field);
      }
      std::sort(v.begin(), v.end());
      return v[v.size() / 2] * 1e3;
    };
    out["core.hop_shuffle_ms"] = median_ms(&HopStats::shuffle_seconds);
    out["core.hop_reenc_ms"] = median_ms(&HopStats::reenc_seconds);
    out["core.hop_verify_ms"] = median_ms(&HopStats::verify_seconds);
  }
}

}  // namespace perfbench
