// Isolated calibrations for layers whose host time cannot be split from
// outside a run: the crypto entry points and the bare event queue.

#include "common/rng.h"
#include "crypto/hmac.h"
#include "crypto/keystore.h"
#include "crypto/sha256.h"
#include "perfbench.h"
#include "sim/simulator.h"

namespace bftlab::perfbench {
namespace {

// Every digest computed is folded in here, so no call can be elided.
volatile uint8_t g_sink = 0;

void Consume(const Digest& d) { g_sink = g_sink ^ d.data()[0]; }

Buffer RandomBytes(Rng* rng, size_t n) {
  Buffer b(n);
  for (uint8_t& byte : b) byte = static_cast<uint8_t>(rng->Next());
  return b;
}

/// Median over `batches` of the thread-CPU ns per call of `fn`, each batch
/// making `calls` calls.
template <typename Fn>
double NsPerCall(int batches, int calls, Fn&& fn) {
  std::vector<double> samples;
  for (int b = 0; b < batches; ++b) {
    const double t0 = ThreadCpuNow();
    for (int i = 0; i < calls; ++i) fn(i);
    samples.push_back((ThreadCpuNow() - t0) * 1e9 / calls);
  }
  return Median(samples);
}

}  // namespace

CryptoCalibration CalibrateCrypto(uint64_t seed) {
  Rng rng(seed);
  const Buffer msg64 = RandomBytes(&rng, 64);
  const Buffer key32 = RandomBytes(&rng, 32);
  const Buffer mib = RandomBytes(&rng, 1 << 20);
  const Buffer empty;
  KeyStore keystore(rng.Next());
  CryptoContext ctx(0, &keystore);
  const Signature sig = ctx.Sign(msg64);

  CryptoCalibration c;
  c.sha256_ns_64b = NsPerCall(9, 4000, [&](int) {
    Consume(Sha256::Hash(msg64));
  });
  const double mib_ns =
      NsPerCall(7, 2, [&](int) { Consume(Sha256::Hash(mib)); });
  c.sha256_mib_per_s = mib_ns > 0 ? 1e9 / mib_ns : 0;
  c.hmac_ns_64b = NsPerCall(9, 2000, [&](int) {
    Consume(HmacSha256(key32, msg64));
  });
  c.sign_ns = NsPerCall(9, 1000, [&](int) { Consume(ctx.Sign(msg64).tag); });
  c.verify_ns = NsPerCall(9, 1000, [&](int) {
    g_sink = g_sink ^ static_cast<uint8_t>(ctx.Verify(sig, msg64));
  });
  c.mac_ns = NsPerCall(9, 1000, [&](int i) {
    Consume(ctx.ComputeMac(static_cast<NodeId>(1 + i % 3), msg64).tag);
  });
  // KeyStore::NodeSecret is private; it is the derivation a signature runs
  // before its HMAC over the message. Measured as a signature over an
  // empty message minus an HMAC over one with a 32-byte key.
  const double sign_empty = NsPerCall(9, 2000, [&](int i) {
    Consume(keystore.Sign(static_cast<NodeId>(i % 4), empty).tag);
  });
  const double hmac_empty = NsPerCall(9, 2000, [&](int) {
    Consume(HmacSha256(key32, empty));
  });
  c.node_secret_ns = sign_empty - hmac_empty;
  return c;
}

namespace {

/// Bare event-queue load: `live` pending events, each of which schedules
/// its successor at a random delay until `budget` successors were made.
struct QueueReplay {
  Simulator sim;
  Rng rng;
  uint64_t budget;

  QueueReplay(uint64_t seed, uint64_t budget_events)
      : rng(seed), budget(budget_events) {}

  void Fire() {
    if (budget == 0) return;
    --budget;
    sim.Schedule(1 + rng.NextBelow(2000), [this] { Fire(); });
  }
};

}  // namespace

double CalibrateEventQueue(uint64_t live_events, uint64_t seed) {
  const uint64_t live = std::max<uint64_t>(live_events, 1);
  const uint64_t budget = std::max<uint64_t>(200000, 3 * live);
  std::vector<double> samples;
  for (int rep = 0; rep < 3; ++rep) {
    QueueReplay q(DeriveSeed(seed, rep), budget);
    for (uint64_t i = 0; i < live; ++i) {
      q.sim.Schedule(1 + q.rng.NextBelow(2000), [&q] { q.Fire(); });
    }
    const double t0 = ThreadCpuNow();
    q.sim.RunUntil(kSimTimeInfinity);
    const double cpu = ThreadCpuNow() - t0;
    samples.push_back(cpu * 1e9 /
                      static_cast<double>(q.sim.events_processed()));
  }
  return Median(samples);
}

}  // namespace bftlab::perfbench
