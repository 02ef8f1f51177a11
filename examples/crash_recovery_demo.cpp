// Crash + attack demo: shows tampering and replay being detected during
// recovery, per the paper's threat model (§II-A, §III-H).
//
//   $ ./build/examples/crash_recovery_demo
#include <cstdio>
#include <memory>

#include "common/rng.hpp"
#include "fault/adversary.hpp"
#include "schemes/steins.hpp"

using namespace steins;

namespace {

std::unique_ptr<SteinsMemory> fresh_memory_with_workload(Xoshiro256& rng) {
  SystemConfig cfg = default_config();
  cfg.nvm.capacity_bytes = 256ULL << 20;  // small demo region
  cfg.secure.metadata_cache.size_bytes = 32 * 1024;
  auto mem = std::make_unique<SteinsMemory>(cfg);
  Cycle now = 0;
  for (int i = 0; i < 5000; ++i) {
    Block data{};
    data[0] = static_cast<std::uint8_t>(i);
    now = mem->write_block(rng.below(200'000) * kBlockSize, data, now);
  }
  return mem;
}

void report(const char* scenario, const RecoveryResult& r) {
  std::printf("%-34s -> %s", scenario, r.attack_detected ? "ATTACK DETECTED" : "recovered OK");
  if (r.attack_detected) std::printf(" (%s)", r.attack_detail.c_str());
  std::printf("\n");
}

}  // namespace

int main() {
  Xoshiro256 rng(2024);
  std::printf("Steins crash-recovery under attack\n");
  std::printf("==================================\n\n");

  {  // Clean crash: no attacker.
    auto mem = fresh_memory_with_workload(rng);
    mem->crash();
    report("clean crash", mem->recover());
  }

  {  // Tampering: flip a bit in a persistent child of a dirty node during
     // downtime — recovery must notice while rebuilding from children.
    auto mem = fresh_memory_with_workload(rng);
    const SitGeometry& geo = mem->geometry();
    NodeId victim{};
    bool found = false;
    mem->metadata_cache().for_each([&](const MetadataLine& line) {
      if (found || !line.dirty || line.payload.id.level == 0) return;
      for (std::size_t j = 0; j < geo.num_children(line.payload.id); ++j) {
        const NodeId c = geo.child_of(line.payload.id, j);
        if (mem->device().contains(geo.node_addr(c))) {
          victim = c;
          found = true;
          return;
        }
      }
    });
    mem->crash();
    if (found) tamper_line(mem->device(), mem->geometry().node_addr(victim), 12);
    report("tampered SIT node", mem->recover());
  }

  {  // Replay: record a data block early, splice it back after more writes.
    auto mem = fresh_memory_with_workload(rng);
    AdversarySnapshot recorded;
    const Addr victim = 1234 * kBlockSize;
    Block data{};
    Cycle now = 0;
    now = mem->write_block(victim, data, now);
    mem->flush_all_metadata();
    record_line(mem->device(), victim, recorded);  // bus snoop
    data[0] = 0xff;
    now = mem->write_block(victim, data, now);  // counter advances
    now = mem->write_block(victim, data, now);
    mem->crash();
    replay_line(mem->device(), victim, recorded);  // splice the stale ciphertext back
    report("replayed data block", mem->recover());
  }

  {  // Record forgery: erase the offset records (mark dirty nodes clean).
    auto mem = fresh_memory_with_workload(rng);
    Cycle t = 0;
    mem->drain_nv_buffer(t);
    mem->crash();
    const Addr base = mem->geometry().aux_base();
    const std::size_t lines = (mem->metadata_cache().num_lines() + 15) / 16;
    for (std::size_t i = 0; i < lines; ++i) {
      overwrite_line(mem->device(), base + i * kBlockSize, zero_block());
    }
    report("forged offset records", mem->recover());
  }

  std::printf("\nTampering is caught by node HMACs; replay and record forgery by the\n");
  std::printf("per-level LInc trust bases (paper Fig. 6 / SIII-H).\n");
  return 0;
}
