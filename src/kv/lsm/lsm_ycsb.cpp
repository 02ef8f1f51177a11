#include "kv/lsm/lsm_ycsb.hpp"

#include <stdexcept>
#include <string>

#include "common/rng.hpp"
#include "sim/system.hpp"

namespace steins::lsm {

namespace {

/// Scatter Zipf ranks over the key universe so hot keys are not clustered
/// in one run's key range (same multiplicative-hash idea as the slot
/// store's home_slot).
std::uint64_t key_of_rank(std::uint64_t rank, std::uint64_t keys) {
  return (rank * 0x9e3779b97f4a7c15ULL >> 13) % keys;
}

std::string make_value(std::uint64_t key, std::uint64_t version,
                       std::size_t value_bytes) {
  std::string v = "k";
  v += std::to_string(key);
  v += 'v';
  v += std::to_string(version);
  if (v.size() < value_bytes) v.resize(value_bytes, '.');
  v.resize(value_bytes);
  return v;
}

}  // namespace

LsmYcsbResult run_lsm_ycsb(const SystemConfig& cfg, Scheme scheme,
                           const LsmYcsbConfig& ycfg) {
  if (ycfg.ops == 0 || ycfg.keys == 0) {
    throw std::invalid_argument("lsm ycsb: ops and keys must be positive");
  }
  if (ycfg.layout.base + ycfg.layout.region_bytes() > cfg.nvm.capacity_bytes) {
    throw std::invalid_argument("lsm ycsb: region exceeds NVM capacity");
  }

  System sys(cfg, scheme);
  LsmStore store(sys, ycfg.layout, ycfg.engine);
  {
    const Status s = store.open();
    if (!s.ok()) {
      throw std::invalid_argument("lsm ycsb: open failed: " + s.to_string());
    }
  }

  // Preload the key universe, then settle it into runs so measurement
  // starts from a realistic layered image rather than a pure memtable.
  std::map<std::uint64_t, std::string> model;
  for (std::uint64_t k = 0; k < ycfg.keys; ++k) {
    std::string v = make_value(k, 0, ycfg.value_bytes);
    store.put(k, v);
    if (ycfg.verify) model[k] = std::move(v);
  }
  store.flush();
  store.compact();

  sys.reset_stats();
  const LsmStats before = store.stats();
  const Cycle start = sys.cpu().now();

  LsmYcsbResult res;
  const double upd = kv::update_fraction(ycfg.mix);
  const bool rmw = ycfg.mix == kv::Mix::kF;
  Xoshiro256 rng(derive_stream_seed(ycfg.seed, 0x15f));
  ZipfSampler zipf(static_cast<std::size_t>(ycfg.keys), ycfg.zipf_s);

  for (std::uint64_t i = 0; i < ycfg.ops; ++i) {
    const std::uint64_t key = key_of_rank(zipf.sample(rng), ycfg.keys);
    const bool write = rng.chance(upd);
    const Cycle t0 = sys.cpu().now();
    if (write && rmw) {
      // Read-modify-write: the read and the write are one operation.
      (void)store.get(key);
      std::string v = make_value(key, i + 1, ycfg.value_bytes);
      store.put(key, v);
      if (ycfg.verify) model[key] = std::move(v);
      ++res.updates;
    } else if (write) {
      std::string v = make_value(key, i + 1, ycfg.value_bytes);
      store.put(key, v);
      if (ycfg.verify) model[key] = std::move(v);
      ++res.updates;
    } else {
      (void)store.get(key);
      ++res.reads;
    }
    const Cycle dt = sys.cpu().now() - t0;
    res.all_lat.add(dt);
    (write ? res.update_lat : res.read_lat).add(dt);
  }

  const Cycle elapsed = sys.cpu().now() - start;
  RunStats rs = sys.collect_stats();
  const LsmStats after = store.stats();

  res.ops = ycfg.ops;
  res.seconds = cfg.cycles_to_seconds(elapsed);
  res.kops_per_sec = res.seconds > 0 ? static_cast<double>(res.ops) / res.seconds / 1e3
                                     : 0.0;
  res.nvm_writes = rs.mem.nvm_writes();
  res.bytes_put = after.bytes_put - before.bytes_put;

  res.engine_stats = after;
  res.engine_stats.puts -= before.puts;
  res.engine_stats.erases -= before.erases;
  res.engine_stats.gets -= before.gets;
  res.engine_stats.bytes_put -= before.bytes_put;
  res.engine_stats.wal_records -= before.wal_records;
  res.engine_stats.wal_bytes -= before.wal_bytes;
  res.engine_stats.flushes -= before.flushes;
  res.engine_stats.compactions -= before.compactions;
  res.engine_stats.bg_compactions -= before.bg_compactions;
  res.engine_stats.runs_written -= before.runs_written;
  res.engine_stats.run_blocks_written -= before.run_blocks_written;
  res.engine_stats.persist_barriers -= before.persist_barriers;

  if (res.bytes_put > 0) {
    res.write_amp = static_cast<double>(res.nvm_writes) * kBlockSize /
                    static_cast<double>(res.bytes_put);
    res.logical_write_amp = res.engine_stats.logical_write_amp();
  }

  if (ycfg.verify) {
    res.verified = store.dump() == model;
  }
  return res;
}

}  // namespace steins::lsm
