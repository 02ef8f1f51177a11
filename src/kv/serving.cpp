#include "kv/serving.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/thread_pool.hpp"
#include "sim/multi_controller.hpp"

namespace steins::kv {

const char* routing_name(Routing r) {
  switch (r) {
    case Routing::kHash: return "hash";
    case Routing::kLoadAware: return "load-aware";
  }
  return "?";
}

std::optional<Routing> parse_routing(const std::string& name) {
  if (name == "hash") return Routing::kHash;
  if (name == "load-aware" || name == "loadaware" || name == "load") {
    return Routing::kLoadAware;
  }
  return std::nullopt;
}

namespace {

std::uint64_t word_at(const Block& b, std::size_t offset) {
  std::uint64_t w = 0;
  std::memcpy(&w, b.data() + offset, 8);
  return w;
}

void put_word(Block& b, std::size_t offset, std::uint64_t w) {
  std::memcpy(b.data() + offset, &w, 8);
}

/// The value a client writes for (key, version), padded to value_bytes.
std::string client_value(std::uint64_t key, std::uint64_t version,
                         std::size_t value_bytes) {
  std::string v = "c";
  v += std::to_string(key);
  v += '.';
  v += std::to_string(version);
  if (v.size() < value_bytes) v.resize(value_bytes, '~');
  v.resize(std::min(value_bytes, kMaxValueBytes));
  return v;
}

constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ULL;

void fnv_fold(std::uint64_t& h, const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 1099511628211ULL;
  }
}

/// Op index of an epoch's closing group-commit flush: it runs after every
/// op of the epoch, on behalf of none of them.
constexpr std::uint32_t kClosingFlush = 0xffffffffu;
constexpr std::uint64_t kNoLimit = ~std::uint64_t{0};
constexpr std::uint64_t kNoKey = ~std::uint64_t{0};

/// One resolved access of a shard's schedule. Addresses are LOCAL to the
/// shard's controller (per-shard layouts bypass the interleave).
struct PlannedAccess {
  enum Kind : std::uint8_t { kCommitRead, kRecordRead, kRecordWrite, kCommitWrite };
  Addr addr = 0;
  std::uint32_t op = kClosingFlush;  // index into Shard::ops of the op that emitted it
  Kind kind = kRecordWrite;
  bool charged = true;        // service counts toward op's client latency
  std::size_t slot = 0;       // kCommitRead: its slot; kCommitWrite: first slot
  std::uint64_t expect_word = 0;     // kCommitRead
  std::uint64_t expect_key = 0;      // kRecordRead
  std::uint64_t expect_version = 0;  // kRecordRead
  Block data{};               // write image
};

/// An admitted op of the current epoch, kept by its home shard.
struct ShardOp {
  std::uint64_t op = 0;  // global op index
  std::uint64_t key = 0;
  bool is_update = false;
};

struct Shard {
  std::vector<std::uint64_t> keys;       // keys routed here (ascending)
  std::vector<std::uint64_t> slot_key;   // slot -> key (kNoKey = unused)
  std::vector<std::uint64_t> media;      // commit words as scheduled on media
  std::vector<std::uint64_t> logical;    // media + buffered window
  std::vector<std::uint64_t> durable;    // words of the issued commit writes
  std::vector<char> pending;             // slot has a buffered commit word
  std::vector<std::size_t> pending_slots;
  std::vector<ShardOp> ops;              // this epoch's admitted ops, op order
  std::vector<Cycle> op_lat;             // per ops entry, charged service
  std::uint64_t batched = 0;             // commit words coalesced, lifetime
  std::uint64_t limit = kNoLimit;        // accesses to issue (crash boundary)
  std::uint64_t issued = 0;              // accesses issued so far
  LatencyHistogram batch_sizes;          // one sample per flushed window
  LatencyHistogram read_lat;             // cycles, this shard's reads
  LatencyHistogram update_lat;
  std::uint64_t reads = 0;
  std::uint64_t updates = 0;
  ShardServingStats stats;
  std::vector<PlannedAccess> queue;      // this epoch's resolved accesses
  Cycle now = 0;

  bool stopped() const { return issued == limit; }
};

/// Everything a crash harness needs to diff recovery against.
struct EngineRun {
  ServingResult result;
  std::vector<std::vector<std::uint64_t>> durable;   // [shard][slot]
  std::vector<std::vector<std::uint64_t>> slot_key;  // [shard][slot]
};

/// Key -> shard routing table. kHash scatters by multiplicative hash (top
/// bits, decorrelated from home_slot's bits); kLoadAware assigns keys in
/// descending expected Zipf weight to the least-loaded shard, capacity
/// guarded at half-full per shard so linear probing stays short.
std::vector<std::uint32_t> route_keys(const ServingConfig& scfg) {
  const std::size_t cap = scfg.slots / 2;
  std::vector<std::uint32_t> shard_of(scfg.keys, 0);
  std::vector<std::size_t> counts(scfg.shards, 0);
  if (scfg.routing == Routing::kHash) {
    for (std::uint64_t key = 0; key < scfg.keys; ++key) {
      const auto s = static_cast<std::uint32_t>(
          ((key * 0x9e3779b97f4a7c15ULL) >> 49) % scfg.shards);
      if (counts[s] >= cap) {
        throw std::invalid_argument(
            "hash routing overflowed a shard table; raise slots or use "
            "load-aware routing");
      }
      shard_of[key] = s;
      ++counts[s];
    }
    return shard_of;
  }
  // Expected access weight per key: the Zipf pmf over ranks, folded through
  // the rank -> key scatter (several ranks can share a key when the scatter
  // is non-injective mod keys).
  std::vector<double> weight(scfg.keys, 0.0);
  for (std::uint64_t rank = 0; rank < scfg.keys; ++rank) {
    const std::uint64_t key = (rank * 0x9e3779b97f4a7c15ULL) % scfg.keys;
    weight[key] += std::pow(static_cast<double>(rank + 1), -scfg.zipf_s);
  }
  std::vector<std::uint64_t> order(scfg.keys);
  for (std::uint64_t k = 0; k < scfg.keys; ++k) order[k] = k;
  std::sort(order.begin(), order.end(), [&](std::uint64_t a, std::uint64_t b) {
    if (weight[a] != weight[b]) return weight[a] > weight[b];
    return a < b;
  });
  std::vector<double> load(scfg.shards, 0.0);
  for (const std::uint64_t key : order) {
    std::size_t best = scfg.shards;  // invalid
    for (std::size_t s = 0; s < scfg.shards; ++s) {
      if (counts[s] >= cap) continue;
      if (best == scfg.shards || load[s] < load[best]) best = s;
    }
    if (best == scfg.shards) {
      throw std::invalid_argument(
          "keys exceed the shards' admission-guarded table capacity");
    }
    shard_of[key] = static_cast<std::uint32_t>(best);
    load[best] += weight[key];
    ++counts[best];
  }
  return shard_of;
}

/// Reject nonsense configurations before anything divides by or allocates
/// proportionally to the shard count — every public entry point calls this
/// ahead of constructing MultiControllerMemory, whose constructor already
/// partitions capacity by the controller count.
void validate_serving_config(const SystemConfig& cfg, const ServingConfig& scfg) {
  if (scfg.clients == 0) throw std::invalid_argument("serving needs >= 1 client");
  if (scfg.shards == 0) throw std::invalid_argument("serving needs >= 1 shard");
  if (scfg.slots == 0 || (scfg.slots & (scfg.slots - 1)) != 0) {
    throw std::invalid_argument("serving slots must be a power of two");
  }
  if (scfg.keys == 0) throw std::invalid_argument("serving needs >= 1 key");
  if (scfg.epoch_ops == 0) throw std::invalid_argument("epoch_ops must be >= 1");
  KvLayout layout;
  layout.base = scfg.base;
  layout.slots = scfg.slots;
  if (layout.base + layout.region_bytes() > cfg.nvm.capacity_bytes / scfg.shards) {
    throw std::invalid_argument("per-shard KV region exceeds the controller capacity");
  }
}

/// The record image a slot holds for (key, version) — what preload and
/// updates write and what every read of it must return.
Block record_image(std::uint64_t key, std::uint64_t version, std::size_t value_bytes) {
  return encode_record(KvRecord{key, version, client_value(key, version, value_bytes)});
}

/// Call fn(first, n) for every commit block of `words` that holds a nonzero
/// word, in ascending order; `first` is its first slot, `n` its word count.
template <typename Fn>
void for_each_used_commit_block(const std::vector<std::uint64_t>& words, Fn&& fn) {
  for (std::size_t first = 0; first < words.size(); first += KvLayout::kWordsPerCommitBlock) {
    const std::size_t n = std::min(KvLayout::kWordsPerCommitBlock, words.size() - first);
    const auto begin = words.begin() + static_cast<std::ptrdiff_t>(first);
    if (std::any_of(begin, begin + static_cast<std::ptrdiff_t>(n),
                    [](std::uint64_t w) { return w != 0; })) {
      fn(first, n);
    }
  }
}

/// The whole engine (phases in serving.hpp and DESIGN.md §18). `mem` ==
/// nullptr plans only (no memory execution, no preload writes). A non-empty
/// `limits` is a crash run: shard s issues only the first limits[s] accesses
/// of its schedule, and nothing is measured or read back. `plan`, when set,
/// records the global access order (ServingSchedule).
EngineRun run_engine(const SystemConfig& cfg, const ServingConfig& scfg,
                     MultiControllerMemory* mem, const std::vector<std::uint64_t>& limits,
                     ServingSchedule* plan) {
  validate_serving_config(cfg, scfg);
  KvLayout layout;
  layout.base = scfg.base;
  layout.slots = scfg.slots;
  const bool measure = mem != nullptr && limits.empty();

  const std::vector<std::uint32_t> shard_of = route_keys(scfg);
  std::vector<Shard> shards(scfg.shards);
  for (std::uint64_t key = 0; key < scfg.keys; ++key) {
    shards[shard_of[key]].keys.push_back(key);
  }
  std::vector<std::size_t> slot_of(scfg.keys, 0);  // filled per shard, own keys only
  ShardGang gang(scfg.shards, scfg.jobs);

  // Slot assignment and preload, each shard on its own worker and timeline.
  // Slots come from per-shard linear probing in ascending key order, so the
  // table image is independent of the routing policy's assignment order.
  const std::uint64_t preload_word = CommitWord{1, 0, true}.encode();
  gang.run_epoch([&](std::size_t s) {
    Shard& sh = shards[s];
    sh.slot_key.assign(scfg.slots, kNoKey);
    sh.media.assign(scfg.slots, 0);
    sh.pending.assign(scfg.slots, 0);
    for (const std::uint64_t key : sh.keys) {
      std::size_t slot = layout.home_slot(key);
      while (sh.slot_key[slot] != kNoKey) slot = (slot + 1) & (scfg.slots - 1);
      sh.slot_key[slot] = key;
      slot_of[key] = slot;
      sh.media[slot] = preload_word;
    }
    sh.logical = sh.media;
    sh.durable = sh.media;
    sh.stats.keys = sh.keys.size();
    if (mem == nullptr) return;
    MultiControllerMemory::ShardLease lease(*mem, static_cast<unsigned>(s));
    SecureMemory& ctrl = lease.mem();
    Cycle t = 0;
    for (const std::uint64_t key : sh.keys) {
      t = ctrl.write_block(layout.record_addr(slot_of[key], 0),
                           record_image(key, 1, scfg.value_bytes), t);
    }
    for_each_used_commit_block(sh.media, [&](std::size_t first, std::size_t n) {
      Block img{};
      for (std::size_t w = 0; w < n; ++w) put_word(img, w * 8, sh.media[first + w]);
      t = ctrl.write_block(layout.commit_block_addr(first), img, t);
    });
    ctrl.stats().reset();
    lease.note_frontier(t);
  });
  const Cycle start = mem != nullptr ? mem->max_frontier() : 0;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    shards[s].now = start;
    if (!limits.empty()) shards[s].limit = limits[s];
  }

  const std::uint64_t epochs = (scfg.ops + scfg.epoch_ops - 1) / scfg.epoch_ops;
  if (plan != nullptr) {
    plan->epoch_ops = scfg.epoch_ops;
    plan->shards = scfg.shards;
    plan->op_shard.assign(scfg.ops, 0);
    plan->op_accesses.assign(scfg.ops, 0);
    plan->closing.assign(epochs * scfg.shards, 0);
  }
  const ZipfSampler sampler(static_cast<std::size_t>(scfg.keys), scfg.zipf_s);
  const double upd_frac = update_fraction(scfg.mix);

  // Flush a shard's group-commit window: one commit-block write per dirty
  // block (ascending), image materialized from the logical words. The
  // window's size is one batch-distribution sample.
  const auto flush_window = [&](Shard& sh, std::uint32_t op, bool charged) {
    if (sh.pending_slots.empty()) return;
    std::sort(sh.pending_slots.begin(), sh.pending_slots.end());
    std::size_t prev_block = ~std::size_t{0};
    for (const std::size_t slot : sh.pending_slots) {
      sh.pending[slot] = 0;
      const std::size_t block = slot / KvLayout::kWordsPerCommitBlock;
      if (block == prev_block) continue;
      prev_block = block;
      const std::size_t first = block * KvLayout::kWordsPerCommitBlock;
      const std::size_t n =
          std::min(KvLayout::kWordsPerCommitBlock, scfg.slots - first);
      PlannedAccess w;
      w.addr = layout.commit_block_addr(first);
      w.op = op;
      w.kind = PlannedAccess::kCommitWrite;
      w.charged = charged;
      w.slot = first;
      for (std::size_t i = 0; i < n; ++i) put_word(w.data, i * 8, sh.logical[first + i]);
      for (std::size_t i = 0; i < n; ++i) sh.media[first + i] = sh.logical[first + i];
      sh.queue.push_back(std::move(w));
      ++sh.stats.commit_writes;
    }
    sh.batch_sizes.add(sh.pending_slots.size());
    sh.batched += sh.pending_slots.size();
    ++sh.stats.commit_flushes;
    sh.pending_slots.clear();
  };

  // Resolve one shard's admitted ops of `epoch` into its access queue,
  // closing with the epoch's flush (an epoch boundary is a durability
  // point). Reads and writes only this shard's state plus its ops' entries
  // of the plan.
  const auto resolve = [&](std::size_t s, std::uint64_t epoch) {
    Shard& sh = shards[s];
    sh.queue.clear();
    for (std::uint32_t i = 0; i < sh.ops.size(); ++i) {
      const ShardOp& o = sh.ops[i];
      const std::size_t emitted_before = sh.queue.size();
      const std::size_t slot = slot_of[o.key];
      const CommitWord word = CommitWord::decode(sh.logical[slot]);
      if (word.empty() || !word.live) {
        throw std::logic_error("serving scheduled an op on a dead slot");
      }

      if (o.is_update && sh.pending[slot]) {
        // Second update to a buffered slot: its record write would target
        // the replica the DURABLE commit word still points at. Force the
        // window out first so the two-replica invariant holds at every
        // crash boundary.
        flush_window(sh, i, false);
      }

      if (!sh.pending[slot]) {
        // Commit read from media; a buffered slot skips this (the word is
        // served from the shard's volatile commit buffer — the group
        // commit coalescing win on the read path).
        PlannedAccess commit_read;
        commit_read.addr = layout.commit_block_addr(slot);
        commit_read.op = i;
        commit_read.kind = PlannedAccess::kCommitRead;
        commit_read.slot = slot;
        commit_read.expect_word = sh.media[slot];
        sh.queue.push_back(std::move(commit_read));
      }

      // Re-read the word: the forced flush above never changes it, but
      // keep the single source of truth obvious.
      const CommitWord cur = CommitWord::decode(sh.logical[slot]);
      if (!o.is_update || scfg.mix == Mix::kF) {
        PlannedAccess rec_read;
        rec_read.addr = layout.record_addr(slot, cur.replica);
        rec_read.op = i;
        rec_read.kind = PlannedAccess::kRecordRead;
        rec_read.expect_key = o.key;
        rec_read.expect_version = cur.version;
        sh.queue.push_back(std::move(rec_read));
      }
      if (o.is_update) {
        const int replica = 1 - cur.replica;
        PlannedAccess rec_write;
        rec_write.addr = layout.record_addr(slot, replica);
        rec_write.op = i;
        rec_write.kind = PlannedAccess::kRecordWrite;
        rec_write.data = record_image(o.key, cur.version + 1, scfg.value_bytes);
        sh.queue.push_back(std::move(rec_write));

        sh.logical[slot] = CommitWord{cur.version + 1, replica, true}.encode();
        sh.pending[slot] = 1;
        sh.pending_slots.push_back(slot);
        if (scfg.group_commit_window == 0) {
          flush_window(sh, i, true);  // batch of 1: the op owns its commit write
        } else if (sh.pending_slots.size() >= scfg.group_commit_window) {
          flush_window(sh, i, false);
        }
      }
      if (plan != nullptr) {
        plan->op_accesses[o.op] = static_cast<std::uint32_t>(sh.queue.size() - emitted_before);
      }
    }
    const std::size_t emitted_before = sh.queue.size();
    flush_window(sh, kClosingFlush, false);
    if (plan != nullptr) {
      plan->closing[epoch * scfg.shards + s] =
          static_cast<std::uint32_t>(sh.queue.size() - emitted_before);
    }
  };

  // Replay one shard's queue, up to its access limit, on its own controller,
  // validating every read against the schedule; the commit-block writes it
  // issues are the durable state a crash leaves behind. With no controller
  // (planning only) the durable bookkeeping runs alone.
  const auto replay = [&](std::size_t s) {
    Shard& sh = shards[s];
    std::optional<MultiControllerMemory::ShardLease> lease;
    if (mem != nullptr) lease.emplace(*mem, static_cast<unsigned>(s));
    SecureMemory* ctrl = lease ? &lease->mem() : nullptr;
    sh.op_lat.assign(sh.ops.size(), 0);
    Cycle now = sh.now;
    for (const PlannedAccess& a : sh.queue) {
      if (sh.stopped()) break;
      ++sh.issued;
      if (a.kind == PlannedAccess::kCommitWrite) {
        const std::size_t n = std::min(KvLayout::kWordsPerCommitBlock, scfg.slots - a.slot);
        for (std::size_t w = 0; w < n; ++w) sh.durable[a.slot + w] = word_at(a.data, w * 8);
      }
      if (ctrl == nullptr) continue;
      Cycle done = 0;
      if (a.kind == PlannedAccess::kRecordWrite || a.kind == PlannedAccess::kCommitWrite) {
        done = ctrl->write_block(a.addr, a.data, now);
      } else {
        Block b;
        done = ctrl->read_block(a.addr, now, &b);
        if (a.kind == PlannedAccess::kCommitRead) {
          if (word_at(b, layout.commit_word_offset(a.slot)) != a.expect_word) {
            throw std::logic_error(
                "serving replay read a commit word diverging from the schedule");
          }
        } else {
          KvRecord rec;
          if (!decode_record(b, &rec) || rec.key != a.expect_key ||
              rec.version != a.expect_version) {
            throw std::logic_error("serving replay read a corrupt or stale record");
          }
        }
      }
      if (a.charged) sh.op_lat[a.op] += done - now;
      now = done;
    }
    sh.now = now;
    if (lease) lease->note_frontier(now);
    // File each op's latency in its shard's histograms. Uncharged flushes
    // count toward makespan and the flush columns, not toward any op.
    if (!measure) return;
    for (std::size_t i = 0; i < sh.ops.size(); ++i) {
      if (sh.ops[i].is_update) {
        sh.update_lat.add(sh.op_lat[i]);
        ++sh.updates;
      } else {
        sh.read_lat.add(sh.op_lat[i]);
        ++sh.reads;
      }
    }
  };

  // Serve: each worker walks the whole op stream once, in global op order,
  // on its own copy of the client RNG streams, keeps the ops routed to its
  // shards, and resolves and replays each epoch for them at once. Workers
  // share nothing mutable, so no barrier separates epochs.
  gang.run_workers([&](unsigned worker) {
    std::vector<Xoshiro256> rngs;
    rngs.reserve(scfg.clients);
    for (unsigned i = 0; i < scfg.clients; ++i) {
      rngs.emplace_back(derive_stream_seed(scfg.seed, i));
    }
    std::vector<std::size_t> mine;
    std::vector<char> owned(scfg.shards, 0);
    for (std::size_t s = 0; s < shards.size(); ++s) {
      if (gang.worker_of(s) != worker) continue;
      mine.push_back(s);
      owned[s] = 1;
    }
    for (std::uint64_t epoch = 0; epoch < epochs; ++epoch) {
      const std::uint64_t first = epoch * scfg.epoch_ops;
      const std::uint64_t end = std::min(first + scfg.epoch_ops, scfg.ops);
      for (const std::size_t s : mine) shards[s].ops.clear();
      for (std::uint64_t op = first; op < end; ++op) {
        Xoshiro256& rng = rngs[op % scfg.clients];
        const std::uint64_t rank = sampler.sample(rng);
        const std::uint64_t key = (rank * 0x9e3779b97f4a7c15ULL) % scfg.keys;
        const bool is_update = upd_frac > 0.0 && rng.chance(upd_frac);
        const std::uint32_t s = shard_of[key];
        if (!owned[s]) continue;
        Shard& sh = shards[s];
        if (plan != nullptr) plan->op_shard[op] = s;

        // Bounded admission: overload sheds the op into a typed degraded
        // verdict. The client RNG was already advanced identically, so the
        // rest of the schedule is unchanged by the shed.
        if (scfg.queue_depth != 0 && sh.ops.size() >= scfg.queue_depth) {
          ++sh.stats.shed;
          sh.stats.degraded = true;
          continue;
        }
        ++sh.stats.ops;
        sh.ops.push_back(ShardOp{op, key, is_update});
      }
      bool all_stopped = true;
      for (const std::size_t s : mine) {
        if (shards[s].stopped()) continue;
        resolve(s, epoch);
        replay(s);
        all_stopped = all_stopped && shards[s].stopped();
      }
      // Past a crash boundary nothing further executes or becomes durable.
      if (all_stopped) break;
    }
  });

  ServingResult res;
  res.offered_ops = scfg.ops;
  for (Shard& sh : shards) {
    res.read_lat.merge(sh.read_lat);
    res.update_lat.merge(sh.update_lat);
    res.reads += sh.reads;
    res.updates += sh.updates;
    res.batch_sizes.merge(sh.batch_sizes);
    res.shed_ops += sh.stats.shed;
    if (sh.stats.degraded) ++res.degraded_shards;
    res.commit_writes += sh.stats.commit_writes;
    sh.stats.busy = sh.now - start;
    res.makespan = std::max(res.makespan, sh.stats.busy);
    sh.stats.mean_batch =
        sh.stats.commit_flushes
            ? static_cast<double>(sh.batched) / static_cast<double>(sh.stats.commit_flushes)
            : 0.0;
  }
  res.all_lat.merge(res.read_lat);
  res.all_lat.merge(res.update_lat);
  res.ops = res.reads + res.updates;
  for (Shard& sh : shards) {
    sh.stats.occupancy = res.makespan
                             ? static_cast<double>(sh.stats.busy) /
                                   static_cast<double>(res.makespan)
                             : 0.0;
    res.shards.push_back(sh.stats);
  }
  res.seconds = cfg.cycles_to_seconds(res.makespan);
  res.kops_per_sec =
      res.seconds > 0.0 ? static_cast<double>(res.ops) / res.seconds / 1e3 : 0.0;
  if (mem != nullptr) res.nvm_writes = mem->total_nvm_writes();

  // Final image: every shard reads back its commit blocks and live records
  // on its own worker and checks them byte for byte against the schedule
  // shadow. The digest then folds that verified shadow in shard order, so
  // it is the digest of the media image without buffering it.
  if (measure) {
    gang.run_epoch([&](std::size_t s) {
      const Shard& sh = shards[s];
      MultiControllerMemory::ShardLease lease(*mem, static_cast<unsigned>(s));
      SecureMemory& ctrl = lease.mem();
      Cycle now = sh.now;
      for_each_used_commit_block(sh.media, [&](std::size_t first, std::size_t n) {
        Block b;
        now = std::max(now, ctrl.read_block(layout.commit_block_addr(first), now, &b));
        for (std::size_t i = 0; i < n; ++i) {
          if (word_at(b, i * 8) != sh.media[first + i]) {
            throw std::logic_error("final image diverged from the schedule shadow");
          }
          const CommitWord word = CommitWord::decode(sh.media[first + i]);
          if (word.empty() || !word.live) continue;
          Block rec;
          now = std::max(
              now, ctrl.read_block(layout.record_addr(first + i, word.replica), now, &rec));
          if (rec != record_image(sh.slot_key[first + i], word.version, scfg.value_bytes)) {
            throw std::logic_error("final record image diverged from the schedule shadow");
          }
        }
      });
    });
    std::uint64_t digest = kFnvOffsetBasis;
    for (const Shard& sh : shards) {
      for_each_used_commit_block(sh.media, [&](std::size_t first, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
          fnv_fold(digest, &sh.media[first + i], 8);
          const CommitWord word = CommitWord::decode(sh.media[first + i]);
          if (word.empty() || !word.live) continue;
          const Block rec =
              record_image(sh.slot_key[first + i], word.version, scfg.value_bytes);
          fnv_fold(digest, rec.data(), rec.size());
        }
      });
    }
    res.image_digest = digest;
  }

  EngineRun run;
  run.result = std::move(res);
  for (Shard& sh : shards) {
    run.durable.push_back(std::move(sh.durable));
    run.slot_key.push_back(std::move(sh.slot_key));
  }
  return run;
}

}  // namespace

std::uint64_t ServingSchedule::total_accesses() const {
  std::uint64_t total = 0;
  for (const std::uint32_t n : op_accesses) total += n;
  for (const std::uint32_t n : closing) total += n;
  return total;
}

std::vector<std::uint64_t> ServingSchedule::shard_limits(std::uint64_t boundary) const {
  std::vector<std::uint64_t> limit(shards, 0);
  std::uint64_t left = boundary;
  const auto take = [&](std::size_t shard, std::uint64_t n) {
    const std::uint64_t k = std::min(n, left);
    limit[shard] += k;
    left -= k;
  };
  for (std::uint64_t first = 0; first < op_shard.size() && left > 0; first += epoch_ops) {
    const std::uint64_t end = std::min<std::uint64_t>(first + epoch_ops, op_shard.size());
    for (std::uint64_t op = first; op < end; ++op) take(op_shard[op], op_accesses[op]);
    const std::size_t epoch = first / epoch_ops;
    for (std::size_t s = 0; s < shards; ++s) take(s, closing[epoch * shards + s]);
  }
  return limit;
}

ServingResult run_sharded_serving(const SystemConfig& cfg, Scheme scheme,
                                  const ServingConfig& scfg) {
  validate_serving_config(cfg, scfg);
  MultiControllerMemory mem(cfg, scheme, scfg.shards);
  return run_engine(cfg, scfg, &mem, {}, nullptr).result;
}

ServingSchedule plan_serving(const SystemConfig& cfg, const ServingConfig& scfg) {
  ServingSchedule plan;
  run_engine(cfg, scfg, nullptr, {}, &plan);
  return plan;
}

std::uint64_t count_serving_accesses(const SystemConfig& cfg, Scheme scheme,
                                     const ServingConfig& scfg) {
  (void)scheme;  // the schedule is scheme-independent
  return plan_serving(cfg, scfg).total_accesses();
}

CrashReport run_serving_crash(const SystemConfig& cfg, Scheme scheme,
                              const ServingConfig& scfg, const ServingCrashOptions& opt) {
  CrashReport rep;
  rep.store = "serving";
  rep.scheme = scheme_name(scheme, cfg.counter_mode);
  rep.seed = scfg.seed;
  rep.fault_class = opt.fault_class;
  rep.fault_seed = opt.fault_seed;
  validate_serving_config(cfg, scfg);
  const ServingSchedule plan = plan_serving(cfg, scfg);
  rep.total_boundaries = plan.total_accesses();
  if (opt.crash_at == ServingCrashOptions::kRandomBoundary) {
    Xoshiro256 rng(derive_stream_seed(scfg.seed, 0xC2A54ULL));
    rep.crash_at = rng.below(rep.total_boundaries + 1);
  } else {
    rep.crash_at = std::min(opt.crash_at, rep.total_boundaries);
  }

  MultiControllerMemory mem(cfg, scheme, scfg.shards);
  EngineRun run = run_engine(cfg, scfg, &mem, plan.shard_limits(rep.crash_at), nullptr);
  rep.durable_digest = kFnvOffsetBasis;
  for (const std::vector<std::uint64_t>& words : run.durable) {
    fnv_fold(rep.durable_digest, words.data(), words.size() * sizeof(std::uint64_t));
  }

  // Fold the requested hardware fault into every controller's crash drain;
  // each DIMM gets its own derived plan so a report reproduces from its
  // fields alone.
  rep.faulted = opt.fault_class != FaultClass::kNone;
  std::vector<std::unique_ptr<FaultInjector>> injectors;
  if (rep.faulted) {
    for (std::uint32_t s = 0; s < scfg.shards; ++s) {
      injectors.push_back(std::make_unique<FaultInjector>(
          FaultPlan::derive(opt.fault_class, opt.fault_seed + s, rep.crash_at)));
      mem.set_fault_injector(s, injectors.back().get());
    }
  }

  const RecoveryResult r = mem.crash_and_recover_all(scfg.jobs);
  for (std::uint32_t s = 0; s < scfg.shards; ++s) mem.set_fault_injector(s, nullptr);
  if (!record_recovery(r, rep)) return rep;

  // Diff the recovered image against the durable commit state: every
  // durable commit word must read back EXACTLY (a diverging word is a
  // silent rollback or an uncommitted update made visible) and every
  // durable live record must decode to its committed version/value, or
  // fail with a typed unavailable error (degraded service, not silence).
  KvLayout layout;
  layout.base = scfg.base;
  layout.slots = scfg.slots;
  try {
    for (std::uint32_t s = 0; s < scfg.shards; ++s) {
      SecureMemory& ctrl = mem.controller(s);
      const std::vector<std::uint64_t>& durable = run.durable[s];
      const std::vector<std::uint64_t>& slot_key = run.slot_key[s];
      Cycle now = 0;
      const std::size_t nblocks =
          (scfg.slots + KvLayout::kWordsPerCommitBlock - 1) /
          KvLayout::kWordsPerCommitBlock;
      for (std::size_t blk = 0; blk < nblocks; ++blk) {
        const std::size_t first = blk * KvLayout::kWordsPerCommitBlock;
        const std::size_t n =
            std::min(KvLayout::kWordsPerCommitBlock, scfg.slots - first);
        std::uint64_t durable_live = 0;
        bool any = false;
        for (std::size_t i = 0; i < n; ++i) {
          if (durable[first + i] == 0) continue;
          any = true;
          if (CommitWord::decode(durable[first + i]).live) ++durable_live;
        }
        if (!any) continue;
        Block b;
        try {
          now = std::max(now, ctrl.read_block(layout.commit_block_addr(first), now, &b));
        } catch (const StatusError& e) {
          if (!is_unavailable(e.code())) throw;
          rep.keys_unavailable += durable_live;
          continue;
        }
        for (std::size_t i = 0; i < n; ++i) {
          const std::size_t slot = first + i;
          const std::uint64_t got = word_at(b, i * 8);
          if (got != durable[slot]) {
            rep.detail = "slot " + std::to_string(slot) + " on shard " +
                         std::to_string(s) + " holds commit word " +
                         std::to_string(got) + ", committed " +
                         std::to_string(durable[slot]);
            return rep;
          }
          const CommitWord word = CommitWord::decode(got);
          if (word.empty() || !word.live) continue;
          ++rep.committed_keys;
          Block recb;
          try {
            now = std::max(
                now, ctrl.read_block(layout.record_addr(slot, word.replica), now, &recb));
          } catch (const StatusError& e) {
            if (!is_unavailable(e.code())) throw;
            ++rep.keys_unavailable;
            continue;
          }
          KvRecord rec;
          const std::uint64_t key = slot_key[slot];
          if (!decode_record(recb, &rec) || rec.key != key ||
              rec.version != word.version ||
              rec.value != client_value(key, word.version, scfg.value_bytes)) {
            rep.detail = "committed key " + std::to_string(key) +
                         " has a silently wrong record after recovery";
            return rep;
          }
        }
      }
    }
  } catch (const IntegrityViolation& e) {
    rep.fault_detected = rep.faulted;
    rep.detail = std::string("readback raised: ") + e.what();
    return rep;
  } catch (const StatusError& e) {
    rep.detail = std::string("readback failed untyped: ") + e.what();
    return rep;
  }
  if (rep.keys_unavailable > 0) rep.salvaged = true;
  if (rep.salvaged) {
    rep.degraded_verified = true;
  } else {
    rep.verified = true;
  }
  return rep;
}

}  // namespace steins::kv
