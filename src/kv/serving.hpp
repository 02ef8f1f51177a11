// Concurrent sharded KV serving engine over MultiControllerMemory: the
// repository's one KV workload driver.
//
// N closed-loop clients issue YCSB operations (kv/mix.hpp; Zipfian key
// popularity, theta 0.99 by default) against a serving topology of one
// SHARD per controller, one worker thread per shard (common/thread_pool.hpp
// ShardGang), each shard owning a private KvLayout carved out of its
// controller's local address space. An operation's accesses never cross
// shards, so shards run genuinely in parallel — on the simulated timelines
// always, and on host threads when jobs > 1. Each shard serves its queue
// back to back on its own timeline (a work-conserving FIFO server), an
// op's latency is the sum of its accesses' service times, queueing
// included, and the makespan is the busiest shard's span.
//
// Every per-shard phase runs on the ShardGang (DESIGN.md §18), in three
// gang passes per run. A worker touches only its own shards' controllers
// and shadow state; the calling thread only merges at the end:
//
//  1. Preload (gang): each shard assigns its keys' slots by linear probing
//     in ascending key order, writes their records and commit blocks on its
//     own timeline, and sets its frontier. Serving starts at the busiest
//     shard's preload frontier.
//  2. Serve (one pass per worker, no barrier between epochs): each worker
//     copies the per-client RNG streams and draws every op of an epoch in
//     global op order (Zipf rank, key, update coin), routes the key to its
//     home shard, and keeps the ops of the shards it owns; per-shard
//     bounded admission queues shed overload into typed degraded verdicts.
//     Then, for each of its shards, it resolves the epoch's ops, in op
//     order, into an access queue (commit and record reads, record writes,
//     forced and window group-commit flushes, then the epoch's closing
//     window flush) and replays that queue on the shard's controller,
//     checking every read against the schedule. Op latencies go into
//     per-shard histograms.
//  3. Readback (gang): each shard reads its final image back and checks it
//     byte for byte against the schedule shadow; the FNV-1a image digest
//     then folds that verified shadow in shard order.
//
// Any jobs value is bit-identical: every worker draws the same op stream,
// and a shard's ops, resolution, replay and readback read and write only
// that shard's state, so which thread runs a shard, and when, cannot change
// a bit. The end-of-run merges (latency and batch-size histograms, counts,
// digest) run in shard order over integer data, which merges commutatively.
//
// Group commit (paper §IV-B spirit — SecPM-style write coalescing applied
// at the serving layer): within a window, an update writes its record
// replica immediately but only BUFFERS its commit word; the shard flushes
// one commit-block write per dirty block at the window boundary. Reads of
// a buffered slot are served from the commit buffer (no media commit
// read). A second update to a slot whose commit word is still buffered
// forces the window out first — otherwise its record write would land in
// the replica the durable commit word still points at, breaking the
// two-replica crash invariant.
//
// Routing: kHash scatters keys by multiplicative hash; kLoadAware greedily
// assigns keys to the least-loaded shard by expected Zipf weight
// (descending popularity, capacity-guarded), which evens out per-shard
// occupancy when the hot set would otherwise pile onto one DIMM.
//
// Crash validation (run_serving_crash): a crash boundary K counts accesses
// in the one global order a single thread resolving op after op would
// emit — per epoch, every op's accesses in global op order, then each
// shard's closing flush in shard order. Only crash runs need that order:
// a planning run records it (ServingSchedule), the schedule turns K into
// per-shard access limits, and the crash run has each shard issue exactly
// its first limit accesses; ADR drains every issued write, and recovery is diffed
// against the commit-block writes that were issued. Zero silent corruption
// is the acceptance bar for every scheme (write-back passes by being
// detected as unrecoverable).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "fault/crash_harness.hpp"
#include "fault/fault.hpp"
#include "kv/kv_store.hpp"
#include "kv/mix.hpp"
#include "secure/secure_memory.hpp"

namespace steins::kv {

enum class Routing { kHash, kLoadAware };

const char* routing_name(Routing r);
std::optional<Routing> parse_routing(const std::string& name);

struct ServingConfig {
  Mix mix = Mix::kA;
  unsigned clients = 4;
  unsigned shards = 2;            // controllers == shards == worker slots
  std::uint64_t ops = 100'000;    // offered operations across all clients
  std::uint64_t keys = 10'000;    // preloaded key universe (global)
  std::size_t slots = std::size_t{1} << 14;  // PER-SHARD table slots (pow 2)
  std::size_t value_bytes = 24;
  double zipf_s = 0.99;
  std::uint64_t seed = 1;
  Addr base = Addr{1} << 20;      // per-shard local region base
  /// Worker threads (capped at shards). Any value is bit-identical; 1
  /// runs every shard's phases inline on the calling thread.
  unsigned jobs = 1;
  std::uint64_t epoch_ops = 8192;
  Routing routing = Routing::kLoadAware;
  /// Ops a shard admits per epoch before shedding into degraded verdicts
  /// (0 = unbounded). Shed ops consume client RNG identically, so runs
  /// with different depths stay schedule-comparable.
  std::uint64_t queue_depth = 0;
  /// Commit-word updates a shard buffers before flushing the window
  /// (0 = group commit off: every update writes its commit block at once).
  std::uint64_t group_commit_window = 64;
};

struct ShardServingStats {
  std::uint64_t keys = 0;          // keys routed to this shard
  std::uint64_t ops = 0;           // admitted (executed) ops
  std::uint64_t shed = 0;          // admission-queue overflow verdicts
  bool degraded = false;           // shed anything => degraded service
  Cycle busy = 0;                  // measured span on this shard's timeline
  double occupancy = 0.0;          // busy / makespan (1.0 = the critical shard)
  std::uint64_t commit_flushes = 0;   // group-commit windows flushed
  std::uint64_t commit_writes = 0;    // commit-block writes issued
  double mean_batch = 0.0;            // coalesced commit words per flush
};

struct ServingResult {
  std::uint64_t offered_ops = 0;
  std::uint64_t ops = 0;           // executed (admitted) ops
  std::uint64_t reads = 0;
  std::uint64_t updates = 0;
  std::uint64_t shed_ops = 0;      // typed overload verdicts, never executed
  std::uint64_t degraded_shards = 0;
  LatencyHistogram read_lat;       // cycles, merged across clients
  LatencyHistogram update_lat;
  LatencyHistogram all_lat;
  /// Group-commit batch sizes: one sample per flushed window (number of
  /// commit-word updates it coalesced).
  LatencyHistogram batch_sizes;
  Cycle makespan = 0;              // busiest shard's measured span
  double seconds = 0.0;
  double kops_per_sec = 0.0;       // executed ops over the makespan
  std::uint64_t nvm_writes = 0;    // across all shards, measured phase
  std::uint64_t commit_writes = 0; // commit-block writes (coalescing visible)
  /// FNV-1a digest of the final durable KV image (every commit word +
  /// every live record), read back after the last barrier and verified
  /// against the schedule. Bit-identity checks compare this across jobs
  /// values.
  std::uint64_t image_digest = 0;
  std::vector<ShardServingStats> shards;
};

/// Run one (scheme, mix) serving cell to completion. Throws
/// std::invalid_argument on nonsense configurations (zero clients/shards,
/// per-shard region exceeding the controller's capacity, keys overflowing
/// the admission-guarded tables).
ServingResult run_sharded_serving(const SystemConfig& cfg, Scheme scheme,
                                  const ServingConfig& scfg);

struct ServingCrashOptions {
  static constexpr std::uint64_t kRandomBoundary = ~std::uint64_t{0};
  /// Global access sequence number to crash at: every access with seq < K
  /// is issued (and ADR-durable), nothing at or after K is. kRandomBoundary
  /// draws uniformly over [0, total_accesses].
  std::uint64_t crash_at = kRandomBoundary;
  /// Optional hardware fault folded into every controller's crash drain
  /// (per-controller plans derive from (fault_seed, crash_at, shard)).
  FaultClass fault_class = FaultClass::kNone;
  std::uint64_t fault_seed = 0;
};

/// Plan the full run once (plan_serving) to learn the access count and the
/// global order, then re-run it with every shard stopped at its share of
/// the chosen boundary (ServingSchedule::shard_limits), recover every controller
/// (in parallel when scfg.jobs > 1 — bit-identical), and diff the
/// recovered image against the durable commit state. The report counts
/// boundaries in global accesses (total_boundaries), committed keys in
/// durable live slots, and pins the durable commit words in
/// durable_digest; crash_verdict() scores it like any store crash.
CrashReport run_serving_crash(const SystemConfig& cfg, Scheme scheme,
                                     const ServingConfig& scfg,
                                     const ServingCrashOptions& opt);

/// The global access order of a serving run: per epoch of epoch_ops ops,
/// every op's accesses in global op order, then each shard's closing flush
/// in shard order. Crash boundaries count accesses in this order.
struct ServingSchedule {
  std::uint64_t epoch_ops = 0;
  std::size_t shards = 0;
  std::vector<std::uint32_t> op_shard;     // [op] home shard
  std::vector<std::uint32_t> op_accesses;  // [op] accesses it emitted (0 when shed)
  std::vector<std::uint32_t> closing;      // [epoch * shards + shard] closing flush

  std::uint64_t total_accesses() const;
  /// Accesses each shard issues in a crash at global boundary K: those of
  /// its own accesses that come before K in the global order.
  std::vector<std::uint64_t> shard_limits(std::uint64_t boundary) const;
};

/// Resolve the whole schedule without executing it (no memory) and record
/// its global access order.
ServingSchedule plan_serving(const SystemConfig& cfg, const ServingConfig& scfg);

/// Total planned accesses for a serving configuration (schedule resolution
/// only, no memory execution) — lets sweeps choose crash strides cheaply.
std::uint64_t count_serving_accesses(const SystemConfig& cfg, Scheme scheme,
                                     const ServingConfig& scfg);

}  // namespace steins::kv
