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
// Every per-shard phase runs on the ShardGang (DESIGN.md §18). A worker
// touches only its own shard's controller and shadow state; the calling
// thread (the coordinator) only draws, sums and merges:
//
//  1. Preload (gang, once): each shard assigns its keys' slots by linear
//     probing in ascending key order, writes their records and commit
//     blocks on its own timeline, and sets its frontier.
//  2. Draw (coordinator, per epoch): per-client RNG streams draw each op's
//     Zipf rank, key and update coin in global op order; the router maps
//     the key to its home shard, and per-shard bounded admission queues
//     shed overload into typed degraded verdicts.
//  3. Resolve (gang): each shard turns its admitted ops, in op order, into
//     its access queue — commit and record reads, record writes, forced
//     and window group-commit flushes — then closes the epoch with its
//     window flush. Every access is tagged with the op that emitted it.
//  4. Sequence (coordinator): a prefix sum over per-op access counts gives
//     each access its global sequence number: ops in global op order, then
//     the closing flushes in shard order — the order a single thread
//     resolving op after op would have emitted them in.
//  5. Replay (gang): each shard issues its queue prefix below the crash
//     boundary on its own controller, checks every read against the
//     schedule, and takes the commit-block writes of that prefix as its
//     durable state. Per-client latency histograms merge at the barrier in
//     global op order.
//  6. Readback (gang, once): each shard reads its final image back and
//     checks it byte for byte against the schedule shadow; the FNV-1a
//     image digest then folds that verified shadow in shard order.
//
// Any jobs value is bit-identical: the draw and the seq prefix sum are
// sequential and order-fixed; a shard's resolve, replay and readback read
// and write only that shard's state (plus the op_seq / latency entries of
// its own ops), so which thread runs it, and when, cannot change a bit;
// merges (batch-size histograms, latencies, digest) run in a fixed order
// over integer data.
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
// Crash validation (run_serving_crash): the global access sequence makes
// "crash at access boundary K" jobs-independent — each shard executes
// exactly its queue prefix below K, ADR drains every issued write, and
// recovery is diffed against the durable commit state the replay pass
// took from commit writes below K. Zero silent corruption is the
// acceptance bar for every scheme (write-back passes by being detected as
// unrecoverable).
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

/// Plan the full run once to learn the access count, then re-run it with
/// the crash injected at the chosen boundary, recover every controller
/// (in parallel when scfg.jobs > 1 — bit-identical), and diff the
/// recovered image against the durable commit state. The report counts
/// boundaries in global accesses (total_boundaries), committed keys in
/// durable live slots, and pins the durable commit words in
/// durable_digest; crash_verdict() scores it like any store crash.
CrashReport run_serving_crash(const SystemConfig& cfg, Scheme scheme,
                                     const ServingConfig& scfg,
                                     const ServingCrashOptions& opt);

/// Total planned accesses for a serving configuration (schedule resolution
/// only, no memory execution) — lets sweeps choose crash strides cheaply.
std::uint64_t count_serving_accesses(const SystemConfig& cfg, Scheme scheme,
                                     const ServingConfig& scfg);

}  // namespace steins::kv
