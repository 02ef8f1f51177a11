// The concurrent sharded serving engine: mix shapes, jobs-sweep
// bit-identity, group commit, load-aware routing, admission-queue overload
// shedding, the crash-at-access-boundary matrix under concurrent serving,
// and golden values from the retired interleaved YCSB driver.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "kv/serving.hpp"
#include "test_util.hpp"

namespace steins::kv {
namespace {

using testutil::crash_passes;
using testutil::crash_why;
using testutil::small_config;

ServingConfig small_serving(unsigned shards, std::uint64_t ops = 6000) {
  ServingConfig scfg;
  scfg.mix = Mix::kA;
  scfg.clients = 3;
  scfg.shards = shards;
  scfg.ops = ops;
  scfg.keys = 1200;
  scfg.slots = std::size_t{1} << 12;
  scfg.seed = 11;
  scfg.epoch_ops = 512;  // several epochs even at test sizing
  return scfg;
}

void expect_identical(const ServingResult& a, const ServingResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.image_digest, b.image_digest) << what;
  EXPECT_EQ(a.ops, b.ops) << what;
  EXPECT_EQ(a.reads, b.reads) << what;
  EXPECT_EQ(a.updates, b.updates) << what;
  EXPECT_EQ(a.shed_ops, b.shed_ops) << what;
  EXPECT_EQ(a.degraded_shards, b.degraded_shards) << what;
  EXPECT_EQ(a.makespan, b.makespan) << what;
  EXPECT_EQ(a.nvm_writes, b.nvm_writes) << what;
  EXPECT_EQ(a.commit_writes, b.commit_writes) << what;
  EXPECT_EQ(a.all_lat.count(), b.all_lat.count()) << what;
  for (const double p : {50.0, 95.0, 99.0, 99.9, 100.0}) {
    EXPECT_DOUBLE_EQ(a.all_lat.percentile(p), b.all_lat.percentile(p))
        << what << " p" << p;
    EXPECT_DOUBLE_EQ(a.read_lat.percentile(p), b.read_lat.percentile(p))
        << what << " p" << p;
    EXPECT_DOUBLE_EQ(a.update_lat.percentile(p), b.update_lat.percentile(p))
        << what << " p" << p;
  }
  EXPECT_DOUBLE_EQ(a.batch_sizes.mean(), b.batch_sizes.mean()) << what;
  ASSERT_EQ(a.shards.size(), b.shards.size()) << what;
  for (std::size_t s = 0; s < a.shards.size(); ++s) {
    EXPECT_EQ(a.shards[s].keys, b.shards[s].keys) << what << " shard " << s;
    EXPECT_EQ(a.shards[s].ops, b.shards[s].ops) << what << " shard " << s;
    EXPECT_EQ(a.shards[s].shed, b.shards[s].shed) << what << " shard " << s;
    EXPECT_EQ(a.shards[s].busy, b.shards[s].busy) << what << " shard " << s;
    EXPECT_EQ(a.shards[s].commit_writes, b.shards[s].commit_writes)
        << what << " shard " << s;
  }
}

TEST(KvServing, MixesProduceExpectedShapes) {
  const SystemConfig cfg = small_config();
  ServingConfig scfg;
  scfg.clients = 3;
  scfg.ops = 2000;
  scfg.keys = 200;
  scfg.slots = 1024;
  scfg.group_commit_window = 0;  // every update owns its commit-block write

  scfg.mix = Mix::kC;
  const ServingResult ro = run_sharded_serving(cfg, Scheme::kSteins, scfg);
  EXPECT_EQ(ro.reads, scfg.ops);
  EXPECT_EQ(ro.updates, 0u);
  EXPECT_EQ(ro.all_lat.count(), scfg.ops);
  EXPECT_GT(ro.kops_per_sec, 0.0);

  scfg.mix = Mix::kA;
  const ServingResult rw = run_sharded_serving(cfg, Scheme::kSteins, scfg);
  EXPECT_EQ(rw.reads + rw.updates, scfg.ops);
  EXPECT_GT(rw.updates, scfg.ops / 3);  // ~50% updates
  EXPECT_LT(rw.updates, 2 * scfg.ops / 3);
  EXPECT_GT(rw.nvm_writes, 0u);
  // Updates traverse two block writes; their median must sit above reads'.
  EXPECT_GE(rw.update_lat.percentile(50), ro.read_lat.percentile(50));

  // Identical config twice gives identical results.
  const ServingResult again = run_sharded_serving(cfg, Scheme::kSteins, scfg);
  EXPECT_EQ(again.makespan, rw.makespan);
  EXPECT_DOUBLE_EQ(again.kops_per_sec, rw.kops_per_sec);
}

TEST(KvServing, OneShardReproducesRetiredYcsbDriver) {
  // Captured from the retired interleaved YCSB driver at 1 controller,
  // 4 clients, 20 000 ops over 10 000 keys in 32 768 slots, 256 MB NVM,
  // before it was folded into this engine. One shard with hash routing and
  // group commit off is that driver: same draw, same slots, same accesses
  // on one timeline.
  struct Golden {
    Scheme scheme;
    Mix mix;
    Cycle makespan;
    std::uint64_t reads, updates, nvm_writes;
    double mean, p50, p99;
  };
  const Golden goldens[] = {
      {Scheme::kWriteBack, Mix::kA, 19325809, 10013, 9987, 22641, 966.29044999999996, 841.34773601657298, 2288.7049180327867},
      {Scheme::kWriteBack, Mix::kB, 9611858, 18980, 1020, 4354, 480.59289999999999, 327.97844363009267, 1532.6306748466259},
      {Scheme::kWriteBack, Mix::kC, 8470192, 20000, 0, 2295, 423.50959999999998, 327.71307365985348, 1280.3835616438357},
      {Scheme::kWriteBack, Mix::kF, 21300648, 10013, 9987, 22641, 1065.0324000000001, 1297.0217391304348, 2270.3791946308725},
      {Scheme::kStar, Mix::kA, 19907967, 10013, 9987, 23450, 995.39835000000005, 842.34204989480008, 2386.6721311475408},
      {Scheme::kStar, Mix::kB, 9946782, 18980, 1020, 4795, 497.33909999999997, 328.0647352069937, 1614.0145985401459},
      {Scheme::kStar, Mix::kC, 8784463, 20000, 0, 2695, 439.22314999999998, 327.72200772200773, 1518.0169971671389},
      {Scheme::kStar, Mix::kF, 21900226, 10013, 9987, 23450, 1095.0112999999999, 1426.9935483870968, 2462.909090909091},
      {Scheme::kSteins, Mix::kA, 19565699, 10013, 9987, 23109, 978.28494999999998, 842.53955901426718, 2295.1291585127201},
      {Scheme::kSteins, Mix::kB, 9787823, 18980, 1020, 4616, 489.39114999999998, 327.98130303466132, 1745.9636363636364},
      {Scheme::kSteins, Mix::kC, 8638225, 20000, 0, 2532, 431.91125, 327.7244930801416, 1734.2222222222222},
      {Scheme::kSteins, Mix::kF, 21546460, 10013, 9987, 23109, 1077.3230000000001, 1409.75, 2355.6296296296296},
  };
  SystemConfig cfg = default_config();
  cfg.nvm.capacity_bytes = std::uint64_t{256} << 20;
  for (const Golden& g : goldens) {
    for (const unsigned jobs : {1u, 2u}) {
      ServingConfig scfg;
      scfg.mix = g.mix;
      scfg.shards = 1;
      scfg.ops = 20'000;
      scfg.keys = 10'000;
      scfg.slots = std::size_t{1} << 15;
      scfg.routing = Routing::kHash;
      scfg.group_commit_window = 0;
      scfg.jobs = jobs;
      const ServingResult r = run_sharded_serving(cfg, g.scheme, scfg);
      const std::string what = scheme_name(g.scheme, cfg.counter_mode) + "/" +
                               mix_name(g.mix) + " jobs=" + std::to_string(jobs);
      EXPECT_EQ(r.makespan, g.makespan) << what;
      EXPECT_EQ(r.reads, g.reads) << what;
      EXPECT_EQ(r.updates, g.updates) << what;
      EXPECT_EQ(r.nvm_writes, g.nvm_writes) << what;
      EXPECT_DOUBLE_EQ(r.all_lat.mean(), g.mean) << what;
      EXPECT_DOUBLE_EQ(r.all_lat.percentile(50), g.p50) << what;
      EXPECT_DOUBLE_EQ(r.all_lat.percentile(99), g.p99) << what;
    }
  }
}

TEST(KvServing, JobsSweepIsBitIdentical) {
  const SystemConfig cfg = small_config();
  const ServingConfig base = small_serving(4);
  ServingConfig scfg = base;
  scfg.jobs = 1;
  const ServingResult ref = run_sharded_serving(cfg, Scheme::kSteins, scfg);
  EXPECT_EQ(ref.ops, base.ops);
  EXPECT_GT(ref.image_digest, 0u);
  for (const unsigned jobs : {2u, 3u, 4u, 8u}) {
    scfg.jobs = jobs;
    const ServingResult got = run_sharded_serving(cfg, Scheme::kSteins, scfg);
    expect_identical(ref, got, "jobs=" + std::to_string(jobs));
  }
}

TEST(KvServing, OneShardMatchesManyShardImageAcrossJobs) {
  // Shard count changes the topology (so latencies legitimately differ),
  // but for every shard count the jobs sweep must agree with itself.
  const SystemConfig cfg = small_config();
  for (const unsigned shards : {1u, 2u}) {
    ServingConfig scfg = small_serving(shards, 3000);
    scfg.jobs = 1;
    const ServingResult a = run_sharded_serving(cfg, Scheme::kScue, scfg);
    scfg.jobs = shards;
    const ServingResult b = run_sharded_serving(cfg, Scheme::kScue, scfg);
    expect_identical(a, b, "shards=" + std::to_string(shards));
  }
}

TEST(KvServing, GroupCommitOffAndOnCommitTheSameImage) {
  // Group commit coalesces persists; it must never change WHAT is durable
  // at the end of a clean run, only how many commit-block writes it took.
  const SystemConfig cfg = small_config();
  ServingConfig scfg = small_serving(2);
  scfg.group_commit_window = 0;
  const ServingResult off = run_sharded_serving(cfg, Scheme::kSteins, scfg);
  scfg.group_commit_window = 64;
  const ServingResult on = run_sharded_serving(cfg, Scheme::kSteins, scfg);
  EXPECT_EQ(off.image_digest, on.image_digest);
  EXPECT_EQ(off.ops, on.ops);
  EXPECT_LT(on.commit_writes, off.commit_writes)
      << "group commit coalesced nothing";
  EXPECT_GT(on.batch_sizes.mean(), 1.0);
}

TEST(KvServing, LoadAwareRoutingBalancesHotKeys) {
  const SystemConfig cfg = small_config();
  ServingConfig scfg = small_serving(4);
  scfg.zipf_s = 1.2;  // aggressively hot head
  scfg.routing = Routing::kLoadAware;
  const ServingResult load = run_sharded_serving(cfg, Scheme::kSteins, scfg);
  scfg.routing = Routing::kHash;
  const ServingResult hash = run_sharded_serving(cfg, Scheme::kSteins, scfg);
  const auto imbalance = [](const ServingResult& r) {
    std::uint64_t hi = 0, lo = ~std::uint64_t{0};
    for (const ShardServingStats& s : r.shards) {
      hi = std::max(hi, s.ops);
      lo = std::min(lo, s.ops);
    }
    return static_cast<double>(hi) / static_cast<double>(std::max<std::uint64_t>(lo, 1));
  };
  EXPECT_LE(imbalance(load), imbalance(hash) + 1e-9);
  // Load-aware keeps the busiest shard's share close to fair.
  std::uint64_t busiest = 0;
  for (const ShardServingStats& s : load.shards) busiest = std::max(busiest, s.ops);
  EXPECT_LT(static_cast<double>(busiest) / static_cast<double>(load.ops), 0.5);
}

TEST(KvServing, AdmissionOverflowShedsIntoDegradedVerdicts) {
  const SystemConfig cfg = small_config();
  ServingConfig scfg = small_serving(2);
  scfg.queue_depth = 64;  // far below ops-per-epoch-per-shard
  const ServingResult r = run_sharded_serving(cfg, Scheme::kSteins, scfg);
  EXPECT_GT(r.shed_ops, 0u);
  EXPECT_GT(r.degraded_shards, 0u);
  // Shed ops are typed verdicts, never silently dropped from accounting.
  EXPECT_EQ(r.ops + r.shed_ops, r.offered_ops);
  std::uint64_t shard_shed = 0;
  for (const ShardServingStats& s : r.shards) {
    shard_shed += s.shed;
    if (s.shed > 0) {
      EXPECT_TRUE(s.degraded);
    }
  }
  EXPECT_EQ(shard_shed, r.shed_ops);

  // Shedding consumes client RNG identically: the unbounded run serves the
  // same offered schedule (same digest inputs differ only by what
  // executed, so just check determinism of the bounded run itself).
  const ServingResult again = run_sharded_serving(cfg, Scheme::kSteins, scfg);
  EXPECT_EQ(r.image_digest, again.image_digest);
  EXPECT_EQ(r.shed_ops, again.shed_ops);
}

TEST(KvServing, CrashBoundarySweepReportsZeroSilent) {
  // Strided sweep over the global access sequence for every scheme; any
  // silent divergence fails. WriteBack passes by being detected as
  // unrecoverable.
  const SystemConfig cfg = small_config();
  ServingConfig scfg = small_serving(2, 900);
  scfg.jobs = 2;
  for (const Scheme scheme : {Scheme::kWriteBack, Scheme::kAnubis, Scheme::kStar,
                              Scheme::kScue, Scheme::kSteins}) {
    const std::uint64_t total = count_serving_accesses(cfg, scheme, scfg);
    ASSERT_GT(total, 0u);
    const std::uint64_t stride = std::max<std::uint64_t>(total / 5, 1);
    for (std::uint64_t at = stride / 2; at < total; at += stride) {
      ServingCrashOptions opt;
      opt.crash_at = at;
      const CrashReport rep = run_serving_crash(cfg, scheme, scfg, opt);
      EXPECT_TRUE(crash_passes(rep, scheme)) << crash_why(rep);
      EXPECT_EQ(rep.crash_at, at);
    }
  }
}

TEST(KvServing, CrashWithGroupCommitWindowHonorsDurableBoundary) {
  // A crash mid-window must expose exactly the commit-block writes that
  // were issued below the boundary — buffered-but-unflushed commit words
  // are legitimately lost, never silently resurrected.
  const SystemConfig cfg = small_config();
  ServingConfig scfg = small_serving(2, 900);
  scfg.group_commit_window = 32;
  const std::uint64_t total = count_serving_accesses(cfg, Scheme::kSteins, scfg);
  const std::uint64_t stride = std::max<std::uint64_t>(total / 7, 1);
  for (std::uint64_t at = stride / 3; at < total; at += stride) {
    ServingCrashOptions opt;
    opt.crash_at = at;
    const CrashReport rep = run_serving_crash(cfg, Scheme::kSteins, scfg, opt);
    EXPECT_TRUE(crash_passes(rep, Scheme::kSteins)) << crash_why(rep);
  }
}

TEST(KvServing, CrashRecoveryIsJobsIndependent) {
  const SystemConfig cfg = small_config();
  ServingConfig scfg = small_serving(4, 1200);
  const std::uint64_t total = count_serving_accesses(cfg, Scheme::kSteins, scfg);
  ServingCrashOptions opt;
  opt.crash_at = total / 2;
  scfg.jobs = 1;
  const CrashReport a = run_serving_crash(cfg, Scheme::kSteins, scfg, opt);
  scfg.jobs = 4;
  const CrashReport b = run_serving_crash(cfg, Scheme::kSteins, scfg, opt);
  EXPECT_EQ(a.crash_at, b.crash_at);
  EXPECT_EQ(a.committed_keys, b.committed_keys);
  EXPECT_EQ(a.verified, b.verified);
  EXPECT_EQ(a.salvaged, b.salvaged);
  EXPECT_EQ(a.detail, b.detail);
  EXPECT_TRUE(crash_passes(a, Scheme::kSteins)) << crash_why(a);
}

TEST(KvServing, MatchesSequentialEngineGoldenValues) {
  // Recorded from the engine that preloaded, resolved schedules and read
  // the final image back one shard after another on the calling thread.
  // The shard-parallel engine must reproduce them at every jobs value, so
  // it is checked against that engine and not just against itself. The
  // durable digest pins which commit writes fell below each crash
  // boundary, i.e. the global sequence order: 2500 lands among an epoch's
  // ops, 3536 inside the epoch-closing flushes (shard 1 of 4).
  const SystemConfig cfg = small_config();
  ServingConfig scfg = small_serving(4);
  scfg.group_commit_window = 64;
  struct CrashGolden {
    std::uint64_t crash_at;
    std::uint64_t durable_digest;
    double recovery_seconds;
  };
  const CrashGolden crashes[] = {
      {2500, 0x6880d8035db58480ULL, 0.0002377},
      {3536, 0x366f92fffd8e9821ULL, 0.0002377},
      {7777, 0xd67bb91ed2c24d0bULL, 0.000238},
  };
  for (const unsigned jobs : {1u, 2u, 4u}) {
    scfg.jobs = jobs;
    const std::string what = "jobs=" + std::to_string(jobs);
    const ServingResult r = run_sharded_serving(cfg, Scheme::kSteins, scfg);
    EXPECT_EQ(r.image_digest, 0xb08f765c57f9d627ULL) << what;
    EXPECT_EQ(r.makespan, 1035850u) << what;
    EXPECT_EQ(r.nvm_writes, 6061u) << what;
    EXPECT_EQ(r.commit_writes, 2971u) << what;
    EXPECT_EQ(r.reads, 2993u) << what;
    EXPECT_EQ(count_serving_accesses(cfg, Scheme::kSteins, scfg), 13960u) << what;
    for (const CrashGolden& g : crashes) {
      ServingCrashOptions opt;
      opt.crash_at = g.crash_at;
      const CrashReport rep = run_serving_crash(cfg, Scheme::kSteins, scfg, opt);
      const std::string at = what + " " + rep.repro();
      EXPECT_EQ(rep.total_boundaries, 13960u) << at;
      EXPECT_EQ(rep.crash_at, g.crash_at) << at;
      EXPECT_EQ(rep.durable_digest, g.durable_digest) << at;
      EXPECT_EQ(rep.committed_keys, 1200u) << at;
      EXPECT_DOUBLE_EQ(rep.recovery_seconds, g.recovery_seconds) << at;
      EXPECT_TRUE(rep.verified) << at << ": " << rep.detail;
      EXPECT_FALSE(rep.salvaged) << at;
      EXPECT_TRUE(crash_passes(rep, Scheme::kSteins)) << at << ": " << rep.detail;
    }
  }
}

TEST(KvServing, MultiShardThreadedRunIsClean) {
  // The TSan lane runs this filter: real worker threads, several epochs,
  // every shard exercised. Bit-identity vs jobs=1 is checked elsewhere;
  // here the point is the data-race-free execution itself.
  const SystemConfig cfg = small_config();
  ServingConfig scfg = small_serving(4, 4000);
  scfg.jobs = 4;
  const ServingResult r = run_sharded_serving(cfg, Scheme::kSteins, scfg);
  EXPECT_EQ(r.ops, scfg.ops);
  EXPECT_GT(r.image_digest, 0u);
  for (const ShardServingStats& s : r.shards) EXPECT_GT(s.ops, 0u);
}

TEST(KvServing, RejectsNonsenseConfigurations) {
  const SystemConfig cfg = small_config();
  ServingConfig scfg = small_serving(2);
  scfg.shards = 0;
  EXPECT_THROW(run_sharded_serving(cfg, Scheme::kSteins, scfg), std::invalid_argument);
  scfg = small_serving(2);
  scfg.clients = 0;
  EXPECT_THROW(run_sharded_serving(cfg, Scheme::kSteins, scfg), std::invalid_argument);
  scfg = small_serving(2);
  scfg.slots = 1000;  // not a power of two
  EXPECT_THROW(run_sharded_serving(cfg, Scheme::kSteins, scfg), std::invalid_argument);
  scfg = small_serving(2);
  scfg.keys = scfg.slots * 4;  // overflows the capacity guard
  EXPECT_THROW(run_sharded_serving(cfg, Scheme::kSteins, scfg), std::invalid_argument);
}

TEST(KvMix, ParsesMixNames) {
  EXPECT_EQ(parse_mix("a"), Mix::kA);
  EXPECT_EQ(parse_mix("B"), Mix::kB);
  EXPECT_EQ(parse_mix("f"), Mix::kF);
  EXPECT_EQ(parse_mix("z"), std::nullopt);
  EXPECT_STREQ(mix_name(Mix::kC), "c");
  for (const Mix m : {Mix::kA, Mix::kB, Mix::kC, Mix::kF}) {
    EXPECT_EQ(parse_mix(mix_name(m)), m);
  }
  EXPECT_DOUBLE_EQ(update_fraction(Mix::kA), 0.50);
  EXPECT_DOUBLE_EQ(update_fraction(Mix::kB), 0.05);
  EXPECT_DOUBLE_EQ(update_fraction(Mix::kC), 0.00);
  EXPECT_DOUBLE_EQ(update_fraction(Mix::kF), 0.50);
}

TEST(KvServingRouting, NamesRoundTrip) {
  EXPECT_EQ(parse_routing("hash"), Routing::kHash);
  EXPECT_EQ(parse_routing("load"), Routing::kLoadAware);
  EXPECT_EQ(parse_routing(routing_name(Routing::kHash)), Routing::kHash);
  EXPECT_EQ(parse_routing(routing_name(Routing::kLoadAware)), Routing::kLoadAware);
  EXPECT_FALSE(parse_routing("round-robin").has_value());
}

}  // namespace
}  // namespace steins::kv
