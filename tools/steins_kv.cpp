// steins_kv: the secure-NVM key-value service front end.
//
//   steins_kv --mix a --clients 4 --crash
//   steins_kv --scheme steins,scue --mix f --shards 4 --ops 200000 --json kv.json
//
// For each scheme it runs the sharded serving engine (kv/serving.hpp) over
// MultiControllerMemory (simulated throughput + tail latency, and the host
// seconds of the call). With --crash it also runs both store crash
// harnesses: the serving crash (the same run killed at a seeded-random
// access boundary, every controller recovered, the image diffed against the
// durable commit state) and the KvStore op-script crash (killed at a
// seeded-random persist boundary, recovered, reopened and diffed against
// the committed model). Each is scored by crash_verdict: Steins/ASIT/STAR/
// SCUE must verify; WB must be detected as unrecoverable. Exit status is
// nonzero if any scheme fails either harness.
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "cli_common.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "crypto/backend.hpp"
#include "kv/kv_crash.hpp"
#include "kv/serving.hpp"

using namespace steins;
using namespace steins::kv;

namespace {

struct Options {
  std::string schemes = "wb,asit,star,scue,steins";
  std::string mix = "a";
  unsigned clients = 4;
  std::uint64_t ops = 100'000;
  std::uint64_t keys = 10'000;
  std::uint64_t slots = 1 << 15;
  std::uint64_t value_bytes = 24;
  double zipf_s = 0.99;
  std::uint64_t seed = 1;
  std::uint64_t capacity_mb = 256;
  std::uint64_t mcache_kb = 256;
  std::uint64_t crash_ops = 64;
  std::uint64_t nested_crash_boundary = 0;  // 0 = off (DESIGN.md §17)
  bool nested_crash_rearm = false;
  RecoveryRetryPolicy retry_policy;
  unsigned jobs = ThreadPool::default_jobs();
  std::string json_path;
  bool crash = false;
  unsigned shards = 2;
  std::string routing = "load";
  std::uint64_t queue_depth = 0;
  std::uint64_t group_commit = 64;
  bool help = false;
};

void usage() {
  std::printf(
      "steins_kv - crash-consistent KV service over the secure NVM simulator\n\n"
      "  --scheme <list>      comma-separated wb|asit|star|scue|steins (default all)\n"
      "  --mix <a|b|c|f>      YCSB mix (default a)\n"
      "  --clients <n>        closed-loop clients (default 4)\n"
      "  --shards <n>         serving shards == controllers / DIMMs (default 2)\n"
      "  --ops <n>            measured KV operations (default 100000)\n"
      "  --keys <n>           preloaded keys (default 10000)\n"
      "  --slots <n>          per-shard table slots, power of two (default 32768)\n"
      "  --value-bytes <n>    value payload size, <= 32 (default 24)\n"
      "  --zipf <s>           Zipfian skew (default 0.99)\n"
      "  --seed <n>           driver + crash-boundary seed (default 1)\n"
      "  --capacity-mb <n>    NVM capacity (default 256)\n"
      "  --mcache-kb <n>      metadata cache size (default 256)\n"
      "  --jobs <n>           shard worker threads (default STEINS_JOBS or\n"
      "                       hardware threads; any value is bit-identical to\n"
      "                       --jobs 1). kops/s is simulated time; host_s is the\n"
      "                       host steady-clock seconds of each serving call\n"
      "  --routing <hash|load>  key->shard routing policy (default load)\n"
      "  --queue-depth <n>    per-shard admitted ops per epoch; overflow sheds\n"
      "                       into typed degraded verdicts (default 0 = unbounded)\n"
      "  --group-commit <n>   commit words buffered per shard before one\n"
      "                       coalesced commit-block flush (default 64, 0 = off)\n"
      "  --crash              also run both crash harnesses per scheme: the\n"
      "                       serving crash and the KvStore op-script crash\n"
      "  --crash-ops <n>      ops in the KvStore crash script (default 64)\n"
      "  --nested-crash <b[,rearm]>  with --crash: crash the KvStore recovery at\n"
      "                       persist boundary b (1-based) and re-enter it;\n"
      "                       ',rearm' re-arms the crash on every retry\n"
      "  --max-recovery-attempts <n>  retry budget for crashed KvStore\n"
      "                       recoveries (default 8)\n"
      "  --json <file>        write results (same numbers as printed) as JSON\n"
      "  --crypto-backend <ref|ttable|hw|auto>  crypto backend (bit-identical;\n"
      "                       host wall-clock only; or STEINS_CRYPTO_BACKEND)\n");
}

bool parse(int argc, char** argv, Options* opt) {
  cli::ArgParser p(argc, argv);
  while (p.next()) {
    if (p.is("--scheme", "--schemes")) {
      opt->schemes = p.str();
    } else if (p.is("--mix")) {
      opt->mix = p.str();
    } else if (p.is("--clients")) {
      opt->clients = static_cast<unsigned>(p.u64());
    } else if (p.is("--ops")) {
      opt->ops = p.u64();
    } else if (p.is("--keys")) {
      opt->keys = p.u64();
    } else if (p.is("--slots")) {
      opt->slots = p.u64();
    } else if (p.is("--value-bytes")) {
      opt->value_bytes = p.u64();
    } else if (p.is("--zipf")) {
      opt->zipf_s = p.f64();
    } else if (p.is("--seed")) {
      opt->seed = p.u64();
    } else if (p.is("--capacity-mb")) {
      opt->capacity_mb = p.u64();
    } else if (p.is("--mcache-kb")) {
      opt->mcache_kb = p.u64();
    } else if (p.is("--jobs")) {
      opt->jobs = p.jobs();
    } else if (p.is("--shards")) {
      opt->shards = static_cast<unsigned>(p.u64());
    } else if (p.is("--routing")) {
      opt->routing = p.str();
    } else if (p.is("--queue-depth")) {
      opt->queue_depth = p.u64();
    } else if (p.is("--group-commit")) {
      opt->group_commit = p.u64();
    } else if (p.is("--crash")) {
      opt->crash = true;
    } else if (p.is("--crash-ops")) {
      opt->crash_ops = p.u64();
    } else if (p.is("--nested-crash")) {
      if (!cli::parse_nested_crash(p, &opt->nested_crash_boundary,
                                   &opt->nested_crash_rearm)) {
        return false;
      }
    } else if (p.is("--max-recovery-attempts")) {
      const std::uint64_t n = p.u64();
      if (p.failed()) return false;
      if (n == 0) {
        p.invalid("invalid --max-recovery-attempts: expected >= 1");
        return false;
      }
      opt->retry_policy.max_recovery_attempts = static_cast<unsigned>(n);
    } else if (p.is("--json")) {
      opt->json_path = p.str();
    } else if (p.is("--crypto-backend")) {
      const std::string name = p.str();
      if (!p.failed() && !cli::apply_crypto_backend(name)) return false;
    } else if (p.is("--help", "-h")) {
      opt->help = true;
    } else {
      p.unknown();
    }
  }
  return !p.failed();
}

struct SchemeOutcome {
  std::string label;
  ServingResult serving;
  double host_s = 0.0;  // host steady-clock seconds of the serving call
  bool crash_ran = false;
  CrashReport serving_crash;
  bool serving_crash_pass = true;
  CrashReport kv_crash;  // the KvStore op-script harness
  bool kv_crash_pass = true;
};

/// The crash column's note for one harness; `boundary` names what the run
/// was killed before and `unit` what the diff verified.
std::string crash_note(const CrashReport& r, Scheme scheme, bool pass, const char* boundary,
                       const char* unit) {
  if (scheme == Scheme::kWriteBack) {
    return pass ? "unrecoverable (detected, as expected)"
                : "FAIL: WB not detected as unrecoverable";
  }
  if (!pass) return "FAIL: " + r.detail;
  std::string note = std::string("ok (") + boundary + " " + std::to_string(r.crash_at) + "/" +
                     std::to_string(r.total_boundaries) + ", " +
                     std::to_string(r.committed_keys) + " " + unit + " verified";
  if (r.recovery_attempts > 1) {
    note += ", " + std::to_string(r.recovery_attempts) + " recovery attempts";
  }
  return note + ")";
}

double cycles_to_ns(const SystemConfig& cfg, double cycles) {
  return cfg.cycles_to_seconds(1) * 1e9 * cycles;
}

bool emit_json(const Options& opt, const SystemConfig& cfg,
               const std::vector<SchemeOutcome>& outcomes) {
  std::ostringstream os;
  os << "{\"mix\": \"" << json_escape(opt.mix) << "\", \"clients\": " << opt.clients
     << ", \"ops\": " << opt.ops << ", \"keys\": " << opt.keys
     << ", \"value_bytes\": " << opt.value_bytes << ", \"zipf_s\": " << opt.zipf_s
     << ", \"seed\": " << opt.seed << ", \"shards\": " << opt.shards << ", \"routing\": \""
     << json_escape(opt.routing) << "\", \"queue_depth\": " << opt.queue_depth
     << ", \"group_commit\": " << opt.group_commit << ",\n \"schemes\": [";
  char buf[64];
  const auto num = [&](double v) {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return std::string(buf);
  };
  const auto lat = [&](const LatencyHistogram& h) {
    return "{\"mean_ns\": " + num(cycles_to_ns(cfg, h.mean())) +
           ", \"p50_ns\": " + num(cycles_to_ns(cfg, h.percentile(50))) +
           ", \"p95_ns\": " + num(cycles_to_ns(cfg, h.percentile(95))) +
           ", \"p99_ns\": " + num(cycles_to_ns(cfg, h.percentile(99))) +
           ", \"p999_ns\": " + num(cycles_to_ns(cfg, h.percentile(99.9))) + "}";
  };
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const SchemeOutcome& o = outcomes[i];
    const ServingResult& s = o.serving;
    os << (i ? ",\n  " : "\n  ") << "{\"scheme\": \"" << json_escape(o.label)
       << "\", \"kops_per_sec\": " << num(s.kops_per_sec) << ", \"host_s\": " << num(o.host_s)
       << ", \"clocks\": {\"kops_per_sec\": \"sim\", \"host_s\": \"host\"}"
       << ", \"offered_ops\": " << s.offered_ops << ", \"ops\": " << s.ops
       << ", \"reads\": " << s.reads << ", \"updates\": " << s.updates
       << ", \"shed_ops\": " << s.shed_ops << ", \"degraded_shards\": " << s.degraded_shards
       << ", \"nvm_writes\": " << s.nvm_writes << ", \"commit_writes\": " << s.commit_writes
       << ", \"image_digest\": \"" << std::hex << s.image_digest << std::dec
       << "\", \"mean_batch\": " << num(s.batch_sizes.mean()) << ", \"all\": " << lat(s.all_lat)
       << ", \"read\": " << lat(s.read_lat) << ", \"update\": " << lat(s.update_lat)
       << ", \"shards\": [";
    for (std::size_t sh = 0; sh < s.shards.size(); ++sh) {
      const ShardServingStats& st = s.shards[sh];
      os << (sh ? ", " : "") << "{\"keys\": " << st.keys << ", \"ops\": " << st.ops
         << ", \"shed\": " << st.shed << ", \"occupancy\": " << num(st.occupancy)
         << ", \"commit_flushes\": " << st.commit_flushes
         << ", \"mean_batch\": " << num(st.mean_batch) << "}";
    }
    os << "]";
    if (o.crash_ran) {
      const CrashReport& c = o.serving_crash;
      os << ", \"crash\": {\"pass\": " << (o.serving_crash_pass ? "true" : "false")
         << ", \"crash_at\": " << c.crash_at << ", \"total_accesses\": " << c.total_boundaries
         << ", \"committed_slots\": " << c.committed_keys << ", \"durable_digest\": \""
         << std::hex << c.durable_digest << std::dec << "\""
         << ", \"verified\": " << (c.verified ? "true" : "false")
         << ", \"salvaged\": " << (c.salvaged ? "true" : "false")
         << ", \"recovery_seconds\": " << num(c.recovery_seconds) << ", \"detail\": \""
         << json_escape(c.detail) << "\"}";
      const CrashReport& k = o.kv_crash;
      os << ", \"kv_crash\": {\"supported\": " << (k.recovery_supported ? "true" : "false")
         << ", \"recovered\": " << (k.recovery_ok ? "true" : "false")
         << ", \"verified\": " << (k.verified ? "true" : "false")
         << ", \"pass\": " << (o.kv_crash_pass ? "true" : "false")
         << ", \"crash_at\": " << k.crash_at << ", \"total_persists\": " << k.total_boundaries
         << ", \"committed_keys\": " << k.committed_keys
         << ", \"recovery_seconds\": " << num(k.recovery_seconds)
         << ", \"recovery_attempts\": " << k.recovery_attempts
         << ", \"recovery_gave_up\": " << (k.recovery_gave_up ? "true" : "false")
         << ", \"detail\": \"" << json_escape(k.detail) << "\"}";
    }
    os << "}";
  }
  os << "\n]}\n";
  if (!cli::write_json_file(opt.json_path, os.str())) return false;
  std::printf("wrote JSON results to %s\n", opt.json_path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, &opt)) return 2;
  if (opt.help) {
    usage();
    return 0;
  }

  const std::optional<Mix> mix = parse_mix(opt.mix);
  if (!mix) {
    std::fprintf(stderr, "unknown mix: %s (expected a, b, c, or f)\n", opt.mix.c_str());
    return 2;
  }
  const std::optional<Routing> routing = parse_routing(opt.routing);
  if (!routing) {
    std::fprintf(stderr, "unknown routing: %s (expected hash or load)\n",
                 opt.routing.c_str());
    return 2;
  }

  SystemConfig cfg = default_config();
  cfg.nvm.capacity_bytes = opt.capacity_mb << 20;
  cfg.secure.metadata_cache.size_bytes = opt.mcache_kb * 1024;

  ServingConfig scfg;
  scfg.mix = *mix;
  scfg.clients = opt.clients;
  scfg.shards = opt.shards;
  scfg.ops = opt.ops;
  scfg.keys = opt.keys;
  scfg.slots = static_cast<std::size_t>(opt.slots);
  scfg.value_bytes = static_cast<std::size_t>(opt.value_bytes);
  scfg.zipf_s = opt.zipf_s;
  scfg.seed = opt.seed;
  scfg.jobs = opt.jobs;
  scfg.routing = *routing;
  scfg.queue_depth = opt.queue_depth;
  scfg.group_commit_window = opt.group_commit;

  KvCrashOptions ccfg;
  ccfg.ops = opt.crash_ops;
  ccfg.seed = opt.seed;
  ccfg.recovery_crash_boundary = opt.nested_crash_boundary;
  ccfg.recovery_crash_rearm = opt.nested_crash_rearm;
  ccfg.retry_policy = opt.retry_policy;

  std::vector<SchemeOutcome> outcomes;
  bool all_pass = true;
  try {
    std::printf(
        "KV serving: mix %s, %u clients, %u shards (%s routing), %llu ops over "
        "%llu keys, group-commit %llu, queue-depth %llu\n\n",
        mix_name(*mix), opt.clients, opt.shards, opt.routing.c_str(),
        static_cast<unsigned long long>(opt.ops), static_cast<unsigned long long>(opt.keys),
        static_cast<unsigned long long>(opt.group_commit),
        static_cast<unsigned long long>(opt.queue_depth));
    std::printf("%-11s %10s %9s %9s %9s %8s %7s %8s   %s\n", "scheme", "kops/s", "p50_ns",
                "p99_ns", "p99.9_ns", "shed", "batch", "host_s",
                opt.crash ? "crash-recovery" : "");
    for (const std::string& name : cli::split_csv(opt.schemes)) {
      const auto scheme_opt = cli::parse_scheme(name);
      if (!scheme_opt.has_value()) {
        std::fprintf(stderr, "unknown scheme: %s (try --help)\n", name.c_str());
        return 2;
      }
      const Scheme scheme = *scheme_opt;
      SchemeOutcome o;
      o.label = scheme_name(scheme, cfg.counter_mode);
      const auto t0 = std::chrono::steady_clock::now();
      o.serving = run_sharded_serving(cfg, scheme, scfg);
      o.host_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
      std::string note;
      if (opt.crash) {
        o.crash_ran = true;
        o.serving_crash = run_serving_crash(cfg, scheme, scfg, ServingCrashOptions{});
        o.serving_crash_pass = verdict_passes(crash_verdict(o.serving_crash, scheme));
        o.kv_crash = run_kv_crash_validation(cfg, scheme, ccfg);
        o.kv_crash_pass = verdict_passes(crash_verdict(o.kv_crash, scheme));
        all_pass = all_pass && o.serving_crash_pass && o.kv_crash_pass;
        note = "serving " +
               crash_note(o.serving_crash, scheme, o.serving_crash_pass, "crash at access",
                          "slots") +
               "; kv " +
               crash_note(o.kv_crash, scheme, o.kv_crash_pass, "killed before persist", "keys");
      }
      std::printf("%-11s %10.1f %9.0f %9.0f %9.0f %8llu %7.1f %8.3f   %s\n", o.label.c_str(),
                  o.serving.kops_per_sec, cycles_to_ns(cfg, o.serving.all_lat.percentile(50)),
                  cycles_to_ns(cfg, o.serving.all_lat.percentile(99)),
                  cycles_to_ns(cfg, o.serving.all_lat.percentile(99.9)),
                  static_cast<unsigned long long>(o.serving.shed_ops),
                  o.serving.batch_sizes.mean(), o.host_s, note.c_str());
      // A failing crash validation prints the line that reproduces it.
      if (!o.serving_crash_pass) std::fprintf(stderr, "  %s\n", o.serving_crash.repro().c_str());
      if (!o.kv_crash_pass) std::fprintf(stderr, "  %s\n", o.kv_crash.repro().c_str());
      outcomes.push_back(std::move(o));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  if (!opt.json_path.empty() && !emit_json(opt, cfg, outcomes)) return 1;
  if (opt.crash && !all_pass) {
    std::fprintf(stderr, "\ncrash-recovery validation FAILED for at least one scheme\n");
    return 1;
  }
  return 0;
}
