// Shared plumbing for the figure benches: trace sizing and parallelism
// (overridable via environment or argv), the metric extractors the paper's
// figures use, and optional machine-readable JSON output for recording
// bench trajectories across commits.
#pragma once

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/config.hpp"
#include "common/thread_pool.hpp"
#include "crypto/backend.hpp"
#include "sim/experiment.hpp"
#include "trace/workloads.hpp"

namespace steins::bench {

struct BenchOptions {
  std::uint64_t accesses = 200'000;  // measured accesses per (workload, scheme)
  std::uint64_t warmup = 20'000;     // warmup accesses (stats reset after)
  unsigned jobs = 1;                 // worker threads for the matrix (1 = sequential)
  std::string json_path;             // if non-empty, dump the table as JSON here
  bool verbose = false;
};

/// Parse sizing from positional argv[1]/argv[2] or STEINS_ACCESSES /
/// STEINS_WARMUP, parallelism from `--jobs N` / STEINS_JOBS (default: all
/// hardware threads; 1 reproduces the sequential run exactly), JSON output
/// from `--json FILE` / STEINS_JSON, and the crypto backend from
/// `--crypto-backend ref|ttable|hw|auto` (the STEINS_CRYPTO_BACKEND env var
/// is read by the registry itself; the flag wins). Backends are
/// bit-identical, so this only affects host wall-clock — it is recorded in
/// the JSON provenance so trajectory points stay comparable. Unknown
/// --flags, flags missing their value, and extra positionals exit(2).
inline BenchOptions parse_options(int argc, char** argv) {
  BenchOptions opt;
  opt.jobs = ThreadPool::default_jobs();  // reads STEINS_JOBS
  if (const char* env = std::getenv("STEINS_ACCESSES")) {
    opt.accesses = std::strtoull(env, nullptr, 10);
  }
  if (const char* env = std::getenv("STEINS_WARMUP")) {
    opt.warmup = std::strtoull(env, nullptr, 10);
  }
  if (const char* env = std::getenv("STEINS_JSON")) opt.json_path = env;
  if (std::getenv("STEINS_VERBOSE") != nullptr) opt.verbose = true;

  // Unknown --flags (and flags missing their value) are hard errors: a
  // typo like `--job 4` must not be silently consumed as a positional
  // access count.
  const auto value_of = [&](int* i) -> const char* {
    if (*i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[*i]);
      std::exit(2);
    }
    return argv[++*i];
  };
  // A non-numeric positional (or numeric flag value) is likewise an error:
  // `kv_throughput 20OO0` must not silently run 20 accesses.
  const auto parse_u64 = [](const char* what, const char* s) -> std::uint64_t {
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (end == s || *end != '\0' || errno == ERANGE) {
      std::fprintf(stderr, "invalid %s: %s (expected an unsigned integer)\n", what, s);
      std::exit(2);
    }
    return v;
  };
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0) {
      const std::uint64_t v = parse_u64("--jobs", value_of(&i));
      opt.jobs = v < 1 ? 1u : static_cast<unsigned>(v);
    } else if (std::strcmp(argv[i], "--crypto-backend") == 0) {
      const char* name = value_of(&i);
      const auto b = crypto::parse_backend(name);
      if (!b) {
        std::fprintf(stderr,
                     "unknown crypto backend: %s (expected ref|ttable|hw|auto)\n",
                     name);
        std::exit(2);
      }
      crypto::set_crypto_backend(*b);
    } else if (std::strcmp(argv[i], "--json") == 0) {
      opt.json_path = value_of(&i);
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      opt.verbose = true;
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      std::fprintf(stderr,
                   "unknown option: %s (expected [accesses [warmup]] --jobs N "
                   "--json FILE --crypto-backend ref|ttable|hw|auto --verbose)\n",
                   argv[i]);
      std::exit(2);
    } else if (positional == 0) {
      opt.accesses = parse_u64("accesses", argv[i]);
      ++positional;
    } else if (positional == 1) {
      opt.warmup = parse_u64("warmup", argv[i]);
      ++positional;
    } else {
      std::fprintf(stderr, "unexpected argument: %s\n", argv[i]);
      std::exit(2);
    }
  }
  return opt;
}

#if defined(__clang__)
inline constexpr const char* kCompiler = "clang " __clang_version__;
#else
inline constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

/// HEAD of the source checkout this binary was built from, suffixed
/// "-dirty" when the work tree has uncommitted changes, or "unknown".
inline std::string git_commit() {
  std::string out;
  if (std::FILE* p = popen("git -C '" STEINS_SOURCE_DIR
                           "' describe --always --dirty --abbrev=40 2>/dev/null",
                           "r")) {
    char buf[64];
    while (std::fgets(buf, sizeof(buf), p) != nullptr) out += buf;
    pclose(p);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) out.pop_back();
  return out.empty() ? "unknown" : out;
}

/// The members every recorded BENCH_*.json opens with: which bench, the
/// schema version, which clock (`sim` or `host`) its numbers are on, and
/// where it ran (git commit, compiler, CPU crypto flags, host threads).
/// Ends with ",\n " so the bench's own members follow inside the object.
inline std::string bench_header(const std::string& bench, const char* clock) {
  return "\"bench\": \"" + bench + "\", \"schema_version\": 1, \"clock\": \"" + clock +
         "\",\n \"provenance\": {\"git_commit\": \"" + git_commit() +
         "\", \"compiler\": \"" + kCompiler + "\", \"cpu_flags\": {\"aes_ni\": " +
         (crypto::cpu_has_aesni() ? "true" : "false") +
         ", \"sha_ni\": " + (crypto::cpu_has_shani() ? "true" : "false") +
         "}, \"host_threads\": " + std::to_string(std::thread::hardware_concurrency()) +
         "},\n ";
}

inline double metric_exec_time(const RunStats& s) { return static_cast<double>(s.cycles); }
inline double metric_write_latency(const RunStats& s) { return s.write_latency_cycles; }
inline double metric_read_latency(const RunStats& s) { return s.read_latency_cycles; }
inline double metric_write_latency_p99(const RunStats& s) { return s.write_latency_p99; }
inline double metric_read_latency_p99(const RunStats& s) { return s.read_latency_p99; }
inline double metric_write_traffic(const RunStats& s) {
  return static_cast<double>(s.mem.nvm_writes());
}
inline double metric_energy(const RunStats& s) { return s.energy_nj; }

/// Write `table` (plus the run's sizing, for provenance) as JSON to `path`.
/// `extra_members` is appended verbatim inside the top-level object (e.g.
/// `, "p99_table": {...}`); a non-null `bench` opens the object with its
/// bench_header on the simulated clock. Returns false — with the failing
/// path and OS error on stderr — if the file cannot be opened or the write
/// does not complete (e.g. disk full); a recorded bench trajectory must
/// never silently drop a data point.
inline bool write_table_json(const std::string& path, const ResultTable& table,
                             const BenchOptions& opt,
                             const std::string& extra_members = {},
                             const char* bench = nullptr) {
  const std::string header = bench != nullptr ? bench_header(bench, "sim") : "";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open JSON output %s: %s\n", path.c_str(),
                 std::strerror(errno));
    return false;
  }
  const int written = std::fprintf(
      f,
      "{%s\"accesses\": %llu, \"warmup\": %llu, \"jobs\": %u, \"crypto_backend\": \"%s\",\n"
      " \"table\": %s%s}\n",
      header.c_str(), static_cast<unsigned long long>(opt.accesses),
      static_cast<unsigned long long>(opt.warmup), opt.jobs,
      crypto::backend_name(crypto::active_backend()), table.to_json().c_str(),
      extra_members.c_str());
  const bool flushed = std::fflush(f) == 0 && std::ferror(f) == 0;
  if (std::fclose(f) != 0 || written < 0 || !flushed) {
    std::fprintf(stderr, "error writing JSON output %s: %s\n", path.c_str(),
                 std::strerror(errno));
    return false;
  }
  return true;
}

/// Run one paper figure: a (workloads x schemes) matrix, normalized per
/// workload to `baseline`, printed as the figure's series (and optionally
/// recorded as JSON). When `tail_metric` is given (the latency figures
/// pass the p99 extractor), a companion table — same normalization — is
/// printed below the figure and recorded as `"p99_table"` in the JSON.
inline int run_figure(int argc, char** argv, const std::string& title,
                      const std::vector<SchemeSpec>& schemes, double (*metric)(const RunStats&),
                      const std::string& baseline,
                      double (*tail_metric)(const RunStats&) = nullptr) {
  const BenchOptions opt = parse_options(argc, argv);
  std::printf("%s\n", title.c_str());
  std::printf("(%llu accesses per cell + %llu warmup; deterministic traces; %u job%s)\n\n",
              static_cast<unsigned long long>(opt.accesses),
              static_cast<unsigned long long>(opt.warmup), opt.jobs, opt.jobs == 1 ? "" : "s");
  ExperimentRunner runner(default_config());
  const auto results = runner.run_matrix(workload_names(), schemes, opt.accesses, opt.warmup,
                                         opt.verbose, opt.jobs);
  const ResultTable table =
      ExperimentRunner::make_table(title, results, schemes, metric, baseline);
  table.print();
  std::string extra;
  if (tail_metric != nullptr) {
    const ResultTable tail = ExperimentRunner::make_table(title + " — p99", results, schemes,
                                                          tail_metric, baseline);
    std::printf("\n");
    tail.print();
    extra = ",\n \"p99_table\": " + tail.to_json();
  }
  if (!opt.json_path.empty()) {
    if (write_table_json(opt.json_path, table, opt, extra)) {
      std::printf("wrote JSON results to %s\n", opt.json_path.c_str());
    }
  }
  return 0;
}

}  // namespace steins::bench
