// steins_perfbench: the repository's benchmark, driven from outside the
// program through public entry points only.
//
//   steins_perfbench --workload W --seed N --seconds S --trace 0|1
//                    [--small] [--spans FILE] [--check-figures]
//
// Workloads (perfbench/README.md says why each was chosen):
//   paper-matrix   System::run over mcf/lbm/phash x WB-GC/Steins-GC/Steins-SC
//   kv-serve       kv::run_sharded_serving, Steins-GC, YCSB-A, 4 shards
//   lsm-ycsb       lsm::run_lsm_ycsb, Steins-GC, mix A, background compaction
//   crash-recover  fig17's dense 4 MB fill, crash(), timed recover(), GC+SC
//
// Two clocks are kept apart: every metric carries clock "host" (this
// process's wall time) or "sim" (the modelled machine's time). With
// --trace 0 the run reports the end-to-end metrics; with --trace 1 it runs
// the same calls inside spans (name, start, end, parent, cell id), derives
// each layer's self time from them and reports the per-layer metrics plus
// the tracing overhead against an untraced pass. Spans stay in memory and
// are written to --spans at exit.
//
// Output: one JSON object on stdout (perfbench/run.py formats it). Any
// correctness failure is listed under "errors", counted in "failed", and
// makes the process exit 1.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache_hierarchy.hpp"
#include "common/config.hpp"
#include "crypto/backend.hpp"
#include "crypto/mac.hpp"
#include "crypto/otp.hpp"
#include "kv/lsm/lsm_ycsb.hpp"
#include "kv/serving.hpp"
#include "secure/secure_memory.hpp"
#include "sim/experiment.hpp"
#include "sim/system.hpp"
#include "sit/tree_checker.hpp"
#include "trace/workloads.hpp"

#ifndef STEINS_PB_BUILD_TYPE
#define STEINS_PB_BUILD_TYPE "unknown"
#endif

using namespace steins;
using Clock = std::chrono::steady_clock;

namespace {

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile of host samples (p in [0, 100]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

// Host timings within one run: the fastest sample. On a shared host other
// tenants slow a run by up to 1.6x in bursts lasting seconds; a burst only
// ever adds time, so the fastest repetition is the steady figure. The
// median stays the statistic across runs (perfbench/README.md).
double fastest(const std::vector<double>& times) {
  return times.empty() ? 0.0 : *std::min_element(times.begin(), times.end());
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

unsigned host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  }
  return 1;
}

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------- spans --

// In-memory span log. begin()/end() are called from the benchmark around
// calls into the program, never from inside it, so a disabled recorder
// costs one branch per call boundary.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::uint64_t cell = 0;
    int parent = -1;
    double start = 0.0;  // seconds since the log was created
    double end = 0.0;
  };

  explicit SpanLog(bool on) : on_(on), t0_(Clock::now()) {}

  int begin(const std::string& name, std::uint64_t cell) {
    if (!on_) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, cell, parent, since(t0_), 0.0});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void end(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = since(t0_);
    open_.pop_back();
  }

  /// Self time of every span: its duration minus its children's.
  std::vector<double> self_times() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].end - spans_[i].start;
    for (const Span& s : spans_) {
      if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
    }
    return self;
  }
  /// Self time per span name: each layer's share of the traced run.
  std::map<std::string, double> self_by_name() const {
    const std::vector<double> self = self_times();
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) out[spans_[i].name] += self[i];
    return out;
  }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   " {\"id\": %zu, \"name\": %s, \"cell\": %llu, \"parent\": %d, "
                   "\"start_s\": %s, \"end_s\": %s}%s\n",
                   i, json_str(s.name).c_str(), static_cast<unsigned long long>(s.cell),
                   s.parent, json_num(s.start).c_str(), json_num(s.end).c_str(),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
  }

 private:
  bool on_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const std::string& name, std::uint64_t cell = 0)
      : log_(log), id_(log.begin(name, cell)) {}
  ~ScopedSpan() { log_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

// --------------------------------------------------------------- report --

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string clock;   // "host", "sim" or "-" (neither: a count of failures)
  std::string better;  // "lower" / "higher"
  std::string note;    // sample count, definition on this workload
  double paper = std::nan("");  // reference value (EXPERIMENTS.md paper column)
};

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;   // end-to-end (untraced pass)
  std::vector<Metric> layers;    // per-layer (traced pass only)
  double ns_per_mac = 0.0;  // crypto unit costs, for crypto.est_share.<s>
  double ns_per_pad = 0.0;
  // Peak RSS when the first repetition ends: one run of the workload from
  // a fresh process. Later repetitions only add allocator retention, which
  // varies from run to run with the worker threads' malloc arenas.
  double rss_mb = 0.0;
  void first_rep_done() {
    if (rss_mb == 0.0) rss_mb = peak_rss_mb();
  }

  void fail(const std::string& what, std::uint64_t ops) {
    errors.push_back(what);
    failed += ops;
  }
  void e2e(const std::string& name, double v, const std::string& unit, const std::string& clock,
           const std::string& better, const std::string& note = {},
           double paper = std::nan("")) {
    metrics.push_back(Metric{name, v, unit, clock, better, note, paper});
  }
  void layer(const std::string& name, double v, const std::string& unit,
             const std::string& clock) {
    layers.push_back(Metric{name, v, unit, clock, "", "", std::nan("")});
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool small = false;
  bool check_figures = false;
  std::string spans_path;
};

// Keeps host timing loops going until the budget is spent, with at least
// one repetition.
struct Budget {
  Clock::time_point t0 = Clock::now();
  double seconds;
  int reps = 0;
  bool more() {
    if (reps == 0 || since(t0) < seconds) {
      ++reps;
      return true;
    }
    return false;
  }
};

const char* const kSchemeKeys[] = {"wb_gc", "steins_gc", "steins_sc"};
const char* const kModeKeys[] = {"gc", "sc"};

// --------------------------------------------------------- paper-matrix --

const std::vector<SchemeSpec> kMatrixSchemes = {
    {Scheme::kWriteBack, CounterMode::kGeneral, "WB-GC"},
    {Scheme::kSteins, CounterMode::kGeneral, "Steins-GC"},
    {Scheme::kSteins, CounterMode::kSplit, "Steins-SC"}};
const char* const kMatrixTraces[] = {"mcf", "lbm", "phash"};

SystemConfig cell_config(const SchemeSpec& spec) {
  SystemConfig cfg = default_config();
  cfg.counter_mode = spec.mode;
  return cfg;
}

struct MatrixSizes {
  std::uint64_t accesses;
  std::uint64_t warmup;
};

using MatrixStats = std::vector<RunStats>;  // [trace * 3 + scheme]

// The gmean row of a paper figure table: `metric` of scheme column `col`,
// normalised per trace to the `baseline` column.
double figure_gmean(const MatrixStats& st, std::size_t col, const std::string& baseline,
                    double (*metric)(const RunStats&)) {
  std::vector<MatrixResult> results;
  for (std::size_t c = 0; c < st.size(); ++c) {
    results.push_back({kMatrixTraces[c / 3], kMatrixSchemes[c % 3].label, st[c]});
  }
  return ExperimentRunner::make_table("", results, kMatrixSchemes, metric, baseline)
      .rows()
      .back()
      .second[col];
}

double m_cycles(const RunStats& s) { return static_cast<double>(s.cycles); }
double m_read(const RunStats& s) { return s.read_latency_cycles; }
double m_write(const RunStats& s) { return s.write_latency_cycles; }
double m_nvm_writes(const RunStats& s) { return static_cast<double>(s.mem.nvm_writes()); }

// Every statistic the end-to-end sim metrics read, compared exactly.
bool same_cells(const MatrixStats& a, const MatrixStats& b) {
  for (std::size_t c = 0; c < a.size(); ++c) {
    if (a[c].cycles != b[c].cycles || a[c].accesses != b[c].accesses ||
        m_read(a[c]) != m_read(b[c]) || m_write(a[c]) != m_write(b[c]) ||
        m_nvm_writes(a[c]) != m_nvm_writes(b[c])) {
      return false;
    }
  }
  return true;
}

void sim_matrix_metrics(const MatrixStats& st, Report& r) {
  // Steins-GC (index 1) over WB-GC (index 0); Steins-SC (2) over Steins-GC.
  r.e2e("sim_exec_norm", figure_gmean(st, 1, "WB-GC", m_cycles), "ratio", "sim", "lower",
        "gmean Steins-GC/WB-GC cycles", 1.0);
  r.e2e("sim_read_lat_norm", figure_gmean(st, 1, "WB-GC", m_read), "ratio", "sim", "lower",
        "gmean mean read latency", 0.9998);
  r.e2e("sim_write_lat_norm", figure_gmean(st, 1, "WB-GC", m_write), "ratio", "sim", "lower",
        "gmean mean write latency", 1.06);
  r.e2e("sim_nvm_writes_norm", figure_gmean(st, 1, "WB-GC", m_nvm_writes), "ratio", "sim",
        "lower",
        "gmean NVM writes", 1.05);
  r.e2e("sim_exec_sc_over_gc", figure_gmean(st, 2, "Steins-GC", m_cycles), "ratio", "sim",
        "lower",
        "gmean Steins-SC/Steins-GC cycles", 1.0 / 1.64);
  double accesses = 0.0;
  double seconds = 0.0;
  const SystemConfig gc = default_config();
  for (std::size_t t = 0; t < 3; ++t) {
    accesses += static_cast<double>(st[t * 3 + 1].accesses);
    seconds += st[t * 3 + 1].seconds(gc);
  }
  r.e2e("sim_kops_per_s", accesses / seconds / 1e3, "kops/s", "sim", "higher",
        "Steins-GC measured trace accesses per simulated second");
}

void run_paper_matrix(const Options& opt, Report& r, SpanLog& spans) {
  const MatrixSizes sz = opt.small ? MatrixSizes{3000, 300} : MatrixSizes{200'000, 20'000};
  const std::uint64_t per_cell = sz.accesses + sz.warmup;

  // One untraced pass: build each cell (set-up), run it (timed), drop it.
  // Host figures are per-cell fastest passes, summed over the
  // cells; set-up is the per-cell median.
  std::vector<double> cell_setup[9], cell_run[9];
  const auto pass = [&](MatrixStats* st) {
    for (std::size_t c = 0; c < 9; ++c) {
      const SchemeSpec& spec = kMatrixSchemes[c % 3];
      const Clock::time_point t0 = Clock::now();
      System sys(cell_config(spec), spec.scheme);
      auto trace = make_workload(kMatrixTraces[c / 3], per_cell, opt.seed);
      cell_setup[c].push_back(since(t0));
      const Clock::time_point t1 = Clock::now();
      try {
        (*st)[c] = sys.run(*trace, sz.warmup);
      } catch (const std::exception& e) {
        r.fail(std::string("System::run ground-truth check failed: ") + e.what(), per_cell);
      }
      cell_run[c].push_back(since(t1));
      r.attempted += per_cell;
    }
  };

  MatrixStats first(9);
  Budget budget{Clock::now(), opt.seconds};
  while (budget.more()) {
    MatrixStats st(9);
    pass(&st);
    if (budget.reps == 1) {
      r.first_rep_done();
      first = st;
    } else if (!same_cells(st, first)) {
      r.fail("simulated statistics did not repeat across passes", 9 * per_cell);
    }
  }
  double setup_s = 0.0, untraced_run_s = 0.0;
  for (std::size_t c = 0; c < 9; ++c) {
    setup_s += median(cell_setup[c]);
    untraced_run_s += fastest(cell_run[c]);
  }
  const std::string passes = std::to_string(budget.reps) + " passes";
  r.e2e("setup_s", setup_s, "s", "host", "lower",
        "build 9 Systems + traces; per-cell median of " + passes);
  r.e2e("host_ops_per_s", static_cast<double>(9 * per_cell) / untraced_run_s, "1/s", "host",
        "higher", "trace accesses per second inside System::run; per-cell fastest of " +
            passes);
  sim_matrix_metrics(first, r);

  if (opt.check_figures) {
    // The figure benches' path (run_matrix at the same counts, seed 1) must
    // produce the same cells, so the gmean rows above are fig09/10/11/13's.
    const ExperimentRunner runner(default_config());
    const auto results = runner.run_matrix({"mcf", "lbm", "phash"}, kMatrixSchemes, sz.accesses,
                                           sz.warmup, false, 1);
    MatrixStats fig(9);
    for (std::size_t c = 0; c < 9; ++c) fig[c] = results[c].stats;
    if (!same_cells(fig, first)) r.fail("cells differ from ExperimentRunner::run_matrix", 1);
  }

  if (!opt.trace) return;

  // Traced pass: the same cells under spans, plus standalone replays that
  // split System::run's host time into trace / cache / secure / residual.
  double traced_run_s = 0.0;
  double residual_s = 0.0;
  double secure_s_total[3] = {0, 0, 0};
  std::uint64_t secure_calls[3] = {0, 0, 0};
  double trace_s = 0.0, cache_s = 0.0;
  CacheStats l1{}, l2{}, l3{};
  std::uint64_t mem_ops = 0, measured = 0;
  double hash_ops[3] = {0, 0, 0}, aes_ops[3] = {0, 0, 0};
  double wq_stalls[3] = {0, 0, 0}, nvm_read_cycles[3] = {0, 0, 0}, nvm_reads[3] = {0, 0, 0};
  MatrixStats traced(9);
  {
    ScopedSpan root(spans, "paper-matrix");
    for (std::size_t t = 0; t < 3; ++t) {
      std::vector<MemAccess> accesses(per_cell);
      double t_trace = 0.0;
      {
        auto gen = make_workload(kMatrixTraces[t], per_cell, opt.seed);
        ScopedSpan sp(spans, "trace.next_batch", t);
        const Clock::time_point t0 = Clock::now();
        std::size_t n = 0;
        while (n < per_cell) {
          const std::size_t got = gen->next_batch(accesses.data() + n, per_cell - n);
          if (got == 0) break;
          n += got;
        }
        accesses.resize(n);
        t_trace = since(t0);
      }
      // Memory-boundary operations the hierarchy emits: addr | 1 = fill.
      std::vector<Addr> ops;
      ops.reserve(accesses.size());
      double t_cache = 0.0;
      {
        CacheHierarchy h(default_config());
        CacheStats w1{}, w2{}, w3{};  // snapshot at the end of warmup
        std::size_t warm_ops = 0;
        ScopedSpan sp(spans, "cache.access", t);
        const Clock::time_point t0 = Clock::now();
        for (std::size_t i = 0; i < accesses.size(); ++i) {
          if (i == sz.warmup) {
            w1 = h.l1_stats(), w2 = h.l2_stats(), w3 = h.l3_stats();
            warm_ops = ops.size();
          }
          const MemAccess& a = accesses[i];
          const Addr addr = a.addr & ~static_cast<Addr>(kBlockSize - 1);
          const MemoryOps mo = h.access(addr, a.is_write);
          for (const Addr wb : mo.writebacks) ops.push_back(wb);
          if (mo.miss_fill) ops.push_back(mo.fill_addr | 1);
          if (a.flush) {
            for (const Addr wb : h.flush_block(addr)) ops.push_back(wb);
          }
        }
        t_cache = since(t0);
        const auto add_delta = [](CacheStats& sum, const CacheStats& end,
                                  const CacheStats& start) {
          sum.hits += end.hits - start.hits;
          sum.misses += end.misses - start.misses;
        };
        add_delta(l1, h.l1_stats(), w1);
        add_delta(l2, h.l2_stats(), w2);
        add_delta(l3, h.l3_stats(), w3);
        mem_ops += ops.size() - warm_ops;
        measured += accesses.size() - std::min<std::size_t>(accesses.size(), sz.warmup);
      }
      trace_s += t_trace;
      cache_s += t_cache;
      for (std::size_t s = 0; s < 3; ++s) {
        const std::uint64_t cell = t * 3 + s;
        auto mem = make_scheme(kMatrixSchemes[s].scheme, cell_config(kMatrixSchemes[s]));
        Block data{};
        Cycle now = 0;
        double t_secure = 0.0;
        {
          ScopedSpan sp(spans, "secure.call", cell);
          const Clock::time_point t0 = Clock::now();
          for (const Addr op : ops) {
            if (op & 1) {
              now = mem->read_block(op & ~Addr{1}, now, &data);
            } else {
              std::memcpy(data.data(), &op, sizeof(op));
              now = mem->write_block(op, data, now);
            }
          }
          t_secure = since(t0);
        }
        secure_s_total[s] += t_secure;
        secure_calls[s] += ops.size();
        hash_ops[s] += static_cast<double>(mem->stats().hash_ops);
        aes_ops[s] += static_cast<double>(mem->stats().aes_ops);

        System sys(cell_config(kMatrixSchemes[s]), kMatrixSchemes[s].scheme);
        auto trace = make_workload(kMatrixTraces[t], per_cell, opt.seed);
        double t_run = 0.0;
        {
          ScopedSpan sp(spans, "sim.run", cell);
          const Clock::time_point t0 = Clock::now();
          try {
            traced[cell] = sys.run(*trace, sz.warmup);
          } catch (const std::exception& e) {
            r.fail(std::string("traced System::run failed: ") + e.what(), per_cell);
          }
          t_run = since(t0);
        }
        traced_run_s += t_run;
        residual_s += t_run - t_trace - t_cache - t_secure;
        // Channel statistics are not reset at the warmup boundary: they
        // cover the whole run.
        const auto& ch = dynamic_cast<SecureMemoryBase&>(sys.memory()).channel().stats();
        wq_stalls[s] += static_cast<double>(ch.write_queue_stalls);
        nvm_read_cycles[s] += static_cast<double>(ch.read_latency.sum);
        nvm_reads[s] += static_cast<double>(ch.read_latency.count);
      }
    }
  }
  // Sim statistics must be bit-identical with tracing on and off.
  if (!same_cells(traced, first)) {
    r.fail("simulated statistics differ between traced and untraced runs", 9 * per_cell);
  }
  const double total = static_cast<double>(9 * per_cell);
  double untraced_median_s = 0.0;
  for (std::size_t c = 0; c < 9; ++c) untraced_median_s += median(cell_run[c]);
  r.layer("bench.trace_overhead_share", traced_run_s / untraced_median_s - 1.0, "ratio", "host");
  r.layer("trace.host_ns_per_access", trace_s * 1e9 / (3.0 * per_cell), "ns", "host");
  r.layer("cache.host_ns_per_access", cache_s * 1e9 / (3.0 * per_cell), "ns", "host");
  r.layer("cache.l1_hit_rate", l1.hit_rate(), "ratio", "sim");
  r.layer("cache.l2_hit_rate", l2.hit_rate(), "ratio", "sim");
  r.layer("cache.l3_hit_rate", l3.hit_rate(), "ratio", "sim");
  r.layer("cache.mem_ops_per_kaccess", ratio(1e3 * static_cast<double>(mem_ops),
                                             static_cast<double>(measured)),
          "count", "sim");
  r.layer("sim.host_residual_ns_per_access", residual_s * 1e9 / total, "ns", "host");

  for (std::size_t s = 0; s < 3; ++s) {
    const std::string sk = kSchemeKeys[s];
    r.layer("secure.host_ns_per_call." + sk,
            secure_s_total[s] * 1e9 / static_cast<double>(secure_calls[s]), "ns", "host");
    r.layer("crypto.est_share." + sk,
            (hash_ops[s] * r.ns_per_mac + aes_ops[s] * r.ns_per_pad) /
                (secure_s_total[s] * 1e9),
            "ratio", "host");
    // Simulated per-scheme statistics pooled over the three traces; the
    // percentiles are the median of the per-trace values.
    double hits = 0, mc = 0, calls = 0, mr = 0, mw = 0, aw = 0, ho = 0, ao = 0;
    std::vector<double> rp50, rp99, wp50, wp99;
    for (std::size_t t = 0; t < 3; ++t) {
      const RunStats& st = first[t * 3 + s];
      rp50.push_back(st.read_latency_p50);
      rp99.push_back(st.read_latency_p99);
      wp50.push_back(st.write_latency_p50);
      wp99.push_back(st.write_latency_p99);
      hits += st.mcache_hit_rate;
      mc += 1.0;
      calls += static_cast<double>(st.mem.read_latency.count + st.mem.write_latency.count);
      mr += static_cast<double>(st.mem.meta_reads);
      mw += static_cast<double>(st.mem.meta_writes);
      aw += static_cast<double>(st.mem.aux_writes) +
            static_cast<double>(st.mem.aux_write_bytes) / kBlockSize;
      ho += static_cast<double>(st.mem.hash_ops);
      ao += static_cast<double>(st.mem.aes_ops);
    }
    r.layer("secure.mcache_hit_rate." + sk, hits / mc, "ratio", "sim");
    r.layer("secure.read_p50_cycles." + sk, median(rp50), "cycles", "sim");
    r.layer("secure.read_p99_cycles." + sk, median(rp99), "cycles", "sim");
    r.layer("secure.write_p50_cycles." + sk, median(wp50), "cycles", "sim");
    r.layer("secure.write_p99_cycles." + sk, median(wp99), "cycles", "sim");
    r.layer("secure.meta_reads_per_kcall." + sk, 1e3 * ratio(mr, calls), "count", "sim");
    r.layer("secure.meta_writes_per_kcall." + sk, 1e3 * ratio(mw, calls), "count", "sim");
    r.layer("secure.aux_writes_per_kcall." + sk, 1e3 * ratio(aw, calls), "count", "sim");
    r.layer("secure.hash_ops_per_kcall." + sk, 1e3 * ratio(ho, calls), "count", "sim");
    r.layer("secure.aes_ops_per_kcall." + sk, 1e3 * ratio(ao, calls), "count", "sim");
    r.layer("nvm.write_queue_stalls." + sk, wq_stalls[s], "count", "sim");
    r.layer("nvm.read_cycles_mean." + sk, ratio(nvm_read_cycles[s], nvm_reads[s]), "cycles",
            "sim");
  }
  double reenc = 0.0;
  for (std::size_t t = 0; t < 3; ++t) {
    reenc += static_cast<double>(first[t * 3 + 2].mem.reencryptions);
  }
  r.layer("secure.reencryptions.steins_sc", reenc, "count", "sim");
  for (std::size_t t = 0; t < 3; ++t) {
    r.layer(std::string("sim.exec_norm.") + kMatrixTraces[t],
            m_cycles(first[t * 3 + 1]) / m_cycles(first[t * 3]), "ratio", "sim");
  }
}

// ------------------------------------------------------------- crypto ----

// Host cost of one MAC / one OTP pad under the default profile and the
// active backend; kept in the report for crypto.est_share.<s>.
void measure_crypto(const Options& opt, Report& r, SpanLog& spans) {
  const SystemConfig cfg = default_config();
  const crypto::MacEngine mac(cfg.crypto, 0x5eed ^ opt.seed);
  const crypto::OtpEngine otp(cfg.crypto, 0x5eed ^ opt.seed);
  const std::size_t n = opt.small ? 20'000 : 400'000;
  Block b{};
  std::uint64_t sink = 0;
  double mac_s = 0.0, pad_s = 0.0;
  {
    ScopedSpan sp(spans, "crypto.mac");
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      b[0] = static_cast<std::uint8_t>(i);
      sink ^= mac.data_mac(b, i * kBlockSize, i);
    }
    mac_s = since(t0);
  }
  {
    ScopedSpan sp(spans, "crypto.pad");
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) sink ^= otp.pad(i * kBlockSize, i)[i % kBlockSize];
    pad_s = since(t0);
  }
  if (sink == 0x1234567) std::fprintf(stderr, "(crypto sink)\n");  // keeps the loops live
  r.ns_per_mac = mac_s * 1e9 / static_cast<double>(n);
  r.ns_per_pad = pad_s * 1e9 / static_cast<double>(n);
  r.layer("crypto.host_ns_per_mac", r.ns_per_mac, "ns", "host");
  r.layer("crypto.host_ns_per_pad", r.ns_per_pad, "ns", "host");
}

// ------------------------------------------------------------- kv-serve --

double cycles_to_ns(double cycles) { return cycles / default_config().cpu.freq_ghz; }

kv::ServingConfig serving_config(const Options& opt, unsigned jobs) {
  kv::ServingConfig s;
  s.mix = kv::Mix::kA;
  s.clients = 4;
  s.shards = 4;
  s.routing = kv::Routing::kLoadAware;
  s.group_commit_window = 64;
  s.zipf_s = 0.99;
  s.keys = opt.small ? 2'000 : 120'000;
  s.ops = opt.small ? 8'000 : 400'000;
  s.slots = opt.small ? std::size_t{1} << 12 : std::size_t{1} << 17;
  s.seed = opt.seed;
  s.jobs = jobs;
  return s;
}

void check_serving(const kv::ServingResult& res, const kv::ServingConfig& s, Report& r,
                   std::uint64_t digest) {
  if (res.ops != s.ops || res.shed_ops != 0 || res.reads + res.updates != res.ops) {
    r.fail("serving did not execute every offered op", s.ops);
  }
  if (digest != 0 && res.image_digest != digest) {
    r.fail("serving image_digest differs between runs of the same seed", s.ops);
  }
}

void run_kv_serve(const Options& opt, Report& r, SpanLog& spans) {
  const SystemConfig cfg = default_config();
  const unsigned workers = std::min(4u, host_cpus());
  const kv::ServingConfig scfg = serving_config(opt, workers);

  std::vector<double> times;
  kv::ServingResult first;
  std::uint64_t digest = 0;
  Budget budget{Clock::now(), opt.seconds};
  while (budget.more()) {
    r.attempted += scfg.ops;
    try {
      const Clock::time_point t0 = Clock::now();
      kv::ServingResult res = kv::run_sharded_serving(cfg, Scheme::kSteins, scfg);
      times.push_back(since(t0));
      check_serving(res, scfg, r, digest);
      if (budget.reps == 1) {
        r.first_rep_done();
        digest = res.image_digest;
        first = std::move(res);
      } else if (res.makespan != first.makespan || res.nvm_writes != first.nvm_writes) {
        r.fail("simulated serving statistics did not repeat", scfg.ops);
      }
    } catch (const std::exception& e) {
      r.fail(std::string("serving read validation failed: ") + e.what(), scfg.ops);
    }
  }
  // Set-up, measured after the first timed call has set peak_rss_mb: the
  // serving call builds 4 controllers and preloads every key before its
  // first op, and a one-op call of the same entry point measures just that.
  std::vector<double> setups;
  for (int i = 0; i < 3; ++i) {
    kv::ServingConfig one = scfg;
    one.ops = 1;
    const Clock::time_point t0 = Clock::now();
    (void)kv::run_sharded_serving(cfg, Scheme::kSteins, one);
    setups.push_back(since(t0));
  }
  r.e2e("setup_s", median(setups), "s", "host", "lower",
        "median of 3 one-op serving calls: 4 controllers + preload of " +
            std::to_string(scfg.keys) + " keys");
  r.e2e("host_ops_per_s", static_cast<double>(scfg.ops) / fastest(times), "1/s", "host",
        "higher",
        "KV ops per second of run_sharded_serving (preload included), " +
            std::to_string(workers) + " workers, fastest of " +
            std::to_string(times.size()) + " calls");
  r.e2e("sim_kops_per_s", first.kops_per_sec, "kops/s", "sim", "higher",
        "executed ops over the busiest shard's makespan");
  r.e2e("sim_op_p50_ns", cycles_to_ns(first.all_lat.percentile(50.0)), "ns", "sim", "lower",
        std::to_string(first.all_lat.count()) + " samples");
  r.e2e("sim_op_p999_ns", cycles_to_ns(first.all_lat.percentile(99.9)), "ns", "sim", "lower",
        std::to_string(first.all_lat.count()) + " samples");
  r.e2e("sim_write_amp",
        ratio(static_cast<double>(first.nvm_writes) * kBlockSize,
              static_cast<double>(first.updates * scfg.value_bytes)),
        "ratio", "sim", "lower", "NVM bytes written / user value bytes put");

  if (!opt.trace) return;
  ScopedSpan root(spans, "kv-serve");
  double resolve_s = 0.0, serve_s = 0.0, serve1_s = 0.0;
  kv::ServingResult traced, one_worker;
  try {
    {
      ScopedSpan sp(spans, "kv.resolve");
      const Clock::time_point t0 = Clock::now();
      (void)kv::count_serving_accesses(cfg, Scheme::kSteins, scfg);
      resolve_s = since(t0);
    }
    {
      ScopedSpan sp(spans, "kv.serve", workers);
      const Clock::time_point t0 = Clock::now();
      traced = kv::run_sharded_serving(cfg, Scheme::kSteins, scfg);
      serve_s = since(t0);
    }
    {
      ScopedSpan sp(spans, "kv.serve", 1);
      const Clock::time_point t0 = Clock::now();
      one_worker = kv::run_sharded_serving(cfg, Scheme::kSteins, serving_config(opt, 1));
      serve1_s = since(t0);
    }
    r.attempted += 2 * scfg.ops;
    check_serving(traced, scfg, r, digest);
    check_serving(one_worker, scfg, r, digest);
    if (traced.makespan != first.makespan || traced.nvm_writes != first.nvm_writes) {
      r.fail("simulated serving statistics differ between traced and untraced runs", scfg.ops);
    }
  } catch (const std::exception& e) {
    r.fail(std::string("traced serving failed: ") + e.what(), scfg.ops);
  }
  double star_p50 = 0.0, wb_p50 = 0.0;
  try {
    // STAR vs WB-GC on the same cell: reads 1.0 while STAR's tracking cost
    // is kept off the completion clock (ROADMAP ledger item).
    kv::ServingConfig small = scfg;
    small.ops = scfg.ops / 4;
    {
      ScopedSpan sp(spans, "schemes.serve", static_cast<std::uint64_t>(Scheme::kStar));
      star_p50 = kv::run_sharded_serving(cfg, Scheme::kStar, small).all_lat.percentile(50.0);
    }
    {
      ScopedSpan sp(spans, "schemes.serve", static_cast<std::uint64_t>(Scheme::kWriteBack));
      wb_p50 = kv::run_sharded_serving(cfg, Scheme::kWriteBack, small).all_lat.percentile(50.0);
    }
  } catch (const std::exception& e) {
    r.fail(std::string("STAR/WB serving cell failed: ") + e.what(), scfg.ops / 2);
  }
  double occ_min = 1.0;
  std::uint64_t commit_writes = 0;
  for (const auto& sh : first.shards) {
    occ_min = std::min(occ_min, sh.occupancy);
    commit_writes += sh.commit_writes;
  }
  r.layer("bench.trace_overhead_share", serve_s / median(times) - 1.0, "ratio", "host");
  r.layer("kv.host_resolve_s", resolve_s, "s", "host");
  r.layer("kv.host_serve_s", serve_s, "s", "host");
  r.layer("kv.host_resolve_share", ratio(resolve_s, serve_s), "ratio", "host");
  r.layer("kv.host_parallel_speedup", ratio(serve1_s, serve_s), "ratio", "host");
  r.layer("kv.shard_occupancy_min", occ_min, "ratio", "sim");
  r.layer("kv.commit_writes_per_update",
          ratio(static_cast<double>(commit_writes), static_cast<double>(first.updates)), "count",
          "sim");
  r.layer("kv.mean_batch", first.batch_sizes.mean(), "count", "sim");
  r.layer("kv.shed_ratio",
          ratio(static_cast<double>(first.shed_ops), static_cast<double>(first.offered_ops)),
          "ratio", "sim");
  r.layer("kv.read_p50_ns", cycles_to_ns(first.read_lat.percentile(50.0)), "ns", "sim");
  r.layer("kv.read_p999_ns", cycles_to_ns(first.read_lat.percentile(99.9)), "ns", "sim");
  r.layer("kv.update_p50_ns", cycles_to_ns(first.update_lat.percentile(50.0)), "ns", "sim");
  r.layer("kv.update_p999_ns", cycles_to_ns(first.update_lat.percentile(99.9)), "ns", "sim");
  r.layer("schemes.star_over_wb_op_p50", ratio(star_p50, wb_p50), "ratio", "sim");
}

// ------------------------------------------------------------- lsm-ycsb --

lsm::LsmYcsbConfig lsm_config(const Options& opt) {
  lsm::LsmYcsbConfig y;
  y.mix = kv::Mix::kA;
  y.zipf_s = 0.99;
  y.ops = opt.small ? 1'000 : 50'000;
  y.seed = opt.seed;
  y.engine.background_compaction = true;
  y.verify = true;
  return y;
}

void run_lsm_ycsb(const Options& opt, Report& r, SpanLog& spans) {
  const SystemConfig cfg = default_config();
  const lsm::LsmYcsbConfig ycfg = lsm_config(opt);

  const auto check = [&](const lsm::LsmYcsbResult& res) {
    if (!res.verified) r.fail("LSM dump diverged from the shadow model", ycfg.ops);
    if (res.ops != ycfg.ops) r.fail("LSM run did not execute every op", ycfg.ops);
  };

  std::vector<double> times;
  lsm::LsmYcsbResult first;
  Budget budget{Clock::now(), opt.seconds};
  while (budget.more()) {
    r.attempted += ycfg.ops;
    try {
      const Clock::time_point t0 = Clock::now();
      lsm::LsmYcsbResult res = lsm::run_lsm_ycsb(cfg, Scheme::kSteins, ycfg);
      times.push_back(since(t0));
      check(res);
      if (budget.reps == 1) {
        r.first_rep_done();
        first = std::move(res);
      } else if (res.nvm_writes != first.nvm_writes || res.seconds != first.seconds) {
        r.fail("simulated LSM statistics did not repeat", ycfg.ops);
      }
    } catch (const std::exception& e) {
      r.fail(std::string("LSM run failed: ") + e.what(), ycfg.ops);
    }
  }
  // Set-up: a one-op call is the System build, engine open and preload.
  std::vector<double> setups;
  for (int i = 0; i < 15; ++i) {
    lsm::LsmYcsbConfig one = ycfg;
    one.ops = 1;
    const Clock::time_point t0 = Clock::now();
    (void)lsm::run_lsm_ycsb(cfg, Scheme::kSteins, one);
    setups.push_back(since(t0));
  }
  r.e2e("setup_s", median(setups), "s", "host", "lower",
        "median of 15 one-op run_lsm_ycsb calls: System + engine open + 2048-key preload");
  r.e2e("host_ops_per_s", static_cast<double>(ycfg.ops) / fastest(times), "1/s", "host",
        "higher",
        "KV ops per second of run_lsm_ycsb (preload included), fastest of " +
            std::to_string(times.size()) + " calls");
  r.e2e("sim_kops_per_s", first.kops_per_sec, "kops/s", "sim", "higher",
        "measured ops over the simulated window");
  r.e2e("sim_op_p50_ns", cycles_to_ns(first.all_lat.percentile(50.0)), "ns", "sim", "lower",
        std::to_string(first.all_lat.count()) + " samples");
  r.e2e("sim_op_p999_ns", cycles_to_ns(first.all_lat.percentile(99.9)), "ns", "sim", "lower",
        std::to_string(first.all_lat.count()) + " samples");
  r.e2e("sim_write_amp", first.write_amp, "ratio", "sim", "lower",
        "NVM bytes written / user value bytes put");

  if (!opt.trace) return;
  double traced_s = 0.0;
  {
    ScopedSpan root(spans, "lsm-ycsb");
    ScopedSpan sp(spans, "lsm.run");
    r.attempted += ycfg.ops;
    try {
      const Clock::time_point t0 = Clock::now();
      const lsm::LsmYcsbResult res = lsm::run_lsm_ycsb(cfg, Scheme::kSteins, ycfg);
      traced_s = since(t0);
      check(res);
      if (res.nvm_writes != first.nvm_writes || res.seconds != first.seconds) {
        r.fail("simulated LSM statistics differ between traced and untraced runs", ycfg.ops);
      }
    } catch (const std::exception& e) {
      r.fail(std::string("traced LSM run failed: ") + e.what(), ycfg.ops);
    }
  }
  const lsm::LsmStats& es = first.engine_stats;
  const double kops = static_cast<double>(first.ops) / 1e3;
  r.layer("bench.trace_overhead_share", traced_s / median(times) - 1.0, "ratio", "host");
  r.layer("lsm.flushes_per_kop", static_cast<double>(es.flushes) / kops, "count", "sim");
  r.layer("lsm.compactions_per_kop", static_cast<double>(es.compactions) / kops, "count", "sim");
  r.layer("lsm.bg_compaction_share",
          ratio(static_cast<double>(es.bg_compactions), static_cast<double>(es.compactions)),
          "ratio", "sim");
  r.layer("lsm.logical_write_amp", first.logical_write_amp, "ratio", "sim");
  r.layer("lsm.persist_barriers_per_put",
          ratio(static_cast<double>(es.persist_barriers), static_cast<double>(es.puts)), "count",
          "sim");
  r.layer("lsm.read_p999_ns", cycles_to_ns(first.read_lat.percentile(99.9)), "ns", "sim");
  r.layer("lsm.update_p999_ns", cycles_to_ns(first.update_lat.percentile(99.9)), "ns", "sim");
}

// -------------------------------------------------------- crash-recover --

struct RecoverySample {
  double setup_s = 0.0;
  double crash_s = 0.0;
  double recover_s = 0.0;
  double audit_s = 0.0;
  RecoveryReport report;
};

// fig17's dense pattern: one write under each of 2x(cache lines)
// consecutive leaves, from a seed-chosen first leaf, so every metadata
// cache line is dirty at the crash.
RecoverySample recovery_cycle(const Options& opt, CounterMode mode, Report& r, SpanLog& spans,
                              std::uint64_t cell) {
  RecoverySample out;
  const Clock::time_point t0 = Clock::now();
  SystemConfig cfg = default_config();
  cfg.counter_mode = mode;
  cfg.secure.metadata_cache.size_bytes = opt.small ? 256 << 10 : 4 << 20;
  auto mem = make_scheme(Scheme::kSteins, cfg);
  const SitGeometry& geo = mem->geometry();
  const std::uint64_t leaves = 2 * cfg.secure.metadata_cache.size_bytes / kBlockSize;
  const std::uint64_t first_leaf = splitmix(opt.seed) % (geo.level_count(0) - leaves);
  {
    ScopedSpan sp(spans, "recovery.fill", cell);
    Cycle now = 0;
    Block data{};
    for (std::uint64_t i = 0; i < leaves; ++i) {
      const std::uint64_t leaf = first_leaf + i;
      data[0] = static_cast<std::uint8_t>(leaf);
      now = mem->write_block(leaf * geo.leaf_coverage() * kBlockSize, data, now);
    }
  }
  out.setup_s = since(t0);
  {
    ScopedSpan sp(spans, "recovery.crash", cell);
    const Clock::time_point t1 = Clock::now();
    mem->crash();
    out.crash_s = since(t1);
  }
  {
    ScopedSpan sp(spans, "recovery.recover", cell);
    const Clock::time_point t1 = Clock::now();
    out.report = mem->recover();
    out.recover_s = since(t1);
  }
  if (!out.report.ok()) r.fail("recover() did not return ok: " + out.report.summary(), 1);
  {
    ScopedSpan sp(spans, "sit.check_tree", cell);
    const Clock::time_point t1 = Clock::now();
    auto* base = dynamic_cast<SecureMemoryBase*>(mem.get());
    const TreeCheckReport audit = check_tree(*base);
    out.audit_s = since(t1);
    if (!audit.ok()) r.fail("check_tree found issues after recovery", 1);
  }
  return out;
}

void run_crash_recover(const Options& opt, Report& r, SpanLog& spans) {
  const CounterMode modes[2] = {CounterMode::kGeneral, CounterMode::kSplit};
  std::vector<RecoverySample> samples[2];
  std::vector<double> setups;
  const auto round = [&](std::uint64_t cell) {
    double setup = 0.0;
    for (std::size_t m = 0; m < 2; ++m) {
      samples[m].push_back(recovery_cycle(opt, modes[m], r, spans, cell));
      r.attempted += 1;
      setup += samples[m].back().setup_s;
    }
    setups.push_back(setup);
  };
  const auto sim_of = [&](std::size_t m) { return samples[m].front().report.seconds; };
  // One mode's recover() times over samples [from, to).
  const auto recover_times = [&](std::size_t m, std::size_t from, std::size_t to) {
    std::vector<double> t;
    for (std::size_t i = from; i < to; ++i) t.push_back(samples[m][i].recover_s);
    return t;
  };

  Budget budget{Clock::now(), opt.seconds};
  while (budget.more()) {
    round(0);
    r.first_rep_done();
  }
  const std::size_t n = samples[0].size();
  for (std::size_t m = 0; m < 2; ++m) {
    for (const RecoverySample& s : samples[m]) {
      if (s.report.seconds != sim_of(m) ||
          s.report.nodes_recovered != samples[m].front().report.nodes_recovered) {
        r.fail("simulated recovery statistics did not repeat", 1);
      }
    }
  }
  const double gc_s = fastest(recover_times(0, 0, n)), sc_s = fastest(recover_times(1, 0, n));
  const std::string rounds = std::to_string(n) + " rounds";
  r.e2e("setup_s", median(setups), "s", "host", "lower",
        "build GC+SC schemes + dense dirty fill; median of " + rounds);
  r.e2e("host_ops_per_s",
        static_cast<double>(samples[0].front().report.nodes_recovered +
                            samples[1].front().report.nodes_recovered) /
            (gc_s + sc_s),
        "1/s", "host", "higher",
        "metadata nodes recovered per second of recover(), GC+SC; fastest of " + rounds);
  r.e2e("host_recovery_ms", (gc_s + sc_s) / 2.0 * 1e3, "ms", "host", "lower",
        "mean of the GC and SC recover() times; fastest of " + rounds);
  const double gc_nodes = static_cast<double>(samples[0].front().report.nodes_recovered);
  r.e2e("sim_kops_per_s", gc_nodes / sim_of(0) / 1e3, "kops/s", "sim", "higher",
        "Steins-GC metadata nodes recovered per simulated second");
  r.e2e("sim_recovery_s_gc", sim_of(0), "s", "sim", "lower", "modelled recover(), 4 MB cache",
        0.08);
  r.e2e("sim_recovery_s_sc", sim_of(1), "s", "sim", "lower", "modelled recover(), 4 MB cache",
        0.44);

  if (!opt.trace) return;
  {
    ScopedSpan root(spans, "crash-recover");
    for (int i = 0; i < 3; ++i) round(static_cast<std::uint64_t>(i) + 1);
  }
  for (std::size_t m = 0; m < 2; ++m) {
    std::vector<double> crash_ms, rec_ms, audit_ms;
    for (std::size_t i = n; i < samples[m].size(); ++i) {
      const RecoverySample& s = samples[m][i];
      if (s.report.seconds != sim_of(m)) {
        r.fail("simulated recovery differs between traced and untraced runs", 1);
      }
      crash_ms.push_back(s.crash_s * 1e3);
      rec_ms.push_back(s.recover_s * 1e3);
      audit_ms.push_back(s.audit_s * 1e3);
    }
    const RecoveryReport& rep = samples[m].front().report;
    const std::string mk = kModeKeys[m];
    r.layer("recovery.host_crash_ms." + mk, median(crash_ms), "ms", "host");
    r.layer("recovery.host_recover_ms_p90." + mk, percentile(rec_ms, 90.0), "ms", "host");
    r.layer("recovery.host_ns_per_node." + mk,
            median(rec_ms) * 1e6 / static_cast<double>(rep.nodes_recovered), "ns", "host");
    r.layer("recovery.nodes_recovered." + mk, static_cast<double>(rep.nodes_recovered), "count",
            "sim");
    r.layer("recovery.nvm_reads." + mk, static_cast<double>(rep.nvm_reads), "count", "sim");
    r.layer("recovery.nvm_writes." + mk, static_cast<double>(rep.nvm_writes), "count", "sim");
    r.layer("sit.host_audit_ms." + mk, median(audit_ms), "ms", "host");
  }
  const std::size_t all = samples[0].size();
  r.layer("bench.trace_overhead_share",
          (median(recover_times(0, n, all)) + median(recover_times(1, n, all))) /
                  (median(recover_times(0, 0, n)) + median(recover_times(1, 0, n))) -
              1.0,
          "ratio", "host");
}

// ------------------------------------------------------------------ main --

void usage() {
  std::fprintf(stderr,
               "usage: steins_perfbench --workload paper-matrix|kv-serve|lsm-ycsb|"
               "crash-recover --seed N --seconds S --trace 0|1 [--small] [--spans FILE] "
               "[--check-figures]\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      const std::string v = value();
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage();
    } else if (a == "--seconds") {
      const std::string v = value();
      o.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(o.seconds >= 0.0)) usage();
    } else if (a == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage();
      o.trace = v == "1";
    } else if (a == "--small") {
      o.small = true;
    } else if (a == "--check-figures") {
      o.check_figures = true;
    } else if (a == "--spans") {
      o.spans_path = value();
    } else {
      usage();
    }
  }
  if (o.workload.empty()) usage();
  return o;
}

void print_metrics(const char* key, const std::vector<Metric>& ms) {
  std::printf(" \"%s\": [\n", key);
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const Metric& m = ms[i];
    std::printf("  {\"name\": %s, \"value\": %s, \"unit\": %s, \"clock\": %s, \"better\": %s, "
                "\"note\": %s, \"paper\": %s}%s\n",
                json_str(m.name).c_str(), json_num(m.value).c_str(), json_str(m.unit).c_str(),
                json_str(m.clock).c_str(), json_str(m.better).c_str(), json_str(m.note).c_str(),
                json_num(m.paper).c_str(), i + 1 < ms.size() ? "," : "");
  }
  std::printf(" ],\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const std::map<std::string, void (*)(const Options&, Report&, SpanLog&)> workloads = {
      {"paper-matrix", run_paper_matrix},
      {"kv-serve", run_kv_serve},
      {"lsm-ycsb", run_lsm_ycsb},
      {"crash-recover", run_crash_recover},
  };
  const auto it = workloads.find(opt.workload);
  if (it == workloads.end()) usage();

  Report r;
  SpanLog spans(opt.trace);
  try {
    if (opt.trace && (opt.workload == "paper-matrix" || opt.workload == "crash-recover")) {
      measure_crypto(opt, r, spans);
    }
    it->second(opt, r, spans);
  } catch (const std::exception& e) {
    r.fail(std::string("workload aborted: ") + e.what(), std::max<std::uint64_t>(1, r.attempted));
  }
  r.e2e("peak_rss_mb", r.rss_mb > 0.0 ? r.rss_mb : peak_rss_mb(), "MB", "host", "lower",
        "peak RSS at the end of the first repetition");
  r.e2e("error_rate", ratio(static_cast<double>(r.failed), static_cast<double>(r.attempted)),
        "failed/attempted", "-", "lower", std::to_string(r.attempted) + " attempted");

  std::printf("{\n \"workload\": %s,\n \"seed\": %llu,\n \"trace\": %d,\n",
              json_str(opt.workload).c_str(), static_cast<unsigned long long>(opt.seed),
              opt.trace ? 1 : 0);
  std::printf(" \"provenance\": {\"compiler\": %s, \"build_type\": %s, \"crypto_backend\": %s, "
              "\"aes_ni\": %s, \"sha_ni\": %s, \"nproc\": %u, \"kv_workers\": %u},\n",
              json_str(__VERSION__).c_str(), json_str(STEINS_PB_BUILD_TYPE).c_str(),
              json_str(crypto::backend_name(crypto::active_backend())).c_str(),
              crypto::cpu_has_aesni() ? "true" : "false",
              crypto::cpu_has_shani() ? "true" : "false", host_cpus(),
              std::min(4u, host_cpus()));
  print_metrics("metrics", r.metrics);
  print_metrics("layers", r.layers);
  std::printf(" \"span_self_s\": {");
  bool first = true;
  for (const auto& [name, s] : spans.self_by_name()) {
    std::printf("%s%s: %s", first ? "" : ", ", json_str(name).c_str(), json_num(s).c_str());
    first = false;
  }
  std::printf("},\n");
  std::printf(" \"errors\": [");
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    std::printf("%s%s", i ? ", " : "", json_str(r.errors[i]).c_str());
  }
  std::printf("],\n \"attempted\": %llu,\n \"failed\": %llu\n}\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  std::fflush(stdout);
  if (opt.trace && !opt.spans_path.empty() && !spans.write(opt.spans_path)) {
    std::fprintf(stderr, "cannot write spans to %s\n", opt.spans_path.c_str());
    return 1;
  }
  return r.failed == 0 && r.errors.empty() ? 0 : 1;
}
