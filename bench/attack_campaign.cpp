// Adversarial-campaign bench: the full (scheme x scenario) attack verdict
// matrix plus the accelerated endurance projection, as one recordable JSON
// artifact (BENCH_attack.json).
//
// Positional argv[1] (or STEINS_ACCESSES) sets the trial count, STEINS_SEED
// overrides the campaign seed, and --jobs/--json/--verbose follow the other
// benches. Exit status is nonzero on any failing verdict (verdict_passes:
// silent corruption, or a recovery that gave up) — or an endurance
// integrity breach — so CI can gate on the artifact it uploads.
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_common.hpp"
#include "fault/adversary.hpp"
#include "fault/endurance.hpp"

using namespace steins;

int main(int argc, char** argv) {
  bench::BenchOptions opt = bench::parse_options(argc, argv);

  AttackCampaignOptions campaign;
  // parse_options() sizes benches in accesses; here one "access" is one
  // trial. The default is a 1050-trial matrix: 150 draws of each of the 7
  // scenarios against each of the 5 schemes (5250 verdicts).
  campaign.trials = opt.accesses == 200'000 ? 1050 : opt.accesses;
  campaign.seed = 42;
  if (const char* env = std::getenv("STEINS_SEED")) {
    campaign.seed = std::strtoull(env, nullptr, 10);
  }
  campaign.jobs = opt.jobs;
  if (campaign.trials == 0) {
    std::fprintf(stderr, "error: a 0-trial campaign would report vacuous success\n");
    return 2;
  }

  std::printf("attack campaign: %llu trials, seed %llu, %u job%s\n\n",
              static_cast<unsigned long long>(campaign.trials),
              static_cast<unsigned long long>(campaign.seed), campaign.jobs,
              campaign.jobs == 1 ? "" : "s");
  const AttackCampaignResult result = run_attack_campaign(campaign);
  result.print(opt.verbose);

  // Endurance projection for every recoverable scheme (WB has no recovery
  // pass to keep honest; its wear behaviour is covered by the matrix).
  bool endurance_failed = false;
  std::string endurance_json = "[";
  bool first = true;
  for (const SchemeSpec& spec : attack_schemes()) {
    if (spec.scheme == Scheme::kWriteBack) continue;
    EnduranceOptions eopts;
    eopts.scheme = spec.scheme;
    eopts.seed = campaign.seed;
    const EnduranceReport rep = run_endurance_campaign(eopts);
    std::printf("\n%s %s\n", spec.label.c_str(), rep.to_string().c_str());
    endurance_json += (first ? "\n " : ",\n ") + rep.to_json();
    first = false;
    if (rep.audit_mismatches > 0 || !rep.recovery_clean) endurance_failed = true;
  }
  endurance_json += "]";

  if (!opt.json_path.empty()) {
    std::FILE* f = std::fopen(opt.json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open JSON output %s: %s\n", opt.json_path.c_str(),
                   std::strerror(errno));
      return 1;
    }
    std::string json = "{";
    json += bench::bench_header("attack_campaign", "sim");
    json += "\"attack\": ";
    json += result.to_json();
    json += ",\n\"endurance\": ";
    json += endurance_json;
    json += "}\n";
    const bool wrote = std::fwrite(json.data(), 1, json.size(), f) == json.size();
    if (std::fclose(f) != 0 || !wrote) {
      std::fprintf(stderr, "error writing JSON output %s: %s\n", opt.json_path.c_str(),
                   std::strerror(errno));
      return 1;
    }
    std::printf("\nwrote JSON results to %s\n", opt.json_path.c_str());
  }

  if (result.failed_total() > 0) {
    std::fprintf(stderr,
                 "\nFAIL: %llu failing verdict(s) (silent corruption or unrecoverable "
                 "recovery)\n",
                 static_cast<unsigned long long>(result.failed_total()));
    return 1;
  }
  if (endurance_failed) {
    std::fprintf(stderr, "\nFAIL: endurance campaign audit mismatch or dirty recovery\n");
    return 1;
  }
  std::printf("\nPASS: zero failing verdicts across %zu verdicts\n",
              result.outcomes.size());
  return 0;
}
