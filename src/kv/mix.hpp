// The YCSB core-workload mixes every KV driver draws from (the sharded
// serving engine and the LSM driver):
//   A 50% read / 50% update      B 95% read / 5% update
//   C 100% read                  F 50% read / 50% read-modify-write
#pragma once

#include <optional>
#include <string>

namespace steins::kv {

enum class Mix { kA, kB, kC, kF };

inline const char* mix_name(Mix m) {
  switch (m) {
    case Mix::kA: return "a";
    case Mix::kB: return "b";
    case Mix::kC: return "c";
    case Mix::kF: return "f";
  }
  return "?";
}

inline std::optional<Mix> parse_mix(const std::string& name) {
  if (name == "a" || name == "A") return Mix::kA;
  if (name == "b" || name == "B") return Mix::kB;
  if (name == "c" || name == "C") return Mix::kC;
  if (name == "f" || name == "F") return Mix::kF;
  return std::nullopt;
}

/// Share of a mix's ops that update (F's update half is a read-modify-write).
inline double update_fraction(Mix m) {
  switch (m) {
    case Mix::kA: return 0.50;
    case Mix::kB: return 0.05;
    case Mix::kC: return 0.00;
    case Mix::kF: return 0.50;
  }
  return 0.0;
}

}  // namespace steins::kv
