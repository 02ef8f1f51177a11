// gtest value printers for the library types the suites are parameterized
// over, so a test's listed parameter (and the ctest name built from it)
// reads "Steins" or "(STAR, node-rollback)" instead of raw object bytes.
// They live in the types' own namespace, where gtest finds them by ADL.
#pragma once

#include <ostream>

#include "common/config.hpp"
#include "fault/adversary.hpp"
#include "secure/secure_memory.hpp"
#include "sim/experiment.hpp"

namespace steins {

inline void PrintTo(Scheme s, std::ostream* os) {
  switch (s) {
    case Scheme::kWriteBack: *os << "WB"; return;
    case Scheme::kAnubis: *os << "ASIT"; return;
    case Scheme::kStar: *os << "STAR"; return;
    case Scheme::kSteins: *os << "Steins"; return;
    case Scheme::kScue: *os << "SCUE"; return;
  }
  *os << "Scheme(" << static_cast<int>(s) << ")";
}

inline void PrintTo(CounterMode m, std::ostream* os) {
  *os << (m == CounterMode::kSplit ? "SC" : "GC");
}

inline void PrintTo(CryptoProfile p, std::ostream* os) {
  *os << (p == CryptoProfile::kReal ? "Real" : "Fast");
}

inline void PrintTo(AdversaryScenario s, std::ostream* os) { *os << adversary_scenario_name(s); }

inline void PrintTo(const SchemeSpec& s, std::ostream* os) { *os << s.label; }

}  // namespace steins
