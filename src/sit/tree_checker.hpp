// Whole-tree consistency checker: walks the persisted SIT and verifies
// every parent/child relationship the schemes rely on.
//
// Invariants checked (for the generated-counter schemes the two coincide;
// for self-increment schemes only the HMAC link is defined):
//   1. HMAC link: every persisted node's stored HMAC verifies against the
//      counter its parent (or the root register) holds for it.
//   2. Cache coherence: a cached clean node equals its NVM image.
//
// Used by tests after flush_all_metadata() and after recovery, and exposed
// through the CLI tool for ad-hoc auditing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "secure/secure_memory.hpp"

namespace steins {

struct TreeCheckIssue {
  NodeId node;
  std::string what;
};

struct TreeCheckReport {
  std::uint64_t nodes_checked = 0;
  std::uint64_t nodes_persisted = 0;
  std::vector<TreeCheckIssue> issues;

  bool ok() const { return issues.empty(); }
};

/// Verify every persisted node of `mem`'s SIT bottom-up against its parent
/// (falling back to the scheme's root register at the top), plus cache/NVM
/// coherence for clean cached nodes. `max_issues` bounds the report. The
/// result equals a walk over every node of the tree, but the cost grows
/// with the resident state (persisted, cached and pending nodes), not with
/// the tree size.
TreeCheckReport check_tree(SecureMemoryBase& mem, std::size_t max_issues = 16);

}  // namespace steins
