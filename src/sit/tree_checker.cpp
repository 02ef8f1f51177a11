#include "sit/tree_checker.hpp"

#include <algorithm>

namespace steins {

TreeCheckReport check_tree(SecureMemoryBase& mem, std::size_t max_issues) {
  TreeCheckReport report;
  const SitGeometry& geo = mem.geometry();
  NvmDevice& dev = mem.device();
  MetadataCache& cache = mem.metadata_cache();
  const bool split_leaves = mem.config().counter_mode == CounterMode::kSplit;

  auto add_issue = [&](NodeId id, std::string what) {
    if (report.issues.size() < max_issues) {
      report.issues.push_back(TreeCheckIssue{id, std::move(what)});
    }
  };

  // The verification counter for a persisted child is the parent's CURRENT
  // slot value: the cached copy if the parent is cached, else its NVM image.
  auto parent_counter = [&](NodeId id) -> std::uint64_t {
    if (const auto pending = mem.pending_parent_counter(id)) return *pending;
    if (geo.is_top_level(id)) return mem.root_counters()[id.index];
    const NodeId pid = geo.parent_of(id);
    const Addr paddr = geo.node_addr(pid);
    if (const MetadataLine* line = cache.peek(paddr)) {
      return line->payload.gc.counters[geo.slot_in_parent(id)];
    }
    if (!dev.contains(paddr)) return 0;
    const SitNode pnode = SitNode::from_block(pid, false, dev.peek_block(paddr));
    return pnode.gc.counters[geo.slot_in_parent(id)];
  };

  // A node can raise an issue only if it is persisted, has a nonzero parent
  // counter, or is cached clean. Enumerate exactly those sources (a
  // superset of the nodes with issues) instead of the whole tree: persisted
  // nodes; children named by a nonzero slot of a persisted or cached parent,
  // by a pending parent counter or by a root register; clean cached nodes.
  std::vector<std::uint32_t> offsets;
  auto name_children = [&](NodeId parent, const SitNode& node) {
    if (parent.level == 0) return;  // leaf slots count data writes
    for (std::size_t j = 0; j < geo.num_children(parent); ++j) {
      if (node.gc.counters[j] != 0) offsets.push_back(geo.offset_of(geo.child_of(parent, j)));
    }
  };
  // Sorted by address, hence by flat offset.
  std::vector<std::uint32_t> persisted;
  for (const Addr a :
       dev.resident_blocks(geo.meta_base(), geo.meta_base() + geo.total_nodes() * kBlockSize)) {
    const NodeId id = geo.node_at(a);
    persisted.push_back(geo.offset_of(id));
    if (id.level > 0) name_children(id, SitNode::from_block(id, false, dev.peek_block(a)));
  }
  offsets.insert(offsets.end(), persisted.begin(), persisted.end());
  cache.for_each([&](const MetadataLine& line) {
    if (!geo.is_metadata_addr(line.tag)) return;
    const NodeId id = geo.node_at(line.tag);
    if (!line.dirty) offsets.push_back(geo.offset_of(id));
    name_children(id, line.payload);
  });
  for (const NodeId id : mem.pending_children()) offsets.push_back(geo.offset_of(id));
  const std::vector<std::uint64_t>& roots = mem.root_counters();
  for (std::uint64_t i = 0; i < roots.size(); ++i) {
    if (roots[i] != 0) offsets.push_back(geo.offset_of({geo.top_level(), i}));
  }
  // Flat offsets run level by level, index by index: sorted offsets give
  // the (level, index) order the issues are reported in.
  std::sort(offsets.begin(), offsets.end());
  offsets.erase(std::unique(offsets.begin(), offsets.end()), offsets.end());

  auto next_persisted = persisted.begin();
  for (const std::uint32_t off : offsets) {
    const NodeId id = geo.node_at_offset(off);
    const bool split = split_leaves && id.level == 0;
    const Addr addr = geo.node_addr(id);
    const bool is_persisted = next_persisted != persisted.end() && *next_persisted == off;
    if (is_persisted) ++next_persisted;
    Block image{};
    if (is_persisted) {
      image = dev.peek_block(addr);
      // An image is the encoded payload followed by the HMAC, and the
      // counter encodings round-trip bit for bit, so the stored prefix is
      // the MAC input as is.
      const std::uint64_t pc = parent_counter(id);
      const std::uint64_t mac =
          mem.cme().mac().node_mac({image.data(), sizeof(NodePayload)}, addr, pc);
      if (mac != node_image_hmac(image)) {
        add_issue(id, "stored HMAC does not verify against the parent counter");
      }
    } else if (parent_counter(id) != 0) {
      add_issue(id, "parent counter nonzero but node never persisted");
    }

    if (const MetadataLine* line = cache.peek(addr); line != nullptr && !line->dirty) {
      if (!is_persisted) {
        if (line->payload.parent_value() != 0) {
          add_issue(id, "clean cached node has counters but no NVM image");
        }
      } else if (!line->payload.counters_equal(SitNode::from_block(id, split, image))) {
        add_issue(id, "clean cached node diverges from its NVM image");
      }
    }
  }
  // Every other node is unpersisted, uncached and under a zero counter:
  // checked by construction.
  report.nodes_checked = geo.total_nodes();
  report.nodes_persisted = persisted.size();
  return report;
}

}  // namespace steins
