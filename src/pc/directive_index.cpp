#include "pc/directive_index.h"

#include <algorithm>

#include "pc/hypothesis.h"

namespace histpc::pc {

void PrefixSet::insert(std::string prefix) {
  auto it = std::lower_bound(sorted_.begin(), sorted_.end(), prefix);
  if (it != sorted_.end() && *it == prefix) return;
  sorted_.insert(it, std::move(prefix));
}

bool PrefixSet::contains_prefix_of(std::string_view name) const {
  if (sorted_.empty()) return false;
  // A path-prefix of `name` is `name` itself or `name` cut at a '/'
  // boundary (is_path_prefix: equal, or followed by '/'). Successive
  // rfind('/') truncations enumerate exactly those candidates, longest
  // first, down to the empty string (which path-prefixes any "/..." name).
  std::string_view candidate = name;
  for (;;) {
    if (std::binary_search(sorted_.begin(), sorted_.end(), candidate)) return true;
    if (candidate.empty()) return false;
    const auto pos = candidate.rfind('/');
    if (pos == std::string_view::npos) return false;
    candidate = candidate.substr(0, pos);
  }
}

DirectiveIndex::DirectiveIndex(const DirectiveSet& set, resources::FocusTable& table,
                               const HypothesisSet& hyps)
    : table_(table), subtree_by_hyp_(hyps.size()) {
  for (const PruneDirective& p : set.prunes) {
    if (p.hypothesis == kAnyHypothesis) {
      subtree_any_.insert(p.resource_prefix);
      continue;
    }
    for (std::size_t i = 0; i < hyps.size(); ++i)
      if (hyps.all()[i].name == p.hypothesis) subtree_by_hyp_[i].insert(p.resource_prefix);
  }

  // Subtree prunes -> per-hierarchy coverage bitmaps. covered[rid] is the
  // oracle's per-part test evaluated once per resource: every non-root
  // full name is a constrained part, and contains_prefix_of already walks
  // the ancestor truncations. Roots stay 0 (never pruned).
  const std::size_t nh = table.num_hierarchies();
  auto build_cover = [&](const PrefixSet& prefixes) {
    std::vector<std::vector<std::uint8_t>> cover;
    if (prefixes.empty()) return cover;
    cover.resize(nh);
    for (std::size_t h = 0; h < nh; ++h) {
      const resources::ResourceHierarchy& tree = table.hierarchy(h);
      cover[h].assign(tree.size(), 0);
      for (std::size_t rid = 1; rid < tree.size(); ++rid)
        cover[h][rid] = prefixes.contains_prefix_of(
                            tree.node(static_cast<resources::ResourceId>(rid)).full_name)
                            ? 1
                            : 0;
    }
    return cover;
  };
  any_cover_ = build_cover(subtree_any_);
  hyp_cover_.reserve(hyps.size());
  for (const PrefixSet& prefixes : subtree_by_hyp_) hyp_cover_.push_back(build_cover(prefixes));

  // A directive focus string matches a real focus's canonical name iff it
  // parses (with resource validation) and re-canonicalizes to itself —
  // name() is injective, so anything else can never equal a real node's
  // name and is dropped.
  auto canonical_id = [&](std::string_view focus) -> std::optional<resources::FocusId> {
    auto fid = table.parse(focus);
    if (!fid) return std::nullopt;
    if (table.to_focus(*fid).name() != focus) return std::nullopt;
    return fid;
  };
  for (const PairPruneDirective& p : set.pair_prunes) {
    const auto fid = canonical_id(p.focus);
    if (!fid) continue;
    if (p.hypothesis == kAnyHypothesis) {
      id_pair_prunes_any_.insert(*fid);
    } else if (auto hyp = hyps.index_of(p.hypothesis)) {
      id_pair_prunes_.insert(id_pair_key(*hyp, *fid));
    }
  }
  for (const PriorityDirective& p : set.priorities) {
    auto hyp = hyps.index_of(p.hypothesis);
    if (!hyp) continue;
    if (auto fid = canonical_id(p.focus))
      id_priorities_.emplace(id_pair_key(*hyp, *fid), p.priority);  // first wins
  }

  threshold_by_hyp_.reserve(hyps.size());
  for (const Hypothesis& h : hyps.all()) threshold_by_hyp_.push_back(set.threshold_for(h.name));
}

DirectiveSet::PruneKind DirectiveIndex::prune_match(int hyp,
                                                    resources::FocusId focus) const {
  const auto uhyp = static_cast<std::size_t>(hyp);
  const auto& hyp_cov = hyp_cover_.at(uhyp);
  if (!any_cover_.empty() || !hyp_cov.empty()) {
    for (std::size_t h = 0; h < table_.num_hierarchies(); ++h) {
      const resources::PartId pid = table_.part(focus, h);
      if (pid == 0) continue;  // a root part is never pruned
      const resources::ResourceId rid = resources::FocusTable::part_resource(pid);
      if (rid == resources::kNoResource) {
        // Foreign part: fall back to the oracle's string test.
        const std::string& pname = table_.part_name(h, pid);
        if (!is_constrained_part(pname)) continue;
        if (subtree_any_.contains_prefix_of(pname) ||
            subtree_by_hyp_[uhyp].contains_prefix_of(pname))
          return DirectiveSet::PruneKind::Subtree;
        continue;
      }
      const auto urid = static_cast<std::size_t>(rid);
      if (!any_cover_.empty() && any_cover_[h][urid]) return DirectiveSet::PruneKind::Subtree;
      if (!hyp_cov.empty() && hyp_cov[h][urid]) return DirectiveSet::PruneKind::Subtree;
    }
  }
  if (!id_pair_prunes_any_.empty() &&
      id_pair_prunes_any_.find(focus) != id_pair_prunes_any_.end())
    return DirectiveSet::PruneKind::Pair;
  if (!id_pair_prunes_.empty() &&
      id_pair_prunes_.find(id_pair_key(hyp, focus)) != id_pair_prunes_.end())
    return DirectiveSet::PruneKind::Pair;
  return DirectiveSet::PruneKind::None;
}

Priority DirectiveIndex::priority_of(int hyp, resources::FocusId focus) const {
  if (id_priorities_.empty()) return Priority::Medium;
  auto it = id_priorities_.find(id_pair_key(hyp, focus));
  return it == id_priorities_.end() ? Priority::Medium : it->second;
}

}  // namespace histpc::pc
