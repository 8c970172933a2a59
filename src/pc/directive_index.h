// DirectiveIndex: O(1)–O(log n) lookup structures over a DirectiveSet.
//
// The (hypothesis : focus) directive lookup sits on the Performance
// Consultant's innermost refinement loop: every candidate produced by
// refine() is checked against the prune directives and assigned a queue
// priority, and every conclusion reads a threshold. The DirectiveSet scan
// methods walk the full directive list per call, which on harvested sets
// (hundreds to thousands of table1/table3-style directives) costs more
// than the batched metric evaluation they gate. The index is built once —
// the consultant constructs it right after apply_mappings() — compiled
// against the view's FocusTable, and answers the same three queries by
// (hypothesis index, FocusId) from bitmaps and hash sets.
//
// The DirectiveSet scans survive unchanged as the property-tested oracle
// (tests/directive_index_test.cpp): for every (hypothesis, focus) query
// the index returns exactly what the scan returns on the hypothesis name
// and canonical focus name, including its tie-breaking rules (first
// matching priority wins; first exact threshold wins, last wildcard is the
// fallback).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "pc/directives.h"
#include "pc/hypothesis.h"
#include "resources/focus_table.h"

namespace histpc::pc {

/// A sorted set of resource-name prefixes answering "is any stored prefix
/// a path-prefix of `name`?" (util::is_path_prefix semantics) in
/// O(depth(name) · log n): every path-prefix of `name` is `name` truncated
/// at a '/' boundary, so the query binary-searches each truncation,
/// longest first. Also reused by the directive generator to keep harvested
/// prune lists subtree-root-only.
class PrefixSet {
 public:
  /// Sorted insert; duplicates are ignored.
  void insert(std::string prefix);

  bool empty() const { return sorted_.empty(); }
  std::size_t size() const { return sorted_.size(); }

  /// True when some stored prefix equals `name` or is an ancestor of it.
  bool contains_prefix_of(std::string_view name) const;

 private:
  std::vector<std::string> sorted_;
};

class DirectiveIndex {
 public:
  /// Compiles `set` against a focus table:
  ///  * subtree prunes become per-hierarchy coverage bitmaps over
  ///    ResourceIds (covered iff contains_prefix_of(full_name), roots
  ///    forced out — a root part is never pruned);
  ///  * pair prunes and priorities become id-keyed sets and maps. A
  ///    directive focus string matches a real focus iff it parses and
  ///    re-canonicalizes to itself (canonical names are injective), so
  ///    non-canonical or unresolvable entries are provably unmatchable and
  ///    dropped;
  ///  * thresholds resolve once per hypothesis.
  /// The index copies what it needs from `set`, so it does NOT see later
  /// mutations (the consultant builds it once, after apply_mappings()).
  /// The table is retained and must outlive the index.
  DirectiveIndex(const DirectiveSet& set, resources::FocusTable& table,
                 const HypothesisSet& hyps);

  /// Same result as DirectiveSet::prune_match on the hypothesis name and
  /// the focus's canonical name.
  DirectiveSet::PruneKind prune_match(int hyp, resources::FocusId focus) const;
  bool is_pruned(int hyp, resources::FocusId focus) const {
    return prune_match(hyp, focus) != DirectiveSet::PruneKind::None;
  }
  /// Same result as DirectiveSet::priority_of.
  Priority priority_of(int hyp, resources::FocusId focus) const;
  /// Same result as DirectiveSet::threshold_for.
  std::optional<double> threshold_for(int hyp) const {
    return threshold_by_hyp_.at(static_cast<std::size_t>(hyp));
  }

 private:
  static std::uint64_t id_pair_key(int hyp, resources::FocusId focus) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(hyp)) << 32) |
           static_cast<std::uint32_t>(focus);
  }

  resources::FocusTable& table_;
  /// Subtree prunes by hypothesis index; "*" prunes live in their own set
  /// checked for every hypothesis. Kept for parts foreign to the table's
  /// resource db, which have no coverage bit.
  std::vector<PrefixSet> subtree_by_hyp_;
  PrefixSet subtree_any_;
  /// any_cover_[hier][rid]: rid lies under a wildcard-hypothesis subtree
  /// prune (roots always 0). hyp_cover_[hyp] likewise per hypothesis
  /// (empty vector = no subtree prunes for that hypothesis).
  std::vector<std::vector<std::uint8_t>> any_cover_;
  std::vector<std::vector<std::vector<std::uint8_t>>> hyp_cover_;
  std::unordered_set<std::uint64_t> id_pair_prunes_;
  std::unordered_set<resources::FocusId> id_pair_prunes_any_;
  /// First directive per (hypothesis, focus) wins, as in the scan.
  std::unordered_map<std::uint64_t, Priority> id_priorities_;
  std::vector<std::optional<double>> threshold_by_hyp_;
};

}  // namespace histpc::pc
