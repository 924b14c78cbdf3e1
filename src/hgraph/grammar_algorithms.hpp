// Language-level algorithms on H-graph grammars (the static half of
// fem2_analyze --verify):
//
//   * productivity / emptiness — which nonterminals derive at least one
//     finite H-graph (least fixpoint over the productions; lint reports
//     the nonterminals it leaves out);
//   * alias flattening — a nonterminal's alternatives with alias chains
//     followed (the simulation below and the rule-spec verifier use it);
//   * witness generation — a minimal finite H-graph in the language of a
//     productive nonterminal, built from the cheapest derivation (the
//     witness is checked back against Grammar::conforms, so generator and
//     recognizer validate each other);
//   * refinement — a conservative, simulation-based sublanguage test
//     refines(G_impl, A, G_spec, B): every H-graph in L_impl(A) is also in
//     L_spec(B).  Sound but incomplete: a "no" may be spurious when the
//     spec only admits the impl shapes via pattern combinations the
//     simulation does not explore; a "yes" is always trustworthy.
#pragma once

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "hgraph/grammar.hpp"

namespace fem2::hgraph {

/// Nonterminals that derive at least one finite H-graph: the least
/// fixpoint in which an atom alternative, an alias of a productive or
/// builtin nonterminal, or a composite whose mandatory (multiplicity-one)
/// arc targets are all productive makes its nonterminal productive.
/// Optional, star and family arcs admit zero arcs, so they never block.
/// Builtin atom nonterminals are always productive and are not listed;
/// undefined nonterminals never are.
std::set<std::string> productive_nonterminals(const Grammar& grammar);

/// An alternative with aliases resolved away: a leaf atom, or a composite
/// borrowed from the grammar.
struct FlatAlternative {
  const Composite* composite = nullptr;  ///< null for a leaf atom
  AtomKind atom = AtomKind::Nil;         ///< the leaf's kind

  bool is_atom() const { return composite == nullptr; }
};

/// The alternatives of `nonterminal` with alias chains followed, in rule
/// order.  Each nonterminal is expanded at most once, so an alias cycle or
/// an undefined nonterminal contributes nothing (its language is empty,
/// and "for all alternatives" checks hold vacuously).  A builtin name
/// yields its own atom.
std::vector<FlatAlternative> flat_alternatives(const Grammar& grammar,
                                               std::string_view nonterminal);

struct WitnessResult {
  bool ok = false;
  HGraph graph;
  NodeId root;
  std::string error;  ///< why no witness exists (empty language)

  explicit operator bool() const { return ok; }
};

/// A minimal finite H-graph in the language of `nonterminal`, derived by
/// always choosing the cheapest alternative and omitting every optional
/// arc.  Fails iff the language is empty.
WitnessResult witness_graph(const Grammar& grammar,
                            std::string_view nonterminal);

/// The conservative simulation relation between two grammars: holds(a, b)
/// implies L_impl(a) is a subset of L_spec(b).  Builtin atom nonterminals
/// participate on both sides.  Computed once as a greatest fixpoint
/// (start from all pairs, remove pairs that fail the one-step covering
/// condition until stable), then queried in O(log n).
class SimulationRelation {
 public:
  /// Compute the full relation.  `impl` and `spec` may be the same
  /// grammar (the self-relation is what the transform-rule checker uses
  /// to decide nonterminal subtyping).
  SimulationRelation(const Grammar& impl, const Grammar& spec);

  bool holds(std::string_view impl_nt, std::string_view spec_nt) const;

  /// One-sentence reason why holds(a, b) fails; empty when it holds.
  std::string explain(std::string_view impl_nt,
                      std::string_view spec_nt) const;

  /// Pairs examined by the fixpoint (bench / stats).
  std::size_t pairs_checked() const { return pairs_checked_; }

 private:
  const Grammar& impl_;
  const Grammar& spec_;
  std::set<std::pair<std::string, std::string>> holds_;
  std::size_t pairs_checked_ = 0;
};

struct RefinementResult {
  bool ok = true;
  std::string counterexample;  ///< first failing pair, with the reason
  std::size_t pairs_checked = 0;

  explicit operator bool() const { return ok; }
};

/// Does every H-graph derivable from `impl_root` in `impl` conform to
/// `spec_root` in `spec`?  Conservative (see SimulationRelation).
RefinementResult refines(const Grammar& impl, std::string_view impl_root,
                         const Grammar& spec, std::string_view spec_root);

}  // namespace fem2::hgraph
