#include "hgraph/grammar_algorithms.hpp"

#include <functional>
#include <limits>
#include <map>
#include <vector>

namespace fem2::hgraph {

namespace {

/// Every graph matched by an impl pattern with multiplicity `a` is also
/// matched when the spec pattern declares multiplicity `b`.  Families
/// claim differently-shaped labels than plain patterns, so they only
/// refine each other.
bool multiplicity_admits(Multiplicity a, Multiplicity b) {
  if (a == Multiplicity::IndexedFamily || b == Multiplicity::IndexedFamily)
    return a == b;
  if (b == Multiplicity::Star) return true;
  if (b == Multiplicity::Optional) return a != Multiplicity::Star;
  return a == Multiplicity::One && b == Multiplicity::One;
}

using PairSet = std::set<std::pair<std::string, std::string>>;

bool pair_holds(const PairSet& holds, const std::string& a,
                const std::string& b) {
  return holds.contains({a, b});
}

/// Is every node matching impl alternative `fa` also matched by spec
/// alternative `fb`, assuming the child pairs in `holds`?
bool alt_covered(const FlatAlternative& fa, const FlatAlternative& fb,
                 const PairSet& holds, std::string* why) {
  const auto fail = [&](std::string reason) {
    if (why != nullptr && why->empty()) *why = std::move(reason);
    return false;
  };
  if (fa.is_atom() && fb.is_atom()) {
    if (atom_subsumed(fa.atom, fb.atom)) return true;
    return fail(std::string("atom ") + std::string(atom_kind_name(fa.atom)) +
                " is not subsumed by " + std::string(atom_kind_name(fb.atom)));
  }
  if (fa.is_atom()) {
    // Leaf atom vs composite: the leaf has no arcs, so the composite must
    // accept an arcless node with that atom.
    if (!atom_subsumed(fa.atom, fb.composite->own_atom))
      return fail(std::string("leaf atom ") +
                  std::string(atom_kind_name(fa.atom)) + " violates @" +
                  std::string(atom_kind_name(fb.composite->own_atom)));
    for (const auto& pb : fb.composite->arcs) {
      if (pb.multiplicity == Multiplicity::One)
        return fail("leaf atom cannot supply mandatory arc '" + pb.label +
                    "'");
    }
    return true;
  }
  if (fb.is_atom()) {
    // Composite vs leaf atom: only a closed, arcless composite is a leaf.
    if (fa.composite->open || !fa.composite->arcs.empty())
      return fail("composite with arcs cannot refine a leaf atom");
    return atom_subsumed(fa.composite->own_atom, fb.atom)
               ? true
               : fail(std::string("composite atom @") +
                      std::string(atom_kind_name(fa.composite->own_atom)) +
                      " is not subsumed by " +
                      std::string(atom_kind_name(fb.atom)));
  }

  const Composite& ca = *fa.composite;
  const Composite& cb = *fb.composite;
  if (!atom_subsumed(ca.own_atom, cb.own_atom))
    return fail(std::string("node atom @") +
                std::string(atom_kind_name(ca.own_atom)) +
                " is not subsumed by @" +
                std::string(atom_kind_name(cb.own_atom)));

  if (ca.open) {
    // An open impl composite admits arcs with arbitrary labels; those
    // must not be claimable by any spec pattern the impl does not pin.
    if (!cb.open) return fail("open composite cannot refine a closed one");
    for (const auto& pb : cb.arcs) {
      bool pinned = false;
      for (const auto& pa : ca.arcs) pinned = pinned || pa.label == pb.label;
      if (!pinned)
        return fail("open composite leaves spec arc '" + pb.label +
                    "' unconstrained");
    }
  }

  for (const auto& pa : ca.arcs) {
    const ArcPattern* pb = nullptr;
    for (const auto& cand : cb.arcs) {
      if (cand.label == pa.label) {
        pb = &cand;
        break;
      }
    }
    if (pb == nullptr) {
      if (!cb.open)
        return fail("arc '" + pa.label +
                    "' has no counterpart in the closed spec composite");
      // The arc rides the spec's `...`; make sure no spec family pattern
      // would claim its labels instead (and vice versa for families).
      for (const auto& cand : cb.arcs) {
        if (cand.multiplicity == Multiplicity::IndexedFamily &&
            pa.multiplicity != Multiplicity::IndexedFamily &&
            family_index(pa.label, cand.label))
          return fail("arc '" + pa.label + "' collides with spec family '" +
                      cand.label + "[*]'");
        if (pa.multiplicity == Multiplicity::IndexedFamily &&
            cand.multiplicity != Multiplicity::IndexedFamily &&
            family_index(cand.label, pa.label))
          return fail("family '" + pa.label + "[*]' collides with spec arc '" +
                      cand.label + "'");
      }
      continue;
    }
    if (!multiplicity_admits(pa.multiplicity, pb->multiplicity))
      return fail("arc '" + pa.label +
                  "' multiplicity is not admitted by the spec pattern");
    if (!pair_holds(holds, pa.nonterminal, pb->nonterminal))
      return fail("arc '" + pa.label + "' target " + pa.nonterminal +
                  " does not refine " + pb->nonterminal);
  }

  // Every mandatory spec arc must be guaranteed by the impl alternative.
  for (const auto& pb : cb.arcs) {
    if (pb.multiplicity != Multiplicity::One) continue;
    bool guaranteed = false;
    for (const auto& pa : ca.arcs)
      guaranteed = guaranteed || (pa.label == pb.label &&
                                  pa.multiplicity == Multiplicity::One);
    if (!guaranteed)
      return fail("mandatory spec arc '" + pb.label +
                  "' is not guaranteed by the impl composite");
  }
  return true;
}

/// One-step covering condition of the simulation: every impl alternative
/// of `a` is covered by some spec alternative of `b`.
bool one_step(const Grammar& impl, const Grammar& spec, const std::string& a,
              const std::string& b, const PairSet& holds, std::string* why) {
  const auto alts_a = flat_alternatives(impl, a);
  const auto alts_b = flat_alternatives(spec, b);
  for (const auto& fa : alts_a) {
    bool covered = false;
    std::string first_reason;
    for (const auto& fb : alts_b) {
      std::string reason;
      if (alt_covered(fa, fb, holds, why != nullptr ? &reason : nullptr)) {
        covered = true;
        break;
      }
      if (first_reason.empty()) first_reason = std::move(reason);
    }
    if (!covered) {
      if (why != nullptr) {
        *why = a + " is not simulated by " + b +
               (first_reason.empty()
                    ? " (no spec alternative applies)"
                    : ": " + first_reason);
      }
      return false;
    }
  }
  return true;
}

std::vector<std::string> side_names(const Grammar& g) {
  std::vector<std::string> names = g.nonterminals();
  for (const AtomKind k : kAtomKinds) names.emplace_back(atom_kind_name(k));
  return names;
}

void flatten(const Grammar& g, std::string_view name,
             std::set<std::string, std::less<>>& seen,
             std::vector<FlatAlternative>& out) {
  if (!seen.emplace(name).second) return;
  if (const auto kind = atom_kind_from_name(name)) {
    out.push_back({nullptr, *kind});
    return;
  }
  const auto it = g.rules().find(name);
  if (it == g.rules().end()) return;
  for (const auto& rule : it->second) {
    if (const auto* kind = std::get_if<AtomKind>(&rule.alternative)) {
      out.push_back({nullptr, *kind});
    } else if (const auto* comp = std::get_if<Composite>(&rule.alternative)) {
      out.push_back({comp, AtomKind::Nil});
    } else {
      flatten(g, std::get<NonterminalRef>(rule.alternative).name, seen, out);
    }
  }
}

}  // namespace

std::vector<FlatAlternative> flat_alternatives(const Grammar& grammar,
                                               std::string_view nonterminal) {
  std::set<std::string, std::less<>> seen;
  std::vector<FlatAlternative> out;
  flatten(grammar, nonterminal, seen, out);
  return out;
}

// --- productivity ----------------------------------------------------------

std::set<std::string> productive_nonterminals(const Grammar& grammar) {
  std::set<std::string> productive;
  const auto alt_productive = [&](const Alternative& alt) {
    if (std::holds_alternative<AtomKind>(alt)) return true;
    if (const auto* ref = std::get_if<NonterminalRef>(&alt)) {
      return Grammar::is_builtin(ref->name) || productive.contains(ref->name);
    }
    const auto& comp = std::get<Composite>(alt);
    for (const auto& pat : comp.arcs) {
      if (pat.multiplicity != Multiplicity::One) continue;
      if (Grammar::is_builtin(pat.nonterminal)) continue;
      if (!productive.contains(pat.nonterminal)) return false;
    }
    return true;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& [name, rules] : grammar.rules()) {
      if (productive.contains(name)) continue;
      for (const auto& rule : rules) {
        if (alt_productive(rule.alternative)) {
          productive.insert(name);
          changed = true;
          break;
        }
      }
    }
  }
  return productive;
}

// --- witness generation ----------------------------------------------------

namespace {

constexpr std::size_t kInfiniteCost = std::numeric_limits<std::size_t>::max();

/// Cheapest-derivation node count per nonterminal (infinite = empty
/// language).
using CostMap = std::map<std::string, std::size_t, std::less<>>;

/// Builtins cost 1; undefined nonterminals are infinite.
std::size_t cost_of(const CostMap& cost, std::string_view name) {
  if (Grammar::is_builtin(name)) return 1;
  const auto it = cost.find(name);
  return it == cost.end() ? kInfiniteCost : it->second;
}

/// Nodes in the cheapest derivation through `alt`: the node itself plus
/// the cheapest derivation of every mandatory arc's target.
std::size_t alternative_cost(const CostMap& cost, const Alternative& alt) {
  if (std::holds_alternative<AtomKind>(alt)) return 1;
  if (const auto* ref = std::get_if<NonterminalRef>(&alt))
    return cost_of(cost, ref->name);
  std::size_t total = 1;
  for (const auto& pat : std::get<Composite>(alt).arcs) {
    if (pat.multiplicity != Multiplicity::One) continue;
    const std::size_t c = cost_of(cost, pat.nonterminal);
    if (c == kInfiniteCost) return kInfiniteCost;
    total += c;
  }
  return total;
}

CostMap derivation_costs(const Grammar& g) {
  CostMap cost;
  for (const auto& [name, rules] : g.rules()) cost[name] = kInfiniteCost;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& [name, rules] : g.rules()) {
      std::size_t best = cost[name];
      for (const auto& rule : rules)
        best = std::min(best, alternative_cost(cost, rule.alternative));
      if (best < cost[name]) {
        cost[name] = best;
        changed = true;
      }
    }
  }
  return cost;
}

NodeId build_atom(HGraph& g, AtomKind kind) {
  switch (kind) {
    case AtomKind::Nil:
    case AtomKind::Any: return g.add_node();
    case AtomKind::Int: return g.add_int(0);
    case AtomKind::Real: return g.add_real(0.0);
    case AtomKind::String: return g.add_string("");
  }
  return g.add_node();
}

}  // namespace

WitnessResult witness_graph(const Grammar& grammar,
                            std::string_view nonterminal) {
  WitnessResult result;
  const auto costs = derivation_costs(grammar);
  if (cost_of(costs, nonterminal) == kInfiniteCost) {
    result.error = "language of " + std::string(nonterminal) +
                   " is empty (no finite derivation)";
    return result;
  }

  // Recursive cheapest-alternative construction.  Termination: every
  // recursive call targets a nonterminal of strictly smaller cheapest
  // cost (mandatory arcs of the chosen minimal alternative).
  const std::function<NodeId(std::string_view)> build =
      [&](std::string_view name) -> NodeId {
    if (const auto kind = atom_kind_from_name(name))
      return build_atom(result.graph, *kind);
    const std::size_t budget = cost_of(costs, name);
    const Alternative* chosen = nullptr;
    for (const auto& rule : grammar.rules().find(name)->second) {
      if (alternative_cost(costs, rule.alternative) <= budget) {
        chosen = &rule.alternative;
        break;
      }
    }
    if (const auto* kind = std::get_if<AtomKind>(chosen))
      return build_atom(result.graph, *kind);
    if (const auto* ref = std::get_if<NonterminalRef>(chosen))
      return build(ref->name);
    const auto& comp = std::get<Composite>(*chosen);
    const NodeId node = build_atom(result.graph, comp.own_atom);
    for (const auto& pat : comp.arcs) {
      if (pat.multiplicity != Multiplicity::One) continue;
      result.graph.add_arc(node, pat.label, build(pat.nonterminal));
    }
    return node;
  };

  result.root = build(nonterminal);
  result.ok = true;
  return result;
}

// --- simulation / refinement -----------------------------------------------

SimulationRelation::SimulationRelation(const Grammar& impl,
                                       const Grammar& spec)
    : impl_(impl), spec_(spec) {
  const auto impl_names = side_names(impl);
  const auto spec_names = side_names(spec);
  for (const auto& a : impl_names)
    for (const auto& b : spec_names) holds_.insert({a, b});

  bool changed = true;
  while (changed) {
    changed = false;
    for (auto it = holds_.begin(); it != holds_.end();) {
      ++pairs_checked_;
      if (!one_step(impl_, spec_, it->first, it->second, holds_, nullptr)) {
        it = holds_.erase(it);
        changed = true;
      } else {
        ++it;
      }
    }
  }
}

bool SimulationRelation::holds(std::string_view impl_nt,
                               std::string_view spec_nt) const {
  return holds_.contains({std::string(impl_nt), std::string(spec_nt)});
}

std::string SimulationRelation::explain(std::string_view impl_nt,
                                        std::string_view spec_nt) const {
  if (holds(impl_nt, spec_nt)) return {};
  std::string why;
  one_step(impl_, spec_, std::string(impl_nt), std::string(spec_nt), holds_,
           &why);
  if (why.empty()) {
    why = std::string(impl_nt) + " is not simulated by " +
          std::string(spec_nt);
  }
  return why;
}

RefinementResult refines(const Grammar& impl, std::string_view impl_root,
                         const Grammar& spec, std::string_view spec_root) {
  SimulationRelation sim(impl, spec);
  RefinementResult result;
  result.pairs_checked = sim.pairs_checked();
  if (!sim.holds(impl_root, spec_root)) {
    result.ok = false;
    result.counterexample = sim.explain(impl_root, spec_root);
  }
  return result;
}

}  // namespace fem2::hgraph
