#include "hgraph/grammar.hpp"

#include <set>
#include <sstream>

#include "support/check.hpp"

namespace fem2::hgraph {

std::string_view atom_kind_name(AtomKind k) {
  switch (k) {
    case AtomKind::Nil: return "NIL";
    case AtomKind::Int: return "INT";
    case AtomKind::Real: return "REAL";
    case AtomKind::String: return "STRING";
    case AtomKind::Any: return "ANY";
  }
  FEM2_UNREACHABLE("bad AtomKind");
}

std::optional<AtomKind> atom_kind_from_name(std::string_view name) {
  for (const AtomKind k : kAtomKinds)
    if (atom_kind_name(k) == name) return k;
  return std::nullopt;
}

bool atom_subsumed(AtomKind a, AtomKind b) {
  return a == b || b == AtomKind::Any ||
         (a == AtomKind::Int && b == AtomKind::Real);
}

std::string SourceLoc::to_string() const {
  if (!known()) return "<unknown>";
  return "line " + std::to_string(line) + ", col " + std::to_string(column);
}

bool atom_matches(const HGraph& g, NodeId node, AtomKind kind) {
  switch (kind) {
    case AtomKind::Nil: return g.is_empty(node);
    case AtomKind::Int: return g.int_value(node).has_value();
    case AtomKind::Real: return g.real_value(node).has_value();
    case AtomKind::String: return g.string_value(node).has_value();
    case AtomKind::Any: return true;
  }
  FEM2_UNREACHABLE("bad AtomKind");
}

std::string family_label(std::string_view base, std::size_t index) {
  return std::string(base) + "[" + std::to_string(index) + "]";
}

std::optional<std::size_t> family_index(std::string_view label,
                                        std::string_view base) {
  if (label.size() < base.size() + 3) return std::nullopt;
  if (!label.starts_with(base)) return std::nullopt;
  if (label[base.size()] != '[' || label.back() != ']') return std::nullopt;
  const std::string_view digits =
      label.substr(base.size() + 1, label.size() - base.size() - 2);
  if (digits.empty()) return std::nullopt;
  std::size_t value = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + static_cast<std::size_t>(c - '0');
  }
  return value;
}

std::vector<Reference> references(const Rule& rule) {
  if (const auto* ref = std::get_if<NonterminalRef>(&rule.alternative))
    return {Reference{ref->name, nullptr, rule.loc}};
  std::vector<Reference> out;
  if (const auto* comp = std::get_if<Composite>(&rule.alternative)) {
    for (const auto& pat : comp->arcs)
      out.push_back({pat.nonterminal, &pat,
                     pat.loc.known() ? pat.loc : rule.loc});
  }
  return out;
}

struct Grammar::CheckState {
  // (node, nonterminal) pairs currently being checked (coinduction) or
  // already proven.
  std::set<std::pair<std::uint32_t, std::string>> in_progress;
  std::set<std::pair<std::uint32_t, std::string>> proven;
  std::string error;
  std::string path = "<root>";
};

Grammar::Grammar() = default;

void Grammar::add_alternative(std::string nonterminal, Alternative alt,
                              SourceLoc loc) {
  FEM2_CHECK_MSG(!atom_kind_from_name(nonterminal).has_value(),
                 "cannot redefine builtin nonterminal");
  rules_[std::move(nonterminal)].push_back(Rule{std::move(alt), loc});
}

bool Grammar::is_builtin(std::string_view nonterminal) {
  return atom_kind_from_name(nonterminal).has_value();
}

bool Grammar::has_rule(std::string_view nonterminal) const {
  return is_builtin(nonterminal) || rules_.find(nonterminal) != rules_.end();
}

std::vector<std::string> Grammar::nonterminals() const {
  std::vector<std::string> out;
  out.reserve(rules_.size());
  for (const auto& [name, alts] : rules_) out.push_back(name);
  return out;
}

ConformanceResult Grammar::conforms(const HGraph& g, NodeId node,
                                    std::string_view nonterminal) const {
  CheckState state;
  if (check(g, node, std::string(nonterminal), state)) return {};
  ConformanceResult r;
  r.ok = false;
  r.error = state.error.empty()
                ? "node does not conform to " + std::string(nonterminal)
                : state.error;
  return r;
}

bool Grammar::check(const HGraph& g, NodeId node,
                    const std::string& nonterminal, CheckState& state) const {
  if (const auto kind = atom_kind_from_name(nonterminal)) {
    if (atom_matches(g, node, *kind)) return true;
    state.error = state.path + ": atom " + atom_to_string(g.value(node)) +
                  " does not match " + nonterminal;
    return false;
  }
  const auto it = rules_.find(nonterminal);
  if (it == rules_.end()) {
    state.error = state.path + ": undefined nonterminal " + nonterminal;
    return false;
  }
  const auto key = std::make_pair(node.index, nonterminal);
  if (state.proven.contains(key)) return true;
  if (state.in_progress.contains(key)) return true;  // coinductive assumption
  state.in_progress.insert(key);

  std::string first_error;
  for (const auto& rule : it->second) {
    const std::string saved_error = state.error;
    if (check_alternative(g, node, rule.alternative, state)) {
      state.in_progress.erase(key);
      state.proven.insert(key);
      state.error = saved_error;
      return true;
    }
    if (first_error.empty()) first_error = state.error;
    state.error = saved_error;
  }
  state.in_progress.erase(key);
  state.error = first_error.empty()
                    ? state.path + ": no alternative of " + nonterminal +
                          " matches"
                    : first_error;
  return false;
}

bool Grammar::check_alternative(const HGraph& g, NodeId node,
                                const Alternative& alt,
                                CheckState& state) const {
  if (const auto* kind = std::get_if<AtomKind>(&alt)) {
    if (g.arcs(node).empty() && atom_matches(g, node, *kind)) return true;
    state.error = state.path + ": expected leaf atom " +
                  std::string(atom_kind_name(*kind));
    return false;
  }
  if (const auto* ref = std::get_if<NonterminalRef>(&alt)) {
    return check(g, node, ref->name, state);
  }

  const auto& comp = std::get<Composite>(alt);
  if (!atom_matches(g, node, comp.own_atom)) {
    state.error = state.path + ": node atom " + atom_to_string(g.value(node)) +
                  " violates @" + std::string(atom_kind_name(comp.own_atom));
    return false;
  }

  const auto& arcs = g.arcs(node);
  std::vector<bool> matched(arcs.size(), false);

  for (const auto& pat : comp.arcs) {
    std::vector<std::size_t> hits;
    std::vector<std::size_t> indices;  // for IndexedFamily
    for (std::size_t i = 0; i < arcs.size(); ++i) {
      if (matched[i]) continue;
      if (pat.multiplicity == Multiplicity::IndexedFamily) {
        if (const auto idx = family_index(arcs[i].label, pat.label)) {
          hits.push_back(i);
          indices.push_back(*idx);
        }
      } else if (arcs[i].label == pat.label) {
        hits.push_back(i);
      }
    }

    switch (pat.multiplicity) {
      case Multiplicity::One:
        if (hits.size() != 1) {
          state.error = state.path + ": expected exactly one arc '" +
                        pat.label + "', found " + std::to_string(hits.size());
          return false;
        }
        break;
      case Multiplicity::Optional:
        if (hits.size() > 1) {
          state.error = state.path + ": expected at most one arc '" +
                        pat.label + "', found " + std::to_string(hits.size());
          return false;
        }
        break;
      case Multiplicity::Star:
        break;
      case Multiplicity::IndexedFamily: {
        // Indices must be exactly {0, 1, ..., n-1}, each once.
        std::set<std::size_t> unique(indices.begin(), indices.end());
        if (unique.size() != indices.size() ||
            (!indices.empty() && (*unique.begin() != 0 ||
                                  *unique.rbegin() != indices.size() - 1))) {
          state.error = state.path + ": arcs '" + pat.label +
                        "[i]' are not a contiguous 0-based family";
          return false;
        }
        break;
      }
    }

    for (std::size_t i : hits) {
      matched[i] = true;
      const std::string saved_path = state.path;
      state.path += "." + arcs[i].label;
      const bool ok = check(g, arcs[i].target, pat.nonterminal, state);
      state.path = saved_path;
      if (!ok) return false;
    }
  }

  if (!comp.open) {
    for (std::size_t i = 0; i < arcs.size(); ++i) {
      if (!matched[i]) {
        state.error =
            state.path + ": unexpected arc '" + arcs[i].label + "'";
        return false;
      }
    }
  }
  return true;
}

ConformanceResult Grammar::validate() const {
  for (const auto& [name, alts] : rules_) {
    for (const auto& rule : alts) {
      for (const auto& ref : references(rule)) {
        if (has_rule(ref.name)) continue;
        ConformanceResult r;
        r.ok = false;
        r.error = "rule '" + name + "' (" + ref.loc.to_string() +
                  ") references undefined nonterminal '" +
                  std::string(ref.name) + "'";
        return r;
      }
    }
  }
  return {};
}

}  // namespace fem2::hgraph
