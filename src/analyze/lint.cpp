#include "analyze/lint.hpp"

#include <deque>
#include <map>
#include <set>
#include <string>

#include "hgraph/grammar_algorithms.hpp"

namespace fem2::analyze {

namespace {

using hgraph::Alternative;
using hgraph::ArcPattern;
using hgraph::AtomKind;
using hgraph::Composite;
using hgraph::Grammar;
using hgraph::NonterminalRef;
using hgraph::Rule;
using hgraph::SourceLoc;

/// Nonterminals the rules of one nonterminal reference.
std::set<std::string> referenced_names(const std::vector<Rule>& rules) {
  std::set<std::string> out;
  for (const auto& rule : rules)
    for (const auto& ref : hgraph::references(rule)) out.emplace(ref.name);
  return out;
}

bool alternatives_equal(const Alternative& a, const Alternative& b) {
  if (a.index() != b.index()) return false;
  if (const auto* ka = std::get_if<AtomKind>(&a))
    return *ka == *std::get_if<AtomKind>(&b);
  if (const auto* ra = std::get_if<NonterminalRef>(&a))
    return ra->name == std::get_if<NonterminalRef>(&b)->name;
  const auto& ca = *std::get_if<Composite>(&a);
  const auto& cb = *std::get_if<Composite>(&b);
  if (ca.own_atom != cb.own_atom || ca.open != cb.open ||
      ca.arcs.size() != cb.arcs.size())
    return false;
  for (std::size_t i = 0; i < ca.arcs.size(); ++i) {
    if (ca.arcs[i].label != cb.arcs[i].label ||
        ca.arcs[i].multiplicity != cb.arcs[i].multiplicity ||
        ca.arcs[i].nonterminal != cb.arcs[i].nonterminal)
      return false;
  }
  return true;
}

class Linter {
 public:
  Linter(const Grammar& grammar, std::string_view grammar_name,
         const LintOptions& options)
      : grammar_(grammar), name_(grammar_name), options_(options) {}

  std::vector<Finding> run() {
    check_undefined();
    check_unreachable();
    check_unproductive();
    check_duplicate_productions();
    check_arc_conflicts();
    check_atom_conflicts();
    return std::move(findings_);
  }

 private:
  void emit(Severity severity, std::string rule, std::string entity,
            std::string message, const SourceLoc& loc) {
    Finding f;
    f.pass = Pass::GrammarLint;
    f.severity = severity;
    f.layer = options_.layer;
    f.rule = std::move(rule);
    f.entity = std::string(name_) + ":" + std::move(entity);
    f.message = std::move(message);
    f.evidence = "grammar source " + loc.to_string();
    findings_.push_back(std::move(f));
  }

  void check_undefined() {
    for (const auto& [name, rules] : grammar_.rules()) {
      for (const auto& rule : rules) {
        for (const auto& ref : hgraph::references(rule)) {
          if (grammar_.has_rule(ref.name)) continue;
          const std::string target(ref.name);
          emit(Severity::Error, "undefined-nonterminal", name,
               ref.arc == nullptr
                   ? "alternative refers to undefined nonterminal '" +
                         target + "'"
                   : "arc '" + ref.arc->label +
                         "' targets undefined nonterminal '" + target + "'",
               ref.loc);
        }
      }
    }
  }

  void check_unreachable() {
    // Roots: configured, or inferred as "referenced by no other rule".
    std::set<std::string> referenced_by_others;
    for (const auto& [name, rules] : grammar_.rules()) {
      std::set<std::string> refs = referenced_names(rules);
      refs.erase(name);  // self-recursion doesn't anchor reachability
      referenced_by_others.insert(refs.begin(), refs.end());
    }
    std::deque<std::string> frontier;
    if (!options_.roots.empty()) {
      for (const auto& r : options_.roots) frontier.push_back(r);
    } else {
      for (const auto& [name, rules] : grammar_.rules())
        if (!referenced_by_others.contains(name)) frontier.push_back(name);
    }
    if (frontier.empty()) {
      // Fully self-referential grammar: every nonterminal is referenced
      // by another, so no root can be inferred.  One explicit finding
      // beats flagging every nonterminal unreachable (or saying nothing).
      if (!grammar_.rules().empty()) {
        emit(Severity::Warning, "no-root", "",
             "no root nonterminal could be inferred (every nonterminal is "
             "referenced by another); pass explicit roots to lint "
             "reachability",
             grammar_.rules().begin()->second.empty()
                 ? SourceLoc{}
                 : grammar_.rules().begin()->second.front().loc);
      }
      return;
    }

    std::set<std::string> reached(frontier.begin(), frontier.end());
    while (!frontier.empty()) {
      const std::string name = std::move(frontier.front());
      frontier.pop_front();
      const auto it = grammar_.rules().find(name);
      if (it == grammar_.rules().end()) continue;
      for (const auto& ref : referenced_names(it->second)) {
        if (Grammar::is_builtin(ref)) continue;
        if (reached.insert(ref).second) frontier.push_back(ref);
      }
    }
    for (const auto& [name, rules] : grammar_.rules()) {
      if (reached.contains(name)) continue;
      emit(Severity::Warning, "unreachable-nonterminal", name,
           "not reachable from any grammar root",
           rules.empty() ? SourceLoc{} : rules.front().loc);
    }
  }

  void check_unproductive() {
    const auto productive = hgraph::productive_nonterminals(grammar_);
    for (const auto& [name, rules] : grammar_.rules()) {
      if (productive.contains(name)) continue;
      emit(Severity::Warning, "unproductive-nonterminal", name,
           "derives no finite object (every alternative loops through a "
           "mandatory occurrence of an unproductive nonterminal)",
           rules.empty() ? SourceLoc{} : rules.front().loc);
    }
  }

  void check_duplicate_productions() {
    for (const auto& [name, rules] : grammar_.rules()) {
      for (std::size_t i = 0; i < rules.size(); ++i) {
        for (std::size_t j = i + 1; j < rules.size(); ++j) {
          if (alternatives_equal(rules[i].alternative,
                                 rules[j].alternative)) {
            emit(Severity::Warning, "duplicate-production", name,
                 "alternative " + std::to_string(j + 1) +
                     " repeats alternative " + std::to_string(i + 1) +
                     " (first defined at " + rules[i].loc.to_string() + ")",
                 rules[j].loc);
          }
        }
      }
    }
  }

  void check_arc_conflicts() {
    // Two patterns with the same label inside one composite are ambiguous:
    // matching is first-pattern-wins, so the second can never bind an arc
    // the first already claimed, and an indexed family plus a plain label
    // of the same name fight over `label[i]` vs `label`.
    for (const auto& [name, rules] : grammar_.rules()) {
      for (const auto& rule : rules) {
        const auto* comp = std::get_if<Composite>(&rule.alternative);
        if (comp == nullptr) continue;
        std::map<std::string, const ArcPattern*> seen;
        for (const auto& pat : comp->arcs) {
          const auto [it, inserted] = seen.emplace(pat.label, &pat);
          if (!inserted) {
            emit(Severity::Error, "conflicting-arc-pattern", name,
                 "arc label '" + pat.label +
                     "' appears twice in one composite (first at " +
                     (it->second->loc.known() ? it->second->loc : rule.loc)
                         .to_string() +
                     ")",
                 pat.loc.known() ? pat.loc : rule.loc);
          }
        }
      }
    }
  }

  void check_atom_conflicts() {
    // Leaf-atom alternatives: if an earlier-or-later alternative accepts a
    // superset of another's atoms, the narrower one is dead weight (REAL
    // accepts INT; ANY accepts everything).
    for (const auto& [name, rules] : grammar_.rules()) {
      for (std::size_t i = 0; i < rules.size(); ++i) {
        const auto* ka = std::get_if<AtomKind>(&rules[i].alternative);
        if (ka == nullptr) continue;
        for (std::size_t j = 0; j < rules.size(); ++j) {
          if (i == j) continue;
          const auto* kb = std::get_if<AtomKind>(&rules[j].alternative);
          if (kb == nullptr || *ka == *kb) continue;
          if (hgraph::atom_subsumed(*ka, *kb)) {
            emit(Severity::Warning, "atom-conflict", name,
                 std::string("alternative ") +
                     std::string(atom_kind_name(*ka)) + " is subsumed by " +
                     std::string(atom_kind_name(*kb)) + " (defined at " +
                     rules[j].loc.to_string() + ")",
                 rules[i].loc);
          }
        }
      }
    }
  }

  const Grammar& grammar_;
  std::string_view name_;
  const LintOptions& options_;
  std::vector<Finding> findings_;
};

}  // namespace

std::vector<Finding> lint_grammar(const hgraph::Grammar& grammar,
                                  std::string_view grammar_name,
                                  const LintOptions& options) {
  return Linter(grammar, grammar_name, options).run();
}

}  // namespace fem2::analyze
