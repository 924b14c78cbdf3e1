#include "analyze/verify.hpp"

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "hgraph/grammar_algorithms.hpp"
#include "hgraph/rulespec.hpp"
#include "spec/layers.hpp"
#include "spec/transforms.hpp"

namespace fem2::analyze {

namespace {

using hgraph::AtomKind;
using hgraph::Composite;
using hgraph::Grammar;
using hgraph::Multiplicity;
using hgraph::RuleOp;
using hgraph::SimulationRelation;
using hgraph::atom_subsumed;

// ---------------------------------------------------------------------------
// Pass 2: abstract interpretation of RuleSpecs

/// An abstract H-graph value: a node known to conform to a nonterminal, a
/// bare atom, or a node under construction (arcs/families accumulated so
/// far, held in an arena so aliases share mutations).
struct AbsValue {
  enum class Kind { Nonterminal, Atom, Node };
  Kind kind = Kind::Nonterminal;
  std::string nt;
  AtomKind atom = AtomKind::Nil;
  std::size_t node = 0;

  static AbsValue of_nt(std::string name) {
    AbsValue v;
    v.kind = Kind::Nonterminal;
    v.nt = std::move(name);
    return v;
  }
  static AbsValue of_atom(AtomKind k) {
    AbsValue v;
    v.kind = Kind::Atom;
    v.atom = k;
    return v;
  }
  static AbsValue of_node(std::size_t index) {
    AbsValue v;
    v.kind = Kind::Node;
    v.node = index;
    return v;
  }

  std::string describe() const {
    switch (kind) {
      case Kind::Nonterminal: return "<" + nt + ">";
      case Kind::Atom: return std::string(hgraph::atom_kind_name(atom));
      case Kind::Node: return "<node under construction>";
    }
    return "?";
  }
};

struct AbsNode {
  std::vector<std::pair<std::string, AbsValue>> arcs;
  std::map<std::string, std::vector<AbsValue>> families;
  std::string sealed_nt;  ///< non-empty once proven to conform
};

/// Abstractly interprets one registry's rule specs against its grammar.
class AbstractInterpreter {
 public:
  explicit AbstractInterpreter(const Grammar& grammar)
      : g_(grammar), sim_(grammar, grammar) {}

  /// True when `value` is acceptable where nonterminal `target` is
  /// required; on failure `why` explains.
  bool conforms(const AbsValue& value, const std::string& target,
                std::string& why) {
    switch (value.kind) {
      case AbsValue::Kind::Nonterminal:
        if (value.nt == target || sim_.holds(value.nt, target)) return true;
        why = "a " + value.describe() + " is not provably a <" + target +
              ">: " + sim_.explain(value.nt, target);
        return false;
      case AbsValue::Kind::Atom: {
        if (!g_.has_rule(target)) {
          why = "target nonterminal <" + target + "> is undefined";
          return false;
        }
        for (const auto& alt : hgraph::flat_alternatives(g_, target))
          if (alt.is_atom() && atom_subsumed(value.atom, alt.atom))
            return true;
        why = "a " + value.describe() + " atom is not admitted by <" +
              target + ">";
        return false;
      }
      case AbsValue::Kind::Node:
        return seal(value.node, target, why);
    }
    return false;
  }

  /// Prove the node under construction conforms to `target` (and remember
  /// the proof: later family appends check against the sealed type).
  bool seal(std::size_t index, const std::string& target, std::string& why) {
    if (!nodes_[index].sealed_nt.empty()) {
      return conforms(AbsValue::of_nt(nodes_[index].sealed_nt), target, why);
    }
    if (!g_.has_rule(target)) {
      why = "target nonterminal <" + target + "> is undefined";
      return false;
    }
    const auto alts = hgraph::flat_alternatives(g_, target);
    // A fresh node carries a NIL own-atom, so a bare atom alternative can
    // only admit it with no arcs attached.
    const AbsNode& node = nodes_[index];
    for (const auto& alt : alts) {
      if (alt.is_atom() && node.arcs.empty() && node.families.empty() &&
          atom_subsumed(AtomKind::Nil, alt.atom)) {
        nodes_[index].sealed_nt = target;
        return true;
      }
    }
    std::string last_error = "<" + target + "> has no composite alternative";
    for (const auto& alt : alts) {
      if (alt.is_atom()) continue;
      std::string error;
      if (matches_composite(node, *alt.composite, error)) {
        nodes_[index].sealed_nt = target;
        return true;
      }
      last_error = std::move(error);
    }
    why = "constructed node does not conform to <" + target +
          ">: " + last_error;
    return false;
  }

  std::size_t fresh() {
    nodes_.emplace_back();
    return nodes_.size() - 1;
  }

  AbsNode& node(std::size_t index) { return nodes_[index]; }

  /// The target nonterminal of the mandatory arc `label` on `nt`, if
  /// every composite alternative guarantees it consistently.
  bool follow_target(const std::string& nt, const std::string& label,
                     std::string& out, std::string& why) {
    return member_target(nt, label, Multiplicity::One, out, why);
  }

  /// The element nonterminal of the indexed family `base` on `nt`.
  bool family_target(const std::string& nt, const std::string& base,
                     std::string& out, std::string& why) {
    return member_target(nt, base, Multiplicity::IndexedFamily, out, why);
  }

 private:
  bool member_target(const std::string& nt, const std::string& label,
                     Multiplicity required, std::string& out,
                     std::string& why) {
    const auto alts = hgraph::flat_alternatives(g_, nt);
    const char* what =
        required == Multiplicity::One ? "mandatory arc" : "indexed family";
    const auto is_atom = [](const auto& alt) { return alt.is_atom(); };
    if (std::all_of(alts.begin(), alts.end(), is_atom)) {
      why = "<" + nt + "> has no composite alternative with " +
            std::string(what) + " '" + label + "'";
      return false;
    }
    out.clear();
    for (const auto& alt : alts) {
      if (alt.is_atom()) continue;
      const hgraph::ArcPattern* found = nullptr;
      for (const auto& pattern : alt.composite->arcs) {
        if (pattern.label == label && pattern.multiplicity == required) {
          found = &pattern;
          break;
        }
      }
      if (found == nullptr) {
        why = "not every alternative of <" + nt + "> declares " + what +
              " '" + label + "'";
        return false;
      }
      if (out.empty()) {
        out = found->nonterminal;
      } else if (out != found->nonterminal) {
        why = "alternatives of <" + nt + "> disagree on the type of '" +
              label + "' (" + out + " vs " + found->nonterminal + ")";
        return false;
      }
    }
    if (std::any_of(alts.begin(), alts.end(), is_atom)) {
      why = "an atom alternative of <" + nt + "> has no arc '" + label + "'";
      return false;
    }
    return true;
  }

  bool matches_composite(const AbsNode& node, const Composite& comp,
                         std::string& why) {
    if (comp.own_atom != AtomKind::Nil && comp.own_atom != AtomKind::Any) {
      why = "alternative requires an own atom of kind " +
            std::string(hgraph::atom_kind_name(comp.own_atom));
      return false;
    }
    std::set<std::string> claimed_arcs;
    std::set<std::string> claimed_families;
    for (const auto& pattern : comp.arcs) {
      std::size_t count = 0;
      if (pattern.multiplicity == Multiplicity::IndexedFamily) {
        claimed_families.insert(pattern.label);
        const auto members = node.families.find(pattern.label);
        if (members == node.families.end()) continue;
        for (const AbsValue& member : members->second) {
          std::string member_why;
          if (!conforms(member, pattern.nonterminal, member_why)) {
            why = "family '" + pattern.label + "' member: " + member_why;
            return false;
          }
        }
        continue;
      }
      claimed_arcs.insert(pattern.label);
      for (const auto& [label, value] : node.arcs) {
        if (label != pattern.label) continue;
        count += 1;
        std::string arc_why;
        if (!conforms(value, pattern.nonterminal, arc_why)) {
          why = "arc '" + label + "': " + arc_why;
          return false;
        }
      }
      if (pattern.multiplicity == Multiplicity::One && count != 1) {
        why = count == 0
                  ? "required arc '" + pattern.label + "' is never added"
                  : "arc '" + pattern.label + "' added more than once";
        return false;
      }
      if (pattern.multiplicity == Multiplicity::Optional && count > 1) {
        why = "optional arc '" + pattern.label + "' added more than once";
        return false;
      }
    }
    if (!comp.open) {
      for (const auto& [label, value] : node.arcs) {
        if (!claimed_arcs.contains(label)) {
          why = "arc '" + label + "' is not declared by the alternative";
          return false;
        }
      }
      for (const auto& [base, members] : node.families) {
        if (!claimed_families.contains(base) && !members.empty()) {
          why = "family '" + base + "' is not declared by the alternative";
          return false;
        }
      }
    }
    return true;
  }

  const Grammar& g_;
  SimulationRelation sim_;
  std::vector<AbsNode> nodes_;
};

/// Interpret one path of one rule; returns an error message, empty on
/// success.
std::string interpret_path(AbstractInterpreter& interp,
                           const hgraph::TransformRegistry& registry,
                           const hgraph::TransformSignature& signature,
                           const std::vector<RuleOp>& ops) {
  std::map<std::string, AbsValue> env;
  env.emplace("arg", AbsValue::of_nt(signature.input_nonterminal));

  const auto lookup = [&](const std::string& var,
                          AbsValue& out) -> std::string {
    const auto it = env.find(var);
    if (it == env.end()) return "unbound variable '" + var + "'";
    out = it->second;
    return "";
  };
  /// Resolve the nonterminal a variable is known to conform to (sealed
  /// nodes resolve to their sealed type).
  const auto resolve_nt = [&](const AbsValue& value,
                              std::string& out) -> std::string {
    if (value.kind == AbsValue::Kind::Nonterminal) {
      out = value.nt;
      return "";
    }
    if (value.kind == AbsValue::Kind::Node &&
        !interp.node(value.node).sealed_nt.empty()) {
      out = interp.node(value.node).sealed_nt;
      return "";
    }
    return "value " + value.describe() + " has no known nonterminal type";
  };

  for (std::size_t i = 0; i < ops.size(); ++i) {
    const RuleOp& op = ops[i];
    const std::string at = "op " + std::to_string(i + 1) + ": ";
    std::string why;
    switch (op.kind) {
      case RuleOp::Kind::Let: {
        AbsValue src;
        if (auto e = lookup(op.src, src); !e.empty()) return at + e;
        std::string src_nt;
        if (auto e = resolve_nt(src, src_nt); !e.empty()) return at + e;
        std::string target;
        if (!interp.follow_target(src_nt, op.label, target, why))
          return at + "follow('" + op.label + "'): " + why;
        env.insert_or_assign(op.var, AbsValue::of_nt(target));
        break;
      }
      case RuleOp::Kind::PickFamily: {
        AbsValue src;
        if (auto e = lookup(op.src, src); !e.empty()) return at + e;
        std::string src_nt;
        if (auto e = resolve_nt(src, src_nt); !e.empty()) return at + e;
        std::string target;
        if (!interp.family_target(src_nt, op.label, target, why))
          return at + "pick('" + op.label + "'): " + why;
        env.insert_or_assign(op.var, AbsValue::of_nt(target));
        break;
      }
      case RuleOp::Kind::Fresh:
        env.insert_or_assign(op.var, AbsValue::of_node(interp.fresh()));
        break;
      case RuleOp::Kind::FreshAtom:
        env.insert_or_assign(op.var, AbsValue::of_atom(op.atom));
        break;
      case RuleOp::Kind::AddArc: {
        AbsValue dst, src;
        if (auto e = lookup(op.dst, dst); !e.empty()) return at + e;
        if (auto e = lookup(op.src, src); !e.empty()) return at + e;
        if (dst.kind != AbsValue::Kind::Node ||
            !interp.node(dst.node).sealed_nt.empty())
          return at + "add_arc target '" + op.dst +
                 "' is not a node under construction";
        interp.node(dst.node).arcs.emplace_back(op.label, src);
        break;
      }
      case RuleOp::Kind::AppendFamily: {
        AbsValue dst, src;
        if (auto e = lookup(op.dst, dst); !e.empty()) return at + e;
        if (auto e = lookup(op.src, src); !e.empty()) return at + e;
        std::string dst_nt;
        if (resolve_nt(dst, dst_nt).empty()) {
          // Appending to a node already known to conform: the member must
          // fit the family's element type, and the owner keeps its type.
          std::string elem;
          if (!interp.family_target(dst_nt, op.label, elem, why))
            return at + "append('" + op.label + "'): " + why;
          if (!interp.conforms(src, elem, why))
            return at + "append('" + op.label + "'): " + why;
        } else if (dst.kind == AbsValue::Kind::Node) {
          interp.node(dst.node).families[op.label].push_back(src);
        } else {
          return at + "append target '" + op.dst + "' is not a node";
        }
        break;
      }
      case RuleOp::Kind::Call: {
        AbsValue arg;
        if (auto e = lookup(op.src, arg); !e.empty()) return at + e;
        const auto* callee = registry.signature(op.name);
        if (callee == nullptr)
          return at + "call of unregistered transform '" + op.name + "'";
        if (!callee->input_nonterminal.empty() &&
            !interp.conforms(arg, callee->input_nonterminal, why))
          return at + "argument of call('" + op.name + "'): " + why;
        env.insert_or_assign(
            op.var,
            callee->output_nonterminal.empty()
                ? AbsValue::of_nt("ANY")
                : AbsValue::of_nt(callee->output_nonterminal));
        break;
      }
      case RuleOp::Kind::Return: {
        AbsValue src;
        if (auto e = lookup(op.src, src); !e.empty()) return at + e;
        if (!signature.output_nonterminal.empty() &&
            !interp.conforms(src, signature.output_nonterminal, why))
          return at + "returned value: " + why;
        return "";
      }
    }
  }
  return "path has no Return op";
}

Finding make_finding(Pass pass, Severity severity, Layer layer,
                     std::string rule, std::string entity,
                     std::string message, std::string evidence) {
  Finding f;
  f.pass = pass;
  f.severity = severity;
  f.layer = layer;
  f.rule = std::move(rule);
  f.entity = std::move(entity);
  f.message = std::move(message);
  f.evidence = std::move(evidence);
  return f;
}

}  // namespace

// ---------------------------------------------------------------------------
// Pass 1: grammar language algorithms

std::vector<Finding> verify_grammar(const Grammar& grammar, Layer layer,
                                    VerifyStats* stats) {
  std::vector<Finding> findings;
  if (stats != nullptr) stats->grammars += 1;

  if (const auto valid = grammar.validate(); !valid) {
    findings.push_back(make_finding(
        Pass::Verification, Severity::Error, layer, "invalid-grammar", "",
        "grammar fails validation", valid.error));
    return findings;
  }

  const std::set<std::string> productive =
      hgraph::productive_nonterminals(grammar);
  for (const std::string& nt : grammar.nonterminals()) {
    if (stats != nullptr) stats->nonterminals += 1;
    if (!productive.contains(nt)) {
      const auto& rules = grammar.rules().at(nt);
      findings.push_back(make_finding(
          Pass::Verification, Severity::Error, layer, "empty-language", nt,
          "nonterminal derives no finite H-graph",
          rules.empty() ? std::string("no alternatives")
                        : rules.front().loc.to_string()));
      continue;
    }
    const auto witness = hgraph::witness_graph(grammar, nt);
    if (!witness) {
      findings.push_back(make_finding(
          Pass::Verification, Severity::Error, layer, "witness-failed", nt,
          "productive nonterminal has no witness", witness.error));
      continue;
    }
    if (stats != nullptr) stats->witnesses += 1;
    if (const auto check =
            grammar.conforms(witness.graph, witness.root, nt);
        !check) {
      findings.push_back(make_finding(
          Pass::Verification, Severity::Error, layer, "witness-mismatch", nt,
          "generated witness rejected by the conformance recognizer",
          check.error));
    }
  }
  return findings;
}

std::vector<Finding> verify_refinement(const Grammar& impl,
                                       std::string_view impl_root,
                                       Layer impl_layer, const Grammar& spec,
                                       std::string_view spec_root,
                                       VerifyStats* stats) {
  std::vector<Finding> findings;
  const auto refinement = hgraph::refines(impl, impl_root, spec, spec_root);
  if (stats != nullptr) stats->refinement_pairs += refinement.pairs_checked;
  if (!refinement.ok) {
    findings.push_back(make_finding(
        Pass::Verification, Severity::Error, impl_layer, "refinement-failed",
        std::string(impl_root) + " => " + std::string(spec_root),
        "implementation grammar does not refine its specification fragment",
        refinement.counterexample));
  }
  return findings;
}

// ---------------------------------------------------------------------------
// Pass 2: transformation-rule type preservation

std::vector<Finding> verify_transforms(
    const hgraph::TransformRegistry& registry, Layer layer,
    VerifyStats* stats) {
  std::vector<Finding> findings;
  AbstractInterpreter interp(registry.grammar());

  for (const std::string& name : registry.transform_names()) {
    const auto* signature = registry.signature(name);
    if (signature == nullptr) continue;
    if (stats != nullptr) stats->rules += 1;
    const std::string evidence =
        signature->spec.loc.known()
            ? "registered at " + signature->spec.loc.to_string()
            : std::string();
    if (signature->spec.empty()) {
      findings.push_back(make_finding(
          Pass::Verification, Severity::Info, layer, "unchecked-rule", name,
          "transform declares no rule spec; only runtime conformance "
          "checks apply",
          evidence));
      continue;
    }
    for (std::size_t p = 0; p < signature->spec.paths.size(); ++p) {
      if (stats != nullptr) stats->paths += 1;
      const std::string error = interpret_path(
          interp, registry, *signature, signature->spec.paths[p].ops);
      if (!error.empty()) {
        findings.push_back(make_finding(
            Pass::Verification, Severity::Error, layer,
            "type-preservation", name,
            "path " + std::to_string(p + 1) + " can violate the grammar: " +
                error,
            evidence));
      }
    }
  }
  return findings;
}

// ---------------------------------------------------------------------------
// The --verify facade

VerifyReport verify_specs(const VerifyOptions& options) {
  VerifyReport report;
  const auto append = [&report](std::vector<Finding> more) {
    report.findings.insert(report.findings.end(),
                           std::make_move_iterator(more.begin()),
                           std::make_move_iterator(more.end()));
  };

  if (options.grammar_language) {
    append(verify_grammar(spec::appvm_grammar(), Layer::Appvm,
                          &report.stats));
    append(verify_grammar(spec::db_grammar(), Layer::Db, &report.stats));
    append(verify_grammar(spec::navm_grammar(), Layer::Navm, &report.stats));
    append(
        verify_grammar(spec::sysvm_grammar(), Layer::Sysvm, &report.stats));
    append(verify_grammar(spec::hw_grammar(), Layer::Hw, &report.stats));
    // The db engine's state grammar must refine what layer 1 assumes of
    // its storage (the abstract `storage` fragment of the appvm grammar).
    append(verify_refinement(spec::db_grammar(), "dbengine", Layer::Db,
                             spec::appvm_grammar(), "storage",
                             &report.stats));
  }

  if (options.type_preservation) {
    append(verify_transforms(spec::make_appvm_transforms(), Layer::Appvm,
                             &report.stats));
  }

  if (options.protocols) {
    report.messaging = check_messaging(options.messaging);
    report.stats.protocol_states += report.messaging.states;
    report.stats.protocol_transitions += report.messaging.transitions;
    if (!report.messaging.ok) {
      report.findings.push_back(make_finding(
          Pass::ModelCheck, Severity::Error, Layer::Sysvm,
          "messaging-protocol", "reliable channel",
          report.messaging.violation,
          "trace: " + report.messaging.trace_to_string()));
    }
    report.db_health = check_db_health(options.db_health);
    report.stats.protocol_states += report.db_health.states;
    report.stats.protocol_transitions += report.db_health.transitions;
    if (!report.db_health.ok) {
      report.findings.push_back(make_finding(
          Pass::ModelCheck, Severity::Error, Layer::Db, "db-health",
          "engine health lifecycle", report.db_health.violation,
          "trace: " + report.db_health.trace_to_string()));
    }
  }
  return report;
}

}  // namespace fem2::analyze
