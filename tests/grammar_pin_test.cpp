// Recorded outputs of everything that uses the H-graph grammar vocabulary
// (builtin atom names, atom subsumption, indexed-family labels, alias
// flattening, productivity, the references of an alternative):
//
//   * lint and verify findings on the five layer grammars and on seeded
//     defect grammars, as Finding::to_string() lines in emission order;
//   * the counterexample of a failing refinement through each branch of
//     the simulation's covering test;
//   * the type-preservation findings of transform registries whose rule
//     specs seal, follow and pick through aliases;
//   * an FNV-1a digest of every layer grammar's witness graphs, and of
//     reflected H-graphs and transform results;
//   * GrammarParseError messages and the --verify counts.
//
// Every expected value was recorded from the implementation before the
// vocabulary was given one definition in hgraph; a change meant to keep
// these outputs must pass this file unedited.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "analyze/analyzer.hpp"
#include "analyze/lint.hpp"
#include "analyze/verify.hpp"
#include "fem/analysis.hpp"
#include "fem/mesh.hpp"
#include "hgraph/grammar_algorithms.hpp"
#include "hgraph/grammar_parser.hpp"
#include "hgraph/rulespec.hpp"
#include "hgraph/transform.hpp"
#include "run_digest.hpp"
#include "spec/layers.hpp"
#include "spec/reflect.hpp"
#include "spec/transforms.hpp"

namespace fem2 {
namespace {

using analyze::Finding;
using analyze::Layer;
using hgraph::ArcPattern;
using hgraph::AtomKind;
using hgraph::Composite;
using hgraph::Grammar;
using hgraph::Multiplicity;
using hgraph::NonterminalRef;
using hgraph::SourceLoc;
using hgraph::parse_grammar;

std::string lines(const std::vector<Finding>& findings) {
  std::string out;
  for (const auto& f : findings) out += f.to_string() + "\n";
  return out;
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

ArcPattern arc(std::string label, Multiplicity m, std::string target,
               SourceLoc loc = {}) {
  return ArcPattern{std::move(label), m, std::move(target), loc};
}

Composite composite(std::vector<ArcPattern> arcs, bool open = false,
                    AtomKind own = AtomKind::Nil) {
  Composite c;
  c.own_atom = own;
  c.arcs = std::move(arcs);
  c.open = open;
  return c;
}

// --- seeded defect grammars ------------------------------------------------

struct Defect {
  std::string name;
  Grammar grammar;
};

/// n0 ::= INT, n_k ::= { a: n_{k-1}, b: n_{k-1} } for k = 1..63: n63's
/// cheapest derivation has 2^64 - 1 nodes.
Grammar doubling_chain() {
  std::string text = "n0 ::= INT\n";
  for (int k = 1; k < 64; ++k) {
    const std::string below = "n" + std::to_string(k - 1);
    text += "n" + std::to_string(k) + " ::= { a: " + below + ", b: " + below +
            " }\n";
  }
  return parse_grammar(text);
}

/// Undefined targets reached through an alias and through arcs, with and
/// without a recorded arc location (parse_grammar would reject them).
Grammar undefined_targets() {
  Grammar g;
  g.add_alternative("root", NonterminalRef{"ghost"}, SourceLoc{2, 9});
  g.add_alternative(
      "root",
      composite({arc("a", Multiplicity::One, "phantom"),
                 arc("b", Multiplicity::Optional, "spectre", {3, 14}),
                 arc("c", Multiplicity::Star, "INT", {3, 27})}),
      SourceLoc{3, 9});
  g.add_alternative("leaf", AtomKind::Int);
  g.add_alternative("leaf", NonterminalRef{"wraith"});
  g.add_alternative("leaf", NonterminalRef{"REAL"}, SourceLoc{5, 20});
  return g;
}

std::vector<Defect> defect_grammars() {
  std::vector<Defect> out;
  out.push_back({"alias-diamond", parse_grammar(R"(
t ::= b | c
b ::= d
c ::= e | d
d ::= INT | { x: REAL }
e ::= STRING | { y: REAL }
)")});
  out.push_back({"alias-cycle", parse_grammar(R"(
top ::= a | { k: INT }
a   ::= b
b   ::= a
)")});
  out.push_back({"undefined-targets", undefined_targets()});
  out.push_back({"unproductive-alias-chain", parse_grammar(R"(
top ::= mid
mid ::= low
low ::= { self: low }
)")});
  out.push_back({"duplicate-productions", parse_grammar(R"(
dup   ::= INT | INT | { a: INT } | { a: INT } | alias | alias
alias ::= REAL | { a?: INT, b*: INT, c[*]: INT, ... } | { a?: INT, b*: INT, c[*]: INT }
)")});
  out.push_back({"atom-subsumption", parse_grammar(R"(
p ::= INT | REAL
v ::= REAL | INT
q ::= NIL | ANY
r ::= STRING | ANY
s ::= REAL | ANY
t ::= INT | ANY
u ::= INT | STRING | NIL
w ::= ANY | INT | REAL | STRING | NIL
)")});
  out.push_back({"mandatory-cycle-under-options", parse_grammar(R"(
root ::= { leaf: INT, spin?: loop, many*: loop, fam[*]: loop }
loop ::= { next: loop } | { self: loop, @REAL }
)")});
  return out;
}

std::string render_defect_findings() {
  std::string out;
  for (const auto& [name, grammar] : defect_grammars()) {
    out += "== " + name + " lint\n";
    out += lines(analyze::lint_grammar(grammar, name));
    out += "== " + name + " verify\n";
    out += lines(analyze::verify_grammar(grammar, Layer::None));
  }
  const Grammar chain = doubling_chain();
  out += "== doubling-chain lint\n";
  out += lines(analyze::lint_grammar(chain, "doubling-chain"));
  out += "== doubling-chain productive " +
         std::to_string(hgraph::productive_nonterminals(chain).size()) + "\n";
  const auto top = hgraph::witness_graph(chain, "n63");
  out += "== doubling-chain n63 witness " + std::string(top ? "ok" : "failed") +
         ": " + top.error + "\n";
  const auto low = hgraph::witness_graph(chain, "n2");
  out += "== doubling-chain n2 witness " + std::string(low ? "ok" : "failed") +
         "\n" + low.graph.to_string(low.root);
  return out;
}

std::string render_validate_and_witnesses() {
  std::string out;
  out += "validate: " + undefined_targets().validate().error + "\n";
  for (const auto& [name, grammar] : defect_grammars()) {
    for (const std::string& nt : grammar.nonterminals()) {
      const auto w = hgraph::witness_graph(grammar, nt);
      out += name + " " + nt + ": ";
      out += w ? "\n" + w.graph.to_string(w.root) : w.error + "\n";
    }
  }
  return out;
}

// --- refinement: each branch of the covering test --------------------------

struct RefinementCase {
  std::string name;
  Grammar impl;
  std::string impl_root;
  Grammar spec;
  std::string spec_root;
};

std::vector<RefinementCase> refinement_cases() {
  std::vector<RefinementCase> out;
  const auto text = [&out](std::string name, const char* impl,
                           const char* spec) {
    out.push_back({std::move(name), parse_grammar(impl), "a",
                   parse_grammar(spec), "b"});
  };
  text("atom-atom", "a ::= STRING", "b ::= INT");
  text("atom-atom-subsumed", "a ::= INT", "b ::= REAL | STRING");
  text("leaf-composite-own-atom", "a ::= INT", "b ::= { @STRING, ... }");
  text("leaf-composite-mandatory", "a ::= INT", "b ::= { @INT, x: INT }");
  text("leaf-composite-optional", "a ::= NIL", "b ::= { x?: INT, y*: INT }");
  text("composite-leaf-arcs", "a ::= { x: INT }", "b ::= INT");
  text("composite-leaf-open", "a ::= { ... }", "b ::= NIL");
  text("composite-leaf-atom", "a ::= { @STRING }", "b ::= INT");
  text("composite-leaf-subsumed", "a ::= { @INT }", "b ::= REAL");
  text("own-atom", "a ::= { @REAL, x: INT }", "b ::= { @INT, x: INT }");
  text("open-vs-closed", "a ::= { x: INT, ... }", "b ::= { x: INT }");
  text("open-leaves-spec-arc", "a ::= { x: INT, ... }",
       "b ::= { x: INT, y?: INT, ... }");
  text("closed-spec-no-counterpart", "a ::= { x: INT, y: INT }",
       "b ::= { x: INT }");
  text("multiplicity-star-one", "a ::= { x*: INT }", "b ::= { x: INT }");
  text("multiplicity-family-star", "a ::= { x[*]: INT }", "b ::= { x*: INT }");
  text("arc-target", "a ::= { x: STRING }", "b ::= { x: INT }");
  text("missing-mandatory", "a ::= { x: INT }", "b ::= { x: INT, y: INT }");
  text("mandatory-only-optional", "a ::= { x?: INT }", "b ::= { x: INT }");
  text("alias-diamond",
       "a ::= b1 | c\nb1 ::= d\nc ::= e | d\nd ::= INT | { x: REAL }\n"
       "e ::= STRING | { y: REAL }",
       "b ::= INT | { y: REAL }");
  text("alias-cycle", "a ::= b1\nb1 ::= a | INT", "b ::= REAL");
  text("recursive", "a ::= NIL | { next: a, v: INT }",
       "b ::= NIL | { next?: b, v: REAL, ... }");
  out.push_back({"no-spec-alternative", parse_grammar("a ::= INT"), "a",
                 parse_grammar("b ::= INT"), "ghost"});

  // Family collisions need labels of the form base[i], which only a
  // hand-built grammar can hold.
  Grammar plain;
  plain.add_alternative("a", composite({arc("v[0]", Multiplicity::One, "INT")}));
  Grammar family;
  family.add_alternative(
      "b", composite({arc("v", Multiplicity::IndexedFamily, "INT")}, true));
  out.push_back({"arc-collides-with-spec-family", plain, "a", family, "b"});
  Grammar impl_family;
  impl_family.add_alternative(
      "a",
      composite({arc("w", Multiplicity::IndexedFamily, "INT")}, false));
  Grammar spec_plain;
  spec_plain.add_alternative(
      "b", composite({arc("w[3]", Multiplicity::Optional, "INT")}, true));
  out.push_back(
      {"family-collides-with-spec-arc", impl_family, "a", spec_plain, "b"});
  Grammar not_a_label;
  not_a_label.add_alternative(
      "a", composite({arc("v[x]", Multiplicity::One, "INT"),
                      arc("v[]", Multiplicity::One, "INT"),
                      arc("v[1", Multiplicity::One, "INT"),
                      arc("vv[1]", Multiplicity::One, "INT")}));
  out.push_back({"family-ignores-other-labels", not_a_label, "a", family, "b"});
  return out;
}

std::string render_refinements() {
  std::string out;
  for (const auto& c : refinement_cases()) {
    analyze::VerifyStats stats;
    const auto findings = analyze::verify_refinement(
        c.impl, c.impl_root, Layer::Db, c.spec, c.spec_root, &stats);
    out += "== " + c.name + " (" + std::to_string(stats.refinement_pairs) +
           " pairs)\n" + lines(findings);
  }
  // Atom subsumption as the simulation sees it, all 25 ordered pairs.
  const Grammar none;
  const hgraph::SimulationRelation sim(none, none);
  const char* const atoms[] = {"NIL", "INT", "REAL", "STRING", "ANY"};
  out += "== atom pairs\n";
  for (const char* a : atoms) {
    for (const char* b : atoms) out += sim.holds(a, b) ? '1' : '0';
    out += "\n";
  }
  return out;
}

// --- type preservation through aliases -------------------------------------

hgraph::TransformRegistry alias_registry() {
  using namespace hgraph;
  Grammar g = parse_grammar(R"(
t      ::= b | c
b      ::= d
c      ::= e | d
d      ::= { x: REAL }
e      ::= { y: REAL }
args   ::= { v: REAL, s: STRING }
fam    ::= f1 | f2
f1     ::= { m[*]: INT }
f2     ::= { m[*]: REAL }
mixed  ::= INT | { k: INT }
maybe  ::= NIL | { k: INT }
number ::= INT | REAL
named  ::= number
)");
  g.add_alternative("holder", composite({arc("v", Multiplicity::One, "ghost")}));
  TransformRegistry registry(std::move(g));
  const auto noop = [](Invoker&, HGraph& graph, NodeId) {
    return graph.add_node();
  };
  const auto add = [&](std::string name, std::string in, std::string out_nt,
                       std::vector<RuleOp> ops) {
    registry.register_transform(
        std::move(name),
        {std::move(in), std::move(out_nt),
         RuleSpec{{RulePath{std::move(ops)}}, SourceLoc{7, 3}}},
        noop);
  };
  add("seal-diamond", "args", "t",
      {op_let("v", "arg", "v"), op_fresh("n"), op_add_arc("n", "q", "v"),
       op_return("n")});
  add("seal-diamond-ok", "args", "t",
      {op_let("v", "arg", "v"), op_fresh("n"), op_add_arc("n", "y", "v"),
       op_return("n")});
  add("follow-diamond", "t", "", {op_let("x", "arg", "x"), op_return("x")});
  add("pick-disagree", "fam", "", {op_pick("m", "arg", "m"), op_return("m")});
  add("follow-atom-alt", "mixed", "",
      {op_let("k", "arg", "k"), op_return("k")});
  add("atom-through-alias", "", "named",
      {op_atom("c", AtomKind::Int), op_return("c")});
  add("string-through-alias", "", "named",
      {op_atom("c", AtomKind::String), op_return("c")});
  add("fresh-to-atom-alt", "", "maybe", {op_fresh("n"), op_return("n")});
  add("fresh-to-number", "", "number", {op_fresh("n"), op_return("n")});
  add("undefined-arc-target", "", "holder",
      {op_atom("a", AtomKind::Int), op_fresh("n"), op_add_arc("n", "v", "a"),
       op_return("n")});
  add("real-as-int", "args", "mixed",
      {op_let("v", "arg", "v"), op_fresh("n"), op_add_arc("n", "k", "v"),
       op_return("n")});
  const char* const atoms[] = {"NIL", "INT", "REAL", "STRING", "ANY"};
  const AtomKind kinds[] = {AtomKind::Nil, AtomKind::Int, AtomKind::Real,
                            AtomKind::String, AtomKind::Any};
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 5; ++j) {
      add(std::string(atoms[i]) + "-as-" + atoms[j], "", atoms[j],
          {op_atom("c", kinds[i]), op_return("c")});
    }
  }
  return registry;
}

std::string render_transform_findings() {
  analyze::VerifyStats stats;
  const auto findings =
      analyze::verify_transforms(alias_registry(), Layer::Appvm, &stats);
  return lines(findings) + "rules " + std::to_string(stats.rules) +
         ", paths " + std::to_string(stats.paths) + "\n";
}

// --- layer grammars --------------------------------------------------------

struct LayerGrammar {
  const char* name;
  Grammar grammar;
};

std::vector<LayerGrammar> layer_grammars() {
  return {{"appvm", spec::appvm_grammar()},
          {"db", spec::db_grammar()},
          {"navm", spec::navm_grammar()},
          {"sysvm", spec::sysvm_grammar()},
          {"hw", spec::hw_grammar()},
          {"appvm-transforms", spec::appvm_transform_grammar()}};
}

std::string render_witness_digests() {
  std::string out;
  for (const auto& [name, grammar] : layer_grammars()) {
    test_support::Fnv1a h;
    std::size_t nodes = 0;
    for (const std::string& nt : grammar.nonterminals()) {
      const auto w = hgraph::witness_graph(grammar, nt);
      h.bytes(nt);
      h.bytes(w.graph.to_string(w.root));
      nodes += w.graph.node_count();
    }
    out += std::string(name) + " " + std::to_string(nodes) + " nodes " +
           hex(h.value()) + "\n";
  }
  return out;
}

std::string render_layer_findings() {
  std::string out = "lint\n" + lines(analyze::Analyzer::lint_layer_grammars());
  for (const auto& [name, grammar] : layer_grammars()) {
    out += std::string("lint ") + name + "\n" +
           lines(analyze::lint_grammar(grammar, name));
    out += std::string("verify ") + name + "\n" +
           lines(analyze::verify_grammar(grammar, Layer::None));
  }
  out += "refinement\n" +
         lines(analyze::verify_refinement(spec::db_grammar(), "dbengine",
                                          Layer::Db, spec::appvm_grammar(),
                                          "storage"));
  out += "transforms\n" + lines(analyze::verify_transforms(
                              spec::make_appvm_transforms(), Layer::Appvm));
  // Self-refinements that fail inside the layer grammars.
  const Grammar appvm = spec::appvm_grammar();
  const hgraph::SimulationRelation sim(appvm, appvm);
  out += "point/material: " + sim.explain("point", "material") + "\n";
  out += "material/point: " + sim.explain("material", "point") + "\n";
  return out;
}

// --- reflected graphs and transform results --------------------------------

std::string render_reflection_digests() {
  std::string out;
  const auto digest = [&out](const std::string& what,
                             const hgraph::HGraph& g, hgraph::NodeId root) {
    test_support::Fnv1a h;
    h.bytes(g.to_string(root));
    out += what + " " + std::to_string(g.node_count()) + " nodes " +
           hex(h.value()) + "\n";
  };
  for (const auto& model :
       {fem::make_cantilever_plate({.nx = 4, .ny = 2}, 10.0),
        fem::make_cantilever_beam({.segments = 4}, 5.0),
        fem::make_truss_bridge({.bays = 3}, 2.0)}) {
    hgraph::HGraph g;
    const auto root = spec::reflect_model(g, model);
    digest("model " + model.name, g, root);
  }
  {
    const auto model = fem::make_cantilever_plate({.nx = 4, .ny = 2}, 10.0);
    hgraph::HGraph g;
    const auto root = spec::reflect_results(g, fem::analyze(model, "tip-shear"));
    digest("results", g, root);
  }
  {
    db::Engine engine;
    engine.put("bridge", "model", "payload-1");
    engine.put("bridge", "model", "payload-2", 1);
    engine.put("mast", "results", "payload-3");
    engine.erase("mast");
    const auto open = engine.begin();
    engine.put(open, "bridge", "model", "buffered", 2);
    hgraph::HGraph g;
    const auto root = spec::reflect_db_engine(g, engine);
    digest("db engine", g, root);
  }

  // Transform results: a grid, then loads grouped into two sets.
  const auto registry = spec::make_appvm_transforms();
  hgraph::HGraph g;
  const auto name_arg = g.add_node();
  g.add_arc(name_arg, "name", g.add_string("t"));
  const auto model = registry.apply("define-structure-model", g, name_arg);
  const auto grid_arg = g.add_node();
  g.add_arc(grid_arg, "model", model);
  g.add_arc(grid_arg, "nx", g.add_int(3));
  g.add_arc(grid_arg, "ny", g.add_int(2));
  g.add_arc(grid_arg, "width", g.add_real(1.5));
  g.add_arc(grid_arg, "height", g.add_real(1.0));
  registry.apply("generate-grid", g, grid_arg);
  for (const auto& [set, node] :
       {std::pair{"wind", 0}, {"wind", 1}, {"dead", 2}, {"wind", 3}}) {
    const auto arg = g.add_node();
    g.add_arc(arg, "model", model);
    g.add_arc(arg, "set", g.add_string(set));
    g.add_arc(arg, "node", g.add_int(node));
    g.add_arc(arg, "dof", g.add_int(1));
    g.add_arc(arg, "value", g.add_real(-1.0));
    registry.apply("add-load", g, arg);
  }
  const auto count = registry.apply("count-nodes", g, model);
  out += "count-nodes " + hgraph::atom_to_string(g.value(count)) + "\n";
  digest("transformed model", g, model);
  return out;
}

std::string render_parse_errors() {
  const char* const texts[] = {
      "x ::= { @FOO }",
      "x ::= { @int }",
      "x ::= { a: ghost }",
      "x ::= ghost",
      "x ::= { a: INT, a: REAL }",
      "x ::= { a: INT, a[*]: REAL }",
      "x ::= { a: INT",
      "x ::= { a[: INT }",
      "x ::=",
      "y ::= INT\nx ::= { b?: y, c: z }",
  };
  std::string out;
  for (const char* text : texts) {
    try {
      (void)parse_grammar(text);
      out += "parsed\n";
    } catch (const hgraph::GrammarParseError& e) {
      out += std::string(e.what()) + "\n";
    }
  }
  return out;
}

// --- recorded values -------------------------------------------------------

constexpr std::string_view kDefectFindings = R"(== alias-diamond lint
== alias-diamond verify
== alias-cycle lint
warning [grammar-lint/-] unproductive-nonterminal (alias-cycle:a): derives no finite object (every alternative loops through a mandatory occurrence of an unproductive nonterminal)
    evidence: grammar source line 3, col 9
warning [grammar-lint/-] unproductive-nonterminal (alias-cycle:b): derives no finite object (every alternative loops through a mandatory occurrence of an unproductive nonterminal)
    evidence: grammar source line 4, col 9
== alias-cycle verify
error [verify/-] empty-language (a): nonterminal derives no finite H-graph
    evidence: line 3, col 9
error [verify/-] empty-language (b): nonterminal derives no finite H-graph
    evidence: line 4, col 9
== undefined-targets lint
error [grammar-lint/-] undefined-nonterminal (undefined-targets:leaf): alternative refers to undefined nonterminal 'wraith'
    evidence: grammar source <unknown>
error [grammar-lint/-] undefined-nonterminal (undefined-targets:root): alternative refers to undefined nonterminal 'ghost'
    evidence: grammar source line 2, col 9
error [grammar-lint/-] undefined-nonterminal (undefined-targets:root): arc 'a' targets undefined nonterminal 'phantom'
    evidence: grammar source line 3, col 9
error [grammar-lint/-] undefined-nonterminal (undefined-targets:root): arc 'b' targets undefined nonterminal 'spectre'
    evidence: grammar source line 3, col 14
warning [grammar-lint/-] unproductive-nonterminal (undefined-targets:root): derives no finite object (every alternative loops through a mandatory occurrence of an unproductive nonterminal)
    evidence: grammar source line 2, col 9
== undefined-targets verify
error [verify/-] invalid-grammar: grammar fails validation
    evidence: rule 'leaf' (<unknown>) references undefined nonterminal 'wraith'
== unproductive-alias-chain lint
warning [grammar-lint/-] unproductive-nonterminal (unproductive-alias-chain:low): derives no finite object (every alternative loops through a mandatory occurrence of an unproductive nonterminal)
    evidence: grammar source line 4, col 9
warning [grammar-lint/-] unproductive-nonterminal (unproductive-alias-chain:mid): derives no finite object (every alternative loops through a mandatory occurrence of an unproductive nonterminal)
    evidence: grammar source line 3, col 9
warning [grammar-lint/-] unproductive-nonterminal (unproductive-alias-chain:top): derives no finite object (every alternative loops through a mandatory occurrence of an unproductive nonterminal)
    evidence: grammar source line 2, col 9
== unproductive-alias-chain verify
error [verify/-] empty-language (low): nonterminal derives no finite H-graph
    evidence: line 4, col 9
error [verify/-] empty-language (mid): nonterminal derives no finite H-graph
    evidence: line 3, col 9
error [verify/-] empty-language (top): nonterminal derives no finite H-graph
    evidence: line 2, col 9
== duplicate-productions lint
warning [grammar-lint/-] duplicate-production (duplicate-productions:dup): alternative 2 repeats alternative 1 (first defined at line 2, col 11)
    evidence: grammar source line 2, col 17
warning [grammar-lint/-] duplicate-production (duplicate-productions:dup): alternative 4 repeats alternative 3 (first defined at line 2, col 23)
    evidence: grammar source line 2, col 36
warning [grammar-lint/-] duplicate-production (duplicate-productions:dup): alternative 6 repeats alternative 5 (first defined at line 2, col 49)
    evidence: grammar source line 2, col 57
== duplicate-productions verify
== atom-subsumption lint
warning [grammar-lint/-] atom-conflict (atom-subsumption:p): alternative INT is subsumed by REAL (defined at line 2, col 13)
    evidence: grammar source line 2, col 7
warning [grammar-lint/-] atom-conflict (atom-subsumption:q): alternative NIL is subsumed by ANY (defined at line 4, col 13)
    evidence: grammar source line 4, col 7
warning [grammar-lint/-] atom-conflict (atom-subsumption:r): alternative STRING is subsumed by ANY (defined at line 5, col 16)
    evidence: grammar source line 5, col 7
warning [grammar-lint/-] atom-conflict (atom-subsumption:s): alternative REAL is subsumed by ANY (defined at line 6, col 14)
    evidence: grammar source line 6, col 7
warning [grammar-lint/-] atom-conflict (atom-subsumption:t): alternative INT is subsumed by ANY (defined at line 7, col 13)
    evidence: grammar source line 7, col 7
warning [grammar-lint/-] atom-conflict (atom-subsumption:v): alternative INT is subsumed by REAL (defined at line 3, col 7)
    evidence: grammar source line 3, col 14
warning [grammar-lint/-] atom-conflict (atom-subsumption:w): alternative INT is subsumed by ANY (defined at line 9, col 7)
    evidence: grammar source line 9, col 13
warning [grammar-lint/-] atom-conflict (atom-subsumption:w): alternative INT is subsumed by REAL (defined at line 9, col 19)
    evidence: grammar source line 9, col 13
warning [grammar-lint/-] atom-conflict (atom-subsumption:w): alternative REAL is subsumed by ANY (defined at line 9, col 7)
    evidence: grammar source line 9, col 19
warning [grammar-lint/-] atom-conflict (atom-subsumption:w): alternative STRING is subsumed by ANY (defined at line 9, col 7)
    evidence: grammar source line 9, col 26
warning [grammar-lint/-] atom-conflict (atom-subsumption:w): alternative NIL is subsumed by ANY (defined at line 9, col 7)
    evidence: grammar source line 9, col 35
== atom-subsumption verify
== mandatory-cycle-under-options lint
warning [grammar-lint/-] unproductive-nonterminal (mandatory-cycle-under-options:loop): derives no finite object (every alternative loops through a mandatory occurrence of an unproductive nonterminal)
    evidence: grammar source line 3, col 10
== mandatory-cycle-under-options verify
error [verify/-] empty-language (loop): nonterminal derives no finite H-graph
    evidence: line 3, col 10
== doubling-chain lint
== doubling-chain productive 64
== doubling-chain n63 witness failed: language of n63 is empty (no finite derivation)
== doubling-chain n2 witness ok
n0 = nil .a->n1 .b->n4
n1 = nil .a->n2 .b->n3
n2 = 0
n3 = 0
n4 = nil .a->n5 .b->n6
n5 = 0
n6 = 0
)";

constexpr std::string_view kValidateAndWitnesses = R"(validate: rule 'leaf' (<unknown>) references undefined nonterminal 'wraith'
alias-diamond b: 
n0 = 0
alias-diamond c: 
n0 = ""
alias-diamond d: 
n0 = 0
alias-diamond e: 
n0 = ""
alias-diamond t: 
n0 = 0
alias-cycle a: language of a is empty (no finite derivation)
alias-cycle b: language of b is empty (no finite derivation)
alias-cycle top: 
n0 = nil .k->n1
n1 = 0
undefined-targets leaf: 
n0 = 0
undefined-targets root: language of root is empty (no finite derivation)
unproductive-alias-chain low: language of low is empty (no finite derivation)
unproductive-alias-chain mid: language of mid is empty (no finite derivation)
unproductive-alias-chain top: language of top is empty (no finite derivation)
duplicate-productions alias: 
n0 = 0
duplicate-productions dup: 
n0 = 0
atom-subsumption p: 
n0 = 0
atom-subsumption q: 
n0 = nil
atom-subsumption r: 
n0 = ""
atom-subsumption s: 
n0 = 0
atom-subsumption t: 
n0 = 0
atom-subsumption u: 
n0 = 0
atom-subsumption v: 
n0 = 0
atom-subsumption w: 
n0 = nil
mandatory-cycle-under-options loop: language of loop is empty (no finite derivation)
mandatory-cycle-under-options root: 
n0 = nil .leaf->n1
n1 = 0
)";

constexpr std::string_view kRefinements = R"(== atom-atom (49 pairs)
error [verify/db] refinement-failed (a => b): implementation grammar does not refine its specification fragment
    evidence: a is not simulated by b: atom STRING is not subsumed by INT
== atom-atom-subsumed (53 pairs)
== leaf-composite-own-atom (50 pairs)
error [verify/db] refinement-failed (a => b): implementation grammar does not refine its specification fragment
    evidence: a is not simulated by b: leaf atom INT violates @STRING
== leaf-composite-mandatory (49 pairs)
error [verify/db] refinement-failed (a => b): implementation grammar does not refine its specification fragment
    evidence: a is not simulated by b: leaf atom cannot supply mandatory arc 'x'
== leaf-composite-optional (50 pairs)
== composite-leaf-arcs (47 pairs)
error [verify/db] refinement-failed (a => b): implementation grammar does not refine its specification fragment
    evidence: a is not simulated by b: composite with arcs cannot refine a leaf atom
== composite-leaf-open (47 pairs)
error [verify/db] refinement-failed (a => b): implementation grammar does not refine its specification fragment
    evidence: a is not simulated by b: composite with arcs cannot refine a leaf atom
== composite-leaf-atom (49 pairs)
error [verify/db] refinement-failed (a => b): implementation grammar does not refine its specification fragment
    evidence: a is not simulated by b: composite atom @STRING is not subsumed by INT
== composite-leaf-subsumed (52 pairs)
== own-atom (46 pairs)
error [verify/db] refinement-failed (a => b): implementation grammar does not refine its specification fragment
    evidence: a is not simulated by b: node atom @REAL is not subsumed by @INT
== open-vs-closed (46 pairs)
error [verify/db] refinement-failed (a => b): implementation grammar does not refine its specification fragment
    evidence: a is not simulated by b: open composite cannot refine a closed one
== open-leaves-spec-arc (46 pairs)
error [verify/db] refinement-failed (a => b): implementation grammar does not refine its specification fragment
    evidence: a is not simulated by b: open composite leaves spec arc 'y' unconstrained
== closed-spec-no-counterpart (46 pairs)
error [verify/db] refinement-failed (a => b): implementation grammar does not refine its specification fragment
    evidence: a is not simulated by b: arc 'y' has no counterpart in the closed spec composite
== multiplicity-star-one (46 pairs)
error [verify/db] refinement-failed (a => b): implementation grammar does not refine its specification fragment
    evidence: a is not simulated by b: arc 'x' multiplicity is not admitted by the spec pattern
== multiplicity-family-star (47 pairs)
error [verify/db] refinement-failed (a => b): implementation grammar does not refine its specification fragment
    evidence: a is not simulated by b: arc 'x' multiplicity is not admitted by the spec pattern
== arc-target (46 pairs)
error [verify/db] refinement-failed (a => b): implementation grammar does not refine its specification fragment
    evidence: a is not simulated by b: arc 'x' target STRING does not refine INT
== missing-mandatory (46 pairs)
error [verify/db] refinement-failed (a => b): implementation grammar does not refine its specification fragment
    evidence: a is not simulated by b: mandatory spec arc 'y' is not guaranteed by the impl composite
== mandatory-only-optional (46 pairs)
error [verify/db] refinement-failed (a => b): implementation grammar does not refine its specification fragment
    evidence: a is not simulated by b: arc 'x' multiplicity is not admitted by the spec pattern
== alias-diamond (71 pairs)
error [verify/db] refinement-failed (a => b): implementation grammar does not refine its specification fragment
    evidence: a is not simulated by b: composite with arcs cannot refine a leaf atom
== alias-cycle (62 pairs)
== recursive (48 pairs)
== no-spec-alternative (51 pairs)
error [verify/db] refinement-failed (a => ghost): implementation grammar does not refine its specification fragment
    evidence: a is not simulated by ghost (no spec alternative applies)
== arc-collides-with-spec-family (47 pairs)
error [verify/db] refinement-failed (a => b): implementation grammar does not refine its specification fragment
    evidence: a is not simulated by b: arc 'v[0]' collides with spec family 'v[*]'
== family-collides-with-spec-arc (47 pairs)
error [verify/db] refinement-failed (a => b): implementation grammar does not refine its specification fragment
    evidence: a is not simulated by b: family 'w[*]' collides with spec arc 'w[3]'
== family-ignores-other-labels (48 pairs)
== atom pairs
10001
01101
00101
00011
00001
)";

constexpr std::string_view kTransformFindings = R"(error [verify/appvm] type-preservation (ANY-as-INT): path 1 can violate the grammar: op 2: returned value: a ANY atom is not admitted by <INT>
    evidence: registered at line 7, col 3
error [verify/appvm] type-preservation (ANY-as-NIL): path 1 can violate the grammar: op 2: returned value: a ANY atom is not admitted by <NIL>
    evidence: registered at line 7, col 3
error [verify/appvm] type-preservation (ANY-as-REAL): path 1 can violate the grammar: op 2: returned value: a ANY atom is not admitted by <REAL>
    evidence: registered at line 7, col 3
error [verify/appvm] type-preservation (ANY-as-STRING): path 1 can violate the grammar: op 2: returned value: a ANY atom is not admitted by <STRING>
    evidence: registered at line 7, col 3
error [verify/appvm] type-preservation (INT-as-NIL): path 1 can violate the grammar: op 2: returned value: a INT atom is not admitted by <NIL>
    evidence: registered at line 7, col 3
error [verify/appvm] type-preservation (INT-as-STRING): path 1 can violate the grammar: op 2: returned value: a INT atom is not admitted by <STRING>
    evidence: registered at line 7, col 3
error [verify/appvm] type-preservation (NIL-as-INT): path 1 can violate the grammar: op 2: returned value: a NIL atom is not admitted by <INT>
    evidence: registered at line 7, col 3
error [verify/appvm] type-preservation (NIL-as-REAL): path 1 can violate the grammar: op 2: returned value: a NIL atom is not admitted by <REAL>
    evidence: registered at line 7, col 3
error [verify/appvm] type-preservation (NIL-as-STRING): path 1 can violate the grammar: op 2: returned value: a NIL atom is not admitted by <STRING>
    evidence: registered at line 7, col 3
error [verify/appvm] type-preservation (REAL-as-INT): path 1 can violate the grammar: op 2: returned value: a REAL atom is not admitted by <INT>
    evidence: registered at line 7, col 3
error [verify/appvm] type-preservation (REAL-as-NIL): path 1 can violate the grammar: op 2: returned value: a REAL atom is not admitted by <NIL>
    evidence: registered at line 7, col 3
error [verify/appvm] type-preservation (REAL-as-STRING): path 1 can violate the grammar: op 2: returned value: a REAL atom is not admitted by <STRING>
    evidence: registered at line 7, col 3
error [verify/appvm] type-preservation (STRING-as-INT): path 1 can violate the grammar: op 2: returned value: a STRING atom is not admitted by <INT>
    evidence: registered at line 7, col 3
error [verify/appvm] type-preservation (STRING-as-NIL): path 1 can violate the grammar: op 2: returned value: a STRING atom is not admitted by <NIL>
    evidence: registered at line 7, col 3
error [verify/appvm] type-preservation (STRING-as-REAL): path 1 can violate the grammar: op 2: returned value: a STRING atom is not admitted by <REAL>
    evidence: registered at line 7, col 3
error [verify/appvm] type-preservation (follow-atom-alt): path 1 can violate the grammar: op 1: follow('k'): an atom alternative of <mixed> has no arc 'k'
    evidence: registered at line 7, col 3
error [verify/appvm] type-preservation (follow-diamond): path 1 can violate the grammar: op 1: follow('x'): not every alternative of <t> declares mandatory arc 'x'
    evidence: registered at line 7, col 3
error [verify/appvm] type-preservation (fresh-to-number): path 1 can violate the grammar: op 2: returned value: constructed node does not conform to <number>: <number> has no composite alternative
    evidence: registered at line 7, col 3
error [verify/appvm] type-preservation (pick-disagree): path 1 can violate the grammar: op 1: pick('m'): alternatives of <fam> disagree on the type of 'm' (INT vs REAL)
    evidence: registered at line 7, col 3
error [verify/appvm] type-preservation (real-as-int): path 1 can violate the grammar: op 4: returned value: constructed node does not conform to <mixed>: arc 'k': a <REAL> is not provably a <INT>: REAL is not simulated by INT: atom REAL is not subsumed by INT
    evidence: registered at line 7, col 3
error [verify/appvm] type-preservation (seal-diamond): path 1 can violate the grammar: op 4: returned value: constructed node does not conform to <t>: required arc 'y' is never added
    evidence: registered at line 7, col 3
error [verify/appvm] type-preservation (string-through-alias): path 1 can violate the grammar: op 2: returned value: a STRING atom is not admitted by <named>
    evidence: registered at line 7, col 3
error [verify/appvm] type-preservation (undefined-arc-target): path 1 can violate the grammar: op 4: returned value: constructed node does not conform to <holder>: arc 'v': target nonterminal <ghost> is undefined
    evidence: registered at line 7, col 3
rules 36, paths 36
)";

constexpr std::string_view kWitnessDigests = R"(appvm 77 nodes 0xb3c05698bf75a311
db 41 nodes 0x879638499704cea3
navm 22 nodes 0x33fa5e1a578ef6b9
sysvm 58 nodes 0x33c36d3c4ab69223
hw 26 nodes 0x9cc994b5278dad90
appvm-transforms 98 nodes 0xa4342e3973d7e203
)";

constexpr std::string_view kLayerFindings = R"(lint
lint appvm
verify appvm
lint db
verify db
lint navm
verify navm
lint sysvm
verify sysvm
lint hw
verify hw
lint appvm-transforms
verify appvm-transforms
refinement
transforms
point/material: point is not simulated by material: arc 'x' has no counterpart in the closed spec composite
material/point: material is not simulated by point: arc 'name' has no counterpart in the closed spec composite
)";

constexpr std::string_view kReflectionDigests = R"(model cantilever-plate 149 nodes 0x9ec8e5ed10d7984b
model cantilever-beam 63 nodes 0xa1345fcac5fb6d86
model truss-bridge 121 nodes 0x126aebd655eb37b5
results 82 nodes 0x89d62b3d1f771541
db engine 45 nodes 0xc9f04da157138dc7
count-nodes 12
transformed model 122 nodes 0x89e461f578073002
)";

constexpr std::string_view kParseErrors = R"(grammar parse error: 'FOO' is not an atom kind at line 1, col 10
grammar parse error: 'int' is not an atom kind at line 1, col 10
rule 'x' (line 1, col 9) references undefined nonterminal 'ghost'
rule 'x' (line 1, col 7) references undefined nonterminal 'ghost'
grammar parse error: duplicate arc label 'a' in composite at line 1, col 17 (first declared at line 1, col 9)
grammar parse error: duplicate arc label 'a' in composite at line 1, col 17 (first declared at line 1, col 9)
grammar parse error: expected ',', found '' at line 1, col 15
grammar lex error: unexpected '[' at line 1, col 10
grammar parse error: expected atom kind or nonterminal, found '' at line 1, col 6
rule 'x' (line 2, col 16) references undefined nonterminal 'z'
)";

TEST(GrammarPins, DefectGrammarFindings) {
  EXPECT_EQ(render_defect_findings(), kDefectFindings);
}

TEST(GrammarPins, ValidationAndDefectWitnesses) {
  EXPECT_EQ(render_validate_and_witnesses(), kValidateAndWitnesses);
}

TEST(GrammarPins, RefinementCounterexamples) {
  EXPECT_EQ(render_refinements(), kRefinements);
}

TEST(GrammarPins, TypePreservationThroughAliases) {
  EXPECT_EQ(render_transform_findings(), kTransformFindings);
}

TEST(GrammarPins, LayerWitnessDigests) {
  EXPECT_EQ(render_witness_digests(), kWitnessDigests);
}

TEST(GrammarPins, LayerGrammarFindings) {
  EXPECT_EQ(render_layer_findings(), kLayerFindings);
}

TEST(GrammarPins, ReflectedGraphsAndTransformResults) {
  EXPECT_EQ(render_reflection_digests(), kReflectionDigests);
}

TEST(GrammarPins, ParseErrorMessages) {
  EXPECT_EQ(render_parse_errors(), kParseErrors);
}

TEST(GrammarPins, VerifyCounts) {
  const auto report = analyze::verify_specs();
  EXPECT_TRUE(report.findings.empty()) << lines(report.findings);
  EXPECT_EQ(report.stats.grammars, 5u);
  EXPECT_EQ(report.stats.nonterminals, 52u);
  EXPECT_EQ(report.stats.witnesses, 52u);
  EXPECT_EQ(report.stats.refinement_pairs, 354u);
  EXPECT_EQ(report.stats.rules, 5u);
  EXPECT_EQ(report.stats.paths, 6u);
}

}  // namespace
}  // namespace fem2
