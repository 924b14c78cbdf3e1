// Tests for the static verification layer (fem2_analyze --verify):
// grammar language algorithms, transformation-rule type preservation, and
// bounded protocol model checking — including the seeded-defect
// experiments: a rule spec that drops a required arc, a receiver with
// duplicate suppression disabled, and a non-sticky degraded mode.  Each
// must produce a Finding with a source location or a counterexample trace.
#include <gtest/gtest.h>

#include <algorithm>

#include "analyze/lint.hpp"
#include "analyze/model_check.hpp"
#include "analyze/verify.hpp"
#include "hgraph/grammar_algorithms.hpp"
#include "hgraph/grammar_parser.hpp"
#include "hgraph/transform.hpp"
#include "spec/layers.hpp"
#include "spec/transforms.hpp"

namespace fem2 {
namespace {

using analyze::Finding;
using analyze::Severity;
using hgraph::Grammar;
using hgraph::parse_grammar;

// --- pass 1: grammar language algorithms -----------------------------------

TEST(GrammarAlgorithms, UnproductiveNonterminalHasEmptyLanguage) {
  const Grammar g = parse_grammar(R"(
root ::= { leaf: INT, spin?: loop }
loop ::= { next: loop }
)");
  const auto productive = hgraph::productive_nonterminals(g);
  EXPECT_TRUE(productive.contains("root"));
  EXPECT_FALSE(productive.contains("loop"));
  EXPECT_FALSE(productive.contains("undefined"));
  EXPECT_EQ(productive.size(), 1u);  // builtins are productive, not listed
  EXPECT_FALSE(hgraph::witness_graph(g, "loop").ok);
}

TEST(GrammarAlgorithms, WitnessesOfAllLayerGrammarsConform) {
  for (const Grammar& g :
       {spec::appvm_grammar(), spec::db_grammar(), spec::navm_grammar(),
        spec::sysvm_grammar(), spec::hw_grammar()}) {
    for (const std::string& nt : g.nonterminals()) {
      const auto witness = hgraph::witness_graph(g, nt);
      ASSERT_TRUE(witness.ok) << nt << ": " << witness.error;
      EXPECT_TRUE(g.conforms(witness.graph, witness.root, nt))
          << "witness for " << nt << " rejected";
    }
  }
}

TEST(GrammarAlgorithms, SimulationIsReflexive) {
  const Grammar g = spec::appvm_grammar();
  const hgraph::SimulationRelation sim(g, g);
  for (const std::string& nt : g.nonterminals())
    EXPECT_TRUE(sim.holds(nt, nt)) << nt;
}

TEST(GrammarAlgorithms, DbGrammarRefinesAppvmStorageFragment) {
  const auto result = hgraph::refines(spec::db_grammar(), "dbengine",
                                      spec::appvm_grammar(), "storage");
  EXPECT_TRUE(result.ok) << result.counterexample;
  EXPECT_GT(result.pairs_checked, 0u);
}

TEST(GrammarAlgorithms, RefinementRejectsIncompatibleShapes) {
  const Grammar g = spec::appvm_grammar();
  // A point has no `name: STRING` arc, so it cannot refine a material.
  const auto result = hgraph::refines(g, "point", g, "material");
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.counterexample.empty());
}

TEST(VerifyGrammar, CleanLayerGrammarsProduceNoFindings) {
  for (const Grammar& g :
       {spec::appvm_grammar(), spec::db_grammar(), spec::navm_grammar(),
        spec::sysvm_grammar(), spec::hw_grammar()}) {
    const auto findings = analyze::verify_grammar(g, analyze::Layer::None);
    EXPECT_TRUE(findings.empty())
        << findings.front().to_string();
  }
}

TEST(VerifyGrammar, EmptyLanguageBecomesFinding) {
  const Grammar g = parse_grammar("loop ::= { next: loop }\n");
  const auto findings = analyze::verify_grammar(g, analyze::Layer::None);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "empty-language");
  EXPECT_EQ(findings[0].entity, "loop");
  EXPECT_EQ(findings[0].severity, Severity::Error);
  EXPECT_NE(findings[0].evidence.find("line 1"), std::string::npos);
}

// --- pass 2: rule type preservation ----------------------------------------

TEST(VerifyTransforms, BuiltinTransformSpecsPreserveTypes) {
  const auto registry = spec::make_appvm_transforms();
  analyze::VerifyStats stats;
  const auto findings =
      analyze::verify_transforms(registry, analyze::Layer::Appvm, &stats);
  EXPECT_TRUE(findings.empty())
      << findings.front().to_string();
  EXPECT_EQ(stats.rules, 5u);
  EXPECT_GE(stats.paths, 6u);  // add-load declares two paths
}

/// Registry fixture: `make-point` should build a conforming point.
hgraph::TransformRegistry defective_registry(hgraph::RuleSpec spec) {
  hgraph::TransformRegistry registry(parse_grammar(R"(
point     ::= { x: REAL, y: REAL }
pointargs ::= { x: REAL, y: REAL }
pointset  ::= { member[*]: point }
)"));
  registry.register_transform(
      "make-point", {"pointargs", "point", std::move(spec)},
      [](hgraph::Invoker&, hgraph::HGraph& g, hgraph::NodeId) {
        return g.add_node();
      });
  return registry;
}

TEST(VerifyTransforms, RuleDroppingRequiredArcIsCaughtWithLocation) {
  using namespace hgraph;
  // The seeded defect: the spec builds a point with x but never adds y.
  RuleSpec spec{{{{op_let("x", "arg", "x"), op_fresh("p"),
                   op_add_arc("p", "x", "x"), op_return("p")}}},
                SourceLoc{42, 1}};
  const auto registry = defective_registry(std::move(spec));
  const auto findings =
      analyze::verify_transforms(registry, analyze::Layer::Appvm);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "type-preservation");
  EXPECT_EQ(findings[0].entity, "make-point");
  EXPECT_EQ(findings[0].severity, Severity::Error);
  EXPECT_NE(findings[0].message.find("required arc 'y' is never added"),
            std::string::npos)
      << findings[0].message;
  EXPECT_NE(findings[0].evidence.find("line 42"), std::string::npos)
      << findings[0].evidence;
}

TEST(VerifyTransforms, WrongAtomKindOnArcIsCaught) {
  using namespace hgraph;
  // y is built as a STRING atom where the grammar demands REAL.
  RuleSpec spec{{{{op_let("x", "arg", "x"), op_atom("y", AtomKind::String),
                   op_fresh("p"), op_add_arc("p", "x", "x"),
                   op_add_arc("p", "y", "y"), op_return("p")}}},
                SourceLoc{7, 1}};
  const auto registry = defective_registry(std::move(spec));
  const auto findings =
      analyze::verify_transforms(registry, analyze::Layer::Appvm);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "type-preservation");
  EXPECT_NE(findings[0].message.find("arc 'y'"), std::string::npos)
      << findings[0].message;
}

TEST(VerifyTransforms, RuleWithoutSpecIsReportedUnchecked) {
  const auto registry = defective_registry(hgraph::RuleSpec{});
  const auto findings =
      analyze::verify_transforms(registry, analyze::Layer::Appvm);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "unchecked-rule");
  EXPECT_EQ(findings[0].severity, Severity::Info);
}

// --- pass 3: bounded protocol model checking -------------------------------

TEST(ModelCheck, MessagingProtocolDeliversExactlyOnce) {
  const auto result = analyze::check_messaging({});
  EXPECT_TRUE(result.ok) << result.violation << "\n"
                         << result.trace_to_string();
  EXPECT_FALSE(result.bounded_out);
  EXPECT_GT(result.states, 500u);
}

TEST(ModelCheck, MessagingExhaustsTenThousandStates) {
  analyze::MessagingModelOptions options;
  options.messages = 3;
  options.max_retransmits = 3;
  options.network_capacity = 2;
  options.max_states = 500'000;
  const auto result = analyze::check_messaging(options);
  EXPECT_TRUE(result.ok) << result.violation;
  EXPECT_FALSE(result.bounded_out);
  EXPECT_GE(result.states, 10'000u);
}

TEST(ModelCheck, DisabledDedupYieldsDuplicateDeliveryCounterexample) {
  analyze::MessagingModelOptions options;
  options.dedup = false;  // the seeded defect
  const auto result = analyze::check_messaging(options);
  ASSERT_FALSE(result.ok);
  EXPECT_NE(result.violation.find("delivered twice"), std::string::npos)
      << result.violation;
  // BFS yields a minimal trace: send, deliver, retransmit, deliver again.
  ASSERT_FALSE(result.trace.empty());
  EXPECT_EQ(result.trace.front(), "send(m1)");
  EXPECT_EQ(std::count(result.trace.begin(), result.trace.end(),
                       std::string("deliver(m1)")),
            2);
}

TEST(ModelCheck, DbHealthLifecycleHolds) {
  const auto result = analyze::check_db_health({});
  EXPECT_TRUE(result.ok) << result.violation << "\n"
                         << result.trace_to_string();
  EXPECT_FALSE(result.bounded_out);
}

TEST(ModelCheck, DbHealthExhaustsTenThousandStates) {
  analyze::HealthModelOptions options;
  options.commits = 7;
  options.checkpoints = 3;
  options.max_states = 500'000;
  const auto result = analyze::check_db_health(options);
  EXPECT_TRUE(result.ok) << result.violation;
  EXPECT_FALSE(result.bounded_out);
  EXPECT_GE(result.states, 10'000u);
}

TEST(ModelCheck, NonStickyDegradeYieldsCounterexample) {
  analyze::HealthModelOptions options;
  options.sticky = false;  // the seeded defect
  const auto result = analyze::check_db_health(options);
  ASSERT_FALSE(result.ok);
  EXPECT_NE(result.violation.find("without recover()"), std::string::npos)
      << result.violation;
  ASSERT_FALSE(result.trace.empty());
  EXPECT_EQ(result.trace.back(), "read-ok");
}

// --- the facade ------------------------------------------------------------

TEST(VerifySpecs, CleanSpecsProduceZeroFindings) {
  const auto report = analyze::verify_specs();
  EXPECT_TRUE(report.findings.empty())
      << report.findings.front().to_string();
  EXPECT_EQ(report.stats.grammars, 5u);
  EXPECT_GT(report.stats.witnesses, 40u);
  EXPECT_EQ(report.stats.rules, 5u);
  EXPECT_TRUE(report.messaging.ok);
  EXPECT_TRUE(report.db_health.ok);
}

// --- satellite: lint root inference ----------------------------------------

TEST(GrammarLint, FullySelfReferentialGrammarGetsOneNoRootFinding) {
  const Grammar g = parse_grammar(R"(
ping ::= { tag: INT, other?: pong }
pong ::= { tag: INT, other?: ping }
)");
  const auto findings = analyze::lint_grammar(g, "cyclic");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "no-root");
  EXPECT_EQ(findings[0].severity, Severity::Warning);
}

}  // namespace
}  // namespace fem2
