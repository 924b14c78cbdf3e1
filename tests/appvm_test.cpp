// Application user's VM tests: serialization, database, workspace, and the
// interactive command language.
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>

#include <gtest/gtest.h>

#include "appvm/command.hpp"
#include "appvm/database.hpp"
#include "appvm/serialize.hpp"
#include "fem/mesh.hpp"
#include "support/rng.hpp"

namespace fem2::appvm {
namespace {

fem::StructureModel sample_model() {
  fem::PlateMeshOptions options;
  options.nx = 4;
  options.ny = 2;
  options.material.youngs_modulus = 1234.5;
  options.material.name = "aluminium";
  return fem::make_cantilever_plate(options, 17.0);
}

TEST(Serialize, RoundTripPreservesModel) {
  const auto model = sample_model();
  const auto text = serialize_model(model);
  const auto parsed = parse_model(text);

  EXPECT_EQ(parsed.name, model.name);
  ASSERT_EQ(parsed.nodes.size(), model.nodes.size());
  for (std::size_t i = 0; i < model.nodes.size(); ++i) {
    EXPECT_DOUBLE_EQ(parsed.nodes[i].x, model.nodes[i].x);
    EXPECT_DOUBLE_EQ(parsed.nodes[i].y, model.nodes[i].y);
  }
  ASSERT_EQ(parsed.elements.size(), model.elements.size());
  for (std::size_t i = 0; i < model.elements.size(); ++i) {
    EXPECT_EQ(parsed.elements[i].type, model.elements[i].type);
    EXPECT_EQ(parsed.elements[i].nodes, model.elements[i].nodes);
  }
  EXPECT_EQ(parsed.constraints.size(), model.constraints.size());
  ASSERT_EQ(parsed.load_sets.size(), model.load_sets.size());
  EXPECT_DOUBLE_EQ(parsed.materials[0].youngs_modulus, 1234.5);
  EXPECT_EQ(parsed.materials[0].name, "aluminium");
  // Round-trip of the round-trip is exact.
  EXPECT_EQ(serialize_model(parsed), text);
}

class SerializeRandomModels : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SerializeRandomModels, RoundTripRandomTrusses) {
  support::Rng rng(GetParam());
  fem::TrussOptions options;
  options.bays = 2 + rng.next_below(8);
  options.bay_width = rng.uniform(0.5, 2.0);
  options.height = rng.uniform(0.5, 2.0);
  const auto model =
      fem::make_truss_bridge(options, rng.uniform(1.0, 100.0));
  const auto parsed = parse_model(serialize_model(model));
  EXPECT_EQ(serialize_model(parsed), serialize_model(model));
  parsed.validate();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializeRandomModels,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(Serialize, RejectsMalformedText) {
  EXPECT_THROW(parse_model("node 1 2"), SerializeError);  // no model record
  EXPECT_THROW(parse_model("model m\nnode 1"), SerializeError);
  EXPECT_THROW(parse_model("model m\nnode a b"), SerializeError);
  EXPECT_THROW(parse_model("model m\nelement bar2 0"), SerializeError);
  EXPECT_THROW(parse_model("model m\nwhatever 1"), SerializeError);
  EXPECT_THROW(parse_model("model m\nmaterial s X=3"), SerializeError);
}

TEST(Database, StoreRetrieveListRemove) {
  Database db;
  EXPECT_FALSE(db.contains("m"));
  db.store_model("m", sample_model());
  EXPECT_TRUE(db.contains("m"));
  const auto model = db.retrieve_model("m");
  EXPECT_EQ(model.name, "cantilever-plate");

  db.store_model("m", model);  // revision bump
  const auto entries = db.list();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].revision, 2u);
  EXPECT_GT(db.storage_bytes(), 0u);

  EXPECT_TRUE(db.remove("m"));
  EXPECT_FALSE(db.remove("m"));
  EXPECT_THROW(db.retrieve_model("m"), support::Error);
}

TEST(Database, ResultsStorage) {
  Database db;
  const auto model = sample_model();
  const auto results = fem::analyze(model, "tip-shear");
  db.store_results("r", results);
  const auto& loaded = db.retrieve_results("r");
  EXPECT_EQ(loaded.stresses.size(), results.stresses.size());
  EXPECT_EQ(db.list().size(), 1u);
  EXPECT_EQ(db.list()[0].kind, "results");
}

TEST(Session, BuildModelCommandByCommand) {
  Database db;
  Session session(db);
  for (const char* line : {
           "new model bar-test",
           "material steel E=1000 A=0.01",
           "node 0 0",
           "node 1.5 0",
           "element bar 0 1",
           "fix 0",
           "constrain 1 1",
           "load pull 1 0 50",
           "solve pull using cholesky",
       }) {
    const auto response = session.execute(line);
    EXPECT_TRUE(response.ok) << line << " -> " << response.text;
  }
  const auto& u = session.workspace().results().solution.displacements;
  EXPECT_NEAR(u.at(1, 0), 50.0 * 1.5 / (1000.0 * 0.01), 1e-9);

  const auto show = session.execute("show displacements 1");
  EXPECT_TRUE(show.ok);
  EXPECT_NE(show.text.find("node 1"), std::string::npos);
}

TEST(Session, MeshSolveStressWorkflow) {
  Database db;
  Session session(db);
  auto r = session.execute("mesh plate nx=6 ny=3 load=10");
  ASSERT_TRUE(r.ok) << r.text;
  r = session.execute("solve tip-shear using cg tol=1e-10");
  ASSERT_TRUE(r.ok) << r.text;
  r = session.execute("stresses");
  ASSERT_TRUE(r.ok) << r.text;
  EXPECT_NE(r.text.find("peak von Mises"), std::string::npos);
  r = session.execute("show peak");
  EXPECT_TRUE(r.ok);
}

TEST(Session, ModesCommandReportsFrequencies) {
  Database db;
  Session session(db);
  ASSERT_TRUE(session.execute("mesh beam segments=10 length=1 load=5").ok);
  const auto r = session.execute("modes 2");
  ASSERT_TRUE(r.ok) << r.text;
  EXPECT_NE(r.text.find("f1="), std::string::npos);
  EXPECT_NE(r.text.find("f2="), std::string::npos);
  EXPECT_NE(r.text.find("Hz"), std::string::npos);
  EXPECT_FALSE(session.execute("modes 0").ok);
  EXPECT_FALSE(session.execute("modes two").ok);
}

TEST(Serialize, DensityRoundTrips) {
  fem::StructureModel model;
  fem::Material m;
  m.name = "titanium";
  m.density = 4500.0;
  model.add_material(m);
  model.add_node(0, 0);
  model.add_node(1, 0);
  model.add_element(fem::ElementType::Bar2, {0, 1});
  const auto parsed = parse_model(serialize_model(model));
  EXPECT_DOUBLE_EQ(parsed.materials[0].density, 4500.0);
}

TEST(Session, ErrorsAreResponsesNotExceptions) {
  Database db;
  Session session(db);
  EXPECT_FALSE(session.execute("bogus command").ok);
  EXPECT_FALSE(session.execute("node 1 2").ok);  // no model yet
  EXPECT_FALSE(session.execute("solve nothing").ok);
  EXPECT_FALSE(session.execute("retrieve ghost").ok);
  EXPECT_FALSE(session.execute("mesh cube").ok);
  EXPECT_FALSE(session.execute("show").ok);
  session.execute("new model m");
  EXPECT_FALSE(session.execute("node one two").ok);
  EXPECT_FALSE(session.execute("element bar 0").ok);
  EXPECT_FALSE(session.execute("stresses").ok);  // nothing solved
}

/// Mesh sizes far beyond Session::kMaxMeshNodes: a plate whose node count
/// overflows 64 bits, one of 10^10 nodes, and a beam and a truss of
/// 10^12 segments and bays.  Each must fail before anything is built.
const char* const kOversizedMeshes[] = {
    "mesh plate nx=4294967296 ny=4294967296",
    "mesh plate nx=100000 ny=100000",
    "mesh beam segments=1000000000000",
    "mesh truss bays=1000000000000",
};

TEST(Session, MeshAboveTheNodeLimitFailsAndKeepsTheModel) {
  Database db;
  Session session(db);
  ASSERT_TRUE(session.execute("mesh truss bays=3 load=50").ok);
  const std::string before = session.execute("show model").text;
  std::vector<std::string> lines(std::begin(kOversizedMeshes),
                                 std::end(kOversizedMeshes));
  // One node past the limit, for each kind.
  lines.insert(lines.end(), {"mesh plate nx=50 ny=49",
                             "mesh beam segments=2500",
                             "mesh truss bays=1250"});
  for (const auto& line : lines) {
    const Response r = session.execute(line);
    EXPECT_FALSE(r.ok) << line;
    EXPECT_EQ(r.kind, Response::FailureKind::Other) << line;
    EXPECT_NE(r.text.find(std::to_string(Session::kMaxMeshNodes)),
              std::string::npos)
        << r.text;
    EXPECT_EQ(session.execute("show model").text, before) << line;
  }
  // Exactly at the limit every kind still meshes.
  for (const char* line : {"mesh plate nx=49 ny=49", "mesh beam segments=2499",
                           "mesh truss bays=1249"}) {
    const Response r = session.execute(line);
    EXPECT_TRUE(r.ok) << line << ": " << r.text;
  }
}

/// Oversized models for the dense paths, each with its load set: just
/// past Session::kMaxDenseDofs, and the largest beam and plate meshes.
const std::pair<const char*, const char*> kOverDenseLimit[] = {
    {"mesh beam segments=500", "tip"},         // 1,503 dofs
    {"mesh beam segments=2499", "tip"},        // 7,500 dofs
    {"mesh plate nx=49 ny=49", "tip-shear"},   // 5,000 dofs
    {"mesh truss bays=376", "deck"},           // 1,508 dofs
};

TEST(Session, DensePathsRefuseModelsAboveTheDofLimit) {
  Database db;
  Session session(db);
  for (const auto& [mesh, load_set] : kOverDenseLimit) {
    ASSERT_TRUE(session.execute(mesh).ok) << mesh;
    const std::string solve = std::string("solve ") + load_set;
    ASSERT_TRUE(session.execute(solve + " using skyline").ok) << mesh;
    const std::string model = session.execute("show model").text;
    const std::string results = session.execute("show displacements").text;
    for (const std::string& line :
         {solve + " using cholesky", std::string("modes"),
          std::string("modes 1")}) {
      const Response r = session.execute(line);
      EXPECT_FALSE(r.ok) << mesh << ": " << line;
      EXPECT_EQ(r.kind, Response::FailureKind::Other) << line;
      EXPECT_NE(r.text.find(std::to_string(Session::kMaxDenseDofs)),
                std::string::npos)
          << r.text;
      EXPECT_EQ(session.execute("show model").text, model) << line;
      EXPECT_EQ(session.execute("show displacements").text, results) << line;
    }
  }
}

TEST(Session, ModeCountsAboveTheLimitFailBeforeAssembling) {
  // A count past kMaxModes fails at once and names the limit, before the
  // model is looked at: with no model the refusal is about the count.
  Database db;
  Session session(db);
  const std::string over = std::to_string(Session::kMaxModes + 1);
  const std::string limit = std::to_string(Session::kMaxModes) + " modes";
  for (const std::string& line :
       {"modes " + over, std::string("modes 1000"),
        std::string("modes 18446744073709551615")}) {
    const Response r = session.execute(line);
    EXPECT_FALSE(r.ok) << line;
    EXPECT_EQ(r.kind, Response::FailureKind::Other) << line;
    EXPECT_NE(r.text.find(limit), std::string::npos) << r.text;
  }
  ASSERT_TRUE(session.execute("mesh beam segments=10 length=1 load=5").ok);
  ASSERT_TRUE(session.execute("solve tip").ok);
  const std::string model = session.execute("show model").text;
  const std::string results = session.execute("show displacements").text;
  const Response refused = session.execute("modes " + over);
  EXPECT_FALSE(refused.ok);
  EXPECT_NE(refused.text.find(limit), std::string::npos) << refused.text;
  EXPECT_EQ(session.execute("show model").text, model);
  EXPECT_EQ(session.execute("show displacements").text, results);
  const Response at_limit =
      session.execute("modes " + std::to_string(Session::kMaxModes));
  EXPECT_TRUE(at_limit.ok) << at_limit.text;
}

TEST(Session, DenseLimitCountsEveryModelDof) {
  // Two bars plus fixed nodes that no element holds: the model has
  // kMaxDenseDofs dofs, of which two are free.  The limit admits it, and
  // one more node takes it past the limit whatever the free count.
  Database db;
  Session session(db);
  for (const char* line :
       {"new model spare-nodes", "material steel E=1000 A=0.01", "node 0 0",
        "node 1 0", "node 2 0", "element bar 0 1", "element bar 1 2",
        "fix 0", "fix 2", "constrain 1 1", "load pull 1 0 50"})
    ASSERT_TRUE(session.execute(line).ok) << line;
  const std::size_t nodes = Session::kMaxDenseDofs / 2;
  for (std::size_t n = 3; n < nodes; ++n) {
    ASSERT_TRUE(session.execute("node " + std::to_string(n) + " 5").ok);
    ASSERT_TRUE(session.execute("fix " + std::to_string(n)).ok);
  }
  const Response at_limit = session.execute("solve pull using cholesky");
  EXPECT_TRUE(at_limit.ok) << at_limit.text;
  EXPECT_TRUE(session.execute("modes 1").ok);
  ASSERT_TRUE(session.execute("node 0 9").ok);
  ASSERT_TRUE(session.execute("fix " + std::to_string(nodes)).ok);
  EXPECT_FALSE(session.execute("solve pull using cholesky").ok);
  EXPECT_FALSE(session.execute("modes 1").ok);
  EXPECT_TRUE(session.execute("solve pull using skyline").ok);
}

TEST(Session, CommentsAndBlanksIgnored) {
  Database db;
  Session session(db);
  EXPECT_TRUE(session.execute("").ok);
  EXPECT_TRUE(session.execute("   ").ok);
  EXPECT_TRUE(session.execute("# a comment").ok);
}

TEST(Session, ScriptStopsOnFirstError) {
  Database db;
  Session session(db);
  const auto responses = session.execute_script(
      "new model m\nbroken line here\nnode 0 0");
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_TRUE(responses[0].ok);
  EXPECT_FALSE(responses[1].ok);
}

TEST(Session, MultiUserSharedDatabase) {
  Database db;
  Session alice(db, "alice");
  Session bob(db, "bob");
  ASSERT_TRUE(alice.execute("mesh truss bays=4 load=100").ok);
  ASSERT_TRUE(alice.execute("store bridge").ok);
  // Bob retrieves Alice's model and works on his own copy.
  ASSERT_TRUE(bob.execute("retrieve bridge").ok);
  ASSERT_TRUE(bob.execute("solve deck using skyline").ok);
  // Bob's local edits do not touch the stored copy until he stores.
  ASSERT_TRUE(bob.execute("load deck 1 0 5").ok);
  const auto alice_copy = db.retrieve_model("bridge");
  const auto& bob_model = bob.workspace().model();
  EXPECT_NE(alice_copy.load_sets.at("deck").loads.size(),
            bob_model.load_sets.at("deck").loads.size());
  EXPECT_EQ(alice.user(), "alice");
  EXPECT_EQ(bob.user(), "bob");
}

TEST(Session, SaveAndOpenModelFiles) {
  Database db;
  Session session(db);
  ASSERT_TRUE(session.execute("mesh truss bays=3 load=50").ok);
  const std::string path =
      ::testing::TempDir() + "/fem2_session_model.txt";
  ASSERT_TRUE(session.execute("save " + path).ok);

  Session other(db);
  const auto opened = other.execute("open " + path);
  ASSERT_TRUE(opened.ok) << opened.text;
  EXPECT_EQ(other.workspace().model().name, "truss-bridge");
  EXPECT_EQ(other.workspace().model().elements.size(),
            session.workspace().model().elements.size());

  EXPECT_FALSE(other.execute("open /nonexistent/nowhere.txt").ok);
  EXPECT_FALSE(other.execute("save /nonexistent/dir/file.txt").ok);
}

TEST(Session, HelpListsCommands) {
  const auto help = Session::help_text();
  for (const char* command :
       {"new model", "mesh", "solve", "stresses", "store", "retrieve",
        "begin", "commit", "abort", "history", "if-rev"}) {
    EXPECT_NE(help.find(command), std::string::npos) << command;
  }
}

TEST(Serialize, ResultsRoundTripPreserved) {
  const auto model = sample_model();
  const auto results = fem::analyze(model, "tip-shear");
  const auto text = serialize_results(results);
  const auto parsed = parse_results(text);

  EXPECT_EQ(parsed.solution.stats.method, results.solution.stats.method);
  EXPECT_EQ(parsed.solution.stats.converged, results.solution.stats.converged);
  EXPECT_EQ(parsed.solution.stats.iterations,
            results.solution.stats.iterations);
  ASSERT_EQ(parsed.stresses.size(), results.stresses.size());
  for (std::size_t i = 0; i < results.stresses.size(); ++i)
    EXPECT_DOUBLE_EQ(parsed.stresses[i].von_mises,
                     results.stresses[i].von_mises);
  EXPECT_EQ(parsed.peak.element, results.peak.element);
  // Round-trip of the round-trip is bit-identical.
  EXPECT_EQ(serialize_results(parsed), text);
}

TEST_P(SerializeRandomModels, ResultsRoundTripRandomTrusses) {
  support::Rng rng(GetParam() + 1000);
  fem::TrussOptions options;
  options.bays = 2 + rng.next_below(6);
  const auto model =
      fem::make_truss_bridge(options, rng.uniform(1.0, 100.0));
  const auto results = fem::analyze(model, "deck");
  const auto text = serialize_results(results);
  EXPECT_EQ(serialize_results(parse_results(text)), text);
}

TEST(Serialize, RejectsMalformedResults) {
  const auto text = serialize_results(fem::analyze(sample_model(), "tip-shear"));
  EXPECT_THROW(parse_results(""), SerializeError);  // no results record
  EXPECT_THROW(parse_results("model m"), SerializeError);
  EXPECT_THROW(parse_results("results\nconverged maybe"), SerializeError);
  EXPECT_THROW(parse_results("results\ndisplacements 2 1.0 oops"),
               SerializeError);
  EXPECT_THROW(parse_results("results\nstress 0 1 2 3"), SerializeError);
  EXPECT_THROW(parse_results("results\nwhatever 1"), SerializeError);
  // A truncated line inside an otherwise good document is rejected.
  const auto cut = text.rfind(' ');
  EXPECT_THROW(parse_results(text.substr(0, cut + 1)), SerializeError);
}

TEST(Serialize, RejectsStructurallyInvalidModels) {
  // Element references a node that does not exist.
  EXPECT_THROW(parse_model("model m\nnode 0 0\nnode 1 0\n"
                           "element bar2 0 7 mat=0"),
               SerializeError);
  // Element references a material that does not exist.
  EXPECT_THROW(parse_model("model m\nmaterial s E=1\nnode 0 0\nnode 1 0\n"
                           "element bar2 0 1 mat=5"),
               SerializeError);
  // Constraint on a node that does not exist.
  EXPECT_THROW(parse_model("model m\nnode 0 0\nconstraint 3 0 0"),
               SerializeError);
  // Duplicate constraint on the same (node, dof).
  EXPECT_THROW(parse_model("model m\nnode 0 0\n"
                           "constraint 0 1 0\nconstraint 0 1 5"),
               SerializeError);
  // Load on a node that does not exist.
  EXPECT_THROW(parse_model("model m\nnode 0 0\nload pull 9 0 10"),
               SerializeError);
}

/// A model whose text holds the awkward numbers: signed zero, 0.1, both
/// sides of %g's switch to exponent form (1e-5/1e-4, 1e16/1e17), 1e21, a
/// 17-digit integer, subnormals, ±inf, nan and the largest index.
fem::StructureModel awkward_model() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr std::size_t kMaxIndex = std::numeric_limits<std::size_t>::max();
  fem::StructureModel m;
  m.name = "awkward";
  m.add_node(-0.0, 0.1);
  m.add_node(1e-5, 1e-4);
  m.add_node(1e16, 1e17);
  m.add_node(1e21, 123456789012345678.0);
  m.add_node(std::numeric_limits<double>::denorm_min(), 1e-310);
  m.add_node(kInf, -kInf);
  m.add_node(kNan, -1.5);
  fem::Material steel;
  steel.name = "mild-steel";
  steel.youngs_modulus = 2.1e11;
  steel.poisson_ratio = 0.3;
  steel.area = 1e-5;
  steel.moment_of_inertia = 1e-4;
  steel.thickness = 0.1;
  steel.density = 7850.5;
  m.add_material(steel);
  m.add_material(fem::Material{});
  m.add_element(fem::ElementType::Quad4, {0, 1, 2, 3}, 0);
  m.add_element(fem::ElementType::Tri3, {3, 4, 5}, 1);
  m.add_element(fem::ElementType::Bar2, {5, 6}, 0);
  m.add_element(fem::ElementType::Beam2, {6, 0}, 1);
  m.add_constraint(0, 0, -0.0);
  m.add_constraint(0, kMaxIndex, 1e-310);
  m.add_load("tip-shear", 6, 1, -1e-5);
  m.add_load("gravity", 3, kMaxIndex, 1e21);
  return m;
}

/// Results with the same awkward numbers and a method name with spaces.
fem::AnalysisResult awkward_results() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr std::size_t kMaxIndex = std::numeric_limits<std::size_t>::max();
  fem::AnalysisResult r;
  auto& stats = r.solution.stats;
  stats.method = "pcg (jacobi)  two  spaces";
  stats.converged = false;
  stats.iterations = kMaxIndex;
  stats.residual = 1e-310;
  stats.matrix_storage_bytes = 123456789012345678;
  r.solution.displacements.dofs_per_node = 3;
  r.solution.displacements.values = {
      -0.0, 0.1,  1e-5,   1e-4, 1e16,  1e17, 1e21, 123456789012345678.0,
      std::numeric_limits<double>::denorm_min(), kInf, -kInf, kNan,
      std::copysign(kNan, -1.0), 1e-310, 2.5};
  r.stresses = {{0, 1.5, -2.5e-7, 3e300, 1e-320},
                {kMaxIndex, -0.0, kNan, -kInf, 0.1}};
  r.peak = {kMaxIndex, 1e16, 1e17, 1e-5, 1e-4};
  return r;
}

// serialize_model and serialize_results of the two values above, as the
// ostringstream writers at precision(17) produced them.
constexpr const char* kAwkwardModelText =
    "model awkward\n"
    "node -0 0.10000000000000001\n"
    "node 1.0000000000000001e-05 0.0001\n"
    "node 10000000000000000 1e+17\n"
    "node 1e+21 1.2345678901234568e+17\n"
    "node 4.9406564584124654e-324 9.9999999999999694e-311\n"
    "node inf -inf\n"
    "node nan -1.5\n"
    "material mild-steel E=210000000000 nu=0.29999999999999999 A=1.0000000000000001e-05 I=0.0001 t=0.10000000000000001 rho=7850.5\n"
    "material steel E=200000000000 nu=0.29999999999999999 A=0.001 I=9.9999999999999995e-07 t=0.01 rho=7850\n"
    "element quad4 0 1 2 3 mat=0\n"
    "element tri3 3 4 5 mat=1\n"
    "element bar2 5 6 mat=0\n"
    "element beam2 6 0 mat=1\n"
    "constraint 0 0 -0\n"
    "constraint 0 18446744073709551615 9.9999999999999694e-311\n"
    "load gravity 3 18446744073709551615 1e+21\n"
    "load tip-shear 6 1 -1.0000000000000001e-05\n"
;
constexpr const char* kAwkwardResultsText =
    "results\n"
    "method pcg (jacobi)  two  spaces\n"
    "converged 0\n"
    "iterations 18446744073709551615\n"
    "residual 9.9999999999999694e-311\n"
    "matrix-bytes 123456789012345678\n"
    "displacements 3 -0 0.10000000000000001 1.0000000000000001e-05 0.0001 10000000000000000 1e+17 1e+21 1.2345678901234568e+17 4.9406564584124654e-324 inf -inf nan -nan 9.9999999999999694e-311 2.5\n"
    "stress 0 1.5 -2.4999999999999999e-07 3.0000000000000002e+300 9.9998886718268301e-321\n"
    "stress 18446744073709551615 -0 nan -inf 0.10000000000000001\n"
    "peak 18446744073709551615 10000000000000000 1e+17 1.0000000000000001e-05 0.0001\n"
;

TEST(Serialize, ModelTextIsPinned) {
  EXPECT_EQ(serialize_model(awkward_model()), kAwkwardModelText);
  EXPECT_EQ(serialize_model(parse_model(kAwkwardModelText)),
            kAwkwardModelText);
}

TEST(Serialize, ResultsTextIsPinned) {
  EXPECT_EQ(serialize_results(awkward_results()), kAwkwardResultsText);
  EXPECT_EQ(serialize_results(parse_results(kAwkwardResultsText)),
            kAwkwardResultsText);
}

TEST(Serialize, SubnormalsRoundTrip) {
  fem::AnalysisResult results;
  results.solution.displacements.dofs_per_node = 2;
  results.solution.displacements.values = {1e-310, -4.9e-324};
  const auto parsed = parse_results(serialize_results(results));
  ASSERT_EQ(parsed.solution.displacements.values.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(
                  parsed.solution.displacements.values[i]),
              std::bit_cast<std::uint64_t>(
                  results.solution.displacements.values[i]));
  EXPECT_EQ(parse_model("model m\nnode 1e-310 0\n").nodes.at(0).x, 1e-310);
  // Overflow, and underflow to zero, are still errors.
  EXPECT_THROW(parse_model("model m\nnode 1e999 0\n"), SerializeError);
  EXPECT_THROW(parse_model("model m\nnode 1e-400 0\n"), SerializeError);
  EXPECT_THROW(parse_model("model m\nnode -1e-400 0\n"), SerializeError);
}

TEST(Serialize, NumberSyntax) {
  // from_chars syntax after one optional '+', which std::stod took too.
  const auto model = parse_model("model m\nnode +1 .5e1\nnode -inf nan\n");
  EXPECT_EQ(model.nodes.at(0).x, 1.0);
  EXPECT_EQ(model.nodes.at(0).y, 5.0);
  EXPECT_EQ(model.nodes.at(1).x, -std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isnan(model.nodes.at(1).y));
  // Hex floats (only strtod read them; no writer emits them), a second
  // sign, a bare exponent and a sign on an index are errors.
  for (const char* bad : {"0x1p3", "+-1", "++1", "1e", "+"}) {
    EXPECT_THROW(parse_model(std::string("model m\nnode ") + bad + " 0\n"),
                 SerializeError)
        << bad;
  }
  EXPECT_THROW(parse_model("model m\nnode 0 0\nconstraint +0 0 0\n"),
               SerializeError);
  // The error names the line and the token.
  try {
    parse_model("model m\n\nnode 0x1p3 0\n");
    ADD_FAILURE() << "hex float accepted";
  } catch (const SerializeError& e) {
    EXPECT_STREQ(e.what(), "line 3: expected a number, found '0x1p3'");
  }
  // The command language shares the parser.
  Database db;
  Session session(db);
  ASSERT_TRUE(session.execute("new model m").ok);
  EXPECT_TRUE(session.execute("node +1 0").ok);
  EXPECT_TRUE(session.execute("node 1e-310 0").ok);
  EXPECT_FALSE(session.execute("node 0x1p3 0").ok);
  EXPECT_EQ(session.workspace().model().nodes.size(), 2u);
}

TEST(Database, OptimisticConcurrencyAndHistory) {
  Database db;
  const auto model = sample_model();
  EXPECT_EQ(db.store_model("m", model, 0), 1u);  // must-not-exist store
  EXPECT_THROW(db.store_model("m", model, 0), db::ConflictError);
  EXPECT_EQ(db.store_model("m", model, 1), 2u);  // CAS against rev 1
  EXPECT_THROW(db.store_model("m", model, 1), db::ConflictError);
  EXPECT_EQ(db.revision("m"), 2u);

  // MVCC: the old revision is still readable, and history lists both.
  const auto old_copy = db.retrieve_model("m", 1);
  EXPECT_EQ(old_copy.name, model.name);
  const auto history = db.history("m");
  ASSERT_EQ(history.size(), 2u);
  EXPECT_EQ(history[0].revision, 1u);
  EXPECT_EQ(history[1].revision, 2u);
  EXPECT_FALSE(history[1].deleted);

  EXPECT_THROW(db.remove("m", 1), db::ConflictError);
  EXPECT_TRUE(db.remove("m", 2));
  EXPECT_EQ(db.revision("m"), 0u);
}

TEST(Database, TransactionsCommitAndAbort) {
  Database db;
  const auto model = sample_model();
  const auto results = fem::analyze(model, "tip-shear");

  const auto txn = db.begin();
  db.store_model(txn, "m", model);
  db.store_results(txn, "r", results);
  // Buffered writes are invisible outside the transaction...
  EXPECT_FALSE(db.contains("m"));
  // ...but the transaction reads its own writes.
  EXPECT_EQ(db.retrieve_model(txn, "m").name, model.name);
  EXPECT_EQ(db.commit(txn), 2u);
  EXPECT_TRUE(db.contains("m"));
  EXPECT_TRUE(db.contains("r"));

  const auto doomed = db.begin();
  db.remove(doomed, "m");
  db.abort(doomed);
  EXPECT_TRUE(db.contains("m"));
}

TEST(Database, RetrieveResultsByValueSurvivesOverwrite) {
  Database db;
  const auto model = sample_model();
  db.store_results("r", fem::analyze(model, "tip-shear"));
  const auto results = db.retrieve_results("r");
  const auto peak = results.peak.von_mises;
  // The entry the value came from is overwritten and then removed; the
  // returned copy must stay valid (the old interface returned a reference
  // into the store, which dangled here).
  db.store_results("r", fem::analyze(model, "tip-shear"));
  db.remove("r");
  EXPECT_EQ(results.peak.von_mises, peak);
  EXPECT_FALSE(results.stresses.empty());
}

TEST(Database, PersistentReopenRecoversEntries) {
  const std::string dir = ::testing::TempDir() + "fem2_appvm_persist";
  std::filesystem::remove_all(dir);
  const auto model = sample_model();
  {
    Database db(dir);
    db.store_model("m", model);
    db.store_results("r", fem::analyze(model, "tip-shear"));
  }
  {
    Database db(dir);
    EXPECT_EQ(db.retrieve_model("m").name, model.name);
    EXPECT_EQ(db.retrieve_results("r").stresses.size(),
              model.elements.size());
    EXPECT_EQ(db.list().size(), 2u);
  }
  std::filesystem::remove_all(dir);
}

TEST(Session, TransactionVerbs) {
  Database db;
  Session session(db);
  ASSERT_TRUE(session.execute("mesh truss bays=3 load=10").ok);

  // Writes buffer inside a transaction; commit publishes them atomically.
  EXPECT_FALSE(session.execute("commit").ok);  // no open transaction
  ASSERT_TRUE(session.execute("begin").ok);
  EXPECT_FALSE(session.execute("begin").ok);  // one at a time
  ASSERT_TRUE(session.execute("store a").ok);
  ASSERT_TRUE(session.execute("store b").ok);
  EXPECT_FALSE(db.contains("a"));
  ASSERT_TRUE(session.execute("commit").ok);
  EXPECT_TRUE(db.contains("a"));
  EXPECT_TRUE(db.contains("b"));

  // Aborted transactions leave no trace.
  ASSERT_TRUE(session.execute("begin").ok);
  ASSERT_TRUE(session.execute("store c").ok);
  ASSERT_TRUE(session.execute("abort").ok);
  EXPECT_FALSE(db.contains("c"));
  EXPECT_FALSE(session.execute("abort").ok);
}

TEST(Session, ConflictDetectionAndRetryWithIfRev) {
  Database db;
  Session alice(db, "alice");
  Session bob(db, "bob");
  ASSERT_TRUE(alice.execute("mesh truss bays=4 load=100").ok);
  ASSERT_TRUE(alice.execute("store bridge").ok);  // rev 1
  ASSERT_TRUE(bob.execute("retrieve bridge").ok);

  // Alice revises first; Bob's stale store is refused, not clobbered.
  ASSERT_TRUE(alice.execute("store bridge if-rev=1").ok);  // rev 2
  const auto stale = bob.execute("store bridge if-rev=1");
  EXPECT_FALSE(stale.ok);
  EXPECT_NE(stale.text.find("conflict"), std::string::npos);
  EXPECT_EQ(db.revision("bridge"), 2u);

  // The retry protocol: re-read, then CAS against what was seen.
  ASSERT_TRUE(bob.execute("retrieve bridge").ok);
  ASSERT_TRUE(bob.execute("store bridge if-rev=2").ok);
  EXPECT_EQ(db.revision("bridge"), 3u);

  // A conflicted transactional commit reports and drops the transaction.
  ASSERT_TRUE(bob.execute("begin").ok);
  ASSERT_TRUE(bob.execute("store bridge if-rev=3").ok);
  ASSERT_TRUE(alice.execute("store bridge").ok);  // rev 4 wins the race
  const auto clash = bob.execute("commit");
  EXPECT_FALSE(clash.ok);
  EXPECT_NE(clash.text.find("conflict"), std::string::npos);
  EXPECT_EQ(db.revision("bridge"), 4u);
  EXPECT_FALSE(bob.execute("commit").ok);  // the transaction is gone

  const auto history = alice.execute("history bridge");
  ASSERT_TRUE(history.ok);
  EXPECT_NE(history.text.find("rev 4"), std::string::npos);
}

TEST(Session, RetrieveHistoricalRevision) {
  Database db;
  Session session(db);
  ASSERT_TRUE(session.execute("mesh truss bays=3 load=10").ok);
  ASSERT_TRUE(session.execute("store m").ok);
  ASSERT_TRUE(session.execute("load deck 1 1 -5").ok);
  ASSERT_TRUE(session.execute("store m").ok);
  const auto old_rev = session.execute("retrieve m rev=1");
  ASSERT_TRUE(old_rev.ok) << old_rev.text;
  EXPECT_NE(old_rev.text.find("rev 1"), std::string::npos);
  EXPECT_FALSE(session.execute("retrieve m rev=99").ok);
}

TEST(Session, FailureKindClassifiesConflicts) {
  Database db;
  Session alice(db);
  Session bob(db);
  ASSERT_TRUE(alice.execute("mesh truss bays=2 load=10").ok);
  ASSERT_TRUE(bob.execute("mesh truss bays=3 load=20").ok);
  ASSERT_TRUE(alice.execute("store bridge").ok);  // rev 1

  const auto stale = bob.execute("store bridge if-rev=9");
  EXPECT_FALSE(stale.ok);
  EXPECT_EQ(stale.kind, Response::FailureKind::Conflict);

  const auto typo = bob.execute("store");
  EXPECT_FALSE(typo.ok);
  EXPECT_EQ(typo.kind, Response::FailureKind::Other);

  const auto fine = bob.execute("store bridge if-rev=1");
  EXPECT_TRUE(fine.ok);
  EXPECT_EQ(fine.kind, Response::FailureKind::None);
}

TEST(Session, IfRevHeadResolvesTheCurrentRevision) {
  Database db;
  Session session(db);
  ASSERT_TRUE(session.execute("mesh truss bays=2 load=10").ok);
  // head works on an absent name (expected revision 0 = create)...
  ASSERT_TRUE(session.execute("store bridge if-rev=head").ok);
  EXPECT_EQ(db.revision("bridge"), 1u);
  // ...and tracks the head as it moves.
  ASSERT_TRUE(session.execute("store bridge if-rev=head").ok);
  ASSERT_TRUE(session.execute("store bridge if-rev=head").ok);
  EXPECT_EQ(db.revision("bridge"), 3u);
}

TEST(Session, ExecuteWithRetryResolvesRacesViaHead) {
  Database db;
  Session alice(db);
  Session bob(db);
  ASSERT_TRUE(alice.execute("mesh truss bays=2 load=10").ok);
  ASSERT_TRUE(bob.execute("mesh truss bays=3 load=20").ok);
  ASSERT_TRUE(alice.execute("store bridge").ok);  // rev 1

  // Bob's sleeper simulates the race: while he "waits", Alice commits
  // again, so only the re-resolved head can ever succeed.
  db::RetryPolicy policy;
  policy.max_attempts = 4;
  policy.jitter = 0.0;
  bob.set_retry_policy(policy);
  std::vector<std::int64_t> slept;
  bob.set_sleeper([&](std::chrono::microseconds d) {
    slept.push_back(d.count());
    ASSERT_TRUE(alice.execute("store bridge").ok);
  });

  // A pinned stale revision never recovers: retries burn out.
  const auto pinned = bob.execute_with_retry("store bridge if-rev=9");
  EXPECT_FALSE(pinned.ok);
  EXPECT_EQ(pinned.kind, Response::FailureKind::Conflict);
  EXPECT_EQ(slept.size(), 3u);  // max_attempts - 1 backoffs, all recorded

  // `if-rev=head` re-reads the revision each attempt and lands first try
  // (no interleaved writer inside execute_with_retry's attempt).
  slept.clear();
  const auto head = bob.execute_with_retry("store bridge if-rev=head");
  EXPECT_TRUE(head.ok) << head.text;
  EXPECT_TRUE(slept.empty());

  // Non-retryable failures return immediately, no sleeping.
  const auto typo = bob.execute_with_retry("store");
  EXPECT_FALSE(typo.ok);
  EXPECT_EQ(typo.kind, Response::FailureKind::Other);
  EXPECT_TRUE(slept.empty());
}

TEST(Retry, WithRetryRetriesOnlyRetryableFailures) {
  // The one retry loop under Session::execute_with_retry and
  // serve::Server::call_with_retry.
  db::RetryPolicy policy;
  policy.max_attempts = 5;
  policy.jitter = 0.0;
  std::vector<std::int64_t> slept;
  const db::Sleeper recorder = [&slept](std::chrono::microseconds d) {
    slept.push_back(d.count());
  };
  const auto failing = [](Response::FailureKind kind) {
    return Response{false, "attempt failed", kind};
  };

  // Succeeds on the third attempt.
  int calls = 0;
  const Response third = with_retry(policy, recorder, [&] {
    return ++calls < 3 ? failing(Response::FailureKind::TransientIo)
                       : Response{true, "done"};
  });
  EXPECT_TRUE(third.ok);
  EXPECT_EQ(third.text, "done");
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(slept, (std::vector<std::int64_t>{500, 1000}));

  // A hard failure returns at once.
  calls = 0;
  const Response hard = with_retry(policy, recorder, [&] {
    ++calls;
    return failing(Response::FailureKind::Degraded);
  });
  EXPECT_EQ(hard.kind, Response::FailureKind::Degraded);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(slept.size(), 2u);

  // Attempts exhausted: the last failure comes back.
  calls = 0;
  const Response exhausted = with_retry(policy, recorder, [&] {
    ++calls;
    return failing(Response::FailureKind::Overloaded);
  });
  EXPECT_FALSE(exhausted.ok);
  EXPECT_EQ(exhausted.kind, Response::FailureKind::Overloaded);
  EXPECT_EQ(calls, 5);
  EXPECT_EQ(slept.size(), 6u);
}

TEST(Session, TenantDefaultsEmptyAndIsRecorded) {
  Database db;
  Session plain(db);
  EXPECT_TRUE(plain.tenant().empty());
  Session scoped(db, "alice", "acme");
  EXPECT_EQ(scoped.user(), "alice");
  EXPECT_EQ(scoped.tenant(), "acme");
}

TEST(Session, RetryableClassificationCoversServerKinds) {
  // The shared contract between execute_with_retry and the serve layer's
  // call_with_retry: which failures are worth another attempt.
  EXPECT_TRUE(Response::retryable(Response::FailureKind::Conflict));
  EXPECT_TRUE(Response::retryable(Response::FailureKind::TransientIo));
  EXPECT_TRUE(Response::retryable(Response::FailureKind::QuotaExceeded));
  EXPECT_TRUE(Response::retryable(Response::FailureKind::Overloaded));
  EXPECT_FALSE(Response::retryable(Response::FailureKind::None));
  EXPECT_FALSE(Response::retryable(Response::FailureKind::Degraded));
  EXPECT_FALSE(Response::retryable(Response::FailureKind::Other));
}

TEST(Session, QueryVerbFiltersAndReportsPlan) {
  Database db;
  Session session(db);
  session.execute("mesh truss bays=2 load=100");
  session.execute("store bridge");
  session.execute("store bridge-deck");
  session.execute("store bridge");  // rev 2
  ASSERT_TRUE(session.execute("solve deck").ok);
  ASSERT_TRUE(session.execute("store results bridge-results").ok);

  const auto all = session.execute("query");
  ASSERT_TRUE(all.ok) << all.text;
  EXPECT_NE(all.text.find("3 rows"), std::string::npos) << all.text;
  EXPECT_NE(all.text.find("plan scan"), std::string::npos) << all.text;

  const auto by_kind = session.execute("query kind=model");
  ASSERT_TRUE(by_kind.ok);
  EXPECT_NE(by_kind.text.find("2 rows"), std::string::npos) << by_kind.text;
  EXPECT_NE(by_kind.text.find("plan kind-index"), std::string::npos);

  const auto by_prefix = session.execute("query prefix=bridge-");
  ASSERT_TRUE(by_prefix.ok);
  EXPECT_NE(by_prefix.text.find("2 rows"), std::string::npos)
      << by_prefix.text;
  EXPECT_NE(by_prefix.text.find("plan name-range"), std::string::npos);

  const auto by_revision = session.execute("query min-rev=2");
  ASSERT_TRUE(by_revision.ok);
  EXPECT_NE(by_revision.text.find("'bridge' rev 2"), std::string::npos)
      << by_revision.text;
  EXPECT_NE(by_revision.text.find("plan revision-index"), std::string::npos);

  const auto limited = session.execute("query limit=1");
  ASSERT_TRUE(limited.ok);
  EXPECT_NE(limited.text.find("1 row "), std::string::npos) << limited.text;
  EXPECT_NE(limited.text.find("truncated by limit"), std::string::npos);
}

TEST(Session, QueryVerbRejectsUnknownOptions) {
  Database db;
  Session session(db);
  const auto bad_key = session.execute("query color=red");
  EXPECT_FALSE(bad_key.ok);
  EXPECT_NE(bad_key.text.find("unknown query option"), std::string::npos);
  const auto no_eq = session.execute("query bridge");
  EXPECT_FALSE(no_eq.ok);
  EXPECT_NE(no_eq.text.find("usage:"), std::string::npos);
}

TEST(Workspace, StorageAccounting) {
  Database db;
  Session session(db);
  EXPECT_EQ(session.workspace().storage_bytes(), 0u);
  session.execute("mesh plate nx=8 ny=4 load=1");
  const auto with_model = session.workspace().storage_bytes();
  EXPECT_GT(with_model, 0u);
  session.execute("solve tip-shear");
  EXPECT_GT(session.workspace().storage_bytes(), with_model);
}

}  // namespace
}  // namespace fem2::appvm
