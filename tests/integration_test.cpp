// Cross-layer integration tests: full engineer workflows down through all
// four virtual machines, agreement between sequential / substructured /
// distributed solution paths, and determinism of the simulator.
#include <gtest/gtest.h>

#include "appvm/command.hpp"
#include "fem/mesh.hpp"
#include "fem/solver.hpp"
#include "fem/passembly.hpp"
#include "fem/substructure.hpp"
#include "navm/parops.hpp"
#include "spec/layers.hpp"
#include "spec/reflect.hpp"

namespace fem2 {
namespace {

hw::MachineConfig machine_config(std::size_t clusters = 4,
                                 std::size_t ppc = 4) {
  hw::MachineConfig c;
  c.clusters = clusters;
  c.pes_per_cluster = ppc;
  c.memory_per_cluster = 64u << 20;
  return c;
}

struct Fem2Stack {
  hw::Machine machine;
  sysvm::Os os;
  navm::Runtime runtime;

  explicit Fem2Stack(hw::MachineConfig config = machine_config())
      : machine(config), os(machine), runtime(os) {
    navm::register_parallel_ops(runtime);
    fem::register_substructure_tasks(runtime);
  }
};

TEST(Integration, AllSolutionPathsAgree) {
  const auto model = fem::make_cantilever_plate(
      {.nx = 16, .ny = 6, .material = {.youngs_modulus = 70e9,
                                       .thickness = 0.004}},
      1'500.0);
  const std::size_t tip_dof = model.total_dofs() - 1;

  const auto direct = fem::solve_static(
      model, "tip-shear", {.kind = fem::SolverKind::SkylineDirect});

  // Sequential iterative.
  const auto cg = fem::solve_static(
      model, "tip-shear",
      {.kind = fem::SolverKind::PreconditionedCg, .tolerance = 1e-12});

  // Substructured, sequential and on the machine.
  const auto partition = fem::partition_by_x(model, 4);
  const auto sub = fem::solve_substructured(model, "tip-shear", partition);

  Fem2Stack sub_stack;
  const auto sub_par = fem::solve_substructured_parallel(
      model, "tip-shear", partition, sub_stack.runtime);

  // Distributed CG on the machine.
  Fem2Stack cg_stack;
  const auto cg_par = fem::solve_static_parallel(
      model, "tip-shear", cg_stack.runtime, {.workers = 8,
                                             .tolerance = 1e-12});

  const double reference = direct.displacements.values[tip_dof];
  const double tolerance = std::abs(reference) * 1e-5 + 1e-12;
  for (const auto* solution : {&cg, &sub, &sub_par, &cg_par}) {
    EXPECT_NEAR(solution->displacements.values[tip_dof], reference,
                tolerance)
        << solution->stats.method;
  }
}

TEST(Integration, EngineerWorkflowThroughCommandLanguage) {
  appvm::Database db;
  appvm::Session session(db);
  const auto responses = session.execute_script(R"(
mesh plate nx=12 ny=6 load=500
solve tip-shear using skyline
stresses
store panel
store results panel-v1
retrieve panel
solve tip-shear using pcg tol=1e-11
stresses
)");
  for (const auto& r : responses) EXPECT_TRUE(r.ok) << r.text;
  EXPECT_EQ(db.list().size(), 2u);
}

TEST(Integration, SimulationIsDeterministic) {
  const auto model = fem::make_cantilever_plate({.nx = 12, .ny = 4}, 100.0);

  auto run_once = [&] {
    Fem2Stack stack;
    const auto solution = fem::solve_static_parallel(
        model, "tip-shear", stack.runtime, {.workers = 6});
    struct Snapshot {
      hw::Cycles elapsed;
      std::uint64_t messages;
      std::uint64_t bytes;
      std::uint64_t dispatches;
      std::size_t iterations;
      double tip;
    };
    return Snapshot{stack.machine.now(),
                    stack.os.stats().total_messages(),
                    stack.os.stats().total_message_bytes(),
                    stack.os.stats().kernel_dispatches,
                    solution.stats.iterations,
                    solution.displacements.values.back()};
  };

  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.dispatches, b.dispatches);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.tip, b.tip);
}

TEST(Integration, ConcurrentIndependentProblemsBothComplete) {
  // User-level parallelism: two different models solved on one machine.
  Fem2Stack stack;
  const auto plate = fem::make_cantilever_plate({.nx = 8, .ny = 4}, 50.0);
  const auto truss = fem::make_truss_bridge({.bays = 6}, 10.0);

  auto launch = [&](const fem::StructureModel& model,
                    const std::string& load_set) {
    const auto system = fem::assemble(model);
    navm::CgProblem problem;
    problem.a = system.stiffness;
    problem.b = system.load_vector(model.load_sets.at(load_set));
    problem.workers = 4;
    problem.tolerance = 1e-10;
    return stack.runtime.launch(navm::kCgDriverTask,
                                navm::make_cg_problem(std::move(problem)));
  };
  const auto t1 = launch(plate, "tip-shear");
  const auto t2 = launch(truss, "deck");
  stack.runtime.run();
  ASSERT_TRUE(stack.os.task_finished(t1));
  ASSERT_TRUE(stack.os.task_finished(t2));
  EXPECT_TRUE(navm::as_cg_result(stack.runtime.result(t1)).converged);
  EXPECT_TRUE(navm::as_cg_result(stack.runtime.result(t2)).converged);
}

TEST(Integration, MachineStateConformsToHardwareGrammarAfterSolve) {
  Fem2Stack stack;
  const auto model = fem::make_cantilever_plate({.nx = 8, .ny = 4}, 50.0);
  (void)fem::solve_static_parallel(model, "tip-shear", stack.runtime,
                                   {.workers = 4});
  hgraph::HGraph g;
  const auto node = spec::reflect_machine(g, stack.machine);
  const auto check = spec::hw_grammar().conforms(g, node, "machine");
  EXPECT_TRUE(check) << check.error;

  hgraph::HGraph g2;
  const auto tasks = spec::reflect_task_system(g2, stack.os, stack.runtime);
  const auto task_check =
      spec::navm_grammar().conforms(g2, tasks, "tasksystem");
  EXPECT_TRUE(task_check) << task_check.error;
}

TEST(Integration, ParallelAssemblyMatchesSequential) {
  const auto model = fem::make_cantilever_plate({.nx = 10, .ny = 5}, 80.0);
  const auto sequential = fem::assemble(model);

  for (const std::uint32_t workers : {1u, 3u, 8u}) {
    Fem2Stack stack;
    fem::register_assembly_tasks(stack.runtime);
    fem::ParallelAssemblyStats stats;
    const auto parallel =
        fem::assemble_parallel(model, stack.runtime, workers, &stats);
    EXPECT_EQ(stats.workers, workers);
    EXPECT_GT(stats.elapsed, 0u);
    EXPECT_GT(stats.triplets, 0u);

    ASSERT_EQ(parallel.stiffness.rows(), sequential.stiffness.rows());
    // Merge order differs across workers, so entries that cancel exactly in
    // one summation order may survive as rounding dust in the other —
    // compare by value, not by sparsity pattern.
    la::DenseMatrix diff = parallel.stiffness.to_dense();
    diff.add_scaled(sequential.stiffness.to_dense(), -1.0);
    EXPECT_LT(diff.max_abs(),
              1e-9 * sequential.stiffness.to_dense().max_abs());
  }
}

TEST(Integration, ParallelStressRecoveryMatchesSequential) {
  const auto model = fem::make_cantilever_plate({.nx = 9, .ny = 4}, 60.0);
  const auto solution = fem::solve_static(model, "tip-shear");
  const auto sequential =
      fem::compute_stresses(model, solution.displacements);

  Fem2Stack stack;
  fem::register_stress_tasks(stack.runtime);
  fem::ParallelStressStats stats;
  const auto parallel = fem::compute_stresses_parallel(
      model, solution.displacements, stack.runtime, 5, &stats);
  EXPECT_GT(stats.elapsed, 0u);
  ASSERT_EQ(parallel.size(), sequential.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(parallel[i].element, sequential[i].element);
    EXPECT_DOUBLE_EQ(parallel[i].von_mises, sequential[i].von_mises);
    EXPECT_DOUBLE_EQ(parallel[i].sigma_xx, sequential[i].sigma_xx);
  }
}

TEST(Integration, FullPipelineOnTheMachine) {
  // assemble → solve → compare against the pure-host pipeline.
  const auto model = fem::make_cantilever_plate({.nx = 12, .ny = 4}, 120.0);
  Fem2Stack stack;
  fem::register_assembly_tasks(stack.runtime);

  const auto system = fem::assemble_parallel(model, stack.runtime, 6);
  navm::CgProblem problem;
  problem.a = system.stiffness;
  problem.b = system.load_vector(model.load_sets.at("tip-shear"));
  problem.workers = 6;
  problem.tolerance = 1e-11;
  const auto task = stack.runtime.launch(navm::kCgDriverTask,
                                         navm::make_cg_problem(problem));
  stack.runtime.run();
  ASSERT_TRUE(stack.os.task_finished(task));
  const auto& result = navm::as_cg_result(stack.runtime.result(task));
  ASSERT_TRUE(result.converged);

  const auto host = fem::solve_static(
      model, "tip-shear",
      {.kind = fem::SolverKind::DenseCholesky});
  const auto machine_solution = system.expand(result.x);
  for (std::size_t i = 0; i < host.displacements.values.size(); ++i) {
    EXPECT_NEAR(machine_solution.values[i], host.displacements.values[i],
                1e-8 + std::abs(host.displacements.values[i]) * 1e-5);
  }
}

TEST(Integration, PacketConservationEvenUnderFaults) {
  // Every packet sent is eventually delivered (count conservation), even
  // with PEs failing mid-run; and when the machine idles, no queue holds
  // unprocessed packets.
  Fem2Stack stack;
  const auto model = fem::make_cantilever_plate({.nx = 12, .ny = 4}, 90.0);
  stack.machine.engine().schedule(200'000, [&] {
    stack.machine.fail_pe(hw::PeId{hw::ClusterId{1}, 1});
  });
  (void)fem::solve_static_parallel(model, "tip-shear", stack.runtime,
                                   {.workers = 6});
  const auto& metrics = stack.machine.metrics();
  std::uint64_t out = 0, in = 0;
  for (const auto& c : metrics.clusters) {
    out += c.packets_out;
    in += c.packets_in;
  }
  EXPECT_EQ(out, in);
  for (std::uint32_t c = 0; c < stack.machine.cluster_count(); ++c)
    EXPECT_EQ(stack.machine.queue_depth(hw::ClusterId{c}), 0u);
  // Busy cycles never exceed wall-clock per PE.
  for (const auto& pe : metrics.pes)
    EXPECT_LE(pe.busy_cycles, stack.machine.now());
}

TEST(Integration, HeapsDrainAfterAllTasksFinish) {
  Fem2Stack stack;
  const auto model = fem::make_cantilever_plate({.nx = 10, .ny = 4}, 75.0);
  (void)fem::solve_static_parallel(model, "tip-shear", stack.runtime,
                                   {.workers = 6});
  EXPECT_EQ(stack.os.live_tasks(), 0u);
  for (std::uint32_t c = 0; c < stack.machine.cluster_count(); ++c) {
    const hw::ClusterId cluster{c};
    EXPECT_EQ(stack.os.heap(cluster).in_use(), 0u) << "cluster " << c;
    EXPECT_EQ(stack.machine.memory_in_use(cluster), 0u) << "cluster " << c;
    stack.os.heap(cluster).check_invariants();
  }
}

TEST(Integration, LargerMachineSolvesFasterInSimulatedTime) {
  const auto model = fem::make_cantilever_plate({.nx = 24, .ny = 8}, 200.0);
  auto elapsed_with = [&](std::size_t clusters, std::size_t ppc,
                          std::uint32_t workers) {
    Fem2Stack stack(machine_config(clusters, ppc));
    (void)fem::solve_static_parallel(model, "tip-shear", stack.runtime,
                                     {.workers = workers});
    return stack.machine.now();
  };
  const auto small = elapsed_with(1, 2, 1);
  const auto large = elapsed_with(4, 8, 8);
  EXPECT_LT(large, small);
}

}  // namespace
}  // namespace fem2
