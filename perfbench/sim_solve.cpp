// sim_solve: the E1/E12 distributed solve on the simulated machine.  Each
// op builds a fresh 4-cluster x 4-PE stack, assembles the 16x8 cantilever
// sheet, runs navm.cg.driver with 8 workers at tol 1e-8 to completion and
// tears the stack down.  Nearly all host time is in hw, sysvm and navm.
#include <cmath>
#include <iostream>
#include <memory>
#include <random>

#include "fem/assembly.hpp"
#include "fem/solver.hpp"
#include "harness.hpp"
#include "hw/machine.hpp"
#include "navm/parops.hpp"
#include "navm/runtime.hpp"
#include "sysvm/os.hpp"

namespace perfbench {
namespace {

using namespace fem2;

constexpr const char* kLoadSet = "tip-shear";

hw::MachineConfig machine_4x4() {
  hw::MachineConfig config;
  config.clusters = 4;
  config.pes_per_cluster = 4;
  config.memory_per_cluster = 64u << 20;
  return config;
}

/// What every op needs: the model and a host (skyline) reference answer.
struct State {
  fem::StructureModel model;
  std::vector<double> reference;  ///< full displacement vector, scale 1
};

State build_state() {
  State s;
  s.model = cantilever_sheet(16, 8, 1'000.0);
  const auto system = fem::assemble(s.model);
  const auto rhs = system.load_vector(s.model.load_sets.at(kLoadSet));
  fem::SolverOptions direct;
  direct.kind = fem::SolverKind::SkylineDirect;
  s.reference = fem::solve_reduced(system, rhs, direct).displacements.values;
  return s;
}

struct OpResult {
  std::vector<double> displacements;
  bool converged = false;
  std::size_t iterations = 0;
  hw::Cycles cycles = 0;
  // Counts read at the layer boundaries (traced ops only).
  std::uint64_t events = 0;
  std::uint64_t phases = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::size_t mem_high_water = 0;
  std::uint64_t steps = 0;
  std::uint64_t dispatches = 0;
};

OpResult solve_once(const State& state, double scale, Tracer* tracer) {
  OpResult r;
  std::unique_ptr<hw::Machine> machine;
  std::unique_ptr<sysvm::Os> os;
  std::unique_ptr<navm::Runtime> runtime;
  std::uint64_t phases = 0;
  {
    Scope span(tracer, "sysvm.stack");
    machine = std::make_unique<hw::Machine>(machine_4x4());
    os = std::make_unique<sysvm::Os>(*machine);
    runtime = std::make_unique<navm::Runtime>(*os);
    navm::register_parallel_ops(*runtime);
  }
  if (tracer != nullptr)
    machine->engine().add_barrier_hook([&phases] { ++phases; });
  std::unique_ptr<fem::AssembledSystem> system;
  navm::CgProblem problem;
  {
    Scope span(tracer, "fem.assemble");
    system = std::make_unique<fem::AssembledSystem>(fem::assemble(state.model));
    problem.b = system->load_vector(state.model.load_sets.at(kLoadSet));
    for (double& v : problem.b) v *= scale;
  }
  sysvm::TaskId task{};
  {
    Scope span(tracer, "navm.launch");
    problem.a = system->stiffness;
    problem.workers = 8;
    problem.tolerance = 1e-8;
    task = runtime->launch(navm::kCgDriverTask,
                           navm::make_cg_problem(std::move(problem)));
  }
  {
    Scope span(tracer, "navm.run");
    runtime->run();
  }
  {
    Scope span(tracer, "navm.result");
    if (os->task_finished(task)) {
      const auto& result = navm::as_cg_result(runtime->result(task));
      r.converged = result.converged;
      r.iterations = result.iterations;
      r.displacements = system->expand(result.x).values;
    }
    r.cycles = machine->now();
    if (tracer != nullptr) {
      const auto& m = machine->metrics();
      r.events = machine->engine().processed();
      r.phases = phases;
      r.messages = m.total_messages();
      r.bytes = m.total_bytes();
      r.mem_high_water = m.memory_high_water();
      r.steps = os->stats().steps_executed;
      r.dispatches = os->stats().kernel_dispatches;
    }
  }
  {
    Scope span(tracer, "sysvm.teardown");
    runtime.reset();
    os.reset();
    machine.reset();
    system.reset();
  }
  return r;
}

}  // namespace

Outcome run_sim_solve(const Args& args) {
  Tracer tracer;
  tracer.name_thread("client");
  Run run(args, /*rotate_cpus=*/true);
  std::mt19937_64 rng(args.seed);
  std::uniform_int_distribution<int> exponent(-7, 5);

  const State state = run.time_setup(build_state);

  // Check values fixed by the run's first op, in scale-1 units.
  std::vector<double> first_u;
  hw::Cycles first_cycles = 0;
  double worst_ref_err = 0.0;
  OpResult last_traced;

  const double ref_max = max_abs(state.reference);

  for (std::uint64_t op = 1; run.more(); ++op) {
    if (run.setup_due()) {
      const auto t0 = Clock::now();
      { const State probe = run.time_setup(build_state); }
      run.add_pause(ms_between(t0, Clock::now()));
    }
    const bool traced = run.block_traced();
    tracer.set_on(traced);
    Tracer::set_thread_op(op);
    const double scale = std::ldexp(1.0, exponent(rng));

    const auto start = Clock::now();
    OpResult r;
    {
      Scope span(traced ? &tracer : nullptr, "op");
      r = solve_once(state, scale, traced ? &tracer : nullptr);
    }
    const auto end = Clock::now();
    tracer.set_on(false);

    // Output checks, outside the timed region.
    bool ok = r.converged &&
              r.displacements.size() == state.reference.size();
    if (ok) {
      std::vector<double> unit(r.displacements.size());
      double err = 0.0;
      for (std::size_t i = 0; i < unit.size(); ++i) {
        unit[i] = r.displacements[i] / scale;
        err = std::max(err, std::abs(unit[i] - state.reference[i]));
      }
      worst_ref_err = std::max(worst_ref_err, err / ref_max);
      ok = err <= 1e-6 * ref_max;
      if (first_u.empty()) {
        first_u = unit;
        first_cycles = r.cycles;
      }
      ok = ok && unit == first_u && r.cycles == first_cycles;
    }
    if (traced) last_traced = r;
    run.record_op(op, start, end, ok, traced);
  }

  Outcome out;
  out.attempted = run.attempted();
  out.failed = run.failed();
  run.report(out.report);
  std::cout << "sim_solve: simulated Mcycles " << first_cycles / 1e6
            << ", worst error vs host skyline " << worst_ref_err << "\n";
  if (!args.trace) {
    out.report.set("sim_mcycles", static_cast<double>(first_cycles) / 1e6,
                   "Mcycles");
    return out;
  }

  const auto layers =
      layer_times(tracer.spans(), "op", run.traced_ops(), 1);
  report_layers(layers,
                {{"navm.run", "navm.run_ms"},
                 {"sysvm.stack", "sysvm.stack_ms"},
                 {"sysvm.teardown", "sysvm.teardown_ms"},
                 {"fem.assemble", "fem.assemble_ms"},
                 {"navm.launch", "navm.launch_ms"},
                 {"navm.result", "navm.result_ms"}},
                out.report);
  const auto& t = last_traced;
  const double run_ms = mean(layers.self_ms.count("navm.run")
                                 ? layers.self_ms.at("navm.run")
                                 : std::vector<double>{});
  out.report.set("hw.events", static_cast<double>(t.events), "count");
  out.report.set("hw.phases", static_cast<double>(t.phases), "count");
  out.report.set("hw.events_per_phase",
                 t.phases ? static_cast<double>(t.events) /
                                static_cast<double>(t.phases)
                          : 0.0,
                 "ratio");
  out.report.set("hw.ns_per_event",
                 t.events ? run_ms * 1e6 / static_cast<double>(t.events) : 0.0,
                 "ns");
  out.report.set("hw.messages", static_cast<double>(t.messages), "count");
  out.report.set("hw.bytes", static_cast<double>(t.bytes), "B");
  out.report.set("hw.mem_high_water_kb",
                 static_cast<double>(t.mem_high_water) / 1024.0, "KiB");
  out.report.set("hw.sim_mcycles", static_cast<double>(t.cycles) / 1e6,
                 "Mcycles");
  out.report.set("sysvm.steps", static_cast<double>(t.steps), "count");
  out.report.set("sysvm.dispatches", static_cast<double>(t.dispatches),
                 "count");
  out.report.set("navm.cg_iterations", static_cast<double>(t.iterations),
                 "count");
  tracer.write_chrome_json(args.work_dir + "/trace-sim_solve.json");
  return out;
}

}  // namespace perfbench
