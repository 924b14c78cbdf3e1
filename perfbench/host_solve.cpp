// host_solve: the E15 comparison as one engineer's analysis.  Each op
// meshes and assembles the 48x12 sheet, solves it by Jacobi-PCG and by
// skyline Cholesky, solves a 12x6 sheet by SOR, recovers stresses,
// serialises the results and puts them into a durable db::Engine.  la and
// fem do most of the work; db sees one large durable write per op.  Set-up
// opens the engine and solves the 48x12 sheet once by skyline, as the
// reference every op's answers are checked against.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <random>

#include "appvm/serialize.hpp"
#include "db/engine.hpp"
#include "fem/analysis.hpp"
#include "fem/assembly.hpp"
#include "fem/solver.hpp"
#include "fem/stress.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

using namespace fem2;

constexpr const char* kLoadSet = "tip-shear";
/// Every op stores a new version under this name; the engine keeps a
/// history window of versions, so the table stops growing after warm-up.
constexpr const char* kResultName = "analysis";

struct OpResult {
  fem::StaticSolution pcg;
  fem::StaticSolution skyline;
  fem::StaticSolution sor;
  std::size_t result_bytes = 0;
  std::uint64_t revision = 0;
};

/// PCG runs at the solver's default tolerance (1e-10, 191 iterations on
/// the 48x12 sheet); SOR at omega 1.5 and tol 1e-8 (4,472 sweeps on 12x6).
fem::StaticSolution solve(const fem::AssembledSystem& system,
                          const std::vector<double>& rhs, fem::SolverKind kind,
                          Tracer* tracer, const char* span_name) {
  Scope span(tracer, span_name);
  fem::SolverOptions options;
  options.kind = kind;
  if (kind == fem::SolverKind::Sor) {
    options.tolerance = 1e-8;
    options.sor_omega = 1.5;
  }
  return fem::solve_reduced(system, rhs, options);
}

OpResult analyse_once(db::Engine& engine, double scale, Tracer* tracer) {
  OpResult r;
  fem::StructureModel sheet;
  fem::StructureModel small;
  {
    Scope span(tracer, "fem.mesh");
    sheet = cantilever_sheet(48, 12, 1'000.0 * scale);
    small = cantilever_sheet(12, 6, 1'000.0 * scale);
  }
  std::unique_ptr<fem::AssembledSystem> system;
  std::unique_ptr<fem::AssembledSystem> small_system;
  std::vector<double> rhs;
  std::vector<double> small_rhs;
  {
    Scope span(tracer, "fem.assemble");
    system = std::make_unique<fem::AssembledSystem>(fem::assemble(sheet));
    rhs = system->load_vector(sheet.load_sets.at(kLoadSet));
    small_system =
        std::make_unique<fem::AssembledSystem>(fem::assemble(small));
    small_rhs = small_system->load_vector(small.load_sets.at(kLoadSet));
  }
  r.pcg = solve(*system, rhs, fem::SolverKind::PreconditionedCg, tracer,
                "la.pcg");
  r.skyline =
      solve(*system, rhs, fem::SolverKind::SkylineDirect, tracer, "la.skyline");
  r.sor = solve(*small_system, small_rhs, fem::SolverKind::Sor, tracer,
                "la.sor");
  fem::AnalysisResult results;
  {
    Scope span(tracer, "fem.stress");
    results.solution = r.skyline;
    results.stresses = fem::compute_stresses(sheet, r.skyline.displacements);
    results.peak = fem::peak_stress(results.stresses);
  }
  std::string text;
  {
    Scope span(tracer, "appvm.serialize");
    text = appvm::serialize_results(results);
  }
  r.result_bytes = text.size();
  {
    Scope span(tracer, "db.put");
    r.revision = engine.put(kResultName, "results", std::move(text));
  }
  {
    Scope span(tracer, "fem.release");
    system.reset();
    small_system.reset();
    results = {};
  }
  return r;
}

/// What every op needs: the durable store in a fresh directory (removed
/// on destruction) and a reference answer for the 48x12 sheet.
struct State {
  std::string dir;
  std::shared_ptr<CountingVfs> vfs;  ///< traced run only
  std::unique_ptr<db::Engine> engine;
  std::vector<double> reference;  ///< skyline displacements at scale 1

  State() = default;
  State(const State&) = delete;
  State& operator=(const State&) = delete;
  ~State() {
    engine.reset();
    remove_directory(dir);
  }
};

std::unique_ptr<State> build_state(const Args& args, Tracer* tracer) {
  auto s = std::make_unique<State>();
  s->dir = fresh_directory(args.work_dir + "/data", "host_solve");
  db::EngineOptions options;  // defaults: fsync per commit, 4 MiB compaction
  options.directory = s->dir;
  if (tracer != nullptr) {
    s->vfs = std::make_shared<CountingVfs>(db::Vfs::posix(), tracer);
    options.vfs = s->vfs;
  }
  s->engine = std::make_unique<db::Engine>(options);
  const auto sheet = cantilever_sheet(48, 12, 1'000.0);
  const auto system = fem::assemble(sheet);
  s->reference = solve(system, system.load_vector(sheet.load_sets.at(kLoadSet)),
                       fem::SolverKind::SkylineDirect, nullptr, "")
                     .displacements.values;
  return s;
}

std::vector<double> unscaled(const fem::StaticSolution& s, double scale) {
  std::vector<double> out = s.displacements.values;
  for (double& v : out) v /= scale;
  return out;
}

}  // namespace

Outcome run_host_solve(const Args& args) {
  Tracer tracer;
  tracer.name_thread("client");
  Tracer* const vfs_tracer = args.trace ? &tracer : nullptr;
  Run run(args, /*rotate_cpus=*/true);
  std::mt19937_64 rng(args.seed);
  std::uniform_int_distribution<int> exponent(-7, 5);

  const auto state =
      run.time_setup([&] { return build_state(args, vfs_tracer); });
  const auto vfs_before =
      state->vfs ? state->vfs->totals() : CountingVfs::Totals{};
  const auto checkpoints_before = state->engine->stats().checkpoints;

  // Unscaled solutions of the run's first op; every later op must match.
  std::vector<double> first_pcg, first_skyline, first_sor;
  const double ref_max = max_abs(state->reference);
  OpResult last;
  std::uint64_t ops = 0;

  for (std::uint64_t op = 1; run.more(); ++op) {
    if (run.setup_due()) {
      const auto t0 = Clock::now();
      {
        const auto probe =
            run.time_setup([&] { return build_state(args, nullptr); });
      }
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
      r = analyse_once(*state->engine, scale, traced ? &tracer : nullptr);
    }
    const auto end = Clock::now();
    tracer.set_on(false);
    ++ops;

    // Output checks, outside the timed region.
    const auto pcg = unscaled(r.pcg, scale);
    const auto skyline = unscaled(r.skyline, scale);
    const auto sor = unscaled(r.sor, scale);
    double diff = 0.0;
    const bool sized = pcg.size() == state->reference.size() &&
                       skyline.size() == state->reference.size();
    for (std::size_t i = 0; sized && i < pcg.size(); ++i)
      diff = std::max({diff, std::abs(pcg[i] - skyline[i]),
                       std::abs(skyline[i] - state->reference[i])});
    bool ok = r.pcg.stats.converged && r.skyline.stats.converged &&
              r.sor.stats.converged && sized && diff <= 1e-6 * ref_max &&
              r.sor.stats.residual <= 1e-8 && r.revision == op;
    if (first_pcg.empty()) {
      first_pcg = pcg;
      first_skyline = skyline;
      first_sor = sor;
    }
    ok = ok && pcg == first_pcg && skyline == first_skyline &&
         sor == first_sor;
    run.record_op(op, start, end, ok, traced);
    last = std::move(r);
  }

  Outcome out;
  out.attempted = run.attempted();
  out.failed = run.failed();
  run.report(out.report);
  std::cout << "host_solve: pcg " << last.pcg.stats.iterations
            << " iterations, sor " << last.sor.stats.iterations
            << " sweeps (residual " << last.sor.stats.residual
            << "), results " << last.result_bytes << " bytes\n";
  if (!args.trace) return out;

  const auto layers = layer_times(tracer.spans(), "op", run.traced_ops(), 1);
  report_layers(layers,
                {{"fem.mesh", "fem.mesh_ms"},
                 {"fem.assemble", "fem.assemble_ms"},
                 {"la.pcg", "la.pcg_ms"},
                 {"la.skyline", "la.skyline_ms"},
                 {"la.sor", "la.sor_ms"},
                 {"fem.stress", "fem.stress_ms"},
                 {"appvm.serialize", "appvm.serialize_ms"},
                 {"db.put", "db.put_ms"},
                 {"fem.release", "fem.release_ms"}},
                out.report);
  out.report.set("la.pcg_iterations",
                 static_cast<double>(last.pcg.stats.iterations), "count");
  out.report.set("la.sor_iterations",
                 static_cast<double>(last.sor.stats.iterations), "count");
  out.report.set("appvm.result_kb",
                 static_cast<double>(last.result_bytes) / 1024.0, "KiB");
  CountingVfs::report(vfs_before, state->vfs->totals(), ops, out.report);
  out.report.set(
      "db.checkpoints",
      static_cast<double>(state->engine->stats().checkpoints -
                          checkpoints_before),
      "count");
  tracer.write_chrome_json(args.work_dir + "/trace-host_solve.json");
  return out;
}

}  // namespace perfbench
