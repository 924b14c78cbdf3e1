#include "fem/solver.hpp"

#include "la/skyline.hpp"
#include "navm/parops.hpp"

namespace fem2::fem {

std::string_view solver_kind_name(SolverKind k) {
  switch (k) {
    case SolverKind::SkylineDirect: return "skyline-cholesky";
    case SolverKind::DenseCholesky: return "dense-cholesky";
    case SolverKind::ConjugateGradient: return "cg";
    case SolverKind::PreconditionedCg: return "pcg-jacobi";
    case SolverKind::GaussSeidel: return "gauss-seidel";
    case SolverKind::Sor: return "sor";
    case SolverKind::Jacobi: return "jacobi";
  }
  FEM2_UNREACHABLE("bad SolverKind");
}

StaticSolution solve_reduced(const AssembledSystem& system,
                             std::span<const double> rhs,
                             const SolverOptions& options) {
  const la::CsrMatrix& k = system.stiffness;
  FEM2_CHECK(rhs.size() == k.rows());

  StaticSolution out;
  out.stats.method = std::string(solver_kind_name(options.kind));
  out.stats.matrix_storage_bytes = k.storage_bytes();

  la::SolveOptions iter;
  iter.tolerance = options.tolerance;
  iter.max_iterations = options.max_iterations;
  iter.sor_omega = options.sor_omega;

  // Direct methods fill x and the residual; iterative ones the whole
  // report.
  la::SolveResult result;
  result.report.converged = true;
  switch (options.kind) {
    case SolverKind::SkylineDirect: {
      la::SkylineMatrix sky = la::SkylineMatrix::from_csr(k);
      out.stats.matrix_storage_bytes = sky.storage_bytes();
      sky.factorize();
      result.x = sky.solve(rhs);
      result.report.residual_norm = la::relative_residual(k, result.x, rhs);
      break;
    }
    case SolverKind::DenseCholesky: {
      const la::DenseMatrix dense = k.to_dense();
      out.stats.matrix_storage_bytes =
          dense.rows() * dense.cols() * sizeof(double);
      la::CholeskyFactorization chol(dense);
      result.x = chol.solve(rhs);
      result.report.residual_norm = la::relative_residual(k, result.x, rhs);
      break;
    }
    case SolverKind::ConjugateGradient:
    case SolverKind::PreconditionedCg:
      iter.jacobi_preconditioner =
          options.kind == SolverKind::PreconditionedCg;
      result = la::conjugate_gradient(k, rhs, iter);
      break;
    case SolverKind::GaussSeidel:
      iter.sor_omega = 1.0;
      [[fallthrough]];
    case SolverKind::Sor:
      result = la::sor(k, rhs, iter);
      break;
    case SolverKind::Jacobi:
      result = la::jacobi(k, rhs, iter);
      break;
  }

  out.stats.converged = result.report.converged;
  out.stats.iterations = result.report.iterations;
  out.stats.residual = result.report.residual_norm;
  out.displacements = system.expand(result.x);
  return out;
}

StaticSolution solve_static(const StructureModel& model,
                            const std::string& load_set,
                            const SolverOptions& options) {
  const auto it = model.load_sets.find(load_set);
  if (it == model.load_sets.end())
    throw support::Error("unknown load set: " + load_set);
  const AssembledSystem system = assemble(model);
  const auto rhs = system.load_vector(it->second);
  return solve_reduced(system, rhs, options);
}

StaticSolution solve_static_parallel(const StructureModel& model,
                                     const std::string& load_set,
                                     navm::Runtime& runtime,
                                     const ParallelSolveOptions& options) {
  const auto it = model.load_sets.find(load_set);
  if (it == model.load_sets.end())
    throw support::Error("unknown load set: " + load_set);

  const AssembledSystem system = assemble(model);

  navm::CgProblem problem;
  problem.a = system.stiffness;
  problem.b = system.load_vector(it->second);
  problem.workers = options.workers;
  problem.tolerance = options.tolerance;
  problem.max_iterations = options.max_iterations;
  problem.jacobi_preconditioner = options.jacobi_preconditioner;

  const auto task = runtime.launch(navm::kCgDriverTask,
                                   navm::make_cg_problem(std::move(problem)));
  runtime.run();
  FEM2_CHECK_MSG(runtime.os().task_finished(task),
                 "parallel solve did not complete");
  const auto& result = navm::as_cg_result(runtime.result(task));

  StaticSolution out;
  out.displacements = system.expand(result.x);
  out.stats.method = options.jacobi_preconditioner
                         ? "fem2-distributed-pcg-jacobi"
                         : "fem2-distributed-cg";
  out.stats.converged = result.converged;
  out.stats.iterations = result.iterations;
  out.stats.residual = result.residual;
  out.stats.matrix_storage_bytes = system.stiffness.storage_bytes();
  return out;
}

}  // namespace fem2::fem
