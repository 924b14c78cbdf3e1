// Static solution of assembled systems: direct (skyline / dense Cholesky),
// iterative (CG / Gauss-Seidel / SOR / Jacobi) and the distributed solve on
// the simulated FEM-2 machine.
#pragma once

#include <string>

#include "fem/assembly.hpp"
#include "fem/model.hpp"
#include "la/iterative.hpp"
#include "navm/runtime.hpp"

namespace fem2::fem {

enum class SolverKind {
  SkylineDirect,   ///< profile Cholesky (the classic 1980s FEM solver)
  DenseCholesky,
  ConjugateGradient,
  PreconditionedCg,  ///< Jacobi-preconditioned CG
  GaussSeidel,
  Sor,
  Jacobi,
};

std::string_view solver_kind_name(SolverKind k);

struct SolverOptions {
  SolverKind kind = SolverKind::ConjugateGradient;
  double tolerance = 1e-10;
  std::size_t max_iterations = 20'000;
  double sor_omega = 1.5;
};

struct SolveStats {
  std::string method;
  bool converged = true;
  std::size_t iterations = 0;   ///< 0 for direct methods
  double residual = 0.0;        ///< final relative residual
  std::size_t matrix_storage_bytes = 0;
};

struct StaticSolution {
  Displacements displacements;
  SolveStats stats;
};

/// Solve the reduced system K u = f with the selected method.
StaticSolution solve_reduced(const AssembledSystem& system,
                             std::span<const double> rhs,
                             const SolverOptions& options);

/// Assemble and solve `model` under the named load set.
StaticSolution solve_static(const StructureModel& model,
                            const std::string& load_set,
                            const SolverOptions& options = {});

struct ParallelSolveOptions {
  std::uint32_t workers = 4;
  double tolerance = 1e-10;
  std::size_t max_iterations = 20'000;
  /// Jacobi-precondition the distributed CG (each worker scales its own
  /// residual shard by the local inverse diagonal; no extra shipping).
  bool jacobi_preconditioner = false;
};

/// Solve on the simulated FEM-2 machine: launches the distributed CG driver
/// (navm.cg.driver) as a root task and runs the machine to completion.
/// register_parallel_ops must already have been called on the runtime.
/// Simulation metrics accumulate in the runtime's Os/Machine.
StaticSolution solve_static_parallel(const StructureModel& model,
                                     const std::string& load_set,
                                     navm::Runtime& runtime,
                                     const ParallelSolveOptions& options = {});

}  // namespace fem2::fem
