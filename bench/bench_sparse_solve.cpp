// E15 — fast solve path: CSR assembly + preconditioned CG against the
// direct solvers on the E1 cantilever sheet.
//
// The three host solve paths (dense Cholesky, skyline Cholesky,
// CG+Jacobi) run on the same assembled system; processing cost is a
// deterministic flop model (1 flop = 1 cycle), so the reported
// solve_cycles are exactly reproducible run-over-run:
//   dense:    n³/3 + 2n²               (factor + two triangular solves)
//   skyline:  Σ h_r² + 2 Σ h_r        (envelope heights from the pattern)
//   cg:       iters × per-iteration flops (SpMV + vector ops + D⁻¹ apply)
// Iteration counts come from the actual solves, so a preconditioner
// regression shifts the model immediately.
#include "bench_common.hpp"

#include "fem/assembly.hpp"
#include "support/strings.hpp"

using namespace fem2;

namespace {

struct FlopModel {
  double n = 0;
  double nnz = 0;
  double envelope = 0;   ///< Σ h_r, skyline column heights
  double envelope2 = 0;  ///< Σ h_r²

  double dense() const { return n * n * n / 3.0 + 2.0 * n * n; }
  double skyline() const { return envelope2 + 2.0 * envelope; }
  /// Per iteration: SpMV (2nnz), two dots + three axpy-likes (10n),
  /// Jacobi apply (n).
  double cg_jacobi(double iters) const {
    return iters * (2.0 * nnz + 11.0 * n);
  }
};

FlopModel model_for(const fem::AssembledSystem& system) {
  FlopModel m;
  const auto& a = system.stiffness;
  m.n = static_cast<double>(a.rows());
  m.nnz = static_cast<double>(a.nonzeros());
  const auto row_ptr = a.row_ptr();
  const auto col_idx = a.col_idx();
  for (std::size_t r = 0; r < a.rows(); ++r) {
    if (row_ptr[r] == row_ptr[r + 1]) continue;
    const double h = static_cast<double>(r - col_idx[row_ptr[r]] + 1);
    m.envelope += h;
    m.envelope2 += h * h;
  }
  return m;
}

double max_abs_diff(std::span<const double> a, std::span<const double> b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  bench::init("E15", argc, argv);
  bench::print_header(
      "E15 bench_sparse_solve",
      "CSR + preconditioned CG vs the direct solvers (flop-model cycles)");

  std::vector<std::pair<std::size_t, std::size_t>> grids = {
      {8, 4}, {16, 8}, {32, 8}, {48, 12}};
  if (bench::smoke()) grids = {{8, 4}, {16, 8}};

  support::Table table(
      "Host solve paths on the cantilever sheet (solve_cycles = flop model)");
  table.set_header({"grid", "dofs", "nnz", "dense Mcyc", "skyline Mcyc",
                    "pcg-jacobi Mcyc", "(iters)", "csr bytes"});

  for (const auto& [nx, ny] : grids) {
    const std::string grid = std::to_string(nx) + "x" + std::to_string(ny);
    const auto model = bench::cantilever_sheet(nx, ny);
    const auto system = fem::assemble(model);
    const auto flops = model_for(system);

    const auto dense = fem::solve_static(
        model, "tip-shear", {.kind = fem::SolverKind::DenseCholesky});
    const auto jacobi = fem::solve_static(
        model, "tip-shear",
        {.kind = fem::SolverKind::PreconditionedCg, .tolerance = 1e-10});
    FEM2_CHECK(jacobi.stats.converged);
    const double scale =
        std::max(1.0, la::norm_inf(dense.displacements.values));
    FEM2_CHECK_MSG(max_abs_diff(jacobi.displacements.values,
                                dense.displacements.values) < 1e-6 * scale,
                   "CG+Jacobi disagrees with the dense reference");

    const double dense_cycles = flops.dense();
    const double skyline_cycles = flops.skyline();
    const double jacobi_cycles =
        flops.cg_jacobi(static_cast<double>(jacobi.stats.iterations));

    // Acceptance bar: from the E1 16x8 mesh (n = 288) up, the iterative
    // path must halve the dense processing cost (it is ~8× better there
    // and the gap widens with the grid).  The 8x4 grid sits below the
    // sparse/dense crossover (n = 80, dense ≈ CG) and is reported as the
    // crossover datapoint, not gated.
    if (system.dofs.free_dofs >= 256) {
      FEM2_CHECK_MSG(jacobi_cycles * 2.0 <= dense_cycles,
                     "CG+Jacobi no longer halves the dense solve cost");
    }

    table.row()
        .cell(grid)
        .cell(static_cast<std::uint64_t>(system.dofs.free_dofs))
        .cell(static_cast<std::uint64_t>(system.stiffness.nonzeros()))
        .cell(dense_cycles / 1e6, 3)
        .cell(skyline_cycles / 1e6, 3)
        .cell(jacobi_cycles / 1e6, 3)
        .cell(static_cast<std::uint64_t>(jacobi.stats.iterations))
        .cell(support::format_bytes(system.stiffness.storage_bytes()));

    bench::note("dense_cycles_" + grid, dense_cycles, "cycles");
    bench::note("skyline_cycles_" + grid, skyline_cycles, "cycles");
    bench::note("pcg_jacobi_cycles_" + grid, jacobi_cycles, "cycles");
    bench::note("pcg_jacobi_iters_" + grid,
                static_cast<double>(jacobi.stats.iterations), "iters");
    bench::note("csr_storage_bytes_" + grid,
                static_cast<double>(system.stiffness.storage_bytes()),
                "bytes");
  }
  table.print(std::cout);

  std::cout << "\nShape check: the sparse iterative path beats dense "
               "Cholesky by a growing\nmargin from 16x8 up (the acceptance "
               "bar is ≤50% there); 8x4 marks the\nsparse/dense crossover.\n";
  return bench::finish();
}
