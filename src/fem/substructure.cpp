#include "fem/substructure.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "fem/element.hpp"
#include "la/iterative.hpp"
#include "navm/task.hpp"
#include "navm/value.hpp"

namespace fem2::fem {

namespace {

double element_centroid_x(const StructureModel& model,
                          const Element& element) {
  double x = 0.0;
  for (std::size_t i = 0; i < element.node_count(); ++i)
    x += model.nodes[element.nodes[i]].x;
  return x / static_cast<double>(element.node_count());
}

/// Condensation result sent back to the driver.
struct CondensedShard {
  la::DenseMatrix schur;           ///< local boundary × local boundary
  std::vector<double> g;           ///< condensed load on the local boundary
  std::vector<std::size_t> boundary_global;
};

/// Interior recovery result.
struct InteriorShard {
  std::vector<double> u_i;
  std::vector<std::size_t> interior_global;
};

/// The condensation math shared by the sequential path and the worker task.
/// Returns the Schur complement and condensed load; `factor` keeps the
/// interior factorization for back-substitution.
struct Condensation {
  la::DenseMatrix schur;
  std::vector<double> g;
  std::unique_ptr<la::CholeskyFactorization> factor;  ///< null if no interior
  la::DenseMatrix k_ii_inv_k_ib;  ///< interior × boundary, for back-subst.
};

Condensation condense(const SubstructureData& sub) {
  const std::size_t ni = sub.k_ii.rows();
  const std::size_t nb = sub.boundary_global.size();
  Condensation out;
  out.schur = sub.k_bb;
  out.g.assign(nb, 0.0);
  if (ni == 0) return out;

  out.factor = std::make_unique<la::CholeskyFactorization>(sub.k_ii);
  // K_ii^{-1} K_ib, column by column.
  out.k_ii_inv_k_ib = la::DenseMatrix(ni, nb);
  std::vector<double> col(ni);
  for (std::size_t b = 0; b < nb; ++b) {
    for (std::size_t i = 0; i < ni; ++i) col[i] = sub.k_ib(i, b);
    const auto solved = out.factor->solve(col);
    for (std::size_t i = 0; i < ni; ++i) out.k_ii_inv_k_ib(i, b) = solved[i];
  }
  // Schur = K_bb - K_ibᵀ (K_ii^{-1} K_ib)
  for (std::size_t r = 0; r < nb; ++r) {
    for (std::size_t c = 0; c < nb; ++c) {
      double acc = 0.0;
      for (std::size_t i = 0; i < ni; ++i)
        acc += sub.k_ib(i, r) * out.k_ii_inv_k_ib(i, c);
      out.schur(r, c) -= acc;
    }
  }
  // g = K_ibᵀ K_ii^{-1} f_i
  const auto u_f = out.factor->solve(sub.f_i);
  for (std::size_t r = 0; r < nb; ++r) {
    double acc = 0.0;
    for (std::size_t i = 0; i < ni; ++i) acc += sub.k_ib(i, r) * u_f[i];
    out.g[r] = acc;
  }
  return out;
}

std::vector<double> back_substitute(const SubstructureData& sub,
                                    const Condensation& cond,
                                    std::span<const double> u_b_local) {
  const std::size_t ni = sub.k_ii.rows();
  if (ni == 0) return {};
  // u_i = K_ii^{-1} f_i - (K_ii^{-1} K_ib) u_b
  std::vector<double> u_i = cond.factor->solve(sub.f_i);
  for (std::size_t i = 0; i < ni; ++i) {
    double acc = 0.0;
    for (std::size_t b = 0; b < u_b_local.size(); ++b)
      acc += cond.k_ii_inv_k_ib(i, b) * u_b_local[b];
    u_i[i] -= acc;
  }
  return u_i;
}

std::uint64_t condensation_flops(std::size_t ni, std::size_t nb) {
  return ni * ni * ni / 3 + 2 * ni * ni * nb + ni * nb * nb + 2 * ni * ni;
}

}  // namespace

std::size_t SubstructureData::payload_bytes() const {
  return (k_ii.rows() * k_ii.cols() + k_ib.rows() * k_ib.cols() +
          k_bb.rows() * k_bb.cols() + f_i.size()) *
             sizeof(double) +
         (boundary_global.size() + interior_global.size()) *
             sizeof(std::size_t) +
         64;
}

SubstructurePartition partition_by_x(const StructureModel& model,
                                     std::size_t count) {
  FEM2_CHECK(count > 0);
  double xmin = model.nodes.empty() ? 0.0 : model.nodes[0].x;
  double xmax = xmin;
  for (const auto& n : model.nodes) {
    xmin = std::min(xmin, n.x);
    xmax = std::max(xmax, n.x);
  }
  const double span = std::max(xmax - xmin, 1e-12);

  SubstructurePartition out;
  out.element_groups.resize(count);
  for (std::size_t e = 0; e < model.elements.size(); ++e) {
    const double x = element_centroid_x(model, model.elements[e]);
    auto band = static_cast<std::size_t>((x - xmin) / span *
                                         static_cast<double>(count));
    band = std::min(band, count - 1);
    out.element_groups[band].push_back(e);
  }
  // Drop empty bands (coarse meshes with many requested substructures).
  std::erase_if(out.element_groups,
                [](const auto& group) { return group.empty(); });
  FEM2_CHECK_MSG(!out.element_groups.empty(), "empty partition");
  return out;
}

SubstructureProblem prepare_substructures(
    const StructureModel& model, const AssembledSystem& system,
    std::span<const double> rhs, const SubstructurePartition& partition) {
  const DofMap& map = system.dofs;
  const std::size_t n = map.free_dofs;
  const std::size_t s_count = partition.count();

  // Which substructures touch each reduced dof.
  std::vector<std::uint32_t> touch_count(n, 0);
  std::vector<std::uint32_t> touch_first(n, 0);
  std::vector<std::vector<std::size_t>> sub_dofs(s_count);
  std::vector<std::size_t> full;
  {
    std::vector<std::uint8_t> seen(n, 0);
    for (std::size_t s = 0; s < s_count; ++s) {
      std::fill(seen.begin(), seen.end(), 0);
      for (const std::size_t e : partition.element_groups[s]) {
        element_full_dofs(model.elements[e], map.dofs_per_node, full);
        for (const std::size_t g : full) {
          const std::ptrdiff_t r = map.full_to_reduced[g];
          if (r < 0) continue;
          const auto d = static_cast<std::size_t>(r);
          if (!seen[d]) {
            seen[d] = 1;
            sub_dofs[s].push_back(d);
            if (touch_count[d] == 0) touch_first[d] = static_cast<std::uint32_t>(s);
            touch_count[d] += 1;
          }
        }
      }
      std::sort(sub_dofs[s].begin(), sub_dofs[s].end());
    }
  }

  // Interface = dofs shared by two or more substructures.
  SubstructureProblem problem;
  std::vector<std::ptrdiff_t> interface_index(n, -1);
  for (std::size_t d = 0; d < n; ++d) {
    FEM2_CHECK_MSG(touch_count[d] > 0,
                   "free dof not covered by any substructure");
    if (touch_count[d] > 1) {
      interface_index[d] =
          static_cast<std::ptrdiff_t>(problem.interface_to_reduced.size());
      problem.interface_to_reduced.push_back(d);
    }
  }

  problem.interface_rhs.assign(problem.interface_to_reduced.size(), 0.0);
  for (std::size_t b = 0; b < problem.interface_to_reduced.size(); ++b)
    problem.interface_rhs[b] = rhs[problem.interface_to_reduced[b]];

  // Per-substructure local systems assembled from that group's elements.
  problem.subs.resize(s_count);
  for (std::size_t s = 0; s < s_count; ++s) {
    auto& sub = problem.subs[s];
    std::vector<std::size_t> interior;
    std::vector<std::size_t> boundary;
    for (const std::size_t d : sub_dofs[s]) {
      if (interface_index[d] >= 0) {
        boundary.push_back(d);
      } else {
        interior.push_back(d);
      }
    }
    std::map<std::size_t, std::size_t> local_i;  // reduced dof -> interior idx
    std::map<std::size_t, std::size_t> local_b;
    for (std::size_t i = 0; i < interior.size(); ++i) local_i[interior[i]] = i;
    for (std::size_t b = 0; b < boundary.size(); ++b) local_b[boundary[b]] = b;

    sub.k_ii = la::DenseMatrix(interior.size(), interior.size());
    sub.k_ib = la::DenseMatrix(interior.size(), boundary.size());
    sub.k_bb = la::DenseMatrix(boundary.size(), boundary.size());
    sub.f_i.assign(interior.size(), 0.0);
    sub.interior_global = interior;
    sub.boundary_global.reserve(boundary.size());
    for (const std::size_t d : boundary)
      sub.boundary_global.push_back(
          static_cast<std::size_t>(interface_index[d]));

    for (const std::size_t e : partition.element_groups[s]) {
      const Element& element = model.elements[e];
      const ElementMatrix k = element_stiffness(model, element);
      element_full_dofs(element, map.dofs_per_node, full);
      for (std::size_t r = 0; r < full.size(); ++r) {
        const std::ptrdiff_t rr = map.full_to_reduced[full[r]];
        if (rr < 0) continue;
        const std::size_t rd = static_cast<std::size_t>(rr);
        const bool r_interior = local_i.contains(rd);
        for (std::size_t c = 0; c < full.size(); ++c) {
          const std::ptrdiff_t rc = map.full_to_reduced[full[c]];
          if (rc < 0) continue;
          const std::size_t cd = static_cast<std::size_t>(rc);
          const bool c_interior = local_i.contains(cd);
          const double v = k(r, c);
          if (v == 0.0) continue;
          if (r_interior && c_interior) {
            sub.k_ii(local_i.at(rd), local_i.at(cd)) += v;
          } else if (r_interior && !c_interior) {
            sub.k_ib(local_i.at(rd), local_b.at(cd)) += v;
          } else if (!r_interior && !c_interior) {
            sub.k_bb(local_b.at(rd), local_b.at(cd)) += v;
          }
          // interior-row entries cover the (boundary, interior) block by
          // symmetry; it is not stored.
        }
      }
    }
    for (std::size_t i = 0; i < interior.size(); ++i)
      sub.f_i[i] = rhs[interior[i]];
  }
  return problem;
}

namespace {

StaticSolution compose_solution(const AssembledSystem& system,
                                const SubstructureProblem& problem,
                                std::span<const double> u_b,
                                const std::vector<InteriorShard>& interiors,
                                const std::string& method,
                                std::span<const double> rhs,
                                SubstructureStats* stats) {
  std::vector<double> reduced(system.dofs.free_dofs, 0.0);
  for (std::size_t b = 0; b < u_b.size(); ++b)
    reduced[problem.interface_to_reduced[b]] = u_b[b];
  for (const auto& shard : interiors)
    for (std::size_t i = 0; i < shard.u_i.size(); ++i)
      reduced[shard.interior_global[i]] = shard.u_i[i];

  StaticSolution out;
  out.displacements = system.expand(reduced);
  out.stats.method = method;
  out.stats.residual = la::relative_residual(system.stiffness, reduced, rhs);
  out.stats.converged = out.stats.residual < 1e-8;
  out.stats.matrix_storage_bytes = system.stiffness.storage_bytes();
  if (stats != nullptr) {
    stats->substructures = problem.subs.size();
    stats->interface_dofs = problem.interface_dofs();
    stats->residual = out.stats.residual;
  }
  return out;
}

std::span<const double> rhs_for(const StructureModel& model,
                                const AssembledSystem& system,
                                const std::string& load_set,
                                std::vector<double>& storage) {
  const auto it = model.load_sets.find(load_set);
  if (it == model.load_sets.end())
    throw support::Error("unknown load set: " + load_set);
  storage = system.load_vector(it->second);
  return storage;
}

}  // namespace

StaticSolution solve_substructured(const StructureModel& model,
                                   const std::string& load_set,
                                   const SubstructurePartition& partition,
                                   SubstructureStats* stats) {
  const AssembledSystem system = assemble(model);
  std::vector<double> rhs_storage;
  const auto rhs = rhs_for(model, system, load_set, rhs_storage);
  const SubstructureProblem problem =
      prepare_substructures(model, system, rhs, partition);

  const std::size_t nb = problem.interface_dofs();
  la::DenseMatrix interface(nb, nb);
  std::vector<double> interface_rhs = problem.interface_rhs;
  std::vector<Condensation> condensed;
  condensed.reserve(problem.subs.size());
  for (const auto& sub : problem.subs) {
    condensed.push_back(condense(sub));
    const auto& cond = condensed.back();
    const auto& bg = sub.boundary_global;
    for (std::size_t r = 0; r < bg.size(); ++r) {
      interface_rhs[bg[r]] -= cond.g[r];
      for (std::size_t c = 0; c < bg.size(); ++c)
        interface(bg[r], bg[c]) += cond.schur(r, c);
    }
  }

  std::vector<double> u_b;
  if (nb > 0) {
    la::CholeskyFactorization chol(interface);
    u_b = chol.solve(interface_rhs);
  }

  std::vector<InteriorShard> interiors;
  interiors.reserve(problem.subs.size());
  for (std::size_t s = 0; s < problem.subs.size(); ++s) {
    const auto& sub = problem.subs[s];
    std::vector<double> u_b_local(sub.boundary_global.size());
    for (std::size_t b = 0; b < u_b_local.size(); ++b)
      u_b_local[b] = u_b[sub.boundary_global[b]];
    interiors.push_back(
        {back_substitute(sub, condensed[s], u_b_local), sub.interior_global});
  }
  return compose_solution(system, problem, u_b, interiors,
                          "substructured-condensation", rhs, stats);
}

// ---------------------------------------------------------------------------
// Parallel variant

namespace {

struct SubWorkerParams {
  SubstructureData data;
  hw::ClusterId driver_cluster;
  std::uint64_t collector = 0;
};

/// Driver task result: everything the host needs to recompose the solution.
struct SubComposite {
  std::vector<double> u_b;
  std::vector<InteriorShard> interiors;
  std::vector<std::size_t> interface_to_reduced;
};

struct SubDriverParams {
  SubstructureProblem problem;
};

navm::Coro sub_worker_body(navm::TaskContext& ctx) {
  const auto& wp = ctx.params().as<SubWorkerParams>();
  const auto& sub = wp.data;
  const std::size_t ni = sub.k_ii.rows();
  const std::size_t nb = sub.boundary_global.size();

  // Phase 1: condense.  Interior data never leaves this task.
  ctx.charge_flops(condensation_flops(ni, nb));
  Condensation cond = condense(sub);

  CondensedShard shard{cond.schur, cond.g, sub.boundary_global};
  const std::size_t bytes = (nb * nb + nb) * sizeof(double) + 32;
  co_await ctx.deposit(wp.driver_cluster, wp.collector,
                       sysvm::Payload::of(std::move(shard), bytes));

  // Phase 2: the driver resumes us with our interface displacement slice.
  const sysvm::Payload datum = co_await ctx.pause();
  const auto& u_b_local = navm::as_reals(datum);
  ctx.charge_flops(2 * ni * nb + ni * ni);
  InteriorShard result{back_substitute(sub, cond, u_b_local),
                       sub.interior_global};
  co_return sysvm::Payload::of(std::move(result),
                               (ni + sub.interior_global.size()) * 8 + 16);
}

navm::Coro sub_driver_body(navm::TaskContext& ctx) {
  const auto& dp = ctx.params().as<SubDriverParams>();
  const auto& problem = dp.problem;
  const auto k = static_cast<std::uint32_t>(problem.subs.size());
  const std::size_t nb = problem.interface_dofs();

  const std::uint64_t collector = ctx.make_collector(k);
  const auto children =
      ctx.initiate(kSubWorkerTask, k, [&](std::uint32_t i) {
        SubWorkerParams wp{problem.subs[i], ctx.cluster(), collector};
        const std::size_t bytes = problem.subs[i].payload_bytes();
        return sysvm::Payload::of(std::move(wp), bytes);
      });

  // Assemble and solve the interface system from the deposited Schur
  // complements.
  auto deposits = co_await ctx.collect(collector);
  la::DenseMatrix interface(nb, nb);
  std::vector<double> rhs = problem.interface_rhs;
  for (const auto& d : deposits) {
    const auto& shard = d.as<CondensedShard>();
    const auto& bg = shard.boundary_global;
    for (std::size_t r = 0; r < bg.size(); ++r) {
      rhs[bg[r]] -= shard.g[r];
      for (std::size_t c = 0; c < bg.size(); ++c)
        interface(bg[r], bg[c]) += shard.schur(r, c);
    }
  }
  std::vector<double> u_b;
  if (nb > 0) {
    ctx.charge_flops(nb * nb * nb / 3 + 2 * nb * nb);
    la::CholeskyFactorization chol(interface);
    u_b = chol.solve(rhs);
  }

  // Waking each worker with its own slice is a (non-uniform) broadcast.
  (void)co_await ctx.child_pauses(k);
  const auto paused = ctx.take_paused_children();
  (void)paused;  // workers were collected via deposits; resume by identity
  for (std::size_t i = 0; i < problem.subs.size(); ++i) {
    const auto& bg = problem.subs[i].boundary_global;
    std::vector<double> slice(bg.size());
    for (std::size_t b = 0; b < bg.size(); ++b) slice[b] = u_b[bg[b]];
    ctx.resume_child(children[i], navm::payload_reals(std::move(slice)));
  }

  auto results = co_await ctx.join(k);
  SubComposite composite;
  composite.u_b = std::move(u_b);
  composite.interface_to_reduced = problem.interface_to_reduced;
  for (auto& r : results)
    composite.interiors.push_back(r.as<InteriorShard>());
  std::size_t bytes = composite.u_b.size() * 8 + 32;
  for (const auto& shard : composite.interiors)
    bytes += shard.u_i.size() * 16;
  co_return sysvm::Payload::of(std::move(composite), bytes);
}

}  // namespace

void register_substructure_tasks(navm::Runtime& runtime) {
  runtime.define_task(kSubWorkerTask, sub_worker_body, {2048, 16384});
  runtime.define_task(kSubDriverTask, sub_driver_body, {2048, 16384});
}

StaticSolution solve_substructured_parallel(
    const StructureModel& model, const std::string& load_set,
    const SubstructurePartition& partition, navm::Runtime& runtime,
    SubstructureStats* stats) {
  const AssembledSystem system = assemble(model);
  std::vector<double> rhs_storage;
  const auto rhs = rhs_for(model, system, load_set, rhs_storage);
  SubstructureProblem problem =
      prepare_substructures(model, system, rhs, partition);

  std::size_t bytes = problem.interface_rhs.size() * 8 + 64;
  for (const auto& sub : problem.subs) bytes += sub.payload_bytes();
  SubDriverParams params{std::move(problem)};
  const auto task = runtime.launch(
      kSubDriverTask, sysvm::Payload::of(std::move(params), bytes));
  runtime.run();
  FEM2_CHECK_MSG(runtime.os().task_finished(task),
                 "parallel substructure solve did not complete");

  const auto& payload = runtime.result(task);
  const auto& composite = payload.as<SubComposite>();

  // Recompose on the host (the driver returned all shards).
  const SubstructureProblem recompose_info{
      {}, {}, composite.interface_to_reduced};
  StaticSolution out =
      compose_solution(system, recompose_info, composite.u_b,
                       composite.interiors, "fem2-substructured", rhs, stats);
  if (stats != nullptr) stats->substructures = partition.count();
  return out;
}

}  // namespace fem2::fem
