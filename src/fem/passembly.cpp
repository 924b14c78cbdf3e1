#include "fem/passembly.hpp"

#include <algorithm>

#include "fem/element.hpp"
#include "navm/parops.hpp"
#include "navm/task.hpp"
#include "navm/value.hpp"

namespace fem2::fem {

namespace {

struct AssembleWorkerParams {
  // The model is shipped whole (node coordinates and materials are needed
  // by every element); element ranges partition the work.
  StructureModel model;
  std::size_t element_begin = 0;
  std::size_t element_end = 0;
};

struct AssembleDriverParams {
  StructureModel model;
  std::uint32_t workers = 1;
};

/// Worker result: raw triplets in *full* dof numbering (the driver applies
/// the constraint elimination so workers stay independent of the DofMap).
/// `element_begin` orders shards in the merge: child results arrive in a
/// timing-dependent order (faults perturb it), and the downstream
/// constraint elimination sums floating-point contributions in merge order.
struct TripletShard {
  std::size_t element_begin = 0;
  std::vector<la::Triplet> triplets;
};

struct AssembledPayload {
  std::vector<la::Triplet> triplets;  ///< full-dof triplets, merged
};

navm::Coro assemble_worker_body(navm::TaskContext& ctx) {
  const auto& p = ctx.params().as<AssembleWorkerParams>();
  const std::size_t ndof = p.model.dofs_per_node();

  TripletShard shard;
  shard.element_begin = p.element_begin;
  std::uint64_t flops = 0;
  std::vector<std::size_t> full;
  for (std::size_t e = p.element_begin; e < p.element_end; ++e) {
    const Element& element = p.model.elements[e];
    const ElementMatrix k = element_stiffness(p.model, element);
    element_full_dofs(element, ndof, full);
    flops += element_assembly_flops(element);
    for (std::size_t r = 0; r < full.size(); ++r) {
      for (std::size_t c = 0; c < full.size(); ++c) {
        const double v = k(r, c);
        if (v == 0.0) continue;
        shard.triplets.push_back({full[r], full[c], v});
      }
    }
  }
  ctx.charge_flops(flops);
  ctx.charge_words(shard.triplets.size() * 3);
  const std::size_t bytes = shard.triplets.size() * sizeof(la::Triplet) + 16;
  co_return sysvm::Payload::of(std::move(shard), bytes);
}

navm::Coro assemble_driver_body(navm::TaskContext& ctx) {
  const auto& p = ctx.params().as<AssembleDriverParams>();
  const auto k = static_cast<std::uint32_t>(std::min<std::size_t>(
      p.workers, std::max<std::size_t>(p.model.elements.size(), 1)));

  const auto results = co_await navm::forall(
      ctx, kAssembleWorkerTask, k, [&](std::uint32_t i) {
        AssembleWorkerParams wp;
        wp.model = p.model;
        wp.element_begin = navm::block_begin(p.model.elements.size(), k, i);
        wp.element_end = navm::block_begin(p.model.elements.size(), k, i + 1);
        return sysvm::Payload::of(std::move(wp),
                                  p.model.storage_bytes() + 32);
      });

  // Merge in element order, not child-arrival order, so the assembled
  // triplet stream (and every floating-point sum built from it) is
  // identical however worker terminations interleave.
  std::vector<const TripletShard*> shards;
  shards.reserve(results.size());
  for (const auto& r : results) shards.push_back(&r.as<TripletShard>());
  std::sort(shards.begin(), shards.end(),
            [](const TripletShard* a, const TripletShard* b) {
              return a->element_begin < b->element_begin;
            });
  AssembledPayload merged;
  for (const TripletShard* shard : shards) {
    merged.triplets.insert(merged.triplets.end(), shard->triplets.begin(),
                           shard->triplets.end());
  }
  ctx.charge_words(merged.triplets.size() * 3);  // the merge pass
  const std::size_t bytes =
      merged.triplets.size() * sizeof(la::Triplet) + 32;
  co_return sysvm::Payload::of(std::move(merged), bytes);
}

struct StressWorkerParams {
  StructureModel model;
  Displacements displacements;
  std::size_t element_begin = 0;
  std::size_t element_end = 0;
};

struct StressDriverParams {
  StructureModel model;
  Displacements displacements;
  std::uint32_t workers = 1;
};

struct StressShard {
  std::vector<ElementStress> stresses;
};

navm::Coro stress_worker_body(navm::TaskContext& ctx) {
  const auto& p = ctx.params().as<StressWorkerParams>();
  StressShard shard;
  shard.stresses.reserve(p.element_end - p.element_begin);
  std::uint64_t flops = 0;
  for (std::size_t e = p.element_begin; e < p.element_end; ++e) {
    shard.stresses.push_back(element_stress(p.model, e, p.displacements));
    flops += element_stress_flops(p.model.elements[e]);
  }
  ctx.charge_flops(flops);
  const std::size_t bytes =
      shard.stresses.size() * sizeof(ElementStress) + 16;
  co_return sysvm::Payload::of(std::move(shard), bytes);
}

navm::Coro stress_driver_body(navm::TaskContext& ctx) {
  const auto& p = ctx.params().as<StressDriverParams>();
  const auto k = static_cast<std::uint32_t>(std::min<std::size_t>(
      p.workers, std::max<std::size_t>(p.model.elements.size(), 1)));

  const auto results = co_await navm::forall(
      ctx, kStressWorkerTask, k, [&](std::uint32_t i) {
        StressWorkerParams wp;
        wp.model = p.model;
        wp.displacements = p.displacements;
        wp.element_begin = navm::block_begin(p.model.elements.size(), k, i);
        wp.element_end = navm::block_begin(p.model.elements.size(), k, i + 1);
        const std::size_t bytes =
            p.model.storage_bytes() +
            p.displacements.values.size() * sizeof(double) + 32;
        return sysvm::Payload::of(std::move(wp), bytes);
      });

  // Merge shards back into element order.
  StressShard merged;
  merged.stresses.resize(p.model.elements.size());
  for (const auto& r : results) {
    const auto& shard = r.as<StressShard>();
    for (const auto& s : shard.stresses) merged.stresses[s.element] = s;
  }
  ctx.charge_words(merged.stresses.size());
  const std::size_t bytes =
      merged.stresses.size() * sizeof(ElementStress) + 16;
  co_return sysvm::Payload::of(std::move(merged), bytes);
}

}  // namespace

void register_stress_tasks(navm::Runtime& runtime) {
  runtime.define_task(kStressWorkerTask, stress_worker_body, {1024, 8192});
  runtime.define_task(kStressDriverTask, stress_driver_body, {1024, 8192});
}

std::vector<ElementStress> compute_stresses_parallel(
    const StructureModel& model, const Displacements& u,
    navm::Runtime& runtime, std::uint32_t workers,
    ParallelStressStats* stats) {
  const hw::Cycles start = runtime.os().now();
  StressDriverParams params;
  params.model = model;
  params.displacements = u;
  params.workers = workers;
  const std::size_t bytes =
      model.storage_bytes() + u.values.size() * sizeof(double) + 32;
  const auto task = runtime.launch(
      kStressDriverTask, sysvm::Payload::of(std::move(params), bytes));
  runtime.run();
  FEM2_CHECK_MSG(runtime.os().task_finished(task),
                 "parallel stress recovery did not complete");
  auto stresses = runtime.result(task).as<StressShard>().stresses;
  if (stats != nullptr) {
    stats->workers = workers;
    stats->elapsed = runtime.os().now() - start;
  }
  return stresses;
}

void register_assembly_tasks(navm::Runtime& runtime) {
  runtime.define_task(kAssembleWorkerTask, assemble_worker_body,
                      {1024, 8192});
  runtime.define_task(kAssembleDriverTask, assemble_driver_body,
                      {1024, 8192});
}

AssembledSystem assemble_parallel(const StructureModel& model,
                                  navm::Runtime& runtime,
                                  std::uint32_t workers,
                                  ParallelAssemblyStats* stats) {
  model.validate();
  const hw::Cycles start = runtime.os().now();

  AssembleDriverParams params;
  params.model = model;
  params.workers = workers;
  const auto task = runtime.launch(
      kAssembleDriverTask,
      sysvm::Payload::of(std::move(params), model.storage_bytes() + 32));
  runtime.run();
  FEM2_CHECK_MSG(runtime.os().task_finished(task),
                 "parallel assembly did not complete");
  const auto& merged = runtime.result(task).as<AssembledPayload>();

  // Constraint elimination on the host, through fem::assemble's scatter:
  // the triplets arrive in serial element, row and column order, so every
  // sum is bitwise equal to the serial path's.  Workers skip exact zeros,
  // which cannot change a sum that starts from +0.0.
  SystemScatter scatter(model);
  for (const auto& t : merged.triplets)
    if (const std::ptrdiff_t row = scatter.free_row(t.row); row >= 0)
      scatter.add(static_cast<std::size_t>(row), t.col, t.value);
  AssembledSystem system = scatter.finish();

  if (stats != nullptr) {
    stats->workers = workers;
    stats->elapsed = runtime.os().now() - start;
    stats->triplets = merged.triplets.size();
  }
  return system;
}

}  // namespace fem2::fem
