// Allocation budget of the simulation hot path.
//
// Every form of the global operator new/delete is replaced by a counting
// one (which is why this test is its own executable).  The test runs the
// 16x8 distributed CG solve ("navm.cg.driver", 8 workers, tol 1e-8) on a
// 4-cluster x 4-PE machine, the perfbench sim_solve workload, and counts
// the heap allocations made inside navm::Runtime::run() only.  Events,
// messages and simulated cycles pin the workload; the budget is one
// allocation per event.  Events, packets and payloads keep their values
// inline or in reused slots, so what remains is container growth and the
// few values too large for a payload's inline buffer.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <new>

#include "fem/assembly.hpp"
#include "fem/mesh.hpp"
#include "hw/machine.hpp"
#include "navm/parops.hpp"
#include "navm/runtime.hpp"
#include "sysvm/os.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  if (align <= alignof(std::max_align_t)) return std::malloc(n);
  return std::aligned_alloc(align, (n + align - 1) / align * align);
}

void* counted_new(std::size_t n, std::size_t align) {
  void* p = counted_alloc(n, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_new(n, 0); }
void* operator new[](std::size_t n) { return counted_new(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_new(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_new(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, 0);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, 0);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return counted_alloc(n, static_cast<std::size_t>(a));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace fem2 {
namespace {

TEST(AllocBudget, DistributedCgRunStaysUnderOneAllocationPerEvent) {
  fem::PlateMeshOptions mesh;
  mesh.nx = 16;
  mesh.ny = 8;
  mesh.width = 2.0;
  mesh.height = 1.0;
  mesh.material.youngs_modulus = 70e9;
  mesh.material.thickness = 0.005;
  const auto model = fem::make_cantilever_plate(mesh, 1'000.0);
  const auto system = fem::assemble(model);

  hw::MachineConfig config;
  config.clusters = 4;
  config.pes_per_cluster = 4;
  config.memory_per_cluster = 64u << 20;
  hw::Machine machine(config);
  sysvm::Os os(machine);
  navm::Runtime runtime(os);
  navm::register_parallel_ops(runtime);

  navm::CgProblem problem;
  problem.a = system.stiffness;
  problem.b = system.load_vector(model.load_sets.at("tip-shear"));
  problem.workers = 8;
  problem.tolerance = 1e-8;
  const auto task = runtime.launch(navm::kCgDriverTask,
                                   navm::make_cg_problem(std::move(problem)));

  g_allocations.store(0);
  g_counting.store(true);
  runtime.run();
  g_counting.store(false);
  const std::uint64_t allocations = g_allocations.load();

  ASSERT_TRUE(os.task_finished(task));
  EXPECT_TRUE(navm::as_cg_result(runtime.result(task)).converged);
  // The workload the budget is calibrated on.
  const std::uint64_t events = machine.engine().processed();
  EXPECT_EQ(events, 28'257u);
  EXPECT_EQ(machine.metrics().total_messages(), 10'055u);
  EXPECT_EQ(machine.now(), 1'547'306u);

  const double per_event =
      static_cast<double>(allocations) / static_cast<double>(events);
  std::cout << "allocations in run(): " << allocations << " for " << events
            << " events = " << per_event << " per event\n";
  EXPECT_LE(per_event, 1.0);
}

}  // namespace
}  // namespace fem2
