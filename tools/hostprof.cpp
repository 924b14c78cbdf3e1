// hostprof: a sampling profiler for host code, loaded with LD_PRELOAD.
//
//   LD_PRELOAD=build/tools/libfem2_hostprof.so PROGRAM ARGS...
//   python3 tools/hostprof_report.py hostprof.<pid>.txt
//
// On load it arms ITIMER_PROF, so the kernel sends SIGPROF for each tick
// of CPU time the process uses (about 250 a second on a 250 Hz kernel),
// and the handler records the interrupted program counter.  At exit it
// writes hostprof.<pid>.txt to the working directory: a copy of
// /proc/self/maps, then every sampled PC with its count.
// hostprof_report.py turns that dump into a flat table of functions.
//
// It adds no code to the profiled program, unlike gprof's -pg, whose
// mcount calls dominate short functions, and it needs neither perf nor
// valgrind.  x86-64 and AArch64 Linux only.  A program that leaves by
// _exit or a signal writes no dump.  An AddressSanitizer binary refuses
// a library preloaded ahead of its runtime, so profile a plain build.
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>

namespace {

// About 70 minutes of CPU time at 250 samples a second.
constexpr std::size_t kMaxSamples = std::size_t{1} << 20;
std::uintptr_t g_samples[kMaxSamples];
std::atomic<std::size_t> g_taken{0};

std::uintptr_t interrupted_pc(const void* context) {
  const auto* uc = static_cast<const ucontext_t*>(context);
#if defined(__x86_64__)
  return static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
#error "hostprof reads the program counter on x86-64 and AArch64 only"
#endif
}

// Async-signal-safe: one lock-free increment and one store.
void on_sigprof(int, siginfo_t*, void* context) {
  const std::size_t i = g_taken.fetch_add(1, std::memory_order_relaxed);
  if (i < kMaxSamples) g_samples[i] = interrupted_pc(context);
}

__attribute__((constructor)) void start_sampling() {
  struct sigaction action {};
  action.sa_sigaction = on_sigprof;
  // SA_RESTART: the profiled program's blocking calls do not fail EINTR.
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  if (sigaction(SIGPROF, &action, nullptr) != 0) return;
  itimerval timer{};
  timer.it_interval.tv_usec = 1000;  // the kernel rounds up to its tick
  timer.it_value = timer.it_interval;
  setitimer(ITIMER_PROF, &timer, nullptr);
}

__attribute__((destructor)) void write_dump() {
  const itimerval off{};
  setitimer(ITIMER_PROF, &off, nullptr);
  const std::size_t taken = g_taken.load();
  const std::size_t kept = std::min(taken, kMaxSamples);
  std::sort(g_samples, g_samples + kept);

  char path[64];
  std::snprintf(path, sizeof path, "hostprof.%ld.txt",
                static_cast<long>(getpid()));
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) return;
  std::fputs("hostprof 1\nmaps\n", out);
  if (std::FILE* maps = std::fopen("/proc/self/maps", "r")) {
    char buffer[4096];
    std::size_t got = 0;
    while ((got = std::fread(buffer, 1, sizeof buffer, maps)) > 0)
      std::fwrite(buffer, 1, got, out);
    std::fclose(maps);
  }
  // "samples <kept> <dropped>", then "<pc in hex> <count>" per distinct PC.
  std::fprintf(out, "samples %zu %zu\n", kept, taken - kept);
  for (std::size_t i = 0; i < kept;) {
    std::size_t j = i;
    while (j < kept && g_samples[j] == g_samples[i]) ++j;
    std::fprintf(out, "%jx %zu\n", static_cast<std::uintmax_t>(g_samples[i]),
                 j - i);
    i = j;
  }
  std::fclose(out);
  std::fprintf(stderr, "hostprof: %zu samples in %s\n", kept, path);
}

}  // namespace
