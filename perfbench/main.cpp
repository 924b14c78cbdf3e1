// fem2_perfbench — one closed-loop workload per invocation:
//
//   fem2_perfbench --workload sim_solve|host_solve|serve_mix --seed N
//                  --seconds S --trace 0|1 --work-dir DIR
//
// Prints every metric as a table, then one JSON line with the outcome of
// the output checks and all metrics.  DIR receives the run's data
// directories (removed again) and, for a traced run, the span dump as
// Chrome trace-event JSON.  Exit code 0 only when every op passed.
#include <cstdlib>
#include <iostream>
#include <string>

#include "harness.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "fem2_perfbench: " << why
            << "\nusage: fem2_perfbench --workload sim_solve|host_solve|"
               "serve_mix --seed N --seconds S --trace 0|1 --work-dir DIR\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else {
      usage("unknown option " + key);
    }
  }
  if (argc % 2 == 0) usage("options come in pairs");
  if (args.work_dir.empty()) usage("--work-dir is required");
  if (!(args.seconds > 0)) usage("--seconds must be positive");

  perfbench::Outcome outcome;
  try {
    if (args.workload == "sim_solve") {
      outcome = perfbench::run_sim_solve(args);
    } else if (args.workload == "host_solve") {
      outcome = perfbench::run_host_solve(args);
    } else if (args.workload == "serve_mix") {
      outcome = perfbench::run_serve_mix(args);
    } else {
      usage("unknown workload '" + args.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "fem2_perfbench: " << args.workload << " failed: "
              << e.what() << "\n";
    return 1;
  }
  const bool correct = outcome.failed == 0 && outcome.attempted > 0;
  std::cout << args.workload << (args.trace ? " (traced)" : "") << ": "
            << outcome.attempted << " ops, " << outcome.failed
            << " failed checks\n";
  outcome.report.print_table();
  std::cout << outcome.report.json(correct, outcome.attempted, outcome.failed)
            << std::endl;
  return correct ? 0 : 1;
}
