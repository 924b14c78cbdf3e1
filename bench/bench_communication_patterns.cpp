// E3 — "remote access to local data (through windows)", "large messages",
// "irregular communication patterns" (Hardware architecture requirements).
//
// Part 1: message-type histogram and locality of a full distributed solve.
// Part 2: window access patterns — row, column, block and strided window
// reads against a remote 2-D array, showing how access shape changes the
// message/byte profile.
#include "bench_common.hpp"

#include "support/strings.hpp"

using namespace fem2;

namespace {

void solve_traffic() {
  const auto model =
      bench::cantilever_sheet(bench::smoke() ? 16u : 32u, 8);
  bench::ParallelRun run(model, 8, bench::machine_shape(4, 4));
  const auto& os_metrics = run.stack.os->stats();
  const auto& net = run.stack.machine->metrics().network;

  support::Table table(
      "Message mix of one distributed solve (32x8 sheet, 8 workers)");
  table.set_header({"message type", "count", "bytes", "avg bytes"});
  for (std::size_t t = 0; t < sysvm::kMessageTypeCount; ++t) {
    const auto count = os_metrics.messages_sent[t];
    if (count == 0) continue;
    const auto bytes = os_metrics.message_bytes_sent[t];
    table.row()
        .cell(std::string(
            sysvm::message_type_name(static_cast<sysvm::MessageType>(t))))
        .cell(count)
        .cell(support::format_bytes(bytes))
        .cell(static_cast<double>(bytes) / static_cast<double>(count), 1);
  }
  table.print(std::cout);

  std::cout << "cluster-to-cluster message matrix (driver on the "
               "least-loaded cluster,\nworkers spread; diagonal = "
               "shared-memory traffic):\n"
            << net.render_traffic_matrix();

  const auto total = net.messages + net.local_messages;
  std::cout << "locality: " << net.local_messages << " intra-cluster / "
            << net.messages << " network messages ("
            << support::format_double(
                   100.0 * static_cast<double>(net.messages) /
                       static_cast<double>(total),
                   1)
            << "% cross the network); channel serialization "
            << support::format_count(net.channel_busy_cycles) << " cycles\n";

  bench::note("solve_cycles", static_cast<double>(run.elapsed()), "cycles");
  bench::note("network_messages", static_cast<double>(net.messages), "msgs");
  bench::note("local_messages", static_cast<double>(net.local_messages),
              "msgs");
  bench::note("network_bytes", static_cast<double>(net.bytes), "bytes");
}

/// Reader task: performs `count` reads of the window passed in params.
struct WindowProbeParams {
  navm::Window window;
  std::size_t repeats = 1;
};

void window_patterns() {
  struct PatternCase {
    const char* name;
    std::function<std::vector<navm::Window>(const navm::Window&)> make;
  };
  const std::size_t rows = bench::smoke() ? 16 : 64;
  const std::size_t cols = rows;
  const std::vector<PatternCase> cases = {
      {"whole array (1 x 4096 elems)", [](const navm::Window& a) {
         return std::vector<navm::Window>{a};
       }},
      {"16x16 blocks (16 x 256 elems)",
       [&](const navm::Window& a) {
         std::vector<navm::Window> out;
         for (const auto& band : a.split_rows(4))
           for (const auto& block : band.split_cols(4)) out.push_back(block);
         return out;
       }},
      {"row windows (64 x 64 elems)",
       [&](const navm::Window& a) {
         std::vector<navm::Window> out;
         for (std::size_t i = 0; i < rows; ++i) out.push_back(a.row(i));
         return out;
       }},
      {"element windows (256 x 1 elem)",
       [&](const navm::Window& a) {
         std::vector<navm::Window> out;
         for (std::size_t i = 0; i < 4; ++i)
           for (std::size_t j = 0; j < cols; ++j)
             out.push_back(a.block(i, j, 1, 1));
         return out;
       }},
  };

  support::Table table(
      "Window access patterns: remote reads of a 64x64 array "
      "(owner on cluster 0, readers elsewhere)");
  table.set_header({"pattern", "reads", "remote calls", "bytes moved",
                    "cycles"});

  for (const auto& pattern : cases) {
    bench::Stack fresh(bench::machine_shape(4, 4),
                       {.placement = sysvm::Placement::RoundRobin});
    auto& rt = *fresh.runtime;
    rt.define_task("probe.owner", [&](navm::TaskContext& ctx) -> navm::Coro {
      std::vector<double> init(rows * cols);
      for (std::size_t i = 0; i < init.size(); ++i)
        init[i] = static_cast<double>(i);
      const auto array = ctx.create_array(rows, cols, std::move(init));
      const auto windows = pattern.make(array);
      // One reader per window, scattered across clusters.
      const auto results = co_await navm::forall(
          ctx, "probe.reader", static_cast<std::uint32_t>(windows.size()),
          [&](std::uint32_t i) {
            return sysvm::Payload::of(WindowProbeParams{windows[i], 1},
                                      navm::Window::kDescriptorBytes + 8);
          });
      (void)results;
      co_return sysvm::Payload{};
    });
    rt.define_task("probe.reader",
                   [](navm::TaskContext& ctx) -> navm::Coro {
                     const auto& p = ctx.params().as<WindowProbeParams>();
                     const auto data = co_await ctx.read(p.window);
                     co_return navm::payload_real(
                         data.empty() ? 0.0 : data.front());
                   });
    const auto task = rt.launch("probe.owner");
    rt.run();
    FEM2_CHECK(fresh.os->task_finished(task));

    const auto& metrics = fresh.os->stats();
    const auto calls = metrics.messages_sent[static_cast<std::size_t>(
        sysvm::MessageType::RemoteCall)];
    const auto returns_bytes = metrics.message_bytes_sent[
        static_cast<std::size_t>(sysvm::MessageType::RemoteReturn)];
    table.row()
        .cell(pattern.name)
        .cell(static_cast<std::uint64_t>(pattern.make(navm::Window{
                                                          1, 0, 0, rows, cols})
                                             .size()))
        .cell(calls)
        .cell(support::format_bytes(returns_bytes))
        .cell(static_cast<std::uint64_t>(fresh.machine->now()));
    bench::note("pattern_" + std::to_string(&pattern - cases.data()) +
                    "_cycles",
                static_cast<double>(fresh.machine->now()), "cycles");
  }
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  bench::init("E3", argc, argv);
  bench::print_header("E3 bench_communication_patterns",
                      "windows, large messages, irregular communication");
  solve_traffic();
  std::cout << "\n";
  window_patterns();
  std::cout << "\nShape check: remote-call/remote-return dominate counts "
               "(window traffic);\nfiner windows trade larger transfers for "
               "many more messages.\n";
  return bench::finish();
}
