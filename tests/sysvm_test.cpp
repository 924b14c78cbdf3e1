// OS-layer tests using hand-scripted (non-coroutine) task programs, so the
// system programmer's VM is exercised in isolation from the layer above.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "hw/machine.hpp"
#include "sysvm/message.hpp"
#include "sysvm/os.hpp"

namespace fem2::sysvm {
namespace {

/// Scripted task: each entry runs one step and returns its StepResult.
class ScriptedProgram : public TaskProgram {
 public:
  using Step = std::function<StepResult(TaskApi&, Payload wake)>;

  ScriptedProgram(TaskApi& api, std::vector<Step> steps, Payload result = {})
      : api_(api), steps_(std::move(steps)), result_(std::move(result)) {}

  StepResult resume(Payload wake) override {
    FEM2_CHECK(index_ < steps_.size());
    return steps_[index_++](api_, std::move(wake));
  }

  Payload take_result() override { return std::move(result_); }

 private:
  TaskApi& api_;
  std::vector<Step> steps_;
  std::size_t index_ = 0;
  Payload result_;
};

CodeBlock scripted(std::string name,
                   std::function<std::vector<ScriptedProgram::Step>(
                       TaskApi&, const Payload&)> make_steps,
                   std::size_t ar_bytes = 128) {
  CodeBlock block;
  block.name = std::move(name);
  block.activation_record_bytes = ar_bytes;
  block.factory = [make_steps = std::move(make_steps)](TaskApi& api,
                                                       Payload params) {
    return std::make_unique<ScriptedProgram>(api,
                                             make_steps(api, params));
  };
  return block;
}

StepResult finish(hw::Cycles cycles = 10) {
  return {StepResult::Outcome::Finished, cycles};
}

hw::MachineConfig config(std::size_t clusters = 2, std::size_t ppc = 3) {
  hw::MachineConfig c;
  c.clusters = clusters;
  c.pes_per_cluster = ppc;
  c.memory_per_cluster = 1 << 20;
  return c;
}

TEST(Message, WireSizesFollowPayloads) {
  MsgInitiate init;
  init.task_type = "worker";
  init.params = Payload::of(1, 100);
  EXPECT_EQ(message_bytes(Message{init}), 32u + 6u + 100u);

  EXPECT_EQ(message_bytes(Message{MsgPauseNotify{}}), 32u);

  MsgRemoteCall call;
  call.procedure = "p";
  call.args = Payload::of(2, 50);
  EXPECT_EQ(message_bytes(Message{call}), 32u + 1u + 50u);

  MsgLoadCode lc;
  lc.task_type = "ab";
  lc.code_bytes = 4096;
  EXPECT_EQ(message_bytes(Message{lc}), 32u + 2u + 4096u);
}

TEST(Message, TypeNamesCoverAllSeven) {
  for (std::size_t i = 0; i < kMessageTypeCount; ++i)
    EXPECT_FALSE(message_type_name(static_cast<MessageType>(i)).empty());
  EXPECT_EQ(message_type(Message{MsgRemoteReturn{}}),
            MessageType::RemoteReturn);
}

TEST(Os, LaunchRunsToCompletion) {
  hw::Machine machine(config());
  Os os(machine);
  os.register_task_type(scripted("simple", [](TaskApi&, const Payload&) {
    return std::vector<ScriptedProgram::Step>{
        [](TaskApi& api, Payload) {
          api.charge(123);
          return finish();
        }};
  }));
  const TaskId id = os.launch("simple", Payload{});
  os.run();
  EXPECT_TRUE(os.task_finished(id));
  EXPECT_EQ(os.stats().tasks_initiated, 1u);
  EXPECT_EQ(os.stats().tasks_finished, 1u);
  EXPECT_GT(os.now(), 0u);
}

TEST(Os, ActivationRecordFreedOnTermination) {
  hw::Machine machine(config(1, 2));
  Os os(machine);
  os.register_task_type(scripted(
      "allocator",
      [](TaskApi&, const Payload&) {
        return std::vector<ScriptedProgram::Step>{[](TaskApi& api, Payload) {
          api.heap_allocate(4096);  // task-owned block
          return finish();
        }};
      },
      256));
  const TaskId id = os.launch("allocator", Payload{});
  os.run();
  EXPECT_TRUE(os.task_finished(id));
  // Everything released: AR + owned block.
  EXPECT_EQ(os.heap(hw::ClusterId{0}).in_use(), 0u);
  EXPECT_GT(os.heap(hw::ClusterId{0}).stats().high_water, 4096u);
  EXPECT_EQ(machine.memory_in_use(hw::ClusterId{0}), 0u);
}

TEST(Os, InitiateReplicationsAndJoin) {
  hw::Machine machine(config(2, 4));
  Os os(machine);
  os.register_task_type(scripted("child", [](TaskApi&, const Payload&) {
    return std::vector<ScriptedProgram::Step>{
        [](TaskApi&, Payload) { return finish(); }};
  }));
  os.register_task_type(scripted("parent", [](TaskApi&, const Payload&) {
    return std::vector<ScriptedProgram::Step>{
        [](TaskApi& api, Payload) {
          api.initiate("child", 5, [](std::uint32_t i) {
            return Payload::of(i, 4);
          });
          api.block_on_child_terminations(5);
          return StepResult{StepResult::Outcome::Blocked, 10};
        },
        [](TaskApi& api, Payload) {
          // All five results are waiting in the mailbox.
          EXPECT_EQ(api.take_child_results().size(), 5u);
          return finish();
        }};
  }));
  const TaskId id = os.launch("parent", Payload{});
  os.run();
  EXPECT_TRUE(os.task_finished(id));
  EXPECT_EQ(os.stats().tasks_finished, 6u);
  EXPECT_EQ(os.stats().messages_sent[static_cast<std::size_t>(
                MessageType::TerminateNotify)],
            5u);
}

TEST(Os, PlacementPolicies) {
  for (const auto placement :
       {Placement::RoundRobin, Placement::Local, Placement::LeastLoaded}) {
    hw::Machine machine(config(4, 2));
    OsOptions options;
    options.placement = placement;
    Os os(machine, options);
    os.register_task_type(scripted("child", [](TaskApi&, const Payload&) {
      return std::vector<ScriptedProgram::Step>{
          [](TaskApi&, Payload) { return finish(1000); }};
    }));
    os.register_task_type(scripted("parent", [](TaskApi&, const Payload&) {
      return std::vector<ScriptedProgram::Step>{
          [](TaskApi& api, Payload) {
            api.initiate("child", 8, {});
            api.block_on_child_terminations(8);
            return StepResult{StepResult::Outcome::Blocked, 1};
          },
          [](TaskApi&, Payload) { return finish(); }};
    }));
    const TaskId id = os.launch("parent", Payload{});
    os.run();
    ASSERT_TRUE(os.task_finished(id));

    std::set<std::uint32_t> used;
    for (const auto task : os.task_ids())
      used.insert(os.task_info(task).cluster.index);
    if (placement == Placement::Local) {
      EXPECT_EQ(used.size(), 1u) << "local placement must not spread";
    } else {
      EXPECT_GT(used.size(), 1u) << "balanced placement must spread";
    }
  }
}

TEST(Os, CodeLoadingSentOncePerClusterAndType) {
  hw::Machine machine(config(2, 3));
  OsOptions options;
  options.placement = Placement::RoundRobin;
  Os os(machine, options);
  os.register_task_type(scripted("worker", [](TaskApi&, const Payload&) {
    return std::vector<ScriptedProgram::Step>{
        [](TaskApi&, Payload) { return finish(); }};
  }));
  os.register_task_type(scripted("parent", [](TaskApi&, const Payload&) {
    return std::vector<ScriptedProgram::Step>{
        [](TaskApi& api, Payload) {
          api.initiate("worker", 6, {});  // 3 to each cluster
          api.block_on_child_terminations(6);
          return StepResult{StepResult::Outcome::Blocked, 1};
        },
        [](TaskApi&, Payload) { return finish(); }};
  }));
  os.launch("parent", Payload{});
  os.run();
  // load-code: one per (cluster, type) actually used: parent's type on its
  // cluster + worker's type on both clusters = 3.
  EXPECT_EQ(os.stats().messages_sent[static_cast<std::size_t>(
                MessageType::LoadCode)],
            3u);
}

TEST(Os, RemoteCallExecutesOnTargetAndReplies) {
  hw::Machine machine(config(2, 3));
  Os os(machine);
  std::uint32_t executed_on = 99;
  os.register_procedure(Procedure{
      "probe", 64,
      [&](ProcedureContext& ctx, const Payload& args) {
        executed_on = ctx.cluster.index;
        ctx.charge(50);
        return Payload::of(args.as<int>() * 2, 8);
      }});
  os.register_task_type(scripted("caller", [](TaskApi&, const Payload&) {
    return std::vector<ScriptedProgram::Step>{
        [](TaskApi& api, Payload) {
          const auto token =
              api.remote_call(hw::ClusterId{1}, "probe", Payload::of(21, 8));
          api.block_on_reply(token);
          return StepResult{StepResult::Outcome::Blocked, 5};
        },
        [](TaskApi&, Payload wake) {
          EXPECT_EQ(wake.as<int>(), 42);
          return finish();
        }};
  }));
  const TaskId id = os.launch("caller", Payload{}, hw::ClusterId{0});
  os.run();
  EXPECT_TRUE(os.task_finished(id));
  EXPECT_EQ(executed_on, 1u);
  EXPECT_EQ(os.stats().procedures_executed, 1u);
}

TEST(Os, PendingCallInfosListInFlightCallsInTokenOrder) {
  hw::Machine machine(config(3, 3));
  OsOptions options;
  options.placement = Placement::Local;
  Os os(machine, options);
  os.register_procedure(Procedure{
      "work", 64, [](ProcedureContext& ctx, const Payload& args) {
        ctx.charge(static_cast<hw::Cycles>(args.as<int>()));
        return Payload{};
      }});
  // The caller on cluster 0 issues three calls in one step: a short one
  // that returns first, then two long ones; the caller on cluster 2 draws
  // its token from another lane, so tokens interleave across callers.
  std::vector<CallToken> a;
  CallToken b = 0;
  os.register_task_type(scripted("caller_a", [&a](TaskApi&, const Payload&) {
    return std::vector<ScriptedProgram::Step>{
        [&a](TaskApi& api, Payload) {
          a.push_back(api.remote_call(hw::ClusterId{1}, "work",
                                      Payload::of(100, 8)));
          a.push_back(api.remote_call(hw::ClusterId{2}, "work",
                                      Payload::of(400'000, 8)));
          a.push_back(api.remote_call(hw::ClusterId{1}, "work",
                                      Payload::of(300'000, 8)));
          api.block_on_reply(a[2]);
          return StepResult{StepResult::Outcome::Blocked, 5};
        },
        [&a](TaskApi& api, Payload) {
          api.block_on_reply(a[1]);
          return StepResult{StepResult::Outcome::Blocked, 5};
        },
        [](TaskApi&, Payload) { return finish(); }};
  }));
  os.register_task_type(scripted("caller_b", [&b](TaskApi&, const Payload&) {
    return std::vector<ScriptedProgram::Step>{
        [&b](TaskApi& api, Payload) {
          b = api.remote_call(hw::ClusterId{0}, "work",
                              Payload::of(350'000, 8));
          api.block_on_reply(b);
          return StepResult{StepResult::Outcome::Blocked, 5};
        },
        [](TaskApi&, Payload) { return finish(); }};
  }));
  const TaskId task_a = os.launch("caller_a", Payload{}, hw::ClusterId{0});
  const TaskId task_b = os.launch("caller_b", Payload{}, hw::ClusterId{2});
  // A return whose token was never entered (as a collector wake posts)
  // retires nothing.
  machine.engine().schedule(50'000, [&] {
    MsgRemoteReturn stray;
    stray.caller = task_b;
    stray.token = 999'999;
    os.post(hw::ClusterId{2}, hw::ClusterId{2}, Message{std::move(stray)});
  });
  std::vector<Os::PendingCallInfo> mid;
  machine.engine().schedule(100'000, [&] { mid = os.pending_call_infos(); });
  os.run();
  ASSERT_TRUE(os.task_finished(task_a));
  ASSERT_TRUE(os.task_finished(task_b));

  ASSERT_EQ(a.size(), 3u);
  struct Expected {
    CallToken token;
    TaskId caller;
    std::uint32_t destination;
  };
  std::vector<Expected> expected{
      {a[1], task_a, 2}, {a[2], task_a, 1}, {b, task_b, 0}};
  std::sort(expected.begin(), expected.end(),
            [](const Expected& x, const Expected& y) {
              return x.token < y.token;
            });
  ASSERT_EQ(mid.size(), expected.size());
  for (std::size_t i = 0; i < mid.size(); ++i) {
    EXPECT_EQ(mid[i].token, expected[i].token) << i;
    EXPECT_EQ(mid[i].caller, expected[i].caller) << i;
    EXPECT_EQ(mid[i].destination.index, expected[i].destination) << i;
  }
  // The tokens really interleave across the two callers' lanes.
  EXPECT_LT(a[0], b);
  EXPECT_LT(b, a[2]);
  EXPECT_TRUE(os.pending_call_infos().empty());
}

TEST(Os, EarlyReplyIsBuffered) {
  hw::Machine machine(config(1, 3));
  Os os(machine);
  os.register_procedure(Procedure{
      "fast", 64, [](ProcedureContext& ctx, const Payload&) {
        ctx.charge(1);
        return Payload::of(7, 8);
      }});
  os.register_task_type(scripted("caller", [](TaskApi&, const Payload&) {
    return std::vector<ScriptedProgram::Step>{
        [](TaskApi& api, Payload) {
          api.remote_call(hw::ClusterId{0}, "fast", Payload{});
          // Long step: the reply lands while we are still "running".
          return StepResult{StepResult::Outcome::Yielded, 1'000'000};
        },
        [](TaskApi& api, Payload) {
          // Now block on the token; the buffered reply must wake us
          // immediately.
          api.block_on_reply(1);  // first token allocated is 1
          return StepResult{StepResult::Outcome::Blocked, 5};
        },
        [](TaskApi&, Payload wake) {
          EXPECT_EQ(wake.as<int>(), 7);
          return finish();
        }};
  }));
  const TaskId id = os.launch("caller", Payload{});
  os.run();
  EXPECT_TRUE(os.task_finished(id));
}

TEST(Os, ResumeBeforePauseIsBuffered) {
  hw::Machine machine(config(1, 3));
  Os os(machine);
  os.register_task_type(scripted("child", [](TaskApi&, const Payload&) {
    return std::vector<ScriptedProgram::Step>{
        [](TaskApi& api, Payload) {
          // Burn time so the parent's resume arrives before our pause.
          api.charge(500'000);
          return StepResult{StepResult::Outcome::Yielded, 0};
        },
        [](TaskApi& api, Payload) {
          api.block_for_pause();
          return StepResult{StepResult::Outcome::Blocked, 1};
        },
        [](TaskApi&, Payload wake) {
          EXPECT_EQ(wake.as<int>(), 5);
          return finish();
        }};
  }));
  os.register_task_type(scripted("parent", [](TaskApi&, const Payload&) {
    return std::vector<ScriptedProgram::Step>{
        [](TaskApi& api, Payload) {
          const auto children = api.initiate("child", 1, {});
          api.resume_child(children[0], Payload::of(5, 8));
          api.block_on_child_terminations(1);
          return StepResult{StepResult::Outcome::Blocked, 1};
        },
        [](TaskApi&, Payload) { return finish(); }};
  }));
  const TaskId id = os.launch("parent", Payload{});
  os.run();
  EXPECT_TRUE(os.task_finished(id));
}

TEST(Os, StepRedoneAfterPeFailure) {
  hw::Machine machine(config(1, 3));
  Os os(machine);
  os.register_task_type(scripted("worker", [](TaskApi&, const Payload&) {
    return std::vector<ScriptedProgram::Step>{
        [](TaskApi& api, Payload) {
          api.charge(10'000);
          return finish(0);
        }};
  }));
  const TaskId id = os.launch("worker", Payload{});
  // Kill the (only) worker PE mid-step; PE 2 takes over and the buffered
  // step replays its cost without re-running host code.
  machine.engine().schedule(
      2'000, [&] { machine.fail_pe(hw::PeId{hw::ClusterId{0}, 1}); });
  os.run();
  EXPECT_TRUE(os.task_finished(id));
  EXPECT_EQ(os.stats().steps_executed, 1u);
  EXPECT_EQ(os.stats().steps_redone, 1u);
}

TEST(Os, KernelDispatchPerMessage) {
  hw::Machine machine(config(2, 3));
  Os os(machine);
  os.register_task_type(scripted("simple", [](TaskApi&, const Payload&) {
    return std::vector<ScriptedProgram::Step>{
        [](TaskApi&, Payload) { return finish(); }};
  }));
  os.launch("simple", Payload{});
  os.run();
  // Every delivered message was fielded by a kernel dispatch.
  EXPECT_EQ(os.stats().kernel_dispatches, os.stats().total_messages());
}

TEST(Os, TaskInfoAndReadyDepth) {
  hw::Machine machine(config(1, 2));
  Os os(machine);
  os.register_task_type(scripted("simple", [](TaskApi&, const Payload&) {
    return std::vector<ScriptedProgram::Step>{
        [](TaskApi&, Payload) { return finish(); }};
  }));
  const TaskId id = os.launch("simple", Payload{});
  os.run();
  const auto info = os.task_info(id);
  EXPECT_EQ(info.type, "simple");
  EXPECT_EQ(info.state, TaskState::Finished);
  EXPECT_EQ(info.parent, kNoTask);
  EXPECT_EQ(os.ready_depth(hw::ClusterId{0}), 0u);
  EXPECT_EQ(os.live_tasks(), 0u);
}

}  // namespace
}  // namespace fem2::sysvm
