// The system programmer's VM message protocol — exactly the seven message
// types the paper lists:
//
//   "Messages from tasks:
//      initiate K replications of a task of type T
//      pause and notify parent task
//      resume a child task
//      terminate and notify parent
//      remote procedure call
//      remote procedure return
//      load code/constants"
#pragma once

#include <cstdint>
#include <string>
#include <typeinfo>
#include <variant>

#include "hw/config.hpp"
#include "support/check.hpp"
#include "support/small_box.hpp"

namespace fem2::sysvm {

/// Globally unique task identity.  Id 0 is reserved for "no task" (the
/// external environment / machine boot).
using TaskId = std::uint64_t;
inline constexpr TaskId kNoTask = 0;

/// Token correlating a remote procedure call with its return.
using CallToken = std::uint64_t;

/// A typed value travelling in a message, with its wire size.  The value
/// itself is host data; `bytes` is what the simulated network and memory
/// accounting charge for it.  Values of up to kInlineBytes (a real, an
/// integer, a vector<double>, a Window, the CG parts and data) are held
/// inline; larger ones fall back to the heap.
class Payload {
 public:
  static constexpr std::size_t kInlineBytes = 48;

  std::size_t bytes = 0;

  Payload() = default;

  template <typename T>
  static Payload of(T v, std::size_t bytes) {
    Payload p;
    p.value_.emplace<T>(std::move(v));
    p.bytes = bytes;
    return p;
  }

  bool empty() const { return !value_.has_value(); }

  template <typename T>
  const T& as() const {
    const T* p = value_.get<T>();
    if (p == nullptr) throw_mismatch(typeid(T));
    return *p;
  }

  /// Move the value out (type-checked like as<T>), leaving this empty.
  template <typename T>
  T take() && {
    T* p = value_.get<T>();
    if (p == nullptr) throw_mismatch(typeid(T));
    T out = std::move(*p);
    value_.reset();
    bytes = 0;
    return out;
  }

 private:
  /// Throws "payload type mismatch: expected X, got Y" (Y = "<empty>" for
  /// an empty payload).
  [[noreturn]] void throw_mismatch(const std::type_info& expected) const;

  support::SmallBox<kInlineBytes, true> value_;
};

/// "initiate K replications of a task of type T".  One message per
/// replication arrives at the hosting cluster (the OS fans the request out
/// at the source, as a real kernel would build K activation requests).
struct MsgInitiate {
  std::string task_type;
  TaskId task = kNoTask;            ///< id pre-assigned by the initiating OS
  TaskId parent = kNoTask;
  std::uint32_t replication_index = 0;
  std::uint32_t replication_count = 1;
  Payload params;
};

/// "pause and notify parent task" — sent to the parent's cluster.
struct MsgPauseNotify {
  TaskId child = kNoTask;
  TaskId parent = kNoTask;
};

/// "resume a child task" — may carry a datum (broadcast delivers data to a
/// set of paused tasks by resuming each with the payload).
struct MsgResumeChild {
  TaskId child = kNoTask;
  Payload datum;
};

/// "terminate and notify parent" — carries the task's result.
struct MsgTerminateNotify {
  TaskId child = kNoTask;
  TaskId parent = kNoTask;
  Payload result;
};

/// "remote procedure call" — location was determined by the caller (from
/// the window the procedure operates on); executed by any available PE of
/// the target cluster.
struct MsgRemoteCall {
  std::string procedure;
  TaskId caller = kNoTask;
  CallToken token = 0;
  Payload args;
  /// Incarnation of the caller at send time (stamped by the OS).  A call
  /// whose caller was reaped and re-initiated by cluster-loss recovery is
  /// stale and must not execute on the new incarnation's behalf.
  std::uint64_t caller_epoch = 0;
};

/// "remote procedure return".
struct MsgRemoteReturn {
  TaskId caller = kNoTask;
  CallToken token = 0;
  Payload result;
};

/// "load code/constants" — ships a code block to a cluster that does not
/// yet hold it.
struct MsgLoadCode {
  std::string task_type;
  std::size_t code_bytes = 0;
};

using Message =
    std::variant<MsgInitiate, MsgPauseNotify, MsgResumeChild,
                 MsgTerminateNotify, MsgRemoteCall, MsgRemoteReturn,
                 MsgLoadCode>;

/// Stable index for metrics tables (order matches the paper's list).
enum class MessageType : std::size_t {
  Initiate = 0,
  PauseNotify = 1,
  ResumeChild = 2,
  TerminateNotify = 3,
  RemoteCall = 4,
  RemoteReturn = 5,
  LoadCode = 6,
};
inline constexpr std::size_t kMessageTypeCount = 7;

MessageType message_type(const Message& m);
std::string_view message_type_name(MessageType t);

/// Wire size: fixed header plus name strings plus payload bytes.
std::size_t message_bytes(const Message& m);

}  // namespace fem2::sysvm
