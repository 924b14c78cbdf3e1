#include "sysvm/message.hpp"

namespace fem2::sysvm {

namespace {
/// Fixed wire header: message type, source/destination, task ids, token.
constexpr std::size_t kHeaderBytes = 32;
}  // namespace

void Payload::throw_mismatch(const std::type_info& expected) const {
  throw support::Error(std::string("payload type mismatch: expected ") +
                       expected.name() + ", got " +
                       (empty() ? "<empty>" : value_.type().name()));
}

MessageType message_type(const Message& m) {
  return static_cast<MessageType>(m.index());
}

std::string_view message_type_name(MessageType t) {
  switch (t) {
    case MessageType::Initiate: return "initiate";
    case MessageType::PauseNotify: return "pause-notify";
    case MessageType::ResumeChild: return "resume-child";
    case MessageType::TerminateNotify: return "terminate-notify";
    case MessageType::RemoteCall: return "remote-call";
    case MessageType::RemoteReturn: return "remote-return";
    case MessageType::LoadCode: return "load-code";
  }
  FEM2_UNREACHABLE("bad MessageType");
}

std::size_t message_bytes(const Message& m) {
  struct Visitor {
    std::size_t operator()(const MsgInitiate& v) const {
      return kHeaderBytes + v.task_type.size() + v.params.bytes;
    }
    std::size_t operator()(const MsgPauseNotify&) const {
      return kHeaderBytes;
    }
    std::size_t operator()(const MsgResumeChild& v) const {
      return kHeaderBytes + v.datum.bytes;
    }
    std::size_t operator()(const MsgTerminateNotify& v) const {
      return kHeaderBytes + v.result.bytes;
    }
    std::size_t operator()(const MsgRemoteCall& v) const {
      return kHeaderBytes + v.procedure.size() + v.args.bytes;
    }
    std::size_t operator()(const MsgRemoteReturn& v) const {
      return kHeaderBytes + v.result.bytes;
    }
    std::size_t operator()(const MsgLoadCode& v) const {
      return kHeaderBytes + v.task_type.size() + v.code_bytes;
    }
  };
  return std::visit(Visitor{}, m);
}

}  // namespace fem2::sysvm
