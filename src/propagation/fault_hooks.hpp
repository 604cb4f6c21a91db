// In-process fault injection for the propagation path.
//
// The relay executing a FaultPlan (fleet::AnycastFront, run as
// akadns-chaos) exercises the real socket path, but
// unit tests want the same faults without sockets: a probe that times
// out, a transfer connection that dies mid-stream, a read that stalls
// past the deadline. FaultHooks is the seam — ZoneSync and
// TransferService consult it before each operation and honor whatever
// fate it returns. Production leaves the pointer null (checked once,
// no overhead); tests install chaos::ScriptedInjector, which replays
// the exact fates a test scripts. A FaultPlan does not drive these
// hooks: it acts only on sockets, in the relay.
//
// This header is dependency-free on purpose: chaos/ links against
// propagation-level code, so the interface must live below it to keep
// the layering acyclic.
#pragma once

#include <memory>

#include "common/sim_time.hpp"

namespace akadns::propagation {

/// The operations a sync/transfer client performs, in hookable units.
enum class SyncOp {
  ProbeSend,        // SOA refresh probe, UDP send
  ProbeRecv,        // SOA refresh probe, UDP response
  TransferConnect,  // TCP connect to the primary
  TransferWrite,    // framed transfer request write
  TransferRead,     // one framed transfer message read
  StreamMessage,    // server side: one message of an outgoing stream
};

constexpr const char* to_string(SyncOp op) noexcept {
  switch (op) {
    case SyncOp::ProbeSend: return "probe_send";
    case SyncOp::ProbeRecv: return "probe_recv";
    case SyncOp::TransferConnect: return "transfer_connect";
    case SyncOp::TransferWrite: return "transfer_write";
    case SyncOp::TransferRead: return "transfer_read";
    case SyncOp::StreamMessage: return "stream_message";
  }
  return "unknown";
}

/// What the hook decided for one operation.
struct OpFate {
  /// Fail the operation as if the network did (timeout/ECONNRESET — the
  /// caller's normal error path runs; which error is the caller's
  /// choice, the hook only decides *that* it fails).
  bool fail = false;
  /// Sleep this long before attempting (or failing) the operation —
  /// exercises deadline arithmetic without a real slow peer.
  Duration delay = Duration::zero();
};

class FaultHooks {
 public:
  virtual ~FaultHooks() = default;
  /// Called before each operation; the returned fate is binding.
  virtual OpFate on_op(SyncOp op) = 0;
};

using FaultHooksPtr = std::shared_ptr<FaultHooks>;

}  // namespace akadns::propagation
