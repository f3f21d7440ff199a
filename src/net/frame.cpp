#include "net/frame.h"

#include "common/check.h"
#include "common/wire.h"
#include "obs/metric_names.h"
#include "obs/obs.h"

namespace mlsim::net {

void send_frame(TcpConn& conn, std::string_view payload) {
  const std::string enveloped = wire::seal(kFrameMagic, payload);
  conn.send_all(enveloped.data(), enveloped.size());
  MLSIM_COUNTER_ADD(obs::names::kNetFramesSent, 1);
}

void send_frames(TcpConn& conn, std::initializer_list<std::string_view> payloads) {
  std::string enveloped;
  for (const std::string_view p : payloads) enveloped += wire::seal(kFrameMagic, p);
  conn.send_all(enveloped.data(), enveloped.size());
  MLSIM_COUNTER_ADD(obs::names::kNetFramesSent, payloads.size());
}

bool recv_frame(TcpConn& conn, std::string& payload) {
  MLSIM_HIST_TIMER(obs::names::kNetFrameRecvNs);
  std::string enveloped(wire::kEnvelopeBytes, '\0');
  if (!conn.recv_all(enveloped.data(), wire::kEnvelopeBytes, /*eof_ok=*/true)) {
    return false;
  }
  // Pre-validate the header before trusting the size field with an
  // allocation; full checksum validation happens in unseal() below.
  wire::Reader head(enveloped.data(), wire::kEnvelopeBytes, conn.peer());
  const auto magic = head.pod<std::uint32_t>();
  const auto version = head.pod<std::uint32_t>();
  head.pod<std::uint64_t>();  // checksum, validated by unseal
  const auto payload_size = head.pod<std::uint64_t>();
  if (magic != kFrameMagic) {
    throw IoError("bad frame magic from " + conn.peer());
  }
  if (version != wire::kWireVersion) {
    throw IoError("unsupported frame version " + std::to_string(version) +
                  " from " + conn.peer());
  }
  if (payload_size > kMaxFramePayload) {
    throw IoError("oversized frame (" + std::to_string(payload_size) +
                  " bytes) from " + conn.peer());
  }
  enveloped.resize(wire::kEnvelopeBytes + payload_size);
  conn.recv_all(enveloped.data() + wire::kEnvelopeBytes, payload_size);
  try {
    payload = std::string(wire::unseal(kFrameMagic, enveloped, conn.peer()));
  } catch (const CheckError& e) {
    // On a socket, corruption is a transport fault: the peer (or the path)
    // mangled bytes in flight, so it maps to the transport error type.
    throw IoError(std::string("corrupt frame: ") + e.what());
  }
  MLSIM_COUNTER_ADD(obs::names::kNetFramesReceived, 1);
  return true;
}

}  // namespace mlsim::net
