#ifndef COSKQ_BENCHMARK_LOADGEN_H_
#define COSKQ_BENCHMARK_LOADGEN_H_

#include <stddef.h>
#include <stdint.h>

#include <string>
#include <vector>

#include "server/codec.h"
#include "server/protocol.h"
#include "util/status.h"

namespace coskq::bench {

class Tracer;

/// One request the generator sends: a verb and its payload, encoded once
/// before the run so the send path only frames it.
struct WireOp {
  Verb verb = Verb::kQuery;
  std::string payload;
};

/// What happened to one sent request. Times are milliseconds since the
/// phase started.
struct OpRecord {
  enum class State : uint8_t { kInFlight, kReplied, kLost };
  /// Index into the ops vector the phase was given.
  size_t op = 0;
  State state = State::kInFlight;
  uint8_t conn = 0;
  Verb reply_verb = Verb::kError;
  std::string reply;
  /// When the request was due. In an open loop this is its slot in the
  /// schedule, so a stall that delays later sends is charged to them.
  double due_ms = 0.0;
  double sent_ms = 0.0;
  /// When the frame was handed to the socket.
  double sent_end_ms = 0.0;
  double replied_ms = 0.0;

  double latency_ms() const { return replied_ms - due_ms; }
  double rtt_ms() const { return replied_ms - sent_ms; }
  double lag_ms() const { return sent_ms - due_ms; }
};

struct PhaseResult {
  std::vector<OpRecord> records;
};

/// Single-threaded load generator over a few non-blocking connections: one
/// poll loop sends every request on its own schedule and pipelines frames,
/// so a slow reply never holds back the requests due after it.
///
/// Not thread-safe; the calling thread runs every phase.
class LoadGenerator {
 public:
  LoadGenerator() = default;
  ~LoadGenerator();

  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Opens `connections` loopback connections to `port`.
  Status Connect(uint16_t port, int connections);

  /// Open loop: request k sends ops[(first + k) % ops.size()] at k / rate
  /// seconds after the phase starts, for `duration_s` seconds, round-robin
  /// over the connections; then waits for the outstanding replies. With a
  /// tracer, records one span per request (send, wait, decode).
  PhaseResult OpenLoop(const std::vector<WireOp>& ops, size_t first,
                       double rate, double duration_s, Tracer* tracer);

  /// Closed loop: `depth` outstanding requests per connection, each slot
  /// refilled as soon as a reply frees it, until `duration_s` passes or
  /// `max_ops` requests were sent.
  PhaseResult ClosedLoop(const std::vector<WireOp>& ops, size_t first,
                         double duration_s, size_t max_ops, size_t depth);

 private:
  struct Conn {
    int fd = -1;
    FrameReader reader;
    std::string out;
    size_t out_pos = 0;
    size_t in_flight = 0;
  };

  PhaseResult Run(const std::vector<WireOp>& ops, size_t first, double rate,
                  double duration_s, size_t max_ops, size_t depth,
                  Tracer* tracer);
  void FailConn(size_t c, std::vector<OpRecord>* records, double now_ms);
  bool Flush(size_t c);

  std::vector<Conn> conns_;
};

}  // namespace coskq::bench

#endif  // COSKQ_BENCHMARK_LOADGEN_H_
