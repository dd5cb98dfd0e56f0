#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <ctime>

#include "trace.h"

namespace coskq::bench {

namespace {

using Clock = std::chrono::steady_clock;

/// How long a phase waits for its outstanding replies after the last send
/// before counting them as lost.
constexpr double kDrainTimeoutMs = 30000.0;
/// Poll wake-up cap, so the drain deadline is checked while idle.
constexpr double kMaxPollMs = 50.0;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

}  // namespace

LoadGenerator::~LoadGenerator() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) {
      close(c.fd);
    }
  }
}

Status LoadGenerator::Connect(uint16_t port, int connections) {
  for (int i = 0; i < connections; ++i) {
    const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      return Status::IoError(std::string("socket: ") + std::strerror(errno));
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
            0 ||
        fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK) != 0) {
      const Status error =
          Status::IoError(std::string("connect: ") + std::strerror(errno));
      close(fd);
      return error;
    }
    conns_.emplace_back();
    conns_.back().fd = fd;
  }
  return Status::OK();
}

PhaseResult LoadGenerator::OpenLoop(const std::vector<WireOp>& ops,
                                    size_t first, double rate,
                                    double duration_s, Tracer* tracer) {
  const size_t total = static_cast<size_t>(rate * duration_s);
  return Run(ops, first, rate, duration_s, total, 0, tracer);
}

PhaseResult LoadGenerator::ClosedLoop(const std::vector<WireOp>& ops,
                                      size_t first, double duration_s,
                                      size_t max_ops, size_t depth) {
  return Run(ops, first, 0.0, duration_s, max_ops, depth, nullptr);
}

bool LoadGenerator::Flush(size_t c) {
  Conn& conn = conns_[c];
  while (conn.out_pos < conn.out.size()) {
    const ssize_t n = send(conn.fd, conn.out.data() + conn.out_pos,
                           conn.out.size() - conn.out_pos, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return errno == EAGAIN || errno == EWOULDBLOCK;
    }
    conn.out_pos += static_cast<size_t>(n);
  }
  conn.out.clear();
  conn.out_pos = 0;
  return true;
}

void LoadGenerator::FailConn(size_t c, std::vector<OpRecord>* records,
                             double now_ms) {
  Conn& conn = conns_[c];
  if (conn.fd >= 0) {
    close(conn.fd);
    conn.fd = -1;
  }
  for (OpRecord& r : *records) {
    if (r.conn == c && r.state == OpRecord::State::kInFlight) {
      r.state = OpRecord::State::kLost;
      r.replied_ms = now_ms;
    }
  }
  conn.in_flight = 0;
  conn.out.clear();
  conn.out_pos = 0;
}

PhaseResult LoadGenerator::Run(const std::vector<WireOp>& ops, size_t first,
                               double rate, double duration_s, size_t max_ops,
                               size_t depth, Tracer* tracer) {
  // Wake for the next slot on time: the default 50 us timer slack would
  // add up to 50 us to every open-loop latency, charged from the schedule.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  PhaseResult result;
  std::vector<OpRecord>& records = result.records;
  const bool open = rate > 0.0;
  const double duration_ms = duration_s * 1e3;
  const size_t num_conns = conns_.size();
  if (open) {
    records.reserve(max_ops);
  }
  const Clock::time_point start = Clock::now();
  const double trace_base_us = tracer != nullptr ? tracer->NowUs() : 0.0;
  const auto due_of = [&](size_t k) {
    return static_cast<double>(k) * 1e3 / rate;
  };
  const auto outstanding = [&] {
    size_t n = 0;
    for (const Conn& c : conns_) {
      n += c.in_flight;
    }
    return n;
  };

  const auto send_one = [&](size_t c, double due_ms) {
    const size_t k = records.size();
    OpRecord& r = records.emplace_back();
    r.op = (first + k) % ops.size();
    r.conn = static_cast<uint8_t>(c);
    r.due_ms = due_ms;
    r.sent_ms = MsSince(start);
    Conn& conn = conns_[c];
    if (conn.fd < 0) {
      r.state = OpRecord::State::kLost;
      r.sent_end_ms = r.replied_ms = r.sent_ms;
      return;
    }
    conn.out.append(EncodeFrame(ops[r.op].verb, static_cast<uint32_t>(k + 1),
                                ops[r.op].payload));
    ++conn.in_flight;
    const bool ok = Flush(c);
    records[k].sent_end_ms = MsSince(start);
    if (!ok) {
      FailConn(c, &records, records[k].sent_end_ms);
    }
  };

  const auto on_reply = [&](size_t c, Frame* frame) {
    const uint32_t id = frame->request_id;
    if (id == 0 || id > records.size() ||
        records[id - 1].state != OpRecord::State::kInFlight ||
        records[id - 1].conn != c) {
      return false;
    }
    OpRecord& r = records[id - 1];
    r.state = OpRecord::State::kReplied;
    r.reply_verb = frame->verb;
    r.reply = std::move(frame->payload);
    r.replied_ms = MsSince(start);
    --conns_[c].in_flight;
    if (tracer != nullptr) {
      // The traced run decodes inline, so the decode span is real work on
      // the generator thread (part of the measured tracing overhead).
      if (r.reply_verb == Verb::kResult) {
        QueryResult decoded;
        DecodeQueryResult(r.reply, &decoded);
      } else if (r.reply_verb == Verb::kMutateReply) {
        MutateReply decoded;
        DecodeMutateReply(r.reply, &decoded);
      }
      const double decoded_ms = MsSince(start);
      const auto us = [&](double ms) { return trace_base_us + ms * 1e3; };
      const uint64_t root = tracer->NewId();
      tracer->Record("wire.request", root, 0, id, us(r.sent_ms),
                     us(decoded_ms));
      tracer->Record("wire.send", tracer->NewId(), root, id, us(r.sent_ms),
                     us(r.sent_end_ms));
      tracer->Record("wire.wait", tracer->NewId(), root, id,
                     us(r.sent_end_ms), us(r.replied_ms));
      tracer->Record("wire.decode", tracer->NewId(), root, id,
                     us(r.replied_ms), us(decoded_ms));
    }
    return true;
  };

  std::vector<pollfd> pfds(num_conns);
  std::string buf(1 << 16, '\0');
  size_t next = 0;
  size_t rr = 0;
  double sending_done_ms = -1.0;
  while (true) {
    double now = MsSince(start);
    if (open) {
      while (next < max_ops && due_of(next) <= now) {
        send_one(next % num_conns, due_of(next));
        ++next;
      }
    } else if (now < duration_ms) {
      for (size_t i = 0; i < num_conns && next < max_ops; ++i) {
        const size_t c = (rr + i) % num_conns;
        while (conns_[c].fd >= 0 && conns_[c].in_flight < depth &&
               next < max_ops) {
          send_one(c, MsSince(start));
          ++next;
        }
      }
      rr = (rr + 1) % num_conns;
    }
    now = MsSince(start);
    const bool sending_done = next >= max_ops || (!open && now >= duration_ms);
    if (sending_done && sending_done_ms < 0.0) {
      sending_done_ms = now;
    }
    if (sending_done && outstanding() == 0) {
      break;
    }
    if (sending_done && now - sending_done_ms > kDrainTimeoutMs) {
      for (size_t c = 0; c < num_conns; ++c) {
        FailConn(c, &records, now);
      }
      break;
    }

    double timeout_ms = kMaxPollMs;
    if (open && next < max_ops) {
      timeout_ms = std::min(timeout_ms, std::max(0.0, due_of(next) - now));
    } else if (!open && !sending_done) {
      timeout_ms = std::min(timeout_ms, duration_ms - now);
    }
    for (size_t c = 0; c < num_conns; ++c) {
      pfds[c].fd = conns_[c].fd;
      pfds[c].events = static_cast<short>(
          POLLIN | (conns_[c].out_pos < conns_[c].out.size() ? POLLOUT : 0));
      pfds[c].revents = 0;
    }
    timespec ts;
    ts.tv_sec = static_cast<time_t>(timeout_ms / 1e3);
    ts.tv_nsec = static_cast<long>(
        (timeout_ms - static_cast<double>(ts.tv_sec) * 1e3) * 1e6);
    const int ready = ppoll(pfds.data(), pfds.size(), &ts, nullptr);
    if (ready <= 0) {
      continue;
    }
    for (size_t c = 0; c < num_conns; ++c) {
      if (pfds[c].fd < 0 || pfds[c].revents == 0) {
        continue;
      }
      bool failed = false;
      if ((pfds[c].revents & POLLOUT) != 0 && !Flush(c)) {
        failed = true;
      }
      if (!failed && (pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        Conn& conn = conns_[c];
        while (true) {
          const ssize_t n = recv(conn.fd, buf.data(), buf.size(), 0);
          if (n > 0) {
            conn.reader.Append(buf.data(), static_cast<size_t>(n));
            continue;
          }
          if (n < 0 && errno == EINTR) {
            continue;
          }
          failed = n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK);
          break;
        }
        Frame frame;
        FrameReader::Next step;
        while ((step = conn.reader.Pop(&frame)) == FrameReader::Next::kFrame) {
          if (!on_reply(c, &frame)) {
            failed = true;
            break;
          }
        }
        if (step == FrameReader::Next::kCorrupt) {
          failed = true;
        }
      }
      if (failed) {
        FailConn(c, &records, MsSince(start));
      }
    }
  }
  return result;
}

}  // namespace coskq::bench
