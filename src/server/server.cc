#include "server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstring>

#include "data/term_set.h"
#include "engine/batch_engine.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace coskq {

namespace {

// epoll_event.data.u64 tags for the two non-connection fds. Connection ids
// start above them.
constexpr uint64_t kListenTag = 0;
constexpr uint64_t kWakeTag = 1;
constexpr uint64_t kFirstConnId = 2;

// Latency ring size for the percentile snapshot: big enough that p99 over
// the recent window is meaningful, small enough to copy on every STATS.
constexpr size_t kLatencyWindow = 4096;

// Hard cap on the graceful-drain flush phase: once every admitted query is
// answered, a peer that refuses to read its responses only delays shutdown
// this long before its connection is closed with the bytes unsent.
constexpr double kDrainFlushTimeoutMs = 5000.0;

Status ErrnoStatus(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

double MillisBetween(std::chrono::steady_clock::time_point from,
                     std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// The process-wide server owning the SIGTERM/SIGINT handlers. Plain pointer
// store/load is all the handler does — async-signal-safe by construction.
std::atomic<CoskqServer*> g_signal_server{nullptr};

void HandleShutdownSignal(int /*signo*/) {
  CoskqServer* server = g_signal_server.load(std::memory_order_acquire);
  if (server != nullptr) {
    server->RequestShutdownFromSignal();
  }
}

}  // namespace

CoskqServer::CoskqServer(const CoskqContext& context,
                         const ServerOptions& options)
    : context_(context), options_(options) {
  COSKQ_CHECK(context.dataset != nullptr);
  COSKQ_CHECK(context.index != nullptr);
  if (options_.num_workers > 0) {
    resolved_workers_ = options_.num_workers;
  } else {
    resolved_workers_ = HardwareThreads();
  }
  if (options_.result_cache_mb > 0 && !ResultCache::ForceDisabledByEnv()) {
    ResultCache::Options cache_options;
    cache_options.budget_bytes = options_.result_cache_mb << 20;
    cache_options.cell_bits = options_.cache_cell_bits;
    result_cache_ = std::make_unique<ResultCache>(cache_options);
  }
  latency_window_.reserve(kLatencyWindow);
}

CoskqServer::~CoskqServer() {
  Shutdown();
  Wait();
  if (g_signal_server.load(std::memory_order_acquire) == this) {
    InstallSignalHandlers(nullptr);
  }
}

Status CoskqServer::Start() {
  COSKQ_CHECK(!running_.load()) << "Start() on a running server";

  if (options_.enable_mutations) {
    if (options_.mutable_dataset == nullptr ||
        options_.mutable_index == nullptr) {
      return Status::InvalidArgument(
          "enable_mutations requires mutable_dataset and mutable_index");
    }
    if (options_.mutable_dataset != context_.dataset ||
        options_.mutable_index != context_.index) {
      return Status::InvalidArgument(
          "mutable_dataset/mutable_index must alias the context handles");
    }
    // Pre-size the object array once so live inserts never reallocate it
    // under concurrent readers.
    if (!options_.mutable_dataset->concurrent_appends_enabled()) {
      options_.mutable_dataset->EnableConcurrentAppends(
          options_.mutation_capacity);
    }
  }

  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return ErrnoStatus("socket");
  }
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad listen address: " + options_.host);
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Status status = ErrnoStatus("bind " + options_.host + ":" +
                                      std::to_string(options_.port));
    close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (listen(listen_fd_, 128) != 0) {
    const Status status = ErrnoStatus("listen");
    close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  // Resolve the actual port (meaningful when options_.port == 0).
  socklen_t addr_len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                  &addr_len) == 0) {
    port_ = ntohs(addr.sin_port);
  }

  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    const Status status = ErrnoStatus("epoll_create1/eventfd");
    close(listen_fd_);
    listen_fd_ = -1;
    if (epoll_fd_ >= 0) {
      close(epoll_fd_);
      epoll_fd_ = -1;
    }
    if (wake_fd_ >= 0) {
      close(wake_fd_);
      wake_fd_ = -1;
    }
    return status;
  }

  epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN;
  ev.data.u64 = kListenTag;
  COSKQ_CHECK(epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) == 0);
  ev.data.u64 = kWakeTag;
  COSKQ_CHECK(epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) == 0);

  start_time_ = Clock::now();
  // Connection ids double as epoll tags, so they must never collide with
  // the reserved listen/wake tags.
  next_conn_id_ = kFirstConnId;
  static_assert(kFirstConnId > kWakeTag && kWakeTag > kListenTag);
  shutdown_requested_.store(false, std::memory_order_release);
  draining_ = false;
  queue_closed_ = false;
  running_.store(true, std::memory_order_release);

  workers_.reserve(resolved_workers_);
  for (int i = 0; i < resolved_workers_; ++i) {
    workers_.emplace_back([this] { WorkerMain(); });
  }
  loop_thread_ = std::thread([this] { LoopMain(); });
  return Status::OK();
}

void CoskqServer::Shutdown() {
  shutdown_requested_.store(true, std::memory_order_release);
  if (wake_fd_ >= 0) {
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t n = write(wake_fd_, &one, sizeof(one));
  }
}

void CoskqServer::RequestShutdownFromSignal() {
  // Only async-signal-safe operations: an atomic store and a write(2).
  shutdown_requested_.store(true, std::memory_order_release);
  if (wake_fd_ >= 0) {
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t n = write(wake_fd_, &one, sizeof(one));
  }
}

void CoskqServer::Wait() {
  std::lock_guard<std::mutex> lock(wait_mutex_);
  if (loop_thread_.joinable()) {
    loop_thread_.join();
  }
  for (std::thread& w : workers_) {
    if (w.joinable()) {
      w.join();
    }
  }
  workers_.clear();
  // The wake/epoll fds outlive the loop so workers can signal completions
  // right up to their exit; with every thread joined they can go.
  if (epoll_fd_ >= 0) {
    close(epoll_fd_);
    epoll_fd_ = -1;
  }
  if (wake_fd_ >= 0) {
    close(wake_fd_);
    wake_fd_ = -1;
  }
}

void CoskqServer::InstallSignalHandlers(CoskqServer* server) {
  g_signal_server.store(server, std::memory_order_release);
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  if (server != nullptr) {
    action.sa_handler = HandleShutdownSignal;
    action.sa_flags = SA_RESTART;
  } else {
    action.sa_handler = SIG_DFL;
  }
  sigemptyset(&action.sa_mask);
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
}

ServerStatsSnapshot CoskqServer::stats() const {
  ServerStatsSnapshot snap;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    snap.connections_accepted = connections_accepted_;
    snap.queries_received = queries_received_;
    snap.queries_executed = queries_executed_;
    snap.queries_shed = queries_shed_;
    snap.queries_truncated = queries_truncated_;
    snap.queries_infeasible = queries_infeasible_;
    snap.queries_errored = queries_errored_;
    snap.queries_active = queries_active_;
    snap.mean_ms = latency_ms_.mean();
    if (!latency_window_.empty()) {
      std::vector<double> window = latency_window_;
      snap.p50_ms = Percentile(window, 50.0);
      snap.p95_ms = Percentile(window, 95.0);
      snap.p99_ms = Percentile(std::move(window), 99.0);
    }
    snap.connections_active = connections_active_count_;
  }
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    snap.queue_depth = queue_.size();
  }
  snap.uptime_s = MillisBetween(start_time_, Clock::now()) / 1e3;
  snap.index_from_snapshot = options_.index_from_snapshot ? 1 : 0;
  snap.index_prepare_ms = options_.index_prepare_ms;
  snap.index_nodes = options_.index_nodes;
  snap.index_checksum = options_.index_checksum;
  if (options_.mutable_index != nullptr) {
    snap.index_epoch = options_.mutable_index->epoch();
    snap.delta_size = options_.mutable_index->delta_size();
    snap.mutations_applied = options_.mutable_index->mutations_applied();
    snap.refreezes_completed = options_.mutable_index->refreezes_completed();
  }
  if (context_.index != nullptr) {
    const IndexMemoryStats mem = context_.index->MemoryStats();
    snap.index_layout = static_cast<uint8_t>(mem.layout);
    snap.index_cold = mem.cold ? 1 : 0;
    snap.body_bytes = mem.body_bytes;
    snap.body_resident_bytes = mem.body_resident_bytes;
    snap.memory_budget_bytes = mem.memory_budget_bytes;
    snap.budget_trims = mem.budget_trims;
    snap.major_faults = mem.major_faults;
    snap.minor_faults = mem.minor_faults;
  }
  if (result_cache_ != nullptr) {
    const ResultCacheStats cache = result_cache_->Snapshot();
    snap.cache_enabled = 1;
    snap.cache_hits = cache.hits;
    snap.cache_misses = cache.misses;
    snap.cache_evictions = cache.evictions;
    snap.cache_invalidations = cache.invalidations;
    snap.cache_resident_bytes = cache.resident_bytes;
    snap.cache_budget_bytes = cache.budget_bytes;
    snap.cache_entries = cache.entries;
  }
  return snap;
}

// ---------------------------------------------------------------------------
// Event loop.

void CoskqServer::LoopMain() {
  Clock::time_point drain_started;
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  bool done = false;
  while (!done) {
    // During a drain, tick periodically so completion/flush progress is
    // re-checked even with no socket activity.
    const int timeout_ms = draining_ ? 10 : -1;
    const int n = epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      COSKQ_LOG(kError) << "epoll_wait: " << std::strerror(errno);
      break;
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t tag = events[i].data.u64;
      if (tag == kWakeTag) {
        uint64_t drained = 0;
        while (read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        DrainCompletions();
      } else if (tag == kListenTag) {
        AcceptAll();
      } else {
        // A connection may be closed by an earlier event in this batch;
        // stale tags just miss the map.
        if (events[i].events & (EPOLLHUP | EPOLLERR)) {
          CloseConnection(tag);
          continue;
        }
        if (events[i].events & EPOLLIN) {
          HandleReadable(tag);
        }
        if (events[i].events & EPOLLOUT) {
          HandleWritable(tag);
        }
      }
    }
    if (!draining_ && shutdown_requested_.load(std::memory_order_acquire)) {
      BeginDrainIfRequested();
      drain_started = Clock::now();
    }
    if (draining_) {
      DrainCompletions();
      const bool answered = DrainComplete();
      const bool flush_expired =
          MillisBetween(drain_started, Clock::now()) > kDrainFlushTimeoutMs;
      if (answered) {
        // Everything admitted is answered; close connections as their write
        // buffers empty (or unconditionally once the flush grace expires).
        std::vector<uint64_t> to_close;
        for (const auto& [id, conn] : connections_) {
          const bool flushed =
              conn->write_offset >= conn->write_buffer.size();
          if (flushed || flush_expired) {
            to_close.push_back(id);
          }
        }
        for (uint64_t id : to_close) {
          CloseConnection(id);
        }
        if (connections_.empty()) {
          done = true;
        }
      }
    }
  }

  // Release the workers: the queue is empty by the drain invariant (or we
  // are exiting on an epoll error and abandon whatever is left).
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    queue_closed_ = true;
  }
  queue_cv_.notify_all();

  for (auto& [id, conn] : connections_) {
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
    close(conn->fd);
  }
  connections_.clear();
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    connections_active_count_ = 0;
  }
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
  running_.store(false, std::memory_order_release);
}

void CoskqServer::BeginDrainIfRequested() {
  draining_ = true;
  // Stop accepting: new connects are refused from this point on.
  if (listen_fd_ >= 0) {
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    close(listen_fd_);
    listen_fd_ = -1;
  }
}

bool CoskqServer::DrainComplete() const {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (!queue_.empty()) {
      return false;
    }
  }
  {
    std::lock_guard<std::mutex> lock(completions_mutex_);
    if (!completions_.empty()) {
      return false;
    }
  }
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return queries_active_ == 0;
}

void CoskqServer::AcceptAll() {
  while (true) {
    const int fd = accept4(listen_fd_, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      return;  // EAGAIN, or a transient accept error; epoll will re-arm.
    }
    if (connections_.size() >= options_.max_connections) {
      close(fd);
      continue;
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    const uint64_t conn_id = next_conn_id_++;
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;
    ev.data.u64 = conn_id;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      close(fd);
      continue;
    }
    connections_.emplace(conn_id, std::move(conn));
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++connections_accepted_;
    connections_active_count_ = connections_.size();
  }
}

void CoskqServer::HandleReadable(uint64_t conn_id) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) {
    return;
  }
  Connection* conn = it->second.get();
  char buf[16 * 1024];
  while (true) {
    const ssize_t n = read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      conn->reader.Append(buf, static_cast<size_t>(n));
      if (static_cast<size_t>(n) < sizeof(buf)) {
        break;  // Socket drained; avoid one guaranteed-EAGAIN syscall.
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    CloseConnection(conn_id);  // EOF or hard error.
    return;
  }

  Frame frame;
  while (true) {
    const FrameReader::Next next = conn->reader.Pop(&frame);
    if (next == FrameReader::Next::kNeedMore) {
      break;
    }
    if (next == FrameReader::Next::kCorrupt) {
      // Framing is lost: report once, flush, close. A version mismatch gets
      // a special one-shot reply stamped with the *peer's* version byte so
      // an old client can decode the explanation instead of hanging on a
      // frame it would discard as foreign.
      if (conn->reader.version_mismatch()) {
        ErrorReply err{
            StatusCode::kInvalidArgument,
            "protocol version mismatch: client speaks version " +
                std::to_string(conn->reader.bad_version()) +
                ", server speaks version " +
                std::to_string(kProtocolVersion)};
        conn->write_buffer += EncodeFrameWithVersion(
            conn->reader.bad_version(), Verb::kError,
            conn->reader.last_request_id(), EncodeErrorReply(err));
        FlushWrites(conn_id);
        auto mismatched = connections_.find(conn_id);
        if (mismatched != connections_.end()) {
          mismatched->second->close_after_flush = true;
          if (mismatched->second->write_offset >=
              mismatched->second->write_buffer.size()) {
            CloseConnection(conn_id);
          }
        }
        return;
      }
      ErrorReply err{StatusCode::kCorruption, conn->reader.error()};
      SendFrame(conn_id, Verb::kError, 0, EncodeErrorReply(err));
      auto still = connections_.find(conn_id);
      if (still != connections_.end()) {
        still->second->close_after_flush = true;
        if (still->second->write_offset >=
            still->second->write_buffer.size()) {
          CloseConnection(conn_id);
        }
      }
      return;
    }
    DispatchFrame(conn_id, frame);
    if (connections_.find(conn_id) == connections_.end()) {
      return;  // Dispatch closed the connection.
    }
  }
}

void CoskqServer::DispatchFrame(uint64_t conn_id, const Frame& frame) {
  switch (frame.verb) {
    case Verb::kPing:
      SendFrame(conn_id, Verb::kPong, frame.request_id, std::string());
      return;
    case Verb::kStats:
      SendFrame(conn_id, Verb::kStatsReply, frame.request_id,
                EncodeStatsReply(stats()));
      return;
    case Verb::kQuery:
      HandleQuery(conn_id, frame);
      return;
    case Verb::kMutate:
      HandleMutate(conn_id, frame);
      return;
    case Verb::kRelevant:
      HandleRelevant(conn_id, frame);
      return;
    default:
      break;
  }
  // A response verb arriving at the server is a client bug, not stream
  // corruption — answer it and keep the connection.
  ErrorReply err{StatusCode::kInvalidArgument,
                 "unexpected verb " +
                     std::to_string(static_cast<int>(frame.verb))};
  SendFrame(conn_id, Verb::kError, frame.request_id, EncodeErrorReply(err));
}

void CoskqServer::HandleQuery(uint64_t conn_id, const Frame& frame) {
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++queries_received_;
  }
  QueryRequest request;
  if (!DecodeQueryRequest(frame.payload, &request) ||
      request.keywords.empty()) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++queries_errored_;
    ErrorReply err{StatusCode::kInvalidArgument, "malformed QUERY payload"};
    SendFrame(conn_id, Verb::kError, frame.request_id,
              EncodeErrorReply(err));
    return;
  }
  if (draining_) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++queries_errored_;
    ErrorReply err{StatusCode::kInternal, "server draining"};
    SendFrame(conn_id, Verb::kError, frame.request_id,
              EncodeErrorReply(err));
    return;
  }

  // Intern the keywords. A keyword absent from the vocabulary matches no
  // object, so the query is infeasible by definition — answered inline, no
  // solver needed.
  Job job;
  job.query.location = Point{request.x, request.y};
  bool unknown_keyword = false;
  for (const std::string& kw : request.keywords) {
    const TermId t = context_.dataset->vocabulary().Find(kw);
    if (t == Vocabulary::kInvalidTermId) {
      unknown_keyword = true;
      break;
    }
    job.query.keywords.push_back(t);
  }
  if (unknown_keyword) {
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++queries_infeasible_;
    }
    QueryResult result;
    result.outcome = QueryOutcome::kInfeasible;
    result.cost = std::numeric_limits<double>::infinity();
    SendFrame(conn_id, Verb::kResult, frame.request_id,
              EncodeQueryResult(result));
    return;
  }
  NormalizeTermSet(&job.query.keywords);

  job.conn_id = conn_id;
  job.request_id = frame.request_id;
  job.solver_name = SolverRegistryName(request.solver, request.cost_type);
  job.deadline_ms = request.deadline_ms;
  // Clamp only well-formed deadlines; negative/NaN values flow through to
  // the BatchOptions validation and come back as an ERROR response.
  if (options_.max_deadline_ms > 0.0 &&
      (job.deadline_ms == 0.0 ||
       job.deadline_ms > options_.max_deadline_ms)) {
    job.deadline_ms = options_.max_deadline_ms;
  }
  job.arrival = Clock::now();

  // Result cache (DESIGN.md §16). The key is the canonical query form; the
  // invalidation stamps are read here on the event-loop thread — the sole
  // MUTATE applier — so a query arriving after a MUTATE ack always carries
  // the post-mutation stamp and can never hit a pre-mutation entry. A
  // mutation landing while the solve is in flight leaves the inserted entry
  // with an already-stale stamp, which the next lookup drops.
  if (result_cache_ != nullptr && !job.solver_name.empty()) {
    job.cache_key.cell =
        ResultCache::CellOf(request.x, request.y, result_cache_->cell_bits());
    job.cache_key.keywords.assign(job.query.keywords.begin(),
                                  job.query.keywords.end());
    job.cache_key.solver = static_cast<uint8_t>(request.solver);
    job.cache_key.cost_type = static_cast<uint8_t>(request.cost_type);
    job.cache_key.x = request.x;
    job.cache_key.y = request.y;
    const IrTree* stamp_index = options_.mutable_index != nullptr
                                    ? options_.mutable_index
                                    : context_.index;
    job.cache_epoch = stamp_index->epoch();
    job.cache_mutations = stamp_index->mutations_applied();
    job.cacheable = true;
    CachedAnswer hit;
    if (result_cache_->Lookup(job.cache_key, job.cache_epoch,
                              job.cache_mutations, &hit)) {
      QueryResult result;
      result.outcome = static_cast<QueryOutcome>(hit.outcome);
      result.cost = hit.cost;
      result.solve_ms = hit.solve_ms;
      result.set = std::move(hit.set);
      Completion done;
      done.kind = result.outcome == QueryOutcome::kInfeasible
                      ? Completion::Kind::kInfeasible
                      : Completion::Kind::kExecuted;
      done.latency_ms = MillisBetween(job.arrival, Clock::now());
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        // The hit never entered the admission queue; offset the active-count
        // decrement RecordCompletionLocked pairs with admission.
        ++queries_active_;
        RecordCompletionLocked(done);
      }
      SendFrame(conn_id, Verb::kResult, frame.request_id,
                EncodeQueryResult(result));
      return;
    }
  }

  // Admission: bounded queue or an immediate OVERLOADED — the accept loop
  // never blocks on the solvers.
  size_t depth = 0;
  bool admitted = false;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    depth = queue_.size();
    if (depth < options_.queue_capacity && !queue_closed_) {
      queue_.push_back(std::move(job));
      admitted = true;
      ++depth;
    }
  }
  if (admitted) {
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++queries_active_;
    }
    auto it = connections_.find(conn_id);
    if (it != connections_.end()) {
      ++it->second->in_flight;
    }
    queue_cv_.notify_one();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++queries_shed_;
  }
  OverloadedReply reply{options_.retry_after_ms,
                        static_cast<uint32_t>(depth)};
  SendFrame(conn_id, Verb::kOverloaded, frame.request_id,
            EncodeOverloadedReply(reply));
}

void CoskqServer::HandleRelevant(uint64_t conn_id, const Frame& frame) {
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++queries_received_;
  }
  Job job;
  RelevantRequest request;
  if (!DecodeRelevantRequest(frame.payload, &request)) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++queries_errored_;
    ErrorReply err{StatusCode::kInvalidArgument,
                   "malformed RELEVANT payload"};
    SendFrame(conn_id, Verb::kError, frame.request_id,
              EncodeErrorReply(err));
    return;
  }
  if (draining_) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++queries_errored_;
    ErrorReply err{StatusCode::kInternal, "server draining"};
    SendFrame(conn_id, Verb::kError, frame.request_id,
              EncodeErrorReply(err));
    return;
  }
  // A keyword unknown to this shard simply matches nothing — shards hold
  // vocabulary subsets, so unlike a QUERY this is not an infeasibility.
  job.kind = Job::Kind::kRelevant;
  job.conn_id = conn_id;
  job.request_id = frame.request_id;
  job.relevant_keywords = std::move(request.keywords);
  job.arrival = Clock::now();

  size_t depth = 0;
  bool admitted = false;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    depth = queue_.size();
    if (depth < options_.queue_capacity && !queue_closed_) {
      queue_.push_back(std::move(job));
      admitted = true;
      ++depth;
    }
  }
  if (admitted) {
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++queries_active_;
    }
    auto it = connections_.find(conn_id);
    if (it != connections_.end()) {
      ++it->second->in_flight;
    }
    queue_cv_.notify_one();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++queries_shed_;
  }
  OverloadedReply reply{options_.retry_after_ms,
                        static_cast<uint32_t>(depth)};
  SendFrame(conn_id, Verb::kOverloaded, frame.request_id,
            EncodeOverloadedReply(reply));
}

void CoskqServer::HandleMutate(uint64_t conn_id, const Frame& frame) {
  const auto fail = [&](StatusCode code, const std::string& message) {
    ErrorReply err{code, message};
    SendFrame(conn_id, Verb::kError, frame.request_id,
              EncodeErrorReply(err));
  };
  if (!options_.enable_mutations) {
    fail(StatusCode::kUnimplemented,
         "mutations are disabled on this server");
    return;
  }
  if (draining_) {
    fail(StatusCode::kInternal, "server draining");
    return;
  }
  MutateRequest request;
  if (!DecodeMutateRequest(frame.payload, &request)) {
    fail(StatusCode::kInvalidArgument, "malformed MUTATE payload");
    return;
  }

  // Applied inline on the event-loop thread: it is the only mutator, so no
  // lock is needed against other MUTATEs, and it never holds a ReadGuard, so
  // it cannot deadlock against the index's swap lock.
  Dataset* dataset = options_.mutable_dataset;
  IrTree* index = options_.mutable_index;
  ObjectId applied_id = 0;
  if (request.op == MutateRequest::Op::kInsert) {
    if (!std::isfinite(request.x) || !std::isfinite(request.y)) {
      fail(StatusCode::kInvalidArgument, "non-finite insert location");
      return;
    }
    if (request.keywords.empty()) {
      fail(StatusCode::kInvalidArgument, "insert carries no keywords");
      return;
    }
    // The vocabulary is the trust boundary: anonymous writers may place
    // objects, not grow the term space (interning is also not thread-safe
    // against the solver threads reading it).
    TermSet terms;
    for (const std::string& kw : request.keywords) {
      const TermId t = dataset->vocabulary().Find(kw);
      if (t == Vocabulary::kInvalidTermId) {
        fail(StatusCode::kInvalidArgument,
             "unknown keyword '" + kw + "' (the vocabulary is fixed)");
        return;
      }
      terms.push_back(t);
    }
    StatusOr<ObjectId> appended = dataset->AppendObjectConcurrent(
        Point{request.x, request.y}, std::move(terms));
    if (!appended.ok()) {
      fail(appended.status().code(), appended.status().message());
      return;
    }
    applied_id = appended.value();
    const Status status = index->Insert(applied_id);
    if (!status.ok()) {
      fail(status.code(), status.message());
      return;
    }
  } else {
    applied_id = request.object_id;
    const Status status = index->Remove(applied_id);
    if (!status.ok()) {
      fail(status.code(), status.message());
      return;
    }
  }

  // The reply is encoded only after Insert/Remove returned: a client that
  // has the ack and then queries observes the mutation (acked-write
  // freshness; queries pin their view at solve time, after this point).
  MutateReply reply;
  reply.object_id = static_cast<uint32_t>(applied_id);
  reply.delta_size = index->delta_size();
  reply.epoch = index->epoch();
  SendFrame(conn_id, Verb::kMutateReply, frame.request_id,
            EncodeMutateReply(reply));

  if (options_.refreeze_threshold > 0 &&
      reply.delta_size >= options_.refreeze_threshold) {
    index->RefreezeAsync();
  }
}

void CoskqServer::DrainCompletions() {
  std::deque<Completion> ready;
  {
    std::lock_guard<std::mutex> lock(completions_mutex_);
    ready.swap(completions_);
  }
  for (Completion& c : ready) {
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      RecordCompletionLocked(c);
    }
    auto it = connections_.find(c.conn_id);
    if (it == connections_.end()) {
      continue;  // Client went away; the answer has no address.
    }
    Connection* conn = it->second.get();
    if (conn->in_flight > 0) {
      --conn->in_flight;
    }
    conn->write_buffer.append(c.frame);
    FlushWrites(c.conn_id);
  }
}

void CoskqServer::RecordCompletionLocked(const Completion& c) {
  switch (c.kind) {
    case Completion::Kind::kExecuted:
      ++queries_executed_;
      break;
    case Completion::Kind::kTruncated:
      ++queries_executed_;
      ++queries_truncated_;
      break;
    case Completion::Kind::kInfeasible:
      ++queries_executed_;
      ++queries_infeasible_;
      break;
    case Completion::Kind::kError:
      ++queries_errored_;
      break;
  }
  if (queries_active_ > 0) {
    --queries_active_;
  }
  if (c.latency_ms >= 0.0) {
    latency_ms_.Add(c.latency_ms);
    if (latency_window_.size() < kLatencyWindow) {
      latency_window_.push_back(c.latency_ms);
    } else {
      latency_window_[latency_window_pos_] = c.latency_ms;
      latency_window_pos_ = (latency_window_pos_ + 1) % kLatencyWindow;
    }
  }
}

void CoskqServer::SendFrame(uint64_t conn_id, Verb verb, uint32_t request_id,
                            const std::string& payload) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) {
    return;
  }
  it->second->write_buffer.append(EncodeFrame(verb, request_id, payload));
  FlushWrites(conn_id);
}

void CoskqServer::FlushWrites(uint64_t conn_id) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) {
    return;
  }
  Connection* conn = it->second.get();
  while (conn->write_offset < conn->write_buffer.size()) {
    const ssize_t n =
        write(conn->fd, conn->write_buffer.data() + conn->write_offset,
              conn->write_buffer.size() - conn->write_offset);
    if (n > 0) {
      conn->write_offset += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      UpdateEpollInterest(conn, conn_id);
      return;
    }
    CloseConnection(conn_id);  // Peer reset.
    return;
  }
  // Fully flushed: reclaim the buffer and drop write interest.
  conn->write_buffer.clear();
  conn->write_offset = 0;
  UpdateEpollInterest(conn, conn_id);
  if (conn->close_after_flush) {
    CloseConnection(conn_id);
  }
}

void CoskqServer::HandleWritable(uint64_t conn_id) { FlushWrites(conn_id); }

void CoskqServer::UpdateEpollInterest(Connection* conn, uint64_t conn_id) {
  const bool wants_write = conn->write_offset < conn->write_buffer.size();
  if (wants_write == conn->wants_write) {
    return;
  }
  conn->wants_write = wants_write;
  epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN;
  if (wants_write) {
    ev.events |= EPOLLOUT;
  }
  ev.data.u64 = conn_id;
  epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

void CoskqServer::CloseConnection(uint64_t conn_id) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) {
    return;
  }
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second->fd, nullptr);
  close(it->second->fd);
  connections_.erase(it);
  std::lock_guard<std::mutex> lock(stats_mutex_);
  connections_active_count_ = connections_.size();
}

// ---------------------------------------------------------------------------
// Workers.

void CoskqServer::WorkerMain() {
  while (true) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock,
                     [this] { return queue_closed_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // Closed and drained.
      }
      job = std::move(queue_.front());
      queue_.pop_front();
    }

    if (options_.test_solve_delay_ms > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          options_.test_solve_delay_ms));
    }

    if (job.kind == Job::Kind::kRelevant) {
      Completion completion;
      completion.conn_id = job.conn_id;
      completion.kind = Completion::Kind::kExecuted;
      completion.frame = RunRelevant(job);
      completion.latency_ms = MillisBetween(job.arrival, Clock::now());
      {
        std::lock_guard<std::mutex> lock(completions_mutex_);
        completions_.push_back(std::move(completion));
      }
      const uint64_t one = 1;
      [[maybe_unused]] ssize_t n = write(wake_fd_, &one, sizeof(one));
      continue;
    }

    // One-query batch through the BatchEngine execution path: same solver
    // construction, deadline propagation, and option validation as an
    // offline batch run, so wire answers are bit-identical to in-process
    // runs by construction.
    BatchOptions batch_options;
    batch_options.solver_name = job.solver_name;
    batch_options.num_threads = 1;
    batch_options.deadline_ms = job.deadline_ms;
    batch_options.use_query_masks = options_.use_query_masks;
    const BatchEngine engine(context_, batch_options);
    const BatchOutcome outcome = engine.Run({job.query});

    Completion completion;
    completion.conn_id = job.conn_id;
    completion.latency_ms = MillisBetween(job.arrival, Clock::now());
    if (!outcome.status.ok()) {
      completion.kind = Completion::Kind::kError;
      ErrorReply err{outcome.status.code(), outcome.status.message()};
      completion.frame = EncodeFrame(Verb::kError, job.request_id,
                                     EncodeErrorReply(err));
    } else {
      const CoskqResult& r = outcome.results[0];
      QueryResult result;
      result.cost = r.cost;
      result.solve_ms = r.stats.elapsed_ms;
      result.set = r.set;
      if (!r.feasible) {
        result.outcome = QueryOutcome::kInfeasible;
        completion.kind = Completion::Kind::kInfeasible;
      } else if (r.stats.truncated) {
        result.outcome = QueryOutcome::kDeadlineTruncated;
        completion.kind = Completion::Kind::kTruncated;
      } else {
        result.outcome = QueryOutcome::kExecuted;
        completion.kind = Completion::Kind::kExecuted;
      }
      // Cache the answer under the stamps read before the solve. Truncated
      // answers are deadline-dependent, not query-determined — never cached.
      if (result_cache_ != nullptr && job.cacheable &&
          result.outcome != QueryOutcome::kDeadlineTruncated) {
        CachedAnswer answer;
        answer.outcome = static_cast<uint8_t>(result.outcome);
        answer.cost = result.cost;
        answer.solve_ms = result.solve_ms;
        answer.set = result.set;
        result_cache_->Insert(job.cache_key, job.cache_epoch,
                              job.cache_mutations, answer);
      }
      completion.frame = EncodeFrame(Verb::kResult, job.request_id,
                                     EncodeQueryResult(result));
    }

    {
      std::lock_guard<std::mutex> lock(completions_mutex_);
      completions_.push_back(std::move(completion));
    }
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t n = write(wake_fd_, &one, sizeof(one));
  }
}

const InvertedIndex* CoskqServer::RelevantPostings() {
  // With live mutations the dataset's raw object storage carries
  // unpublished placeholder slots and a concurrent appender; postings built
  // from it would race. The harvest then scans the published range instead.
  if (options_.enable_mutations) {
    return nullptr;
  }
  std::call_once(postings_once_, [this] {
    postings_ = std::make_unique<InvertedIndex>(*context_.dataset);
  });
  return postings_.get();
}

std::string CoskqServer::RunRelevant(const Job& job) {
  const Dataset& dataset = *context_.dataset;
  // Resolve the requester's keywords; position in the request is the mask
  // bit, so unknown-to-this-shard keywords just leave their bit unset.
  std::vector<std::pair<TermId, int>> bits;
  bits.reserve(job.relevant_keywords.size());
  for (size_t i = 0; i < job.relevant_keywords.size(); ++i) {
    const TermId t = dataset.vocabulary().Find(job.relevant_keywords[i]);
    if (t != Vocabulary::kInvalidTermId) {
      bits.emplace_back(t, static_cast<int>(i));
    }
  }

  std::vector<RelevantEntry> entries;
  const InvertedIndex* postings = RelevantPostings();
  if (postings != nullptr) {
    // Merge the posting lists: O(matches), and ids come out sorted.
    std::unordered_map<uint32_t, uint64_t> masks;
    for (const auto& [t, bit] : bits) {
      for (const ObjectId id : postings->Postings(t)) {
        masks[static_cast<uint32_t>(id)] |= uint64_t{1} << bit;
      }
    }
    entries.reserve(masks.size());
    for (const auto& [id, mask] : masks) {
      RelevantEntry e;
      e.object_id = id;
      const SpatialObject& obj = dataset.object(id);
      e.x = obj.location.x;
      e.y = obj.location.y;
      e.keyword_mask = mask;
      entries.push_back(e);
    }
    std::sort(entries.begin(), entries.end(),
              [](const RelevantEntry& a, const RelevantEntry& b) {
                return a.object_id < b.object_id;
              });
  } else {
    // Mutation-enabled fallback: scan the published range through the
    // release-acquire accessors (never the raw vector), so a racing append
    // is either fully visible or not at all.
    const size_t n = dataset.NumObjects();
    for (size_t id = 0; id < n; ++id) {
      const SpatialObject& obj = dataset.object(id);
      uint64_t mask = 0;
      for (const auto& [t, bit] : bits) {
        if (TermSetContains(obj.keywords, t)) {
          mask |= uint64_t{1} << bit;
        }
      }
      if (mask != 0) {
        RelevantEntry e;
        e.object_id = static_cast<uint32_t>(id);
        e.x = obj.location.x;
        e.y = obj.location.y;
        e.keyword_mask = mask;
        entries.push_back(e);
      }
    }
  }

  // Stream the harvest as chunks under the frame payload cap; every chunk
  // carries the request id, the last one clears `more`. The chunks are
  // concatenated into one completion so the event loop writes them in order.
  std::string frames;
  size_t offset = 0;
  do {
    RelevantReply chunk;
    const size_t take =
        std::min(kRelevantChunkEntries, entries.size() - offset);
    chunk.objects.assign(entries.begin() + offset,
                         entries.begin() + offset + take);
    offset += take;
    chunk.more = offset < entries.size() ? 1 : 0;
    frames += EncodeFrame(Verb::kRelevantReply, job.request_id,
                          EncodeRelevantReply(chunk));
  } while (offset < entries.size());
  return frames;
}

}  // namespace coskq
