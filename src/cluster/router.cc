#include "cluster/router.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstring>
#include <limits>
#include <numeric>
#include <unordered_map>

#include "core/solver.h"
#include "data/dataset.h"
#include "engine/batch_engine.h"
#include "index/irtree.h"
#include "util/logging.h"

namespace coskq {

namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kRouterLatencyWindow = 4096;
constexpr size_t kShardLatencyWindow = 512;

double MillisBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

Status ErrnoStatus(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

/// Full blocking write; MSG_NOSIGNAL so a peer that vanished mid-response
/// surfaces as EPIPE instead of killing the process.
bool WriteAll(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = send(fd, bytes.data() + sent, bytes.size() - sent,
                           MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

std::string ErrorFrame(uint32_t request_id, StatusCode code,
                       const std::string& message) {
  ErrorReply err{code, message};
  return EncodeFrame(Verb::kError, request_id, EncodeErrorReply(err));
}

/// Solver families eligible for the MINDIST shard prune. Cost-admissibility
/// needs an exact family (a feasible probe cost upper-bounds the optimal
/// cost, and every member of an optimal set lies within that cost of the
/// query for both cost functions), but cost-admissibility alone is not
/// enough for the bit-identity contract: the Cao exact solver and the
/// brute-force oracle break equal-cost ties by enumeration order, and
/// dropping candidates that cannot join any optimal set still reshapes
/// their search order (e.g. brute force branches on the keyword with the
/// fewest candidates). Only the owner-driven exact solver's answer is
/// stable under removal of objects beyond the optimal cost radius, so it
/// is the only family the router distance-prunes; the others harvest the
/// full keyword-relevant universe.
bool IsDistancePrunableSolverKind(SolverKind kind) {
  return kind == SolverKind::kExact;
}

std::atomic<ClusterRouter*> g_signal_router{nullptr};

void HandleRouterSignal(int /*signo*/) {
  ClusterRouter* router = g_signal_router.load(std::memory_order_acquire);
  if (router != nullptr) {
    router->RequestShutdownFromSignal();
  }
}

}  // namespace

ClusterRouter::ClusterRouter(const ClusterManifest& manifest,
                             const RouterOptions& options)
    : manifest_(manifest), options_(options) {
  if (options_.result_cache_mb > 0 && !ResultCache::ForceDisabledByEnv()) {
    ResultCache::Options cache_options;
    cache_options.budget_bytes = options_.result_cache_mb << 20;
    cache_options.cell_bits = options_.cache_cell_bits;
    result_cache_ = std::make_unique<ResultCache>(cache_options);
  }
}

ClusterRouter::~ClusterRouter() {
  Shutdown();
  Wait();
  if (g_signal_router.load(std::memory_order_acquire) == this) {
    InstallSignalHandlers(nullptr);
  }
}

Status ClusterRouter::Start() {
  COSKQ_CHECK(!running_.load()) << "Start() on a running router";
  if (manifest_.shards.empty()) {
    return Status::InvalidArgument("manifest has no shards");
  }
  if (options_.shards.size() != manifest_.shards.size()) {
    return Status::InvalidArgument(
        "shard address count (" + std::to_string(options_.shards.size()) +
        ") does not match manifest shard count (" +
        std::to_string(manifest_.shards.size()) + ")");
  }
  vocab_.clear();
  vocab_.reserve(manifest_.vocabulary.size());
  for (size_t i = 0; i < manifest_.vocabulary.size(); ++i) {
    vocab_.emplace(manifest_.vocabulary[i], static_cast<uint32_t>(i));
  }

  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
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
  socklen_t addr_len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                  &addr_len) == 0) {
    port_ = ntohs(addr.sin_port);
  }

  shard_windows_.assign(manifest_.shards.size(), ShardWindow());
  latency_window_.clear();
  latency_window_.reserve(kRouterLatencyWindow);
  start_time_ = Clock::now();
  shutdown_requested_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptMain(); });
  return Status::OK();
}

void ClusterRouter::Shutdown() {
  shutdown_requested_.store(true, std::memory_order_release);
  if (listen_fd_ >= 0) {
    shutdown(listen_fd_, SHUT_RDWR);
  }
}

void ClusterRouter::RequestShutdownFromSignal() {
  // Async-signal-safe: an atomic store plus shutdown(2). The accept thread
  // wakes from accept(2), sees the flag, and drains the connections in
  // ordinary thread context.
  shutdown_requested_.store(true, std::memory_order_release);
  if (listen_fd_ >= 0) {
    shutdown(listen_fd_, SHUT_RDWR);
  }
}

void ClusterRouter::Wait() {
  std::lock_guard<std::mutex> lock(wait_mutex_);
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  // The accept thread has exited, so conns_ gains no new entries; joining
  // without the list mutex is safe.
  for (auto& conn : conns_) {
    if (conn->thread.joinable()) {
      conn->thread.join();
    }
  }
  conns_.clear();
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
  running_.store(false, std::memory_order_release);
}

void ClusterRouter::InstallSignalHandlers(ClusterRouter* router) {
  g_signal_router.store(router, std::memory_order_release);
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  if (router != nullptr) {
    action.sa_handler = HandleRouterSignal;
    action.sa_flags = SA_RESTART;
  } else {
    action.sa_handler = SIG_DFL;
  }
  sigemptyset(&action.sa_mask);
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
}

void ClusterRouter::AcceptMain() {
  while (!shutdown_requested_.load(std::memory_order_acquire)) {
    const int fd = accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;  // shutdown(2) on the listen socket, or a fatal accept error.
    }
    if (shutdown_requested_.load(std::memory_order_acquire)) {
      close(fd);
      break;
    }
    // Reap before the capacity check so conns_ counts live connections, not
    // every connection ever accepted — otherwise client churn would wedge
    // the router once cumulative accepts reach max_connections, with every
    // dead entry leaking its thread and its per-connection shard sockets.
    ReapFinishedConns();
    {
      std::lock_guard<std::mutex> lock(conns_mutex_);
      if (conns_.size() >= options_.max_connections) {
        close(fd);
        continue;
      }
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<ConnState>();
    conn->fd = fd;
    conn->clients.resize(manifest_.shards.size());
    ConnState* raw = conn.get();
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++connections_accepted_;
      ++connections_active_;
    }
    {
      std::lock_guard<std::mutex> lock(conns_mutex_);
      conns_.push_back(std::move(conn));
    }
    raw->thread = std::thread([this, raw] { ConnMain(raw); });
  }

  // Drain: unblock every connection thread's read so they exit promptly.
  std::lock_guard<std::mutex> lock(conns_mutex_);
  for (auto& conn : conns_) {
    if (conn->fd >= 0) {
      shutdown(conn->fd, SHUT_RDWR);
    }
  }
}

void ClusterRouter::ConnMain(ConnState* conn) {
  FrameReader reader;
  char buf[16 * 1024];
  bool open = true;
  while (open) {
    const ssize_t n = read(conn->fd, buf, sizeof(buf));
    if (n == 0) {
      break;
    }
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;
    }
    reader.Append(buf, static_cast<size_t>(n));

    Frame frame;
    while (open) {
      const FrameReader::Next next = reader.Pop(&frame);
      if (next == FrameReader::Next::kNeedMore) {
        break;
      }
      if (next == FrameReader::Next::kCorrupt) {
        // Mirror the single server: a version-mismatched peer gets a
        // one-shot explanation stamped with its own version byte; any other
        // corruption gets an ERROR. Either way framing is lost, so close.
        if (reader.version_mismatch()) {
          ErrorReply err{
              StatusCode::kInvalidArgument,
              "protocol version mismatch: client speaks version " +
                  std::to_string(reader.bad_version()) +
                  ", router speaks version " +
                  std::to_string(kProtocolVersion)};
          WriteAll(conn->fd,
                   EncodeFrameWithVersion(reader.bad_version(), Verb::kError,
                                          reader.last_request_id(),
                                          EncodeErrorReply(err)));
        } else {
          WriteAll(conn->fd,
                   ErrorFrame(0, StatusCode::kCorruption, reader.error()));
        }
        open = false;
        break;
      }

      std::string response;
      switch (frame.verb) {
        case Verb::kPing:
          response = EncodeFrame(Verb::kPong, frame.request_id, "");
          break;
        case Verb::kStats:
          response = EncodeFrame(Verb::kStatsReply, frame.request_id,
                                 EncodeStatsReply(stats()));
          break;
        case Verb::kQuery:
          response = RouteQuery(conn, frame);
          break;
        case Verb::kMutate:
          response = ErrorFrame(
              frame.request_id, StatusCode::kUnimplemented,
              "router is read-only: send MUTATE to the shard servers and "
              "cut a new manifest");
          break;
        case Verb::kRelevant:
          response = ErrorFrame(frame.request_id, StatusCode::kUnimplemented,
                                "RELEVANT is a shard-level verb");
          break;
        default:
          response = ErrorFrame(
              frame.request_id, StatusCode::kInvalidArgument,
              "unexpected verb " +
                  std::to_string(static_cast<int>(frame.verb)));
          break;
      }
      if (!WriteAll(conn->fd, response)) {
        open = false;
      }
    }
  }

  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    close(conn->fd);
    conn->fd = -1;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    if (connections_active_ > 0) {
      --connections_active_;
    }
  }
  // Published last: past this store the accept thread may join this thread
  // and destroy *conn, so no member may be touched after it.
  conn->finished.store(true, std::memory_order_release);
}

void ClusterRouter::ReapFinishedConns() {
  std::vector<std::unique_ptr<ConnState>> dead;
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      if ((*it)->finished.load(std::memory_order_acquire)) {
        dead.push_back(std::move(*it));
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Join outside the list lock; a finished thread is at most a few
  // instructions from returning, so these joins do not block the accept
  // loop behind slow queries.
  for (auto& conn : dead) {
    if (conn->thread.joinable()) {
      conn->thread.join();
    }
  }
}

CoskqClient* ClusterRouter::ShardClient(ConnState* conn, uint32_t shard,
                                        Status* error) {
  std::unique_ptr<CoskqClient>& client = conn->clients[shard];
  if (client != nullptr && client->connected()) {
    return client.get();
  }
  client = std::make_unique<CoskqClient>();
  const ShardAddress& addr = options_.shards[shard];
  const Status status =
      client->Connect(addr.host, addr.port, options_.client_options);
  if (!status.ok()) {
    *error = Status(status.code(),
                    "shard " + std::to_string(shard) + " (" + addr.host +
                        ":" + std::to_string(addr.port) +
                        ") unreachable: " + status.message());
    client.reset();
    return nullptr;
  }
  return client.get();
}

std::string ClusterRouter::RouteQuery(ConnState* conn, const Frame& frame) {
  const Clock::time_point arrival = Clock::now();
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++queries_received_;
  }
  const auto fail = [&](StatusCode code, const std::string& message) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++queries_errored_;
    return ErrorFrame(frame.request_id, code, message);
  };

  QueryRequest request;
  if (!DecodeQueryRequest(frame.payload, &request) ||
      request.keywords.empty()) {
    return fail(StatusCode::kInvalidArgument, "malformed QUERY payload");
  }
  if (shutdown_requested_.load(std::memory_order_acquire)) {
    return fail(StatusCode::kInternal, "router draining");
  }

  // Canonicalize the keywords by *global* term id. The single server's
  // query TermSet is sorted by its interning order; replaying that order
  // (deduplicated) into the mini dataset's vocabulary makes the central
  // solve see the keywords with identical relative order — the tie-break
  // property bit-identity needs.
  std::vector<std::pair<uint32_t, std::string>> keyed;
  keyed.reserve(request.keywords.size());
  for (const std::string& kw : request.keywords) {
    const auto it = vocab_.find(kw);
    if (it == vocab_.end()) {
      // Unknown to the global vocabulary: no object anywhere carries it, so
      // the query is infeasible by definition — same inline answer as the
      // single server, no fan-out.
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++queries_infeasible_;
      }
      QueryResult result;
      result.outcome = QueryOutcome::kInfeasible;
      result.cost = std::numeric_limits<double>::infinity();
      RecordRouteLatency(MillisBetween(arrival, Clock::now()));
      return EncodeFrame(Verb::kResult, frame.request_id,
                         EncodeQueryResult(result));
    }
    keyed.emplace_back(it->second, kw);
  }
  std::sort(keyed.begin(), keyed.end());
  keyed.erase(std::unique(keyed.begin(), keyed.end()), keyed.end());

  // Result cache (DESIGN.md §16): the sorted, de-duplicated global-id list
  // above is exactly the canonical keyword form the cache keys on. The
  // router serves one fixed manifest (MUTATE is Unimplemented), so its
  // invalidation stamp is constant — entries live until evicted. A hit
  // skips the probe, every shard harvest, and the central re-solve.
  ResultCacheKey cache_key;
  if (result_cache_ != nullptr) {
    cache_key.cell = ResultCache::CellOf(request.x, request.y,
                                         result_cache_->cell_bits());
    cache_key.keywords.reserve(keyed.size());
    for (const auto& [gid, word] : keyed) {
      cache_key.keywords.push_back(gid);
    }
    cache_key.solver = static_cast<uint8_t>(request.solver);
    cache_key.cost_type = static_cast<uint8_t>(request.cost_type);
    cache_key.x = request.x;
    cache_key.y = request.y;
    CachedAnswer hit;
    if (result_cache_->Lookup(cache_key, 0, 0, &hit)) {
      QueryResult result;
      result.outcome = static_cast<QueryOutcome>(hit.outcome);
      result.cost = hit.cost;
      result.solve_ms = hit.solve_ms;
      result.set = std::move(hit.set);
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++queries_executed_;
        if (result.outcome == QueryOutcome::kInfeasible) {
          ++queries_infeasible_;
        }
      }
      RecordRouteLatency(MillisBetween(arrival, Clock::now()));
      return EncodeFrame(Verb::kResult, frame.request_id,
                         EncodeQueryResult(result));
    }
  }

  const size_t m = keyed.size();
  // A RELEVANT mask is one uint64, so keyword sets wider than
  // kMaxRelevantKeywords are harvested in chunks (one RELEVANT per chunk,
  // masks OR-ed per object) — the single server answers such queries, so
  // the router must too for the bit-identity contract to hold.
  const size_t num_chunks =
      (m + kMaxRelevantKeywords - 1) / kMaxRelevantKeywords;
  std::vector<std::string> all_keywords;
  all_keywords.reserve(m);
  for (const auto& [gid, word] : keyed) {
    all_keywords.push_back(word);
  }

  // The client's deadline is end-to-end, but routing itself takes time: the
  // probe query and the per-shard harvests all spend wall-clock before the
  // central solve starts. Hand each downstream solve only what is left of
  // the budget (clamped at a small floor so an exhausted budget truncates
  // promptly instead of passing a non-positive deadline).
  const bool deadline_active =
      std::isfinite(request.deadline_ms) && request.deadline_ms > 0.0;
  const auto remaining_deadline_ms = [&] {
    constexpr double kMinDeadlineMs = 1.0;
    return std::max(kMinDeadlineMs, request.deadline_ms -
                                        MillisBetween(arrival, Clock::now()));
  };

  const Point q{request.x, request.y};

  // Keyword pruning (sound for every solver): a shard whose signature rules
  // out ALL query keywords holds zero relevant objects — the Bloom is
  // one-sided — so it cannot contribute to any solver's answer.
  std::vector<uint32_t> candidates_shards;
  uint64_t pruned_keyword = 0;
  for (uint32_t s = 0; s < manifest_.shards.size(); ++s) {
    const ShardSignature& sig = manifest_.shards[s].signature;
    bool possible = false;
    for (const std::string& word : all_keywords) {
      if (sig.MightContain(word)) {
        possible = true;
        break;
      }
    }
    if (possible) {
      candidates_shards.push_back(s);
    } else {
      ++pruned_keyword;
    }
  }

  // Most-promising first: ascending MINDIST from the query point to the
  // shard's tight MBR (ties by shard id).
  std::sort(candidates_shards.begin(), candidates_shards.end(),
            [&](uint32_t a, uint32_t b) {
              const double da = manifest_.shards[a].mbr.MinDistance(q);
              const double db = manifest_.shards[b].mbr.MinDistance(q);
              if (da != db) return da < db;
              return a < b;
            });

  // Distance-owner pruning, order-stable exact solvers only. Probe the
  // nearest shard whose signature covers every keyword with an approximate
  // query of the same cost type: a feasible probe cost upper-bounds the
  // optimal cost (approximation never beats the optimum), and any group
  // touching a shard with MINDIST(q, mbr) strictly above that bound already
  // costs more than the bound under either cost function — both MaxSum and
  // Dia are lower-bounded by the largest query-object distance in the
  // group. The optimal group's shards therefore all survive the strict >
  // cut, and the probe shard itself is never pruned (its own MINDIST is at
  // most the feasible cost it produced).
  uint64_t pruned_distance = 0;
  uint64_t probes = 0;
  if (options_.enable_distance_prune &&
      IsDistancePrunableSolverKind(request.solver) &&
      candidates_shards.size() > 1) {
    uint32_t probe_shard = 0;
    bool have_probe_shard = false;
    for (const uint32_t s : candidates_shards) {
      const ShardSignature& sig = manifest_.shards[s].signature;
      bool covers_all = true;
      for (const std::string& word : all_keywords) {
        if (!sig.MightContain(word)) {
          covers_all = false;
          break;
        }
      }
      if (covers_all) {
        probe_shard = s;
        have_probe_shard = true;
        break;
      }
    }
    if (have_probe_shard) {
      Status connect_error;
      CoskqClient* client = ShardClient(conn, probe_shard, &connect_error);
      if (client != nullptr) {
        QueryRequest probe = request;
        probe.solver = SolverKind::kAppro;
        probe.keywords = all_keywords;
        if (deadline_active) {
          probe.deadline_ms = remaining_deadline_ms();
        }
        ++probes;
        StatusOr<QueryReply> reply = client->Query(probe);
        if (!reply.ok()) {
          // Transport trouble mid-probe: drop the client so the next use
          // reconnects, and fall through with no bound (prune is an
          // optimization, never a requirement).
          conn->clients[probe_shard].reset();
        } else if (reply->kind == QueryReply::Kind::kResult &&
                   reply->result.outcome != QueryOutcome::kInfeasible) {
          const double upper_bound = reply->result.cost;
          std::vector<uint32_t> kept;
          kept.reserve(candidates_shards.size());
          for (const uint32_t s : candidates_shards) {
            if (s != probe_shard &&
                manifest_.shards[s].mbr.MinDistance(q) > upper_bound) {
              ++pruned_distance;
            } else {
              kept.push_back(s);
            }
          }
          candidates_shards.swap(kept);
        }
      }
    }
  }

  // Scatter: harvest every surviving shard's relevant objects and map them
  // into the global id space. Visiting in MINDIST order keeps the first
  // round-trips on the shards most likely to matter if this ever goes
  // speculative; correctness only needs the union.
  struct Candidate {
    uint32_t global_id;
    double x;
    double y;
    /// Keyword-coverage bits in canonical order: canonical keyword j is bit
    /// j % 64 of masks[j / 64] (one word per harvest chunk).
    std::vector<uint64_t> masks;
  };
  std::vector<Candidate> candidates;
  for (const uint32_t s : candidates_shards) {
    Status connect_error;
    CoskqClient* client = ShardClient(conn, s, &connect_error);
    if (client == nullptr) {
      return fail(connect_error.code(), connect_error.message());
    }
    const std::vector<uint32_t>& global_ids = manifest_.shards[s].global_ids;
    // Shard-local id -> candidates index, for OR-merging the per-chunk
    // masks of an object relevant in more than one chunk. Only needed (and
    // only paid for) on multi-chunk keyword sets.
    std::unordered_map<uint32_t, size_t> merged;
    const Clock::time_point sent = Clock::now();
    for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
      RelevantRequest harvest;
      const size_t begin = chunk * kMaxRelevantKeywords;
      const size_t end = std::min(m, begin + kMaxRelevantKeywords);
      harvest.keywords.assign(all_keywords.begin() + begin,
                              all_keywords.begin() + end);
      StatusOr<std::vector<RelevantEntry>> harvested =
          client->Relevant(harvest);
      if (!harvested.ok()) {
        conn->clients[s].reset();
        return fail(harvested.status().code(),
                    "shard " + std::to_string(s) +
                        " harvest failed: " + harvested.status().message());
      }
      for (const RelevantEntry& e : *harvested) {
        if (e.object_id >= global_ids.size()) {
          return fail(StatusCode::kInternal,
                      "shard " + std::to_string(s) +
                          " returned out-of-range object id " +
                          std::to_string(e.object_id));
        }
        size_t idx = candidates.size();
        if (num_chunks == 1) {
          candidates.push_back(Candidate{global_ids[e.object_id], e.x, e.y,
                                         std::vector<uint64_t>(1, 0)});
        } else {
          const auto [it, inserted] = merged.try_emplace(e.object_id, idx);
          if (inserted) {
            candidates.push_back(
                Candidate{global_ids[e.object_id], e.x, e.y,
                          std::vector<uint64_t>(num_chunks, 0)});
          }
          idx = it->second;
        }
        candidates[idx].masks[chunk] |= e.keyword_mask;
      }
    }
    RecordShardHarvest(s, MillisBetween(sent, Clock::now()));
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    shards_harvested_ += candidates_shards.size();
    shards_pruned_keyword_ += pruned_keyword;
    shards_pruned_distance_ += pruned_distance;
    probe_queries_ += probes;
  }

  if (candidates.empty()) {
    // No object anywhere carries any query keyword: infeasible, same answer
    // the single server's solver would return.
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++queries_infeasible_;
    }
    QueryResult result;
    result.outcome = QueryOutcome::kInfeasible;
    result.cost = std::numeric_limits<double>::infinity();
    if (result_cache_ != nullptr) {
      CachedAnswer answer;
      answer.outcome = static_cast<uint8_t>(result.outcome);
      answer.cost = result.cost;
      result_cache_->Insert(cache_key, 0, 0, answer);
    }
    RecordRouteLatency(MillisBetween(arrival, Clock::now()));
    return EncodeFrame(Verb::kResult, frame.request_id,
                       EncodeQueryResult(result));
  }

  // Gather: central solve over the harvested sub-universe. Candidates are
  // added in ascending global-id order, so mini id i <-> candidates[i] is
  // an order isomorphism: every (distance, id) tie-break the solver takes
  // resolves the same way it would over the full dataset, and the answer
  // maps back positionally.
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.global_id < b.global_id;
            });
  Dataset mini;
  for (const auto& [gid, word] : keyed) {
    mini.mutable_vocabulary().GetOrAdd(word);
  }
  for (const Candidate& c : candidates) {
    TermSet terms;
    for (size_t j = 0; j < m; ++j) {
      if ((c.masks[j / kMaxRelevantKeywords] >> (j % kMaxRelevantKeywords)) &
          1u) {
        terms.push_back(static_cast<TermId>(j));
      }
    }
    mini.AddObjectWithTerms(Point{c.x, c.y}, std::move(terms));
  }
  CoskqQuery query;
  query.location = q;
  query.keywords.reserve(m);
  for (size_t j = 0; j < m; ++j) {
    query.keywords.push_back(static_cast<TermId>(j));
  }

  // One build thread: this runs on a connection thread beside the others,
  // and a popular-word harvest can hold tens of thousands of candidates.
  std::vector<ObjectId> mini_ids(mini.NumObjects());
  std::iota(mini_ids.begin(), mini_ids.end(), ObjectId{0});
  const IrTree tree(&mini, IrTree::Options(), mini_ids, /*build_threads=*/1);
  CoskqContext context;
  context.dataset = &mini;
  context.index = &tree;
  BatchOptions batch_options;
  batch_options.solver_name =
      SolverRegistryName(request.solver, request.cost_type);
  batch_options.num_threads = 1;
  batch_options.deadline_ms =
      deadline_active ? remaining_deadline_ms() : request.deadline_ms;
  const BatchEngine engine(context, batch_options);
  const BatchOutcome outcome = engine.Run({query});

  std::string response;
  if (!outcome.status.ok()) {
    return fail(outcome.status.code(), outcome.status.message());
  }
  const CoskqResult& r = outcome.results[0];
  QueryResult result;
  result.cost = r.cost;
  result.solve_ms = r.stats.elapsed_ms;
  result.set.reserve(r.set.size());
  for (const ObjectId local : r.set) {
    result.set.push_back(candidates[local].global_id);
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++queries_executed_;
    if (!r.feasible) {
      ++queries_infeasible_;
    } else if (r.stats.truncated) {
      ++queries_truncated_;
    }
  }
  if (!r.feasible) {
    result.outcome = QueryOutcome::kInfeasible;
  } else if (r.stats.truncated) {
    result.outcome = QueryOutcome::kDeadlineTruncated;
  } else {
    result.outcome = QueryOutcome::kExecuted;
  }
  // Truncated answers are deadline-dependent, not query-determined — never
  // cached.
  if (result_cache_ != nullptr &&
      result.outcome != QueryOutcome::kDeadlineTruncated) {
    CachedAnswer answer;
    answer.outcome = static_cast<uint8_t>(result.outcome);
    answer.cost = result.cost;
    answer.solve_ms = result.solve_ms;
    answer.set = result.set;
    result_cache_->Insert(cache_key, 0, 0, answer);
  }
  RecordRouteLatency(MillisBetween(arrival, Clock::now()));
  return EncodeFrame(Verb::kResult, frame.request_id,
                     EncodeQueryResult(result));
}

void ClusterRouter::RecordRouteLatency(double ms) {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  latency_ms_.Add(ms);
  if (latency_window_.size() < kRouterLatencyWindow) {
    latency_window_.push_back(ms);
  } else {
    latency_window_[latency_window_pos_] = ms;
    latency_window_pos_ = (latency_window_pos_ + 1) % kRouterLatencyWindow;
  }
}

void ClusterRouter::RecordShardHarvest(uint32_t shard, double ms) {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ShardWindow& w = shard_windows_[shard];
  ++w.fanout;
  if (w.window.size() < kShardLatencyWindow) {
    w.window.push_back(ms);
  } else {
    w.window[w.pos] = ms;
    w.pos = (w.pos + 1) % kShardLatencyWindow;
  }
}

StatsReply ClusterRouter::stats() const {
  StatsReply snap;
  std::lock_guard<std::mutex> lock(stats_mutex_);
  snap.connections_accepted = connections_accepted_;
  snap.connections_active = connections_active_;
  snap.queries_received = queries_received_;
  snap.queries_executed = queries_executed_;
  snap.queries_truncated = queries_truncated_;
  snap.queries_infeasible = queries_infeasible_;
  snap.queries_errored = queries_errored_;
  snap.mean_ms = latency_ms_.mean();
  if (!latency_window_.empty()) {
    std::vector<double> window = latency_window_;
    snap.p50_ms = Percentile(window, 50.0);
    snap.p95_ms = Percentile(window, 95.0);
    snap.p99_ms = Percentile(std::move(window), 99.0);
  }
  snap.uptime_s = MillisBetween(start_time_, Clock::now()) / 1e3;

  snap.is_router = 1;
  snap.cluster_shards = static_cast<uint32_t>(manifest_.shards.size());
  snap.manifest_checksum = manifest_.file_checksum;
  snap.cluster_dataset_checksum = manifest_.dataset_checksum;
  snap.cluster_objects = manifest_.total_objects;
  snap.shards_harvested = shards_harvested_;
  snap.shards_pruned_keyword = shards_pruned_keyword_;
  snap.shards_pruned_distance = shards_pruned_distance_;
  snap.probe_queries = probe_queries_;
  snap.shard_stats.reserve(shard_windows_.size());
  for (uint32_t s = 0; s < shard_windows_.size(); ++s) {
    const ShardWindow& w = shard_windows_[s];
    StatsReply::ShardStats stats;
    stats.shard_id = s;
    stats.fanout = w.fanout;
    if (!w.window.empty()) {
      std::vector<double> window = w.window;
      stats.p50_ms = Percentile(window, 50.0);
      stats.p95_ms = Percentile(std::move(window), 95.0);
    }
    snap.shard_stats.push_back(stats);
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

}  // namespace coskq
