// Loopback tests for the MUTATE verb (protocol v3): a real CoskqServer with
// live mutations enabled, driven through CoskqClient.
//
//  * freshness — a QUERY issued after a MUTATE ack observes the mutation
//    (insert at the query location wins the query; remove makes it lose);
//  * trust boundary — unknown keywords, non-finite coordinates, unknown
//    remove ids, exhausted capacity, and MUTATE against a read-only server
//    each produce their documented in-band error;
//  * background refreeze — crossing the configured delta threshold drains
//    the delta and advances the epoch, observable through STATS;
//  * codec — MutateRequest/MutateReply round-trip byte-exactly and reject
//    every truncated prefix (torn-byte sweep);
//  * version negotiation — a protocol-v2 frame is answered with an ERROR
//    stamped in the *client's* version naming both versions, then the
//    connection closes: old clients get a decodable explanation, not a hang.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "index/irtree.h"
#include "server/client.h"
#include "server/codec.h"
#include "server/protocol.h"
#include "server/server.h"
#include "test_util.h"
#include "util/random.h"

namespace coskq {
namespace {

/// Blocking socket with byte-exact reads, for frames the well-behaved
/// CoskqClient cannot produce or parse (foreign protocol versions).
class RawSocket {
 public:
  ~RawSocket() {
    if (fd_ >= 0) {
      close(fd_);
    }
  }

  bool Connect(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) {
      return false;
    }
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
           0;
  }

  bool WriteAll(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = write(fd_, bytes.data() + sent, bytes.size() - sent);
      if (n <= 0) {
        return false;
      }
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  bool ReadExact(size_t n, std::string* out) {
    out->clear();
    char buf[4096];
    while (out->size() < n) {
      const ssize_t r =
          read(fd_, buf, std::min(sizeof(buf), n - out->size()));
      if (r <= 0) {
        return false;
      }
      out->append(buf, static_cast<size_t>(r));
    }
    return true;
  }

  bool ReadEof() {
    char buf[4096];
    while (true) {
      const ssize_t n = read(fd_, buf, sizeof(buf));
      if (n == 0) {
        return true;
      }
      if (n < 0) {
        return false;
      }
    }
  }

 private:
  int fd_ = -1;
};

uint64_t ReadLe(const std::string& buf, size_t pos, int bytes) {
  uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(buf[pos + i]))
         << (8 * i);
  }
  return v;
}

class ServerMutateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = test::MakeRandomDataset(300, 25, 3.0, 777);
    index_ = std::make_unique<IrTree>(&dataset_);
    context_ = CoskqContext{&dataset_, index_.get()};
  }

  ServerOptions MutableOptions() {
    ServerOptions options;
    options.enable_mutations = true;
    options.mutable_dataset = &dataset_;
    options.mutable_index = index_.get();
    return options;
  }

  void StartAndConnect(ServerOptions options) {
    options.port = 0;
    server_ = std::make_unique<CoskqServer>(context_, options);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_TRUE(client_.Connect("127.0.0.1", server_->port()).ok());
  }

  /// A single-keyword QUERY at `p`: the appro solver answers with the
  /// nearest object carrying the keyword, so it deterministically reveals
  /// whether an inserted object at `p` is visible.
  QueryRequest ProbeQuery(const Point& p, const std::string& keyword) {
    QueryRequest q;
    q.x = p.x;
    q.y = p.y;
    q.solver = SolverKind::kAppro;
    q.cost_type = CostType::kMaxSum;
    q.keywords = {keyword};
    return q;
  }

  Dataset dataset_;
  std::unique_ptr<IrTree> index_;
  CoskqContext context_;
  std::unique_ptr<CoskqServer> server_;
  CoskqClient client_;
};

TEST_F(ServerMutateTest, AckedInsertAndRemoveAreVisibleToQueries) {
  StartAndConnect(MutableOptions());
  const std::string keyword = dataset_.vocabulary().TermString(0);
  const Point p{0.31337, 0.55221};

  MutateRequest insert;
  insert.op = MutateRequest::Op::kInsert;
  insert.x = p.x;
  insert.y = p.y;
  insert.keywords = {keyword};
  StatusOr<MutateReply> ack = client_.Mutate(insert);
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_GE(ack->object_id, 300u);  // Appended past the base corpus.
  EXPECT_EQ(ack->delta_size, 1u);

  // Acked-write freshness: the very next QUERY must see the new object as
  // its keyword's nearest neighbor (it sits exactly at the query location).
  StatusOr<QueryReply> reply = client_.Query(ProbeQuery(p, keyword));
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply->kind, QueryReply::Kind::kResult);
  ASSERT_EQ(reply->result.set.size(), 1u);
  EXPECT_EQ(reply->result.set[0], ack->object_id);
  EXPECT_EQ(reply->result.cost, 0.0);

  // Remove it; the same probe must now answer something else.
  MutateRequest remove;
  remove.op = MutateRequest::Op::kRemove;
  remove.object_id = ack->object_id;
  StatusOr<MutateReply> gone = client_.Mutate(remove);
  ASSERT_TRUE(gone.ok()) << gone.status().ToString();
  EXPECT_EQ(gone->object_id, ack->object_id);

  reply = client_.Query(ProbeQuery(p, keyword));
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply->kind, QueryReply::Kind::kResult);
  ASSERT_EQ(reply->result.set.size(), 1u);
  EXPECT_NE(reply->result.set[0], ack->object_id);

  // Removing a base object also takes: pick the object the probe found and
  // delete it out from under the next probe.
  const uint32_t base_winner = reply->result.set[0];
  remove.object_id = base_winner;
  ASSERT_TRUE(client_.Mutate(remove).ok());
  reply = client_.Query(ProbeQuery(p, keyword));
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply->kind, QueryReply::Kind::kResult);
  if (reply->result.outcome != QueryOutcome::kInfeasible) {
    ASSERT_EQ(reply->result.set.size(), 1u);
    EXPECT_NE(reply->result.set[0], base_winner);
  }

  StatusOr<StatsReply> stats = client_.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->mutations_applied, 3u);
  EXPECT_GT(stats->delta_size, 0u);
}

TEST_F(ServerMutateTest, MutationTrustBoundaryRejections) {
  ServerOptions options = MutableOptions();
  options.mutation_capacity = 2;
  StartAndConnect(options);
  const std::string keyword = dataset_.vocabulary().TermString(1);

  MutateRequest insert;
  insert.op = MutateRequest::Op::kInsert;
  insert.x = 0.5;
  insert.y = 0.5;

  // Unknown keyword: the vocabulary is the trust boundary.
  insert.keywords = {"no-such-keyword-on-this-server"};
  StatusOr<MutateReply> reply = client_.Mutate(insert);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kInvalidArgument);

  // Empty keyword set and non-finite coordinates.
  insert.keywords = {};
  reply = client_.Mutate(insert);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kInvalidArgument);
  insert.keywords = {keyword};
  insert.x = std::numeric_limits<double>::quiet_NaN();
  reply = client_.Mutate(insert);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kInvalidArgument);
  insert.x = 0.5;

  // Removing an id nobody ever inserted.
  MutateRequest remove;
  remove.op = MutateRequest::Op::kRemove;
  remove.object_id = 200000;
  reply = client_.Mutate(remove);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kNotFound);

  // Capacity: two slots were provisioned, the third append must bounce.
  ASSERT_TRUE(client_.Mutate(insert).ok());
  ASSERT_TRUE(client_.Mutate(insert).ok());
  reply = client_.Mutate(insert);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kOutOfRange);

  // None of the rejections killed the connection.
  EXPECT_TRUE(client_.Ping().ok());
}

TEST_F(ServerMutateTest, ReadOnlyServerRejectsMutate) {
  StartAndConnect(ServerOptions{});  // Mutations not enabled.
  MutateRequest insert;
  insert.op = MutateRequest::Op::kInsert;
  insert.x = 0.5;
  insert.y = 0.5;
  insert.keywords = {dataset_.vocabulary().TermString(0)};
  StatusOr<MutateReply> reply = client_.Mutate(insert);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kUnimplemented);
  EXPECT_TRUE(client_.Ping().ok());  // The connection survives.
}

TEST_F(ServerMutateTest, CrossingTheThresholdTriggersBackgroundRefreeze) {
  ServerOptions options = MutableOptions();
  options.refreeze_threshold = 4;
  StartAndConnect(options);

  MutateRequest insert;
  insert.op = MutateRequest::Op::kInsert;
  insert.keywords = {dataset_.vocabulary().TermString(2)};
  Rng rng(5);
  for (int i = 0; i < 4; ++i) {
    insert.x = rng.UniformDouble();
    insert.y = rng.UniformDouble();
    ASSERT_TRUE(client_.Mutate(insert).ok());
  }

  // The refreeze runs on a background thread; poll STATS until the swap
  // lands (epoch bump + drained delta).
  bool refrozen = false;
  for (int attempt = 0; attempt < 200 && !refrozen; ++attempt) {
    StatusOr<StatsReply> stats = client_.Stats();
    ASSERT_TRUE(stats.ok());
    refrozen = stats->refreezes_completed >= 1 && stats->delta_size == 0 &&
               stats->index_epoch >= 1;
    if (!refrozen) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(refrozen) << "background refreeze never landed";

  // The folded objects are still live and queryable.
  StatusOr<QueryReply> reply =
      client_.Query(ProbeQuery(Point{insert.x, insert.y}, insert.keywords[0]));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->kind, QueryReply::Kind::kResult);
  EXPECT_EQ(index_->size(), 304u);
}

TEST(MutateCodecTest, RoundTripsAndTornByteSweep) {
  MutateRequest insert;
  insert.op = MutateRequest::Op::kInsert;
  insert.x = 0.123456789;
  insert.y = -42.75;
  insert.keywords = {"alpha", "beta", ""};
  const std::string insert_bytes = EncodeMutateRequest(insert);
  MutateRequest insert_back;
  ASSERT_TRUE(DecodeMutateRequest(insert_bytes, &insert_back));
  EXPECT_EQ(insert_back.op, insert.op);
  EXPECT_EQ(insert_back.x, insert.x);
  EXPECT_EQ(insert_back.y, insert.y);
  EXPECT_EQ(insert_back.keywords, insert.keywords);

  MutateRequest remove;
  remove.op = MutateRequest::Op::kRemove;
  remove.object_id = 0xDEADBEEF;
  const std::string remove_bytes = EncodeMutateRequest(remove);
  MutateRequest remove_back;
  ASSERT_TRUE(DecodeMutateRequest(remove_bytes, &remove_back));
  EXPECT_EQ(remove_back.op, remove.op);
  EXPECT_EQ(remove_back.object_id, remove.object_id);

  MutateReply reply;
  reply.object_id = 301;
  reply.delta_size = 17;
  reply.epoch = 3;
  const std::string reply_bytes = EncodeMutateReply(reply);
  MutateReply reply_back;
  ASSERT_TRUE(DecodeMutateReply(reply_bytes, &reply_back));
  EXPECT_EQ(reply_back.object_id, reply.object_id);
  EXPECT_EQ(reply_back.delta_size, reply.delta_size);
  EXPECT_EQ(reply_back.epoch, reply.epoch);

  // Torn-byte sweep: every strict prefix must be rejected, never crash.
  for (const std::string* bytes :
       {&insert_bytes, &remove_bytes, &reply_bytes}) {
    for (size_t len = 0; len < bytes->size(); ++len) {
      const std::string prefix = bytes->substr(0, len);
      MutateRequest req;
      MutateReply rep;
      if (bytes == &reply_bytes) {
        EXPECT_FALSE(DecodeMutateReply(prefix, &rep)) << "len " << len;
      } else {
        EXPECT_FALSE(DecodeMutateRequest(prefix, &req)) << "len " << len;
      }
    }
  }

  // A trailing byte is also malformed (no silent trailing-garbage accept).
  MutateRequest req;
  EXPECT_FALSE(DecodeMutateRequest(remove_bytes + '\0', &req));
  // An out-of-range op byte is rejected.
  std::string bad_op = remove_bytes;
  bad_op[0] = 7;
  EXPECT_FALSE(DecodeMutateRequest(bad_op, &req));
}

TEST_F(ServerMutateTest, ProtocolV2ClientGetsDecodableVersionError) {
  StartAndConnect(MutableOptions());
  RawSocket raw;
  ASSERT_TRUE(raw.Connect(server_->port()));

  // A well-formed frame stamped with yesterday's protocol version.
  constexpr uint8_t kOldVersion = 2;
  constexpr uint32_t kRequestId = 0x1234ABCD;
  ASSERT_TRUE(raw.WriteAll(EncodeFrameWithVersion(
      kOldVersion, Verb::kPing, kRequestId, std::string())));

  // The reply must be stamped with the *client's* version so a v2
  // FrameReader would accept it — parse the header by hand.
  std::string header;
  ASSERT_TRUE(raw.ReadExact(kFrameHeaderBytes, &header));
  EXPECT_EQ(ReadLe(header, 0, 2), kProtocolMagic);
  EXPECT_EQ(static_cast<uint8_t>(header[2]), kOldVersion);
  EXPECT_EQ(static_cast<uint8_t>(header[3]),
            static_cast<uint8_t>(Verb::kError));
  EXPECT_EQ(ReadLe(header, 4, 4), kRequestId);
  const size_t payload_len = static_cast<size_t>(ReadLe(header, 8, 4));
  std::string payload;
  ASSERT_TRUE(raw.ReadExact(payload_len, &payload));
  ErrorReply err;
  ASSERT_TRUE(DecodeErrorReply(payload, &err));
  EXPECT_EQ(err.code, StatusCode::kInvalidArgument);
  EXPECT_NE(err.message.find("version 2"), std::string::npos)
      << err.message;
  EXPECT_NE(err.message.find("version " +
                             std::to_string(kProtocolVersion)),
            std::string::npos)
      << err.message;

  // ...then the server closes the stream: framing past a foreign version is
  // unrecoverable.
  EXPECT_TRUE(raw.ReadEof());
}

}  // namespace
}  // namespace coskq
