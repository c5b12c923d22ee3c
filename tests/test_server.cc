/**
 * @file
 * Server-tier correctness: the event-loop transport, with one loop and
 * with two, must frame the NDJSON protocol (truncated trailing lines,
 * line-cap overflow, fragmented and pipelined input, write
 * backpressure) and shut down cleanly; the shard router must be
 * key-affine (a given program x machine x config always lands on the
 * same shard) with per-shard stats that sum exactly to the global
 * view.  This binary runs under the CI ThreadSanitizer job — the
 * transport's one-loop-owns-a-connection invariant is enforced
 * there.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <unistd.h>

#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "server/client.h"
#include "server/faults.h"
#include "server/server.h"
#include "server/shard_router.h"
#include "server/transport.h"
#include "service/protocol.h"
#include "service/service.h"
#include "workloads/registry.h"

namespace square {
namespace {

CompileRequest
namedRequest(const std::string &workload, const SquareConfig &cfg)
{
    CompileRequest req;
    req.label = workload + "/" + cfg.name;
    req.workload = workload;
    req.machine = MachineSpec::paperFor(findBenchmark(workload));
    req.cfg = cfg;
    return req;
}

// -------------------------------------------------------------------
// Transport framing and shutdown (one and two event loops)
// -------------------------------------------------------------------

/** Parameter: the transport's event-loop count. */
class TransportSuite : public ::testing::TestWithParam<int>
{
  protected:
    std::unique_ptr<Transport>
    make()
    {
        return std::make_unique<Transport>(GetParam());
    }
};

/** The echo handler used by most framing tests. */
Transport::LineHandler
echoHandler()
{
    return [](std::string_view line, std::string &out, bool &,
                   const std::shared_ptr<AsyncReplySink> &) {
        out += "echo:";
        out += line;
        out += '\n';
    };
}

TEST_P(TransportSuite, LinesRoundTripOnPersistentConnections)
{
    std::unique_ptr<Transport> transport = make();
    std::string error;
    ASSERT_TRUE(
        transport->start("127.0.0.1", 0, echoHandler(), error))
        << error;
    ASSERT_GT(transport->port(), 0);

    LineClient a, b;
    ASSERT_TRUE(a.connect("127.0.0.1", transport->port(), error))
        << error;
    ASSERT_TRUE(b.connect("127.0.0.1", transport->port(), error))
        << error;

    // Interleaved requests on two persistent connections.
    std::string reply;
    for (int round = 0; round < 3; ++round) {
        const std::string msg = "round-" + std::to_string(round);
        ASSERT_TRUE(a.sendLine(msg + "-a"));
        ASSERT_TRUE(b.sendLine(msg + "-b"));
        ASSERT_TRUE(a.recvLine(reply));
        EXPECT_EQ(reply, "echo:" + msg + "-a");
        ASSERT_TRUE(b.recvLine(reply));
        EXPECT_EQ(reply, "echo:" + msg + "-b");
    }
    TransportStats stats = transport->stats();
    EXPECT_EQ(stats.accepted, 2);
    EXPECT_EQ(stats.lines, 6);

    // stop() drains everything: subsequent reads see EOF, further
    // connects are refused, and a second stop() is a no-op.
    transport->stop();
    EXPECT_FALSE(a.recvLine(reply));
    LineClient late;
    EXPECT_FALSE(late.connect("127.0.0.1", transport->port(), error));
    transport->stop();
}

TEST_P(TransportSuite, TruncatedTrailingLineStillGetsAReply)
{
    std::unique_ptr<Transport> transport = make();
    std::string error;
    ASSERT_TRUE(transport->start(
        "127.0.0.1", 0,
        [](std::string_view line, std::string &out, bool &,
                   const std::shared_ptr<AsyncReplySink> &) {
            out += "got:";
            out += line;
            out += '\n';
        },
        error))
        << error;

    // The client dies mid-request: bytes but no newline, then the
    // write half closes.  The transport must deliver the tail to the
    // handler and write the reply before winding the connection down.
    LineClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", transport->port(), error))
        << error;
    ASSERT_TRUE(client.sendRaw("truncated-request"));
    client.shutdownWrite();
    std::string reply;
    ASSERT_TRUE(client.recvLine(reply));
    EXPECT_EQ(reply, "got:truncated-request");
    EXPECT_FALSE(client.recvLine(reply)); // connection closed after
    transport->stop();
}

TEST_P(TransportSuite, NewlinelessFloodIsBoundedAndDisconnected)
{
    // A peer streaming bytes with no newline must not grow server
    // memory without bound: past the line cap it gets a reply for a
    // short prefix and is disconnected.
    std::unique_ptr<Transport> transport = make();
    std::string error;
    std::atomic<size_t> seen_len{0};
    ASSERT_TRUE(transport->start(
        "127.0.0.1", 0,
        [&seen_len](std::string_view line, std::string &out, bool &,
                   const std::shared_ptr<AsyncReplySink> &) {
            seen_len.store(line.size());
            out += "len:" + std::to_string(line.size());
            out += '\n';
        },
        error))
        << error;

    LineClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", transport->port(), error))
        << error;
    // Push well past the 1 MB cap without ever sending '\n'.
    const std::string chunk(64 * 1024, 'x');
    for (int i = 0; i < 20 && client.sendRaw(chunk); ++i) {
    }
    std::string reply;
    ASSERT_TRUE(client.recvLine(reply));
    EXPECT_EQ(reply.substr(0, 4), "len:");
    EXPECT_LE(seen_len.load(), 200u); // a prefix reached the handler,
                                      // not the whole 1.3 MB flood
    EXPECT_FALSE(client.recvLine(reply)); // disconnected after
    transport->stop();
}

TEST_P(TransportSuite, PipelinedBatchIsAnsweredInOrder)
{
    // Many requests in ONE write: every complete line must be parsed
    // and answered, in order, on the same connection — the syscall-
    // amortizing traffic shape the transport batches.
    std::unique_ptr<Transport> transport = make();
    std::string error;
    ASSERT_TRUE(
        transport->start("127.0.0.1", 0, echoHandler(), error))
        << error;

    LineClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", transport->port(), error))
        << error;
    const int depth = 8;
    std::string batch;
    for (int i = 0; i < depth; ++i)
        batch += "req-" + std::to_string(i) + "\n";
    ASSERT_TRUE(client.sendRaw(batch));
    std::string reply;
    for (int i = 0; i < depth; ++i) {
        ASSERT_TRUE(client.recvLine(reply)) << "reply " << i;
        EXPECT_EQ(reply, "echo:req-" + std::to_string(i));
    }

    // The connection is still usable for a second batch.
    ASSERT_TRUE(client.sendRaw(batch));
    for (int i = 0; i < depth; ++i) {
        ASSERT_TRUE(client.recvLine(reply));
        EXPECT_EQ(reply, "echo:req-" + std::to_string(i));
    }
    TransportStats stats = transport->stats();
    EXPECT_EQ(stats.lines, 2 * depth);
    EXPECT_EQ(stats.batchedReplies, 2 * depth);
    EXPECT_GE(stats.maxFlushBatch, 1);
    transport->stop();
}

TEST_P(TransportSuite, SingleByteFragmentedWritesAcrossABatch)
{
    // The opposite extreme of pipelining: a batch of requests trickled
    // one byte per write.  Framing must reassemble lines across
    // arbitrarily many reads.
    std::unique_ptr<Transport> transport = make();
    std::string error;
    ASSERT_TRUE(
        transport->start("127.0.0.1", 0, echoHandler(), error))
        << error;

    LineClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", transport->port(), error))
        << error;
    const std::string batch = "one\ntwo\nthree\n";
    for (char c : batch)
        ASSERT_TRUE(client.sendRaw(std::string(1, c)));
    std::string reply;
    for (const char *expect : {"echo:one", "echo:two", "echo:three"}) {
        ASSERT_TRUE(client.recvLine(reply));
        EXPECT_EQ(reply, expect);
    }
    transport->stop();
}

TEST_P(TransportSuite, HalfLineStraddlingTwoReadsThenShutdown)
{
    // A line torn across two reads must reassemble; the half-line
    // left when the write half closes is answered as a partial.
    std::unique_ptr<Transport> transport = make();
    std::string error;
    ASSERT_TRUE(
        transport->start("127.0.0.1", 0, echoHandler(), error))
        << error;

    LineClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", transport->port(), error))
        << error;
    ASSERT_TRUE(client.sendRaw("hel"));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ASSERT_TRUE(client.sendRaw("lo\nwor"));
    client.shutdownWrite();
    std::string reply;
    ASSERT_TRUE(client.recvLine(reply));
    EXPECT_EQ(reply, "echo:hello");
    ASSERT_TRUE(client.recvLine(reply));
    EXPECT_EQ(reply, "echo:wor"); // the truncated tail, answered
    EXPECT_FALSE(client.recvLine(reply));
    transport->stop();
}

TEST_P(TransportSuite, SlowReaderBackpressureDeliversEverything)
{
    // 64 pipelined requests x 64 KiB replies = 4 MiB owed to a client
    // that is not reading.  The transport must bound its own buffering
    // (the loop pauses reads past the high-water mark) and
    // still deliver every reply, intact and in order, once the client
    // drains.
    std::unique_ptr<Transport> transport = make();
    std::string error;
    const std::string payload(64 * 1024, 'x');
    ASSERT_TRUE(transport->start(
        "127.0.0.1", 0,
        [&payload](std::string_view line, std::string &out, bool &,
                   const std::shared_ptr<AsyncReplySink> &) {
            out += line;
            out += ':';
            out += payload;
            out += '\n';
        },
        error))
        << error;

    LineClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", transport->port(), error))
        << error;
    const int depth = 64;
    std::string batch;
    for (int i = 0; i < depth; ++i)
        batch += "r" + std::to_string(i) + "\n";
    ASSERT_TRUE(client.sendRaw(batch));
    // Give the server time to run into the slow, unread peer.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    std::string_view reply;
    for (int i = 0; i < depth; ++i) {
        ASSERT_TRUE(client.recvLineView(reply)) << "reply " << i;
        const std::string prefix = "r" + std::to_string(i) + ":";
        ASSERT_GE(reply.size(), prefix.size());
        EXPECT_EQ(reply.substr(0, prefix.size()), prefix);
        EXPECT_EQ(reply.size(), prefix.size() + payload.size());
    }
    // 4 MiB owed >> 1 MiB high-water mark: the loop must have paused
    // reading at least once.
    EXPECT_GT(transport->stats().backpressured, 0);
    transport->stop();
}

TEST_P(TransportSuite, SyscallAndBatchStatsAreCounted)
{
    std::unique_ptr<Transport> transport = make();
    std::string error;
    ASSERT_TRUE(
        transport->start("127.0.0.1", 0, echoHandler(), error))
        << error;

    LineClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", transport->port(), error))
        << error;
    std::string reply;
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(client.sendLine("ping"));
        ASSERT_TRUE(client.recvLine(reply));
    }
    TransportStats stats = transport->stats();
    EXPECT_EQ(stats.lines, 4);
    EXPECT_GT(stats.readCalls, 0);
    EXPECT_GT(stats.writeCalls, 0);
    EXPECT_GT(stats.flushes, 0);
    EXPECT_GE(stats.batchedReplies, stats.flushes);
    EXPECT_GE(stats.maxFlushBatch, 1);
    transport->stop();
}

INSTANTIATE_TEST_SUITE_P(
    EventLoops, TransportSuite, ::testing::Values(1, 2),
    [](const ::testing::TestParamInfo<int> &info) {
        return std::to_string(info.param) + "loops";
    });

// -------------------------------------------------------------------
// ShardRouter key affinity and stats
// -------------------------------------------------------------------

TEST(ShardRouter, SameKeyAlwaysLandsOnSameShard)
{
    ShardRouter router(4, 1);
    CompileRequest req = namedRequest("ADDER4", SquareConfig::square());

    std::shared_ptr<const Program> program;
    CacheKey key;
    std::string error;
    ASSERT_TRUE(router.resolve(req, program, key, error)) << error;
    const int home = router.shardFor(key);
    ASSERT_GE(home, 0);
    ASSERT_LT(home, router.shards());

    const int repeats = 5;
    for (int i = 0; i < repeats; ++i) {
        ServiceReply r = router.submit(req);
        ASSERT_TRUE(r.error.empty());
        EXPECT_TRUE(r.key == key);
        EXPECT_EQ(r.hit, i > 0); // one miss, then affine hits
    }

    // Every request hit exactly the home shard; the others are idle.
    RouterStats stats = router.stats();
    for (int s = 0; s < router.shards(); ++s) {
        SCOPED_TRACE("shard " + std::to_string(s));
        EXPECT_EQ(stats.shards[static_cast<size_t>(s)].requests,
                  s == home ? repeats : 0);
    }
    EXPECT_EQ(stats.shards[static_cast<size_t>(home)].compiles, 1);
}

TEST(ShardRouter, ShardStatsSumToGlobalStats)
{
    ShardRouter router(3, 1);
    // A mix of keys (two workloads x two policies), each repeated.
    std::vector<CompileRequest> reqs;
    for (const char *w : {"ADDER4", "RD53"}) {
        reqs.push_back(namedRequest(w, SquareConfig::square()));
        reqs.push_back(namedRequest(w, SquareConfig::eager()));
    }
    for (int round = 0; round < 3; ++round)
        for (const CompileRequest &req : reqs)
            ASSERT_TRUE(router.submit(req).error.empty());

    RouterStats stats = router.stats();
    ServiceStats sum;
    for (const ServiceStats &shard : stats.shards)
        sum += shard;
    EXPECT_EQ(sum.requests, stats.global.requests);
    EXPECT_EQ(sum.hits, stats.global.hits);
    EXPECT_EQ(sum.misses, stats.global.misses);
    EXPECT_EQ(sum.compiles, stats.global.compiles);
    EXPECT_EQ(sum.failures, stats.global.failures);
    EXPECT_EQ(sum.evictions, stats.global.evictions);
    EXPECT_EQ(sum.cachedResults, stats.global.cachedResults);
    EXPECT_EQ(sum.cachedBytes, stats.global.cachedBytes);

    EXPECT_EQ(stats.global.requests, 12);
    EXPECT_EQ(stats.global.compiles, 4); // 4 unique keys
    EXPECT_EQ(stats.global.hits, 8);
    // The router resolved both programs once, in its own cache; the
    // shards received explicit programs and built none themselves.
    EXPECT_EQ(stats.routerPrograms, 2u);
    EXPECT_EQ(sum.cachedPrograms, 0u);
}

TEST(ShardRouter, ResolveFailuresAnsweredBeforeRouting)
{
    ShardRouter router(2, 1);
    CompileRequest bogus;
    bogus.label = "bogus";
    bogus.workload = "NO-SUCH-WORKLOAD";
    bogus.cfg = SquareConfig::square();
    ServiceReply r = router.submit(bogus);
    EXPECT_FALSE(r.error.empty());
    EXPECT_EQ(r.result, nullptr);

    RouterStats stats = router.stats();
    EXPECT_EQ(stats.resolveFailures, 1);
    EXPECT_EQ(stats.global.requests, 0); // never reached a shard
}

TEST(ShardRouter, ConcurrentDuplicatesAcrossConnectionsCompileOnce)
{
    // Key affinity is what preserves in-flight dedup under sharding:
    // concurrent duplicates meet on the owning shard.  TSan-covered.
    ShardRouter router(2, 2);
    CompileRequest req = namedRequest("RD53", SquareConfig::square());

    const int n_threads = 8;
    std::vector<ServiceReply> replies(n_threads);
    {
        std::vector<std::thread> pool;
        pool.reserve(n_threads);
        for (int t = 0; t < n_threads; ++t) {
            pool.emplace_back([&router, &req, &replies, t] {
                replies[static_cast<size_t>(t)] = router.submit(req);
            });
        }
        for (std::thread &th : pool)
            th.join();
    }
    const CompileResult *shared = replies[0].result.get();
    ASSERT_NE(shared, nullptr);
    for (const ServiceReply &r : replies) {
        EXPECT_TRUE(r.error.empty());
        EXPECT_EQ(r.result.get(), shared);
        // The preserialized reply bytes are shared exactly like the
        // result artifact: encoded once, refcounted everywhere.
        EXPECT_EQ(r.replyTail.get(), replies[0].replyTail.get());
    }
    RouterStats stats = router.stats();
    EXPECT_EQ(stats.global.requests, n_threads);
    EXPECT_EQ(stats.global.compiles, 1);
}

// -------------------------------------------------------------------
// CompileServer: the protocol over real sockets
// -------------------------------------------------------------------

TEST(ServerSuite, DuplicateRequestIsAHitOverTcp)
{
    ServerConfig cfg;
    cfg.shards = 2;
    CompileServer server(cfg);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    LineClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), error))
        << error;
    std::string reply;

    ASSERT_TRUE(client.sendLine(
        R"({"id":1,"workload":"ADDER4","policy":"square"})"));
    ASSERT_TRUE(client.recvLine(reply));
    EXPECT_NE(reply.find("\"ok\": true"), std::string::npos);
    EXPECT_NE(reply.find("\"cache\": \"miss\""), std::string::npos);

    ASSERT_TRUE(client.sendLine(
        R"({"id":2,"workload":"ADDER4","policy":"square"})"));
    ASSERT_TRUE(client.recvLine(reply));
    EXPECT_NE(reply.find("\"cache\": \"hit\""), std::string::npos);

    ASSERT_TRUE(client.sendLine(R"({"cmd":"stats"})"));
    ASSERT_TRUE(client.recvLine(reply));
    EXPECT_NE(reply.find("\"requests\": 2"), std::string::npos);
    EXPECT_NE(reply.find("\"hits\": 1"), std::string::npos);
    EXPECT_NE(reply.find("\"shards\": 2"), std::string::npos);

    // In-protocol shutdown: acknowledged, then the owning thread stops.
    ASSERT_TRUE(client.sendLine(R"({"cmd":"shutdown"})"));
    ASSERT_TRUE(client.recvLine(reply));
    EXPECT_NE(reply.find("\"cmd\": \"shutdown\""), std::string::npos);
    EXPECT_TRUE(server.shutdownRequested());
    server.stop();
}

TEST(ServerSuite, PipelinedWarmRequestsShareOneWriteBatch)
{
    // The full wire-speed path: pipelined duplicate requests on one
    // connection; every reply after the first is a preserialized
    // cache hit, answered in order.
    CompileServer server(ServerConfig{});
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    LineClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), error))
        << error;
    std::string batch;
    for (int id = 1; id <= 4; ++id)
        batch += "{\"id\":" + std::to_string(id) +
                 ",\"workload\":\"ADDER4\",\"policy\":\"square\"}\n";
    ASSERT_TRUE(client.sendRaw(batch));
    std::string reply;
    for (int id = 1; id <= 4; ++id) {
        ASSERT_TRUE(client.recvLine(reply)) << "reply " << id;
        EXPECT_NE(reply.find("\"id\": " + std::to_string(id)),
                  std::string::npos);
        EXPECT_NE(reply.find("\"ok\": true"), std::string::npos);
        EXPECT_NE(reply.find(id == 1 ? "\"cache\": \"miss\""
                                     : "\"cache\": \"hit\""),
                  std::string::npos)
            << reply;
    }
    server.stop();
}

TEST(ServerSuite, MalformedInputIsAStructuredReplyNotAClosedConnection)
{
    CompileServer server(ServerConfig{});
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    LineClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), error))
        << error;
    std::string reply;

    // Malformed machine specs: structured errors, connection lives on.
    for (const char *bad :
         {R"({"workload":"ADDER4","machine":"nisq:0x5"})",
          R"({"workload":"ADDER4","machine":"ft:16x16@"})",
          R"({"workload":"ADDER4","machine":"warp:3x3"})",
          R"({"workload":"ADDER4","oops":1})", R"(not json)",
          R"({"a": {"b": 1}})"}) {
        SCOPED_TRACE(bad);
        ASSERT_TRUE(client.sendLine(bad));
        ASSERT_TRUE(client.recvLine(reply));
        EXPECT_NE(reply.find("\"ok\": false"), std::string::npos);
        EXPECT_NE(reply.find("\"error\""), std::string::npos);
    }

    // The same connection still serves a good request afterwards.
    ASSERT_TRUE(client.sendLine(R"({"workload":"ADDER4"})"));
    ASSERT_TRUE(client.recvLine(reply));
    EXPECT_NE(reply.find("\"ok\": true"), std::string::npos);
    server.stop();
}

TEST(ServerSuite, TruncatedNdjsonLineGetsAStructuredError)
{
    CompileServer server(ServerConfig{});
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    // A request torn mid-string by the client dying: the reply is a
    // parse error object, not silence or an aborted connection.
    LineClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), error))
        << error;
    ASSERT_TRUE(client.sendRaw(R"({"workload": "ADD)"));
    client.shutdownWrite();
    std::string reply;
    ASSERT_TRUE(client.recvLine(reply));
    EXPECT_NE(reply.find("\"ok\": false"), std::string::npos);

    // The server survives; a fresh connection compiles fine.
    LineClient next;
    ASSERT_TRUE(next.connect("127.0.0.1", server.port(), error)) << error;
    ASSERT_TRUE(next.sendLine(R"({"workload":"ADDER4"})"));
    ASSERT_TRUE(next.recvLine(reply));
    EXPECT_NE(reply.find("\"ok\": true"), std::string::npos);
    server.stop();
}

TEST(ServerSuite, CachedResponsesAreBitIdenticalAcrossConnections)
{
    // The network path must not perturb results: the same request over
    // two different connections (miss, then cross-connection hit)
    // renders byte-identical metric payloads — on the hit, those
    // bytes come from the preserialized reply cache.
    ServerConfig cfg;
    cfg.shards = 2;
    CompileServer server(cfg);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    auto metricsOf = [](const std::string &reply) {
        // Strip the fields that legitimately differ between serves
        // (id, cache tag, service time); keep the immutable metric
        // tail ("gates" through "key").
        size_t gates = reply.find("\"gates\"");
        EXPECT_NE(gates, std::string::npos) << reply;
        return reply.substr(gates);
    };

    std::string first, second;
    {
        LineClient client;
        ASSERT_TRUE(client.connect("127.0.0.1", server.port(), error));
        ASSERT_TRUE(client.sendLine(
            R"({"workload":"RD53","policy":"square"})"));
        ASSERT_TRUE(client.recvLine(first));
        EXPECT_NE(first.find("\"cache\": \"miss\""), std::string::npos);
    }
    {
        LineClient client;
        ASSERT_TRUE(client.connect("127.0.0.1", server.port(), error));
        ASSERT_TRUE(client.sendLine(
            R"({"workload":"RD53","policy":"square"})"));
        ASSERT_TRUE(client.recvLine(second));
        EXPECT_NE(second.find("\"cache\": \"hit\""), std::string::npos);
    }
    EXPECT_EQ(metricsOf(first), metricsOf(second));
    server.stop();
}

TEST(Server, HandleLineDispatchWithoutSockets)
{
    // An unstarted one-shard server: square_serve's stdin dispatcher.
    ServerConfig cfg;
    cfg.shards = 1;
    cfg.workersPerShard = 1;
    CompileServer server(cfg);
    bool close_conn = false;

    // Blank lines and comments are protocol no-ops.
    EXPECT_EQ(server.handleLine("", close_conn), "");
    EXPECT_EQ(server.handleLine("   # comment", close_conn), "");

    // The square_serve smoke script: the repeated request is a hit,
    // and the counters see exactly two compiles.
    std::string reply = server.handleLine(
        R"({"id":1,"workload":"ADDER4","policy":"square"})", close_conn);
    EXPECT_NE(reply.find("\"cache\": \"miss\""), std::string::npos)
        << reply;
    reply = server.handleLine(
        R"({"id":2,"workload":"ADDER4","policy":"eager"})", close_conn);
    EXPECT_NE(reply.find("\"cache\": \"miss\""), std::string::npos)
        << reply;
    reply = server.handleLine(
        R"({"id":3,"workload":"ADDER4","policy":"square"})", close_conn);
    EXPECT_NE(reply.find("\"id\": 3, \"ok\": true"), std::string::npos)
        << reply;
    EXPECT_NE(reply.find("\"cache\": \"hit\""), std::string::npos)
        << reply;
    reply = server.handleLine(R"({"cmd":"stats"})", close_conn);
    EXPECT_NE(reply.find("\"hits\": 1, \"misses\": 2, \"compiles\": 2"),
              std::string::npos)
        << reply;
    EXPECT_FALSE(close_conn);

    reply = server.handleLine(R"({"cmd":"nope"})", close_conn);
    EXPECT_NE(reply.find("unknown cmd"), std::string::npos);
    EXPECT_FALSE(close_conn);

    reply = server.handleLine(R"({"cmd":"shutdown"})", close_conn);
    EXPECT_NE(reply.find("\"ok\": true"), std::string::npos);
    EXPECT_TRUE(close_conn);
    EXPECT_TRUE(server.shutdownRequested());
}

// -------------------------------------------------------------------
// Overload safety and fault recovery (the async cold path)
// -------------------------------------------------------------------

/** A gate the tests use to hold compiles inside the compile hook. */
struct CompileGate
{
    std::mutex m;
    std::condition_variable cv;
    bool open = false;
    int parked = 0;

    std::function<void()>
    hook()
    {
        return [this] {
            std::unique_lock<std::mutex> lock(m);
            ++parked;
            cv.notify_all();
            cv.wait(lock, [this] { return open; });
        };
    }

    void
    waitParked(int n)
    {
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [this, n] { return parked >= n; });
    }

    void
    release()
    {
        std::lock_guard<std::mutex> lock(m);
        open = true;
        cv.notify_all();
    }
};

/** One-event-loop server: the config every overload test uses. */
ServerConfig
overloadConfig()
{
    ServerConfig cfg;
    cfg.eventThreads = 1;
    cfg.shards = 1;
    cfg.workersPerShard = 1;
    return cfg;
}

std::string
coldRequest(int id, int margin)
{
    return "{\"id\":" + std::to_string(id) +
           ",\"workload\":\"ADDER4\",\"policy\":\"square\","
           "\"anchor_box_margin\":" +
           std::to_string(margin) + "}";
}

TEST(Robustness, ColdMissDoesNotStallOtherConnectionsOnEpoll)
{
    // The tentpole invariant: with ONE event loop, a connection whose
    // request is compiling must not stall any other connection mapped
    // to that loop.  Deterministic — the compile is held in a gate, so
    // if the cold path ever ran on the loop thread this test would
    // deadlock rather than flake.
    CompileServer server(overloadConfig());
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    LineClient warm;
    ASSERT_TRUE(warm.connect("127.0.0.1", server.port(), error));
    std::string reply;
    ASSERT_TRUE(warm.sendLine(
        R"({"workload":"ADDER4","policy":"square"})"));
    ASSERT_TRUE(warm.recvLine(reply));
    ASSERT_NE(reply.find("\"ok\": true"), std::string::npos);

    // Replace the fault-injection hook installed by start() with the
    // test's gate: the next compile parks until release().
    CompileGate gate;
    server.router().shard(0).setCompileHook(gate.hook());

    LineClient cold;
    ASSERT_TRUE(cold.connect("127.0.0.1", server.port(), error));
    ASSERT_TRUE(cold.sendLine(coldRequest(1, 201)));
    gate.waitParked(1); // the miss is on a worker, not the loop

    // The SAME loop serves other connections while the compile is
    // parked.
    for (int i = 0; i < 5; ++i) {
        ASSERT_TRUE(warm.sendLine(
            R"({"workload":"ADDER4","policy":"square"})"));
        ASSERT_TRUE(warm.recvLine(reply)) << "warm request " << i;
        EXPECT_NE(reply.find("\"cache\": \"hit\""), std::string::npos);
    }

    gate.release();
    ASSERT_TRUE(cold.recvLine(reply));
    EXPECT_NE(reply.find("\"id\": 1"), std::string::npos);
    EXPECT_NE(reply.find("\"ok\": true"), std::string::npos);
    EXPECT_NE(reply.find("\"cache\": \"miss\""), std::string::npos);
    server.stop();
}

TEST(Robustness, DisconnectMidCompileDoesNotWedgeOrLeak)
{
    // A client that dies while its compile is in flight must not wedge
    // the waiter list, leak the pending entry, or provoke a write to a
    // closed fd (ASan/TSan cover the latter).  The orphaned result is
    // still published and cached.
    CompileServer server(overloadConfig());
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    CompileGate gate;
    server.router().shard(0).setCompileHook(gate.hook());

    {
        LineClient doomed;
        ASSERT_TRUE(doomed.connect("127.0.0.1", server.port(), error));
        ASSERT_TRUE(doomed.sendLine(coldRequest(1, 202)));
        gate.waitParked(1);
        doomed.close(); // vanish mid-compile
    }
    gate.release();

    // The compile still publishes; poll the service until it retires.
    for (int i = 0; i < 200; ++i) {
        if (server.router().stats().global.pendingCompiles == 0)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ServiceStats s = server.router().stats().global;
    EXPECT_EQ(s.pendingCompiles, 0u);
    EXPECT_EQ(s.compiles, 1);

    // The orphaned result was cached: a fresh connection hits.
    LineClient next;
    ASSERT_TRUE(next.connect("127.0.0.1", server.port(), error));
    std::string reply;
    ASSERT_TRUE(next.sendLine(coldRequest(2, 202)));
    ASSERT_TRUE(next.recvLine(reply));
    EXPECT_NE(reply.find("\"cache\": \"hit\""), std::string::npos);
    server.stop(); // must not hang on a leaked pendingAsync count
}

TEST(Robustness, OverloadFloodShedsStructuredRepliesAndRecovers)
{
    // A pipelined flood of unique misses against a 1-deep compile
    // queue: exactly one request is admitted; the rest get structured
    // {"status":"overloaded"} replies with a retry hint — never a
    // dropped connection — and once the queue drains, every shed key
    // compiles and then serves at hit-rate 1.0.
    ServerConfig cfg = overloadConfig();
    cfg.admission.maxPending = 1;
    CompileServer server(cfg);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    CompileGate gate;
    server.router().shard(0).setCompileHook(gate.hook());

    LineClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), error));
    const int n = 6;
    std::string flood;
    for (int id = 1; id <= n; ++id)
        flood += coldRequest(id, 210 + id) + "\n";
    ASSERT_TRUE(client.sendRaw(flood));

    // The sheds answer immediately while the one admitted compile is
    // parked.
    std::string reply;
    int shed = 0;
    for (int k = 0; k < n - 1; ++k) {
        ASSERT_TRUE(client.recvLine(reply)) << "reply " << k;
        ASSERT_NE(reply.find("\"status\": \"overloaded\""),
                  std::string::npos)
            << reply;
        EXPECT_NE(reply.find("\"retry_after_ms\": "), std::string::npos);
        EXPECT_NE(reply.find("\"ok\": false"), std::string::npos);
        ++shed;
    }
    EXPECT_EQ(shed, n - 1);

    gate.waitParked(1);
    gate.release();
    ASSERT_TRUE(client.recvLine(reply)); // the admitted compile lands
    EXPECT_NE(reply.find("\"ok\": true"), std::string::npos);
    EXPECT_NE(reply.find("\"cache\": \"miss\""), std::string::npos);

    ServiceStats after = server.router().stats().global;
    EXPECT_EQ(after.shed, n - 1);

    // Recovery: every shed key is admitted now, then serves warm.
    for (int round = 0; round < 2; ++round) {
        for (int id = 2; id <= n; ++id) {
            ASSERT_TRUE(client.sendLine(coldRequest(id, 210 + id)));
            ASSERT_TRUE(client.recvLine(reply));
            ASSERT_NE(reply.find("\"ok\": true"), std::string::npos)
                << reply;
            if (round == 1)
                EXPECT_NE(reply.find("\"cache\": \"hit\""),
                          std::string::npos);
        }
    }
    EXPECT_EQ(server.router().stats().global.shed, n - 1); // no new sheds
    server.stop();
}

TEST(Robustness, PipelinedWarmRepliesOvertakeAColdCompile)
{
    // The reordering contract of the async cold path: in one pipelined
    // batch [cold, warm], the warm reply is written synchronously and
    // arrives FIRST; the cold reply arrives after its compile, matched
    // by id.
    CompileServer server(overloadConfig());
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    LineClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), error));
    std::string reply;
    ASSERT_TRUE(client.sendLine(
        R"({"workload":"ADDER4","policy":"square"})"));
    ASSERT_TRUE(client.recvLine(reply)); // warm the key

    CompileGate gate;
    server.router().shard(0).setCompileHook(gate.hook());
    ASSERT_TRUE(client.sendRaw(
        coldRequest(1, 203) + "\n" +
        R"({"id":2,"workload":"ADDER4","policy":"square"})" "\n"));

    ASSERT_TRUE(client.recvLine(reply));
    EXPECT_NE(reply.find("\"id\": 2"), std::string::npos) << reply;
    EXPECT_NE(reply.find("\"cache\": \"hit\""), std::string::npos);

    gate.release();
    ASSERT_TRUE(client.recvLine(reply));
    EXPECT_NE(reply.find("\"id\": 1"), std::string::npos) << reply;
    EXPECT_NE(reply.find("\"cache\": \"miss\""), std::string::npos);
    server.stop();
}

TEST(Robustness, WriteFaultsDropConnectionsNeverTheServer)
{
    // Injected flush failures look like broken sockets: the afflicted
    // connection dies, the server does not — and once the injector is
    // disabled, fresh connections serve normally.
    CompileServer server(overloadConfig());
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    LineClient warm;
    ASSERT_TRUE(warm.connect("127.0.0.1", server.port(), error));
    std::string reply;
    ASSERT_TRUE(warm.sendLine(
        R"({"workload":"ADDER4","policy":"square"})"));
    ASSERT_TRUE(warm.recvLine(reply));

    ASSERT_TRUE(FaultInjector::instance().configureFromSpec(
        "seed=5,write_fail_rate=1", error))
        << error;
    // Every flush now "fails": the reply is never delivered and the
    // connection is torn down server-side; the client observes EOF.
    ASSERT_TRUE(warm.sendLine(
        R"({"workload":"ADDER4","policy":"square"})"));
    EXPECT_FALSE(warm.recvLine(reply));
    FaultInjector::instance().disable();
    EXPECT_GE(FaultInjector::instance().stats().writeFailures, 1);

    LineClient next;
    ASSERT_TRUE(next.connect("127.0.0.1", server.port(), error));
    ASSERT_TRUE(next.sendLine(
        R"({"workload":"ADDER4","policy":"square"})"));
    ASSERT_TRUE(next.recvLine(reply));
    EXPECT_NE(reply.find("\"cache\": \"hit\""), std::string::npos);
    server.stop();
}

TEST(Robustness, WorkerDeathsRecoverWithIdenticalResults)
{
    // Deterministically seeded worker deaths: every death requeues the
    // job and respawns the worker, so the flood completes with the
    // same results a fault-free server would produce.
    CompileServer server(overloadConfig());
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    ASSERT_TRUE(FaultInjector::instance().configureFromSpec(
        "seed=11,worker_death_rate=0.6", error))
        << error;
    const int64_t deaths_before =
        FaultInjector::instance().stats().workerDeaths;

    LineClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), error));
    std::vector<std::string> first;
    std::string reply;
    for (int id = 1; id <= 6; ++id) {
        ASSERT_TRUE(client.sendLine(coldRequest(id, 220 + id)));
        ASSERT_TRUE(client.recvLine(reply));
        ASSERT_NE(reply.find("\"ok\": true"), std::string::npos)
            << reply;
        first.push_back(reply);
    }
    EXPECT_GE(FaultInjector::instance().stats().workerDeaths,
              deaths_before + 1);
    EXPECT_GE(server.router().stats().global.workerDeaths, 1);
    FaultInjector::instance().disable();

    // Post-recovery determinism: the cached artifacts' metric bytes
    // are identical to what the dead-worker run first served.
    for (int id = 1; id <= 6; ++id) {
        ASSERT_TRUE(client.sendLine(coldRequest(id, 220 + id)));
        ASSERT_TRUE(client.recvLine(reply));
        EXPECT_NE(reply.find("\"cache\": \"hit\""), std::string::npos);
        const size_t gates = reply.find("\"gates\"");
        const size_t first_gates =
            first[static_cast<size_t>(id - 1)].find("\"gates\"");
        ASSERT_NE(gates, std::string::npos);
        ASSERT_NE(first_gates, std::string::npos);
        EXPECT_EQ(reply.substr(gates),
                  first[static_cast<size_t>(id - 1)].substr(first_gates));
    }
    server.stop();
}


// -------------------------------------------------------------------
// Observability: the metrics command and end-to-end request tracing
// -------------------------------------------------------------------

TEST(Observability, MetricsCommandRendersEveryTier)
{
    CompileServer server(overloadConfig());
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    LineClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), error));
    std::string reply;
    ASSERT_TRUE(client.sendLine("{\"workload\":\"ADDER4\"}"));
    ASSERT_TRUE(client.recvLine(reply));
    ASSERT_TRUE(client.sendLine("{\"id\": 3, \"cmd\": \"metrics\"}"));
    ASSERT_TRUE(client.recvLine(reply));
    JsonRequest parsed;
    ASSERT_TRUE(parseJsonLine(reply, parsed, error)) << error;
    EXPECT_EQ(parsed.get("id"), "3");
    EXPECT_EQ(parsed.get("cmd"), "metrics");
    const std::string text = parsed.get("text");
    // Service counters (labelled per shard), transport counters, and
    // the fault-injection gauge all render in one exposition.
    EXPECT_NE(text.find("# TYPE square_service_requests_total counter"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("square_service_requests_total{shard=\"0\"} 1"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("square_service_warm_latency_us"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("# TYPE square_transport_lines_total counter"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("square_faults_enabled 0"), std::string::npos)
        << text;
    server.stop();
}

/**
 * Wait until the span log holds at least @p n lines.  The shard emits
 * a trace on the worker thread just after posting the reply, so the
 * client seeing the reply does not yet mean the spans are on disk.
 */
void
waitForSpanLines(const std::string &path, size_t n)
{
    for (int i = 0; i < 200; ++i) {
        std::ifstream in(path);
        std::string line;
        size_t lines = 0;
        while (std::getline(in, line))
            ++lines;
        if (lines >= n)
            return;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
}

/** Read every span line of one trace log into (comp, span) pairs. */
std::vector<std::pair<std::string, std::string>>
readSpans(const std::string &path, std::string &trace_id)
{
    std::vector<std::pair<std::string, std::string>> spans;
    std::ifstream in(path);
    std::string line, error;
    while (std::getline(in, line)) {
        JsonRequest json;
        if (!parseJsonLine(line, json, error))
            continue;
        if (trace_id.empty())
            trace_id = json.get("trace");
        else
            EXPECT_EQ(json.get("trace"), trace_id) << line;
        spans.emplace_back(json.get("comp"), json.get("span"));
    }
    return spans;
}

bool
hasSpan(const std::vector<std::pair<std::string, std::string>> &spans,
        const std::string &comp, const std::string &span)
{
    for (const auto &entry : spans)
        if (entry.first == comp && entry.second == span)
            return true;
    return false;
}

TEST(Observability, SampledColdRequestTracesEveryPhase)
{
    char path[] = "/tmp/square_server_trace_XXXXXX";
    const int fd = ::mkstemp(path);
    ASSERT_GE(fd, 0);
    std::string error;
    ASSERT_TRUE(obs::TraceLog::instance().configure(path, error))
        << error;

    ServerConfig cfg = overloadConfig();
    cfg.traceSample = 1; // every request is head-sampled
    CompileServer server(cfg);
    ASSERT_TRUE(server.start(error)) << error;
    LineClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), error));
    std::string reply;
    ASSERT_TRUE(client.sendLine("{\"id\":1,\"workload\":\"ADDER4\"}"));
    ASSERT_TRUE(client.recvLine(reply));
    ASSERT_NE(reply.find("\"cache\": \"miss\""), std::string::npos)
        << reply;
    waitForSpanLines(path, 7);
    server.stop();
    ASSERT_TRUE(obs::TraceLog::instance().configure("", error));

    // The acceptance shape: one cold request, one trace id, a span
    // for every phase of its life on the shard tier.
    std::string trace_id;
    const auto spans = readSpans(path, trace_id);
    EXPECT_EQ(trace_id.size(), 16u);
    for (const char *span :
         {"admission", "queue", "resolve", "analysis",
          "allocate_route_schedule", "serialize", "write"})
        EXPECT_TRUE(hasSpan(spans, "shard", span)) << span;
    ::close(fd);
    std::remove(path);
}

TEST(Observability, UnsampledFastRequestsEmitNothing)
{
    char path[] = "/tmp/square_server_notrace_XXXXXX";
    const int fd = ::mkstemp(path);
    ASSERT_GE(fd, 0);
    std::string error;
    ASSERT_TRUE(obs::TraceLog::instance().configure(path, error))
        << error;

    CompileServer server(overloadConfig()); // traceSample = 0
    ASSERT_TRUE(server.start(error)) << error;
    LineClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), error));
    std::string reply;
    ASSERT_TRUE(client.sendLine("{\"workload\":\"ADDER4\"}"));
    ASSERT_TRUE(client.recvLine(reply));
    ASSERT_TRUE(client.sendLine("{\"workload\":\"ADDER4\"}"));
    ASSERT_TRUE(client.recvLine(reply));
    server.stop();
    ASSERT_TRUE(obs::TraceLog::instance().configure("", error));

    std::ifstream in(path);
    std::string line;
    EXPECT_FALSE(std::getline(in, line)) << line;
    ::close(fd);
    std::remove(path);
}

TEST(Observability, SlowThresholdCapturesUnsampledRequests)
{
    char path[] = "/tmp/square_server_slow_XXXXXX";
    const int fd = ::mkstemp(path);
    ASSERT_GE(fd, 0);
    std::string error;
    ASSERT_TRUE(obs::TraceLog::instance().configure(path, error))
        << error;

    ServerConfig cfg = overloadConfig();
    cfg.traceSlowMs = 0.0001; // every cold compile exceeds 100ns
    CompileServer server(cfg);
    ASSERT_TRUE(server.start(error)) << error;
    LineClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), error));
    std::string reply;
    ASSERT_TRUE(client.sendLine("{\"workload\":\"ADDER4\"}"));
    ASSERT_TRUE(client.recvLine(reply));
    waitForSpanLines(path, 7);
    server.stop();
    ASSERT_TRUE(obs::TraceLog::instance().configure("", error));

    std::string trace_id;
    const auto spans = readSpans(path, trace_id);
    EXPECT_TRUE(hasSpan(spans, "shard", "analysis"));
    ::close(fd);
    std::remove(path);
}

// -------------------------------------------------------------------
// Flight recorder: the dump command and the stall watchdog
// -------------------------------------------------------------------

/** Count complete begin..end postmortem blocks with this reason. */
int
countPostmortemBlocks(const char *path, const std::string &reason)
{
    std::ifstream in(path);
    std::string line, error, open_reason;
    int complete = 0;
    while (std::getline(in, line)) {
        JsonRequest json;
        if (!parseJsonLine(line, json, error))
            continue;
        const std::string kind = json.get("pm");
        if (kind == "begin")
            open_reason = json.get("reason");
        else if (kind == "end" && open_reason == reason)
            ++complete;
    }
    return complete;
}

TEST(Observability, DumpCommandWritesAPostmortemBlock)
{
    CompileServer server(overloadConfig());
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    LineClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), error));
    std::string reply;

    // Without a configured sink the command reports the problem.
    ASSERT_TRUE(client.sendLine("{\"id\": 4, \"cmd\": \"dump\"}"));
    ASSERT_TRUE(client.recvLine(reply));
    EXPECT_NE(reply.find("no postmortem file configured"),
              std::string::npos)
        << reply;

    char path[] = "/tmp/square_server_pm_XXXXXX";
    const int fd = ::mkstemp(path);
    ASSERT_GE(fd, 0);
    ::close(fd);
    ASSERT_TRUE(obs::Postmortem::instance().configure(path, error))
        << error;

    // A request first, so the dump has service events to carry.
    ASSERT_TRUE(client.sendLine("{\"workload\":\"ADDER4\"}"));
    ASSERT_TRUE(client.recvLine(reply));
    ASSERT_TRUE(client.sendLine("{\"id\": 5, \"cmd\": \"dump\"}"));
    ASSERT_TRUE(client.recvLine(reply));
    JsonRequest parsed;
    ASSERT_TRUE(parseJsonLine(reply, parsed, error)) << error;
    EXPECT_EQ(parsed.get("id"), "5");
    EXPECT_EQ(parsed.get("ok"), "true");
    EXPECT_EQ(parsed.get("path"), path);
    EXPECT_GT(std::strtoll(parsed.get("events").c_str(), nullptr, 10),
              0);

    ASSERT_TRUE(obs::Postmortem::instance().configure("", error));
    EXPECT_EQ(countPostmortemBlocks(path, "command"), 1);
    server.stop();
    std::remove(path);
}

TEST(Observability, WatchdogFiresOnInjectedReadStall)
{
    // The true positive: a read_stall_ms fault wedges the epoll loop
    // *after* its wake-up beat, so the slot sits Active and silent
    // past the threshold — the watchdog must alarm and dump.
    char path[] = "/tmp/square_server_wd_XXXXXX";
    const int fd = ::mkstemp(path);
    ASSERT_GE(fd, 0);
    ::close(fd);
    std::string error;
    ASSERT_TRUE(obs::Postmortem::instance().configure(path, error))
        << error;
    obs::WatchdogConfig wcfg;
    wcfg.thresholdMs = 50;
    wcfg.intervalMs = 10;
    obs::Watchdog::instance().configure(wcfg);
    const int64_t stalls_before = obs::Watchdog::instance().stalls();

    CompileServer server(overloadConfig());
    ASSERT_TRUE(server.start(error)) << error;
    LineClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), error));
    std::string reply;
    ASSERT_TRUE(client.sendLine(
        R"({"workload":"ADDER4","policy":"square"})"));
    ASSERT_TRUE(client.recvLine(reply)); // warm the cache first

    ASSERT_TRUE(FaultInjector::instance().configureFromSpec(
        "seed=3,read_stall_ms=400", error))
        << error;
    ASSERT_TRUE(client.sendLine(
        R"({"workload":"ADDER4","policy":"square"})"));
    ASSERT_TRUE(client.recvLine(reply));
    FaultInjector::instance().disable();

    EXPECT_GE(obs::Watchdog::instance().stalls(), stalls_before + 1);

    // The stall shows up in the exposition the operator is watching.
    ASSERT_TRUE(client.sendLine("{\"cmd\": \"metrics\"}"));
    ASSERT_TRUE(client.recvLine(reply));
    JsonRequest parsed;
    ASSERT_TRUE(parseJsonLine(reply, parsed, error)) << error;
    EXPECT_NE(parsed.get("text").find("square_watchdog_stalls_total"),
              std::string::npos);

    server.stop();
    obs::Watchdog::instance().disable();
    ASSERT_TRUE(obs::Postmortem::instance().configure("", error));
    EXPECT_GE(countPostmortemBlocks(path, "stall"), 1);
    std::remove(path);
}

TEST(Observability, WatchdogIgnoresSlowButHeartbeatingCompiles)
{
    // The false positive it must NOT have: a compile_delay_ms fault
    // makes one compile five times slower than the threshold, but the
    // worker runs it under busy() and the epoll loop sleeps in
    // epoll_wait (idle) while waiting — nobody is Active-and-silent,
    // so no stall and no dump.
    std::string error;
    obs::WatchdogConfig wcfg;
    wcfg.thresholdMs = 80;
    wcfg.intervalMs = 10;
    obs::Watchdog::instance().configure(wcfg);
    const int64_t stalls_before = obs::Watchdog::instance().stalls();

    CompileServer server(overloadConfig());
    ASSERT_TRUE(server.start(error)) << error;
    ASSERT_TRUE(FaultInjector::instance().configureFromSpec(
        "seed=3,compile_delay_ms=400", error))
        << error;
    LineClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), error));
    std::string reply;
    ASSERT_TRUE(client.sendLine(coldRequest(1, 230)));
    ASSERT_TRUE(client.recvLine(reply));
    EXPECT_NE(reply.find("\"ok\": true"), std::string::npos);
    FaultInjector::instance().disable();
    EXPECT_GE(FaultInjector::instance().stats().compileDelays, 1);

    EXPECT_EQ(obs::Watchdog::instance().stalls(), stalls_before);
    server.stop();
    obs::Watchdog::instance().disable();
}

} // namespace
} // namespace square
