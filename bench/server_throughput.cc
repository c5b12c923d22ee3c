/**
 * @file
 * Networked-server throughput: a multi-connection client load
 * generator against the sharded TCP compile server.
 *
 * This is the end-to-end serving measurement for the tier built in
 * src/server/: an in-process CompileServer (real loopback sockets, the
 * production code path: the event-loop transport with the
 * preserialized reply cache behind it) is driven by C concurrent
 * client connections issuing the repeated-request traffic the service
 * tier targets, at pipeline depth 1 (pure request/reply round trips)
 * and at the configured pipeline depth (B requests per write, B
 * replies per round trip).  The in-process rows are labelled "epoll".
 * Measured per row:
 *
 *   - warm requests/s across all connections (every request after the
 *     cold phase is a content-addressed cache hit on its home shard;
 *     the bench exits non-zero on ANY warm miss);
 *   - batch round-trip latency p50/p99/p99.9 (client-observed: batch
 *     out, all B replies in; depth 1 = per-request latency);
 *   - server-side syscalls per request and mean/max replies per
 *     gathered write (the transport's flush-batch stats);
 *   - golden check: the metric payload of a cached reply, parsed from
 *     the wire, equals a fresh in-process compile() field-by-field —
 *     the deserialized comparison the preserialized reply path cannot
 *     drift past (process exits non-zero on mismatch).
 *
 * With --cold-fraction=F (0 < F < 1) an additional mixed phase runs
 * at depth 1: each request is, with probability F (one seeded Rng per
 * client), a COLD compile — a never-seen cache key minted from a
 * unique anchor_box_margin — and otherwise a warm hit.  Warm and cold
 * latencies are split, and the phase enforces the overload-safety
 * contract of the async cold path: the warm p99 under mixed traffic
 * must stay within 5x of the pure-warm depth-1 p99 (a cold compile
 * stalls only its own connection, never the event loop), or the bench
 * exits non-zero.
 *
 * With --fabric=N an additional phase measures the multi-process shard
 * fabric: N real square_served processes are forked (one shard + one
 * worker pool each), an in-process RouterServer consistent-hashes the
 * key space over them, and the same cold/load/golden sequence runs
 * against the router port — so the "fabric" rows are directly
 * comparable to the in-process rows, and the depth-1 p50 delta against
 * the in-process epoll row IS the router hop cost (parse + ring lookup
 * + forward + demultiplex, one extra loopback round trip).  Aggregate
 * throughput is a scaling claim only on multi-core hosts; the JSON
 * records the host's cpu count either way.  Any warm miss — including
 * through the fabric, where hits depend on cross-process key stability
 * — exits non-zero.
 *
 * Two artifact-store phases ride along.  The store-overhead phase is
 * the persistence acceptance gate: two fresh servers — one appending
 * to a --store log, one without — run the identical warm pipelined
 * load at the deepest depth (interleaved, best-of), and warm
 * throughput with the store on must
 * stay within 2% of off (publishes append asynchronously off the warm
 * path, and warm hits append nothing at all; the gate keeps it that
 * way) or the bench exits non-zero.  The restart phase measures the
 * store's reason to exist: a working set of unique keys is compiled
 * into a store-backed server (the cold-start row: time-to-hit-rate-1.0
 * = compiling the working set), the server is stopped (draining the
 * log), and a second server starts over the same log — its first pass
 * must be ALL hits with ZERO compiles (enforced, non-zero exit
 * otherwise), and its time-to-hit-rate-1.0 row is the warm-restart
 * headline against the recompile row.
 *
 * Pass --square_json=PATH for BENCH_server_throughput.json.  Flags:
 * --clients=N connections, --batches=N pipelined batches per client,
 * --pipeline-depth=B, --shards=N, --workers=N fleet workers per
 * shard, --event-threads=N transport event loops,
 * --cold-fraction=F mixed-phase cold rate, --fabric=N shard daemons
 * (0 = skip), --served-bin=PATH shard binary (default: next to this
 * one), --smoke shrinks for CI.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench_common.h"
#include "common/rng.h"
#include "common/stats.h"
#include "obs/flight_recorder.h"
#include "server/client.h"
#include "server/router_daemon.h"
#include "server/server.h"
#include "service/protocol.h"

using namespace square;
using namespace square::bench;

namespace {

using Clock = std::chrono::steady_clock;

const std::vector<std::string> kWorkloads = {"SHA2", "SALSA20",
                                             "Belle"};

/** One client connection's view of the load phase. */
struct ClientResult
{
    std::vector<double> latencies; ///< per-batch round trips, ms
    int64_t hits = 0;
    int64_t requests = 0;
    std::string error;
};

/** One measured (transport x depth) row. */
struct PhaseRow
{
    std::string transport;
    int depth = 0;
    int64_t requests = 0;
    double wallMs = 0;
    double rps = 0;
    double p50 = 0, p99 = 0, p999 = 0;
    double hitRate = 0;
    double syscallsPerReq = 0;
    double meanFlushBatch = 0;
    int64_t maxFlushBatch = 0;
};

std::string
requestLine(const std::string &workload)
{
    return "{\"workload\": \"" + workload +
           "\", \"policy\": \"square\"}";
}

/** Parse one reply line into (ok, cache-hit) plus the raw object. */
bool
parseReply(std::string_view line, JsonRequest &json, bool &hit,
           std::string &error)
{
    if (!parseJsonLine(line, json, error))
        return false;
    if (json.get("ok") != "true") {
        error = "server error: " + json.get("error");
        return false;
    }
    hit = json.get("cache") == "hit";
    return true;
}

/**
 * Golden check on the DESERIALIZED payload: a served reply's metric
 * fields, parsed back from the wire, must equal a fresh compile() —
 * so a preserialized reply that drifted from the artifact (or a
 * framing bug corrupting bytes) cannot pass.
 */
bool
identicalToFresh(const std::string &workload, const JsonRequest &reply)
{
    Program prog = makeBenchmark(workload);
    MachineSpec spec = MachineSpec::paperFor(findBenchmark(workload));
    Machine machine = spec.build();
    CompileResult fresh =
        compile(prog, machine, SquareConfig::square(), {});
    struct Field
    {
        const char *key;
        long long expect;
    } const fields[] = {
        {"gates", fresh.gates},
        {"swaps", fresh.swaps},
        {"depth", fresh.depth},
        {"aqv", fresh.aqv},
        {"qubits_used", fresh.qubitsUsed},
        {"peak_live", fresh.peakLive},
        {"reclaims", fresh.reclaimCount},
        {"skips", fresh.skipCount},
    };
    for (const Field &f : fields) {
        if (std::atoll(reply.get(f.key).c_str()) != f.expect) {
            std::fprintf(stderr,
                         "GOLDEN MISMATCH: %s.%s served %s, fresh "
                         "compile() says %lld\n",
                         workload.c_str(), f.key,
                         reply.get(f.key).c_str(), f.expect);
            return false;
        }
    }
    return true;
}

void
runClient(uint16_t port, int batches, int depth, int offset,
          ClientResult &out)
{
    LineClient client;
    std::string error;
    if (!client.connect("127.0.0.1", port, error)) {
        out.error = error;
        return;
    }
    // Pre-render the request batch once: per-client offset staggers
    // the workload order so shards see interleaved traffic.
    const size_t n = kWorkloads.size();
    std::string batch;
    for (int d = 0; d < depth; ++d) {
        batch += requestLine(
            kWorkloads[(static_cast<size_t>(offset + d)) % n]);
        batch += '\n';
    }
    std::string_view reply;
    for (int r = 0; r < batches; ++r) {
        Clock::time_point t0 = Clock::now();
        if (!client.sendRaw(batch)) {
            out.error = "send failed mid-load";
            return;
        }
        for (int d = 0; d < depth; ++d) {
            if (!client.recvLineView(reply)) {
                out.error = "connection dropped mid-load";
                return;
            }
            // Hot-loop validation is substring-cheap so the load
            // generator measures the server, not its own JSON parser;
            // the golden phase does the full deserialized comparison.
            if (reply.find("\"ok\": true") == std::string_view::npos) {
                out.error = "server error: " + std::string(reply);
                return;
            }
            if (reply.find("\"cache\": \"hit\"") !=
                std::string_view::npos)
                ++out.hits;
            ++out.requests;
        }
        out.latencies.push_back(millisSince(t0));
    }
}

/** Cold phase: one connection compiles each unique key (all misses). */
bool
coldPhase(uint16_t port, double &cold_ms)
{
    Clock::time_point t0 = Clock::now();
    LineClient warmup;
    std::string error;
    if (!warmup.connect("127.0.0.1", port, error)) {
        std::fprintf(stderr, "connect failed: %s\n", error.c_str());
        return false;
    }
    for (const std::string &w : kWorkloads) {
        std::string_view reply;
        JsonRequest json;
        bool hit = false;
        if (!warmup.sendLine(requestLine(w)) ||
            !warmup.recvLineView(reply) ||
            !parseReply(reply, json, hit, error)) {
            std::fprintf(stderr, "cold request failed: %s\n",
                         error.c_str());
            return false;
        }
        if (hit) {
            std::fprintf(stderr, "cold request unexpectedly hit\n");
            return false;
        }
    }
    cold_ms = millisSince(t0);
    return true;
}

/**
 * One measured load phase: C clients x B batches at one depth against
 * whatever serves @p port — the in-process CompileServer or the fabric
 * router (whose client-facing @p transport provides the same syscall
 * and flush-batch counters).
 */
bool
loadPhase(uint16_t port, const Transport *transport,
          const std::string &label, int clients, int batches,
          int depth, PhaseRow &row)
{
    const TransportStats before = transport->stats();
    std::vector<ClientResult> results(static_cast<size_t>(clients));
    Clock::time_point t0 = Clock::now();
    {
        std::vector<std::thread> pool;
        pool.reserve(static_cast<size_t>(clients));
        for (int c = 0; c < clients; ++c) {
            pool.emplace_back(runClient, port, batches, depth, c,
                              std::ref(results[static_cast<size_t>(c)]));
        }
        for (std::thread &th : pool)
            th.join();
    }
    const double load_ms = millisSince(t0);
    const TransportStats after = transport->stats();

    std::vector<double> latencies;
    int64_t total = 0, hits = 0;
    for (const ClientResult &r : results) {
        if (!r.error.empty()) {
            std::fprintf(stderr, "client failed: %s\n",
                         r.error.c_str());
            return false;
        }
        latencies.insert(latencies.end(), r.latencies.begin(),
                         r.latencies.end());
        total += r.requests;
        hits += r.hits;
    }
    // Every load-phase request follows the cold compiles with no
    // eviction bound configured, so anything short of a 100% hit rate
    // is a serving regression (sharding or dedup bug), not noise.
    if (hits != total) {
        std::fprintf(stderr,
                     "HIT-RATE REGRESSION: %lld/%lld warm requests hit "
                     "the cache\n",
                     static_cast<long long>(hits),
                     static_cast<long long>(total));
        return false;
    }
    std::sort(latencies.begin(), latencies.end());

    row.transport = label;
    row.depth = depth;
    row.requests = total;
    row.wallMs = load_ms;
    row.rps = load_ms > 0
                  ? static_cast<double>(total) / (load_ms / 1000.0)
                  : 0.0;
    row.p50 = percentileNearestRank(latencies, 50.0);
    row.p99 = percentileNearestRank(latencies, 99.0);
    row.p999 = percentileNearestRank(latencies, 99.9);
    row.hitRate = total > 0 ? static_cast<double>(hits) /
                                  static_cast<double>(total)
                            : 0.0;
    const int64_t d_lines = after.lines - before.lines;
    const int64_t d_sys = (after.readCalls - before.readCalls) +
                          (after.writeCalls - before.writeCalls);
    const int64_t d_flushes = after.flushes - before.flushes;
    const int64_t d_batched =
        after.batchedReplies - before.batchedReplies;
    row.syscallsPerReq =
        d_lines > 0 ? static_cast<double>(d_sys) /
                          static_cast<double>(d_lines)
                    : 0.0;
    row.meanFlushBatch =
        d_flushes > 0 ? static_cast<double>(d_batched) /
                            static_cast<double>(d_flushes)
                      : 0.0;
    // The transport's max-batch counter is cumulative since server
    // start and cannot be delta'd; phases MUST run shallow-to-deep on
    // a fresh server per transport (they do: depths = {1, B}) so the
    // cumulative value at the end of each phase equals that phase's
    // own max.
    row.maxFlushBatch = after.maxFlushBatch;
    return true;
}

/** One client's share of the mixed warm/cold phase (depth 1). */
struct MixedClientResult
{
    std::vector<double> warmMs;
    std::vector<double> coldMs;
    std::string error;
};

/** One measured mixed-traffic row. */
struct MixedRow
{
    std::string transport;
    double coldFraction = 0;
    int64_t requests = 0;
    int64_t coldRequests = 0;
    double wallMs = 0;
    double rps = 0;
    double warmP50 = 0, warmP99 = 0;
    double coldP50 = 0, coldP99 = 0;
};

void
runMixedClient(uint16_t port, int rounds, double cold_fraction,
               int client_idx, MixedClientResult &out)
{
    LineClient client;
    std::string error;
    if (!client.connect("127.0.0.1", port, error)) {
        out.error = error;
        return;
    }
    // Deterministic per-client draw sequence; cold keys are minted
    // from a per-client disjoint anchor_box_margin range (margin is
    // part of the cache key), so no cold request ever repeats — and
    // none collides with the warm keys' default margin.
    Rng rng(static_cast<uint64_t>(client_idx) * 7919u + 29u);
    int cold_minted = 0;
    const int margin_base = 100 + client_idx * (rounds + 1);
    // Stratified cold schedule: exactly max(1, round(rounds*F)) cold
    // rounds per client at rng-chosen positions.  A plain Bernoulli
    // draw at F=0.01 over a short run can legally produce zero colds
    // (and with fixed seeds, *always* would), leaving the cold path
    // unexercised.
    std::vector<char> cold_round(static_cast<size_t>(rounds), 0);
    if (cold_fraction > 0) {
        const int n_cold = std::max(
            1, static_cast<int>(rounds * cold_fraction + 0.5));
        for (int placed = 0; placed < n_cold;) {
            size_t pos = static_cast<size_t>(
                rng.below(static_cast<uint64_t>(rounds)));
            if (!cold_round[pos]) {
                cold_round[pos] = 1;
                ++placed;
            }
        }
    }
    const size_t n = kWorkloads.size();
    std::string_view reply;
    for (int r = 0; r < rounds; ++r) {
        const std::string &workload =
            kWorkloads[static_cast<size_t>(client_idx + r) % n];
        const bool cold = cold_round[static_cast<size_t>(r)] != 0;
        std::string line;
        if (cold) {
            line = "{\"workload\": \"" + workload +
                   "\", \"policy\": \"square\", \"anchor_box_margin\": " +
                   std::to_string(margin_base + cold_minted++) + "}";
        } else {
            line = requestLine(workload);
        }
        Clock::time_point t0 = Clock::now();
        if (!client.sendLine(line)) {
            out.error = "send failed mid-load";
            return;
        }
        if (!client.recvLineView(reply)) {
            out.error = "connection dropped mid-load";
            return;
        }
        const double ms = millisSince(t0);
        if (reply.find("\"ok\": true") == std::string_view::npos) {
            out.error = "server error: " + std::string(reply);
            return;
        }
        const bool hit =
            reply.find("\"cache\": \"hit\"") != std::string_view::npos;
        if (hit == cold) {
            out.error = cold ? "cold request unexpectedly hit"
                             : "warm request unexpectedly missed";
            return;
        }
        (cold ? out.coldMs : out.warmMs).push_back(ms);
    }
}

/** The mixed warm/cold phase: C depth-1 clients, F cold rate. */
bool
mixedPhase(CompileServer &server, int clients, int rounds,
           double cold_fraction, double pure_warm_p99, MixedRow &row)
{
    std::vector<MixedClientResult> results(
        static_cast<size_t>(clients));
    Clock::time_point t0 = Clock::now();
    {
        std::vector<std::thread> pool;
        pool.reserve(static_cast<size_t>(clients));
        for (int c = 0; c < clients; ++c) {
            pool.emplace_back(runMixedClient, server.port(), rounds,
                              cold_fraction, c,
                              std::ref(results[static_cast<size_t>(c)]));
        }
        for (std::thread &th : pool)
            th.join();
    }
    const double wall_ms = millisSince(t0);

    std::vector<double> warm, cold;
    for (const MixedClientResult &r : results) {
        if (!r.error.empty()) {
            std::fprintf(stderr, "mixed client failed: %s\n",
                         r.error.c_str());
            return false;
        }
        warm.insert(warm.end(), r.warmMs.begin(), r.warmMs.end());
        cold.insert(cold.end(), r.coldMs.begin(), r.coldMs.end());
    }
    std::sort(warm.begin(), warm.end());
    std::sort(cold.begin(), cold.end());

    row.transport = "epoll";
    row.coldFraction = cold_fraction;
    row.requests = static_cast<int64_t>(warm.size() + cold.size());
    row.coldRequests = static_cast<int64_t>(cold.size());
    row.wallMs = wall_ms;
    row.rps = wall_ms > 0 ? static_cast<double>(row.requests) /
                                (wall_ms / 1000.0)
                          : 0.0;
    row.warmP50 = percentileNearestRank(warm, 50.0);
    row.warmP99 = percentileNearestRank(warm, 99.0);
    row.coldP50 = percentileNearestRank(cold, 50.0);
    row.coldP99 = percentileNearestRank(cold, 99.0);

    // The cold-isolation contract: cold compiles must not time-shift
    // the warm tail.  5x pure-warm p99 is deliberately loose — it
    // absorbs scheduler noise but still catches a cold path that
    // blocks the event loop (which inflates the warm tail by the
    // compile time, orders of magnitude past 5x).  The bound is
    // floored at one scheduler quantum: with ~200 warm samples the p99
    // IS the second-worst sample, and on a saturated 1-core host a
    // single involuntary preemption (~1-3 ms) is indistinguishable
    // from noise.  A real loop stall inflates the tail to the compile
    // duration (>= 10 ms), far past the floor.
    const double limit = std::max(5.0 * pure_warm_p99, 2.0);
    if (pure_warm_p99 > 0 && row.warmP99 > limit) {
        std::fprintf(stderr,
                     "WARM-TAIL REGRESSION (cold=%.2f): mixed warm p99 "
                     "%.3f ms exceeds max(5x pure-warm p99 %.3f ms, "
                     "2 ms)\n",
                     cold_fraction, row.warmP99, pure_warm_p99);
        return false;
    }
    return true;
}

/**
 * Metrics-overhead phase: the telemetry acceptance gate.  Two fresh
 * epoll servers — metrics recording on (the default) vs off — run the
 * identical warm pipelined load at the deepest depth, interleaved
 * twice with best-of scoring so a stray scheduler hiccup cannot
 * charge its cost to either side.  The registry counters are always
 * live (they are the stats substrate); the toggle gates exactly what
 * the flag gates in production: per-request histogram recording.
 */
bool
metricsOverheadPhase(const ServerConfig &base, int clients, int batches,
                     int depth, int trials, double &on_rps,
                     double &off_rps)
{
    on_rps = off_rps = 0;
    for (int trial = 0; trial < trials; ++trial) {
        for (const bool metrics_on : {false, true}) {
            ServerConfig cfg = base;
            cfg.metrics = metrics_on;
            CompileServer server(cfg);
            std::string error;
            if (!server.start(error)) {
                std::fprintf(stderr,
                             "server start failed (metrics %s): %s\n",
                             metrics_on ? "on" : "off", error.c_str());
                return false;
            }
            double cold_ms = 0;
            PhaseRow row;
            if (!coldPhase(server.port(), cold_ms) ||
                !loadPhase(server.port(), server.transport(),
                           metrics_on ? "m-on" : "m-off", clients,
                           batches, depth, row))
                return false;
            double &best = metrics_on ? on_rps : off_rps;
            best = std::max(best, row.rps);
            server.stop();
        }
    }
    return true;
}

/**
 * Recorder-overhead phase: the flight recorder's acceptance gate,
 * mirroring metricsOverheadPhase.  Two fresh epoll servers — recorder
 * enabled (the default) vs disabled — run the identical warm pipelined
 * load at the deepest depth with best-of scoring.  The warm path
 * records nothing per-request by design (admits, flushes, and traced
 * requests only), so the measured cost is the relaxed enabled-gate
 * loads on the hooks' paths; the gate keeps it that way.
 */
bool
recorderOverheadPhase(const ServerConfig &base, int clients,
                      int batches, int depth, int trials,
                      double &on_rps, double &off_rps)
{
    on_rps = off_rps = 0;
    obs::FlightRecorder &recorder = obs::FlightRecorder::instance();
    for (int trial = 0; trial < trials; ++trial) {
        for (const bool recorder_on : {false, true}) {
            recorder.setEnabled(recorder_on);
            ServerConfig cfg = base;
            CompileServer server(cfg);
            std::string error;
            if (!server.start(error)) {
                std::fprintf(stderr,
                             "server start failed (recorder %s): %s\n",
                             recorder_on ? "on" : "off",
                             error.c_str());
                recorder.setEnabled(true);
                return false;
            }
            double cold_ms = 0;
            PhaseRow row;
            if (!coldPhase(server.port(), cold_ms) ||
                !loadPhase(server.port(), server.transport(),
                           recorder_on ? "r-on" : "r-off", clients,
                           batches, depth, row)) {
                recorder.setEnabled(true);
                return false;
            }
            double &best = recorder_on ? on_rps : off_rps;
            best = std::max(best, row.rps);
            server.stop();
        }
    }
    recorder.setEnabled(true);
    return true;
}

/**
 * Store-overhead phase: the persistence acceptance gate, mirroring
 * metricsOverheadPhase.  Two fresh epoll servers — one with a --store
 * log behind the publish sink, one without — run the identical warm
 * pipelined load at the deepest depth with best-of scoring.  Publishes
 * append asynchronously (a refcount bump and a queue push on the
 * worker thread, never the event loop) and warm hits publish nothing,
 * so the measured delta is the cost of the installed sink and the idle
 * appender thread; the gate keeps the warm path that clean.  The
 * store-on server gets a FRESH log each trial (replaying last trial's
 * log would turn the cold phase into hits and trip its miss check).
 */
bool
storeOverheadPhase(const ServerConfig &base, const std::string &path,
                   int clients, int batches, int depth, int trials,
                   double &on_rps, double &off_rps)
{
    on_rps = off_rps = 0;
    for (int trial = 0; trial < trials; ++trial) {
        for (const bool store_on : {false, true}) {
            ServerConfig cfg = base;
            if (store_on) {
                unlink(path.c_str());
                cfg.storePath = path;
            }
            CompileServer server(cfg);
            std::string error;
            if (!server.start(error)) {
                std::fprintf(stderr,
                             "server start failed (store %s): %s\n",
                             store_on ? "on" : "off", error.c_str());
                return false;
            }
            double cold_ms = 0;
            PhaseRow row;
            if (!coldPhase(server.port(), cold_ms) ||
                !loadPhase(server.port(), server.transport(),
                           store_on ? "s-on" : "s-off", clients,
                           batches, depth, row))
                return false;
            double &best = store_on ? on_rps : off_rps;
            best = std::max(best, row.rps);
            server.stop();
        }
    }
    unlink(path.c_str());
    return true;
}

/** One restart-phase row (cold start vs warm start over one log). */
struct RestartRow
{
    std::string mode;   ///< "cold_start" | "warm_start"
    double startMs = 0; ///< server.start(), including any replay
    double serveMs = 0; ///< first pass over the working set
    double totalMs = 0; ///< time-to-hit-rate-1.0 from process intent
    int64_t requests = 0;
    int64_t hits = 0;
    int64_t compiles = 0;
    int64_t replayed = 0;
};

/**
 * One pass over the restart working set on a fresh connection.
 * @p expect_hits asserts the all-or-nothing contract of each leg: a
 * cold start must miss every key, a warm restart must hit every key.
 */
bool
restartPass(uint16_t port, const std::vector<std::string> &lines,
            bool expect_hits, int64_t &hits, double &serve_ms)
{
    LineClient client;
    std::string error;
    if (!client.connect("127.0.0.1", port, error)) {
        std::fprintf(stderr, "connect failed: %s\n", error.c_str());
        return false;
    }
    hits = 0;
    Clock::time_point t0 = Clock::now();
    for (const std::string &line : lines) {
        std::string_view reply;
        JsonRequest json;
        bool hit = false;
        if (!client.sendLine(line) || !client.recvLineView(reply) ||
            !parseReply(reply, json, hit, error)) {
            std::fprintf(stderr, "restart request failed: %s\n",
                         error.c_str());
            return false;
        }
        if (hit != expect_hits) {
            std::fprintf(stderr,
                         "RESTART REGRESSION: request %s on a %s "
                         "start\n",
                         hit ? "hit" : "missed",
                         expect_hits ? "warm" : "cold");
            return false;
        }
        hits += hit ? 1 : 0;
    }
    serve_ms = millisSince(t0);
    return true;
}

/** Sum of per-shard compiles since this server started. */
int64_t
serverCompiles(CompileServer &server)
{
    int64_t compiles = 0;
    for (const ServiceStats &s : server.router().stats().shards)
        compiles += s.compiles;
    return compiles;
}

/**
 * Restart phase: cold start vs warm start over one artifact log.  The
 * cold leg compiles a working set of @p n_keys unique keys (minted
 * from a reserved anchor_box_margin range) into a store-backed server
 * and times start + first pass — the time-to-hit-rate-1.0 of a
 * restart WITHOUT persistence, i.e. recompiling the working set.  The
 * server is stopped (the appender drains to disk) and the warm leg
 * starts a second server over the same log: its start time includes
 * the mmap replay, its first pass must be all hits with zero compiles
 * (enforced), and start + pass is the warm-restart
 * time-to-hit-rate-1.0 — the headline against the cold row.
 */
bool
restartPhase(const ServerConfig &base, const std::string &path,
             int n_keys, RestartRow &cold, RestartRow &warm)
{
    std::vector<std::string> lines;
    for (int k = 0; k < n_keys; ++k) {
        const size_t n = kWorkloads.size();
        lines.push_back(
            "{\"workload\": \"" + kWorkloads[static_cast<size_t>(k) % n] +
            "\", \"policy\": \"square\", \"anchor_box_margin\": " +
            std::to_string(5000 + k / static_cast<int>(n)) + "}");
    }
    unlink(path.c_str());

    // Cold leg: empty log, every key compiles.
    {
        ServerConfig cfg = base;
        cfg.storePath = path;
        CompileServer server(cfg);
        std::string error;
        Clock::time_point t0 = Clock::now();
        if (!server.start(error)) {
            std::fprintf(stderr, "cold-start failed: %s\n",
                         error.c_str());
            return false;
        }
        cold.startMs = millisSince(t0);
        cold.mode = "cold_start";
        cold.requests = n_keys;
        if (!restartPass(server.port(), lines, /*expect_hits=*/false,
                         cold.hits, cold.serveMs))
            return false;
        cold.totalMs = cold.startMs + cold.serveMs;
        cold.compiles = serverCompiles(server);
        server.stop(); // drains the append queue into the log
    }

    // Warm leg: same log, every key replays — zero compiles allowed.
    {
        ServerConfig cfg = base;
        cfg.storePath = path;
        CompileServer server(cfg);
        std::string error;
        Clock::time_point t0 = Clock::now();
        if (!server.start(error)) {
            std::fprintf(stderr, "warm-start failed: %s\n",
                         error.c_str());
            return false;
        }
        warm.startMs = millisSince(t0);
        warm.mode = "warm_start";
        warm.requests = n_keys;
        if (server.store() != nullptr) {
            for (const auto &[name, value] :
                 server.store()->metricsRegistry().counterValues()) {
                if (name == "replayed")
                    warm.replayed = value;
            }
        }
        if (!restartPass(server.port(), lines, /*expect_hits=*/true,
                         warm.hits, warm.serveMs))
            return false;
        warm.totalMs = warm.startMs + warm.serveMs;
        warm.compiles = serverCompiles(server);
        server.stop();
        if (warm.compiles != 0) {
            std::fprintf(stderr,
                         "RESTART REGRESSION: warm start recompiled "
                         "%lld key(s)\n",
                         static_cast<long long>(warm.compiles));
            return false;
        }
    }
    unlink(path.c_str());
    return true;
}

/** Golden phase: every workload re-requested, parsed, and compared. */
bool
goldenPhase(uint16_t port)
{
    LineClient checker;
    std::string error;
    if (!checker.connect("127.0.0.1", port, error)) {
        std::fprintf(stderr, "connect failed: %s\n", error.c_str());
        return false;
    }
    bool golden = true;
    for (const std::string &w : kWorkloads) {
        std::string_view reply;
        JsonRequest json;
        bool hit = false;
        if (!checker.sendLine(requestLine(w)) ||
            !checker.recvLineView(reply) ||
            !parseReply(reply, json, hit, error) || !hit) {
            std::fprintf(stderr, "golden request failed: %s\n",
                         error.c_str());
            return false;
        }
        golden = golden && identicalToFresh(w, json);
    }
    return golden;
}

/** One forked square_served shard daemon. */
struct ShardProc
{
    pid_t pid = -1;
    std::string portFile;
    std::string address; ///< "127.0.0.1:port" once the handshake lands
};

/** SIGTERM + reap every live shard child (idempotent). */
void
stopShards(std::vector<ShardProc> &shards)
{
    for (ShardProc &s : shards) {
        if (s.pid > 0)
            kill(s.pid, SIGTERM);
    }
    for (ShardProc &s : shards) {
        if (s.pid > 0) {
            waitpid(s.pid, nullptr, 0);
            s.pid = -1;
        }
        if (!s.portFile.empty())
            unlink(s.portFile.c_str());
    }
}

/**
 * Fork/exec N square_served shard daemons (one shard, @p workers
 * fleet workers each) and complete the --port-file handshake.  On any
 * failure the already-started children are reaped before returning.
 */
bool
spawnShards(const std::string &bin, int n, int workers,
            std::vector<ShardProc> &shards)
{
    const std::string workers_arg =
        "--workers=" + std::to_string(workers);
    for (int i = 0; i < n; ++i) {
        ShardProc proc;
        proc.portFile = "fabric_shard" + std::to_string(i) + "." +
                        std::to_string(getpid()) + ".port";
        unlink(proc.portFile.c_str());
        const std::string port_file_arg = "--port-file=" + proc.portFile;
        pid_t pid = fork();
        if (pid == 0) {
            execl(bin.c_str(), bin.c_str(), "--port=0", "--shards=1",
                  workers_arg.c_str(), port_file_arg.c_str(), "--quiet",
                  static_cast<char *>(nullptr));
            _exit(127); // exec failed; the parent sees an empty port file
        }
        if (pid < 0) {
            std::fprintf(stderr, "fork failed for shard %d\n", i);
            stopShards(shards);
            return false;
        }
        proc.pid = pid;
        shards.push_back(proc);
    }
    // Port-file handshake: each child writes its bound port once
    // listening.  10 s is generous; an exec failure leaves the file
    // empty forever, so the poll also watches for child death.
    for (ShardProc &s : shards) {
        long port = 0;
        for (int tries = 0; tries < 400; ++tries) {
            if (FILE *f = std::fopen(s.portFile.c_str(), "r")) {
                if (std::fscanf(f, "%ld", &port) != 1)
                    port = 0;
                std::fclose(f);
                if (port > 0)
                    break;
            }
            if (waitpid(s.pid, nullptr, WNOHANG) == s.pid) {
                s.pid = -1; // already reaped
                break;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(25));
        }
        if (port <= 0) {
            std::fprintf(stderr,
                         "shard %s never announced a port (bad "
                         "--served-bin path?)\n",
                         s.portFile.c_str());
            stopShards(shards);
            return false;
        }
        s.address = "127.0.0.1:" + std::to_string(port);
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path = extractJsonPath(argc, argv);
    int clients = 4;
    int batches = 48;
    int depth = 8;
    int shards = 2;
    int workers = 1;
    int event_threads = 1;
    double cold_fraction = 0;
    int fabric = 0;
    bool smoke = false;
    std::string served_bin;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--clients=", 10) == 0) {
            clients = std::atoi(argv[i] + 10);
        } else if (std::strncmp(argv[i], "--batches=", 10) == 0) {
            batches = std::atoi(argv[i] + 10);
        } else if (std::strncmp(argv[i], "--pipeline-depth=", 17) == 0) {
            depth = std::atoi(argv[i] + 17);
        } else if (std::strncmp(argv[i], "--shards=", 9) == 0) {
            shards = std::atoi(argv[i] + 9);
        } else if (std::strncmp(argv[i], "--workers=", 10) == 0) {
            workers = std::atoi(argv[i] + 10);
        } else if (std::strncmp(argv[i], "--event-threads=", 16) == 0) {
            event_threads = std::atoi(argv[i] + 16);
        } else if (std::strncmp(argv[i], "--cold-fraction=", 16) == 0) {
            cold_fraction = std::atof(argv[i] + 16);
            if (cold_fraction < 0 || cold_fraction >= 1) {
                std::fprintf(stderr,
                             "--cold-fraction must be in [0, 1)\n");
                return 1;
            }
        } else if (std::strncmp(argv[i], "--fabric=", 9) == 0) {
            fabric = std::atoi(argv[i] + 9);
            if (fabric < 0) {
                std::fprintf(stderr, "--fabric must be >= 0\n");
                return 1;
            }
        } else if (std::strncmp(argv[i], "--served-bin=", 13) == 0) {
            served_bin = argv[i] + 13;
        } else if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
            clients = 2;
            batches = 4;
            depth = 4;
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
            return 1;
        }
    }
    if (clients < 1 || batches < 1 || depth < 1 || shards < 1 ||
        workers < 1 || event_threads < 1) {
        std::fprintf(stderr, "all knobs must be >= 1\n");
        return 1;
    }
    std::vector<int> depths = {1};
    if (depth > 1)
        depths.push_back(depth);

    if (fabric > 0 && served_bin.empty()) {
        // Default: square_served lives next to this binary.
        std::string self = argv[0];
        size_t slash = self.find_last_of('/');
        served_bin = (slash == std::string::npos
                          ? std::string()
                          : self.substr(0, slash + 1)) +
                     "square_served";
    }

    const unsigned cpus = std::thread::hardware_concurrency();
    printHeader("Networked-server throughput (TCP, sharded, LRU + "
                "preserialized reply cache)",
                "the multi-client serving scenario");
    warnIfSingleCore(cpus);
    std::printf("load: %d connections x %d batches, pipeline depths "
                "{1, %d}; %d shards x %d workers; unique keys: %zu; "
                "host cpus: %u\n\n",
                clients, batches, depth, shards, workers,
                kWorkloads.size(), cpus);

    std::vector<PhaseRow> rows;
    std::vector<MixedRow> mixed_rows;
    double cold_ms_first = 0;
    bool golden_all = true;
    ServerConfig base;
    base.shards = shards;
    base.workersPerShard = workers;
    base.eventThreads = event_threads;
    {
        CompileServer server(base);
        std::string error;
        if (!server.start(error)) {
            std::fprintf(stderr, "server start failed: %s\n",
                         error.c_str());
            return 1;
        }

        if (!coldPhase(server.port(), cold_ms_first))
            return 1;

        for (int d : depths) {
            PhaseRow row;
            if (!loadPhase(server.port(), server.transport(), "epoll",
                           clients, batches, d, row))
                return 1;
            rows.push_back(row);
        }

        if (cold_fraction > 0) {
            // rows.front() is the depth-1 pure-warm phase (depths
            // always starts at 1), the baseline for the warm-tail
            // isolation check.
            MixedRow mrow;
            if (!mixedPhase(server, clients, batches, cold_fraction,
                            rows.front().p99, mrow))
                return 1;
            mixed_rows.push_back(mrow);
        }

        golden_all = goldenPhase(server.port());

        // Per-shard balance (key-affine routing).
        RouterStats rs = server.router().stats();
        std::printf("[epoll] per-shard balance:");
        for (size_t s = 0; s < rs.shards.size(); ++s)
            std::printf("  shard %zu: %lld reqs / %lld compiles", s,
                        static_cast<long long>(rs.shards[s].requests),
                        static_cast<long long>(rs.shards[s].compiles));
        std::printf("  golden: %s\n", golden_all ? "yes" : "NO");
        server.stop();
    }

    // Metrics-overhead phase: the telemetry subsystem's acceptance
    // gate — warm throughput at the deepest pipeline depth with
    // histogram recording on must stay within 2% of recording off.
    double metrics_on_rps = 0, metrics_off_rps = 0;
    if (!metricsOverheadPhase(base, clients, batches, depth,
                              smoke ? 1 : 2, metrics_on_rps,
                              metrics_off_rps))
        return 1;
    const double metrics_overhead =
        metrics_off_rps > 0
            ? (metrics_off_rps - metrics_on_rps) / metrics_off_rps
            : 0.0;
    std::printf("\nmetrics overhead (epoll, depth %d): on %.0f "
                "req/s vs off %.0f req/s => %+.2f%%\n",
                depth, metrics_on_rps, metrics_off_rps,
                metrics_overhead * 100.0);
    // Smoke runs are too short to resolve 2% — report, don't gate.
    if (!smoke && metrics_overhead > 0.02) {
        std::fprintf(stderr,
                     "METRICS OVERHEAD REGRESSION: %.2f%% > 2%% "
                     "at pipeline depth %d\n",
                     metrics_overhead * 100.0, depth);
        return 1;
    }

    // Recorder-overhead phase: the flight recorder's acceptance gate —
    // same shape, toggling the per-thread ring recording instead.
    double recorder_on_rps = 0, recorder_off_rps = 0;
    if (!recorderOverheadPhase(base, clients, batches, depth,
                               smoke ? 1 : 2, recorder_on_rps,
                               recorder_off_rps))
        return 1;
    const double recorder_overhead =
        recorder_off_rps > 0
            ? (recorder_off_rps - recorder_on_rps) /
                  recorder_off_rps
            : 0.0;
    std::printf("recorder overhead (epoll, depth %d): on %.0f "
                "req/s vs off %.0f req/s => %+.2f%%\n",
                depth, recorder_on_rps, recorder_off_rps,
                recorder_overhead * 100.0);
    if (!smoke && recorder_overhead > 0.02) {
        std::fprintf(stderr,
                     "RECORDER OVERHEAD REGRESSION: %.2f%% > 2%% "
                     "at pipeline depth %d\n",
                     recorder_overhead * 100.0, depth);
        return 1;
    }

    // Store-overhead phase: the artifact store's acceptance gate —
    // warm throughput at the deepest pipeline depth with a store
    // behind the publish sink must stay within 2% of no store.
    double store_on_rps = 0, store_off_rps = 0;
    RestartRow restart_cold, restart_warm;
    const int restart_keys = smoke ? 6 : 48;
    const std::string store_path =
        "bench_store." + std::to_string(getpid()) + ".store";
    if (!storeOverheadPhase(base, store_path, clients, batches,
                            depth, smoke ? 1 : 2, store_on_rps,
                            store_off_rps))
        return 1;
    const double store_overhead =
        store_off_rps > 0
            ? (store_off_rps - store_on_rps) / store_off_rps
            : 0.0;
    std::printf("store overhead (epoll, depth %d): on %.0f req/s "
                "vs off %.0f req/s => %+.2f%%\n",
                depth, store_on_rps, store_off_rps,
                store_overhead * 100.0);
    if (!smoke && store_overhead > 0.02) {
        std::fprintf(stderr,
                     "STORE OVERHEAD REGRESSION: %.2f%% > 2%% at "
                     "pipeline depth %d\n",
                     store_overhead * 100.0, depth);
        return 1;
    }

    // Restart phase: the store's headline — warm-restart
    // time-to-hit-rate-1.0 vs recompiling the working set.
    if (!restartPhase(base, store_path, restart_keys, restart_cold,
                      restart_warm))
        return 1;
    std::printf(
        "restart (%d unique keys): cold start %.1f ms to hit rate "
        "1.0 (%lld compiles; start %.1f + serve %.1f) vs warm "
        "restart %.1f ms (%lld compiles, %lld replayed; start "
        "%.1f + serve %.1f) => %.1fx\n",
        restart_keys, restart_cold.totalMs,
        static_cast<long long>(restart_cold.compiles),
        restart_cold.startMs, restart_cold.serveMs,
        restart_warm.totalMs,
        static_cast<long long>(restart_warm.compiles),
        static_cast<long long>(restart_warm.replayed),
        restart_warm.startMs, restart_warm.serveMs,
        restart_warm.totalMs > 0
            ? restart_cold.totalMs / restart_warm.totalMs
            : 0.0);

    // Fabric phase: N forked shard daemons behind an in-process
    // consistent-hash router, same cold/load/golden sequence.
    UpstreamStats fabric_stats;
    if (fabric > 0) {
        std::vector<ShardProc> shard_procs;
        if (!spawnShards(served_bin, fabric, workers, shard_procs))
            return 1;
        RouterConfig rcfg;
        for (const ShardProc &s : shard_procs)
            rcfg.shards.push_back(s.address);
        rcfg.eventThreads = event_threads;
        RouterServer router(rcfg);
        std::string error;
        if (!router.start(error)) {
            std::fprintf(stderr, "router start failed: %s\n",
                         error.c_str());
            stopShards(shard_procs);
            return 1;
        }
        bool ok = true;
        double cold_ms = 0;
        ok = ok && coldPhase(router.port(), cold_ms);
        for (int d : depths) {
            if (!ok)
                break;
            PhaseRow row;
            ok = loadPhase(router.port(), router.transport(), "fabric",
                           clients, batches, d, row);
            if (ok)
                rows.push_back(row);
        }
        const bool golden = ok && goldenPhase(router.port());
        golden_all = golden_all && golden;
        fabric_stats = router.upstreamStats();
        std::printf("[fabric] %d shard processes, balance:", fabric);
        for (size_t s = 0; s < fabric_stats.shards.size(); ++s)
            std::printf(
                "  shard %zu: %lld fwd / %lld replies", s,
                static_cast<long long>(
                    fabric_stats.shards[s].forwarded),
                static_cast<long long>(fabric_stats.shards[s].replies));
        std::printf("  golden: %s\n", golden ? "yes" : "NO");
        router.stop();
        stopShards(shard_procs);
        if (!ok)
            return 1;
    }

    std::printf("\n%9s %6s %9s %10s %12s %9s %9s %9s %8s %7s\n",
                "transport", "depth", "requests", "wall ms",
                "requests/s", "p50 ms", "p99 ms", "p99.9 ms",
                "sys/req", "batch");
    printRule(100);
    for (const PhaseRow &r : rows) {
        std::printf(
            "%9s %6d %9lld %10.1f %12.0f %9.3f %9.3f %9.3f %8.2f "
            "%7.1f\n",
            r.transport.c_str(), r.depth,
            static_cast<long long>(r.requests), r.wallMs, r.rps, r.p50,
            r.p99, r.p999, r.syscallsPerReq, r.meanFlushBatch);
    }
    printRule(100);
    std::printf("(latency = client-observed batch round trip; sys/req "
                "= server-side (recv+send)/requests;\n batch = mean "
                "replies per gathered write)\n");
    if (fabric > 0) {
        // The hop cost is the honest per-request price of the process
        // split: same client load, same warm keys, one extra loopback
        // round trip plus the router's parse + ring lookup.
        double epoll_p50 = 0, fabric_p50 = 0;
        for (const PhaseRow &r : rows) {
            if (r.depth != 1)
                continue;
            if (r.transport == "epoll")
                epoll_p50 = r.p50;
            else if (r.transport == "fabric")
                fabric_p50 = r.p50;
        }
        if (epoll_p50 > 0 && fabric_p50 > 0)
            std::printf("router hop cost (depth 1 p50): fabric %.3f ms "
                        "vs in-process epoll %.3f ms => %+.3f ms per "
                        "request\n",
                        fabric_p50, epoll_p50, fabric_p50 - epoll_p50);
        if (cpus < 2)
            std::printf("note: single-core host — the fabric rows "
                        "price the router hop; aggregate-throughput "
                        "scaling needs cores for the shard processes\n");
    }
    if (!mixed_rows.empty()) {
        std::printf("\nmixed warm/cold phase (depth 1; cold = unique "
                    "key => real compile):\n");
        std::printf("%9s %6s %9s %7s %12s %9s %9s %9s %9s\n",
                    "transport", "cold", "requests", "colds",
                    "requests/s", "warm p50", "warm p99", "cold p50",
                    "cold p99");
        printRule(90);
        for (const MixedRow &r : mixed_rows) {
            std::printf(
                "%9s %6.2f %9lld %7lld %12.0f %9.3f %9.3f %9.3f "
                "%9.3f\n",
                r.transport.c_str(), r.coldFraction,
                static_cast<long long>(r.requests),
                static_cast<long long>(r.coldRequests), r.rps,
                r.warmP50, r.warmP99, r.coldP50, r.coldP99);
        }
        printRule(90);
        std::printf("(warm p99 under mixed traffic checked <= 5x the "
                    "pure-warm depth-1 p99)\n");
    }
    std::printf("cold compile phase: %.1f ms; cached replies "
                "golden-checked (deserialized) vs fresh compile(): "
                "%s\n",
                cold_ms_first, golden_all ? "yes" : "NO");
    if (!golden_all)
        return 1;

    if (!json_path.empty()) {
        JsonReport report;
        report.benchmark = "server_throughput";
        report.unit = "requests_per_second";
        report.header.push_back(jsonInt("cpus", cpus));
        report.header.push_back(jsonInt("clients", clients));
        report.header.push_back(jsonInt("batches", batches));
        report.header.push_back(jsonInt("shards", shards));
        report.header.push_back(jsonInt("workers_per_shard", workers));
        report.header.push_back(
            jsonInt("event_threads", event_threads));
        report.header.push_back(
            jsonInt("unique_requests",
                    static_cast<int64_t>(kWorkloads.size())));
        report.header.push_back(
            jsonNum("cold_wall_ms", cold_ms_first, 1));
        report.header.push_back(
            jsonInt("golden_identical", golden_all));
        report.header.push_back(jsonInt("fabric_shards", fabric));
        report.header.push_back(
            jsonNum("metrics_on_rps", metrics_on_rps, 0));
        report.header.push_back(
            jsonNum("metrics_off_rps", metrics_off_rps, 0));
        report.header.push_back(jsonNum(
            "metrics_overhead_pct", metrics_overhead * 100.0, 2));
        report.header.push_back(
            jsonNum("recorder_on_rps", recorder_on_rps, 0));
        report.header.push_back(
            jsonNum("recorder_off_rps", recorder_off_rps, 0));
        report.header.push_back(
            jsonNum("recorder_overhead_pct",
                    recorder_overhead * 100.0, 2));
        report.header.push_back(
            jsonNum("store_on_rps", store_on_rps, 0));
        report.header.push_back(
            jsonNum("store_off_rps", store_off_rps, 0));
        report.header.push_back(jsonNum(
            "store_overhead_pct", store_overhead * 100.0, 2));
        if (fabric > 0) {
            report.header.push_back(
                jsonInt("fabric_forwarded", fabric_stats.forwarded));
            report.header.push_back(
                jsonInt("fabric_shard_down_replies",
                        fabric_stats.shardDownReplies));
        }
        for (const PhaseRow &r : rows) {
            report.addRow(
                {jsonStr("transport", r.transport),
                 jsonInt("pipeline_depth", r.depth),
                 jsonInt("requests", r.requests),
                 jsonNum("wall_ms", r.wallMs, 1),
                 jsonNum("requests_per_s", r.rps, 0),
                 jsonNum("hit_rate", r.hitRate, 3),
                 jsonNum("p50_ms", r.p50, 3),
                 jsonNum("p99_ms", r.p99, 3),
                 jsonNum("p999_ms", r.p999, 3),
                 jsonNum("syscalls_per_req", r.syscallsPerReq, 2),
                 jsonNum("mean_flush_batch", r.meanFlushBatch, 1),
                 jsonInt("max_flush_batch", r.maxFlushBatch)});
        }
        for (const RestartRow *r : {&restart_cold, &restart_warm}) {
            report.addRow(
                {jsonStr("phase", "restart"),
                 jsonStr("mode", r->mode),
                 jsonInt("unique_keys", restart_keys),
                 jsonNum("start_ms", r->startMs, 1),
                 jsonNum("serve_ms", r->serveMs, 1),
                 jsonNum("time_to_full_hit_ms", r->totalMs, 1),
                 jsonInt("requests", r->requests),
                 jsonNum("hit_rate",
                         r->requests > 0
                             ? static_cast<double>(r->hits) /
                                   static_cast<double>(r->requests)
                             : 0.0,
                         3),
                 jsonInt("compiles", r->compiles),
                 jsonInt("replayed", r->replayed)});
        }
        for (const MixedRow &r : mixed_rows) {
            report.addRow(
                {jsonStr("transport", r.transport),
                 jsonStr("phase", "mixed"),
                 jsonNum("cold_fraction", r.coldFraction, 2),
                 jsonInt("requests", r.requests),
                 jsonInt("cold_requests", r.coldRequests),
                 jsonNum("wall_ms", r.wallMs, 1),
                 jsonNum("requests_per_s", r.rps, 0),
                 jsonNum("warm_p50_ms", r.warmP50, 3),
                 jsonNum("warm_p99_ms", r.warmP99, 3),
                 jsonNum("cold_p50_ms", r.coldP50, 3),
                 jsonNum("cold_p99_ms", r.coldP99, 3)});
        }
        report.writeTo(json_path);
    }
    return 0;
}
