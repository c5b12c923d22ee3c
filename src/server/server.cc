#include "server/server.h"

#include <cstdio>
#include <utility>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/watchdog.h"
#include "server/faults.h"
#include "service/protocol.h"

namespace square {

namespace {

/**
 * The stats reply for the sharded server: the service-layer stats line
 * (global = summed shard counters) extended with the router fields.
 * Stays a flat JSON object so protocol.h's parser can read it back.
 */
std::string
formatServerStats(const RouterStats &stats, int shards)
{
    // Shards receive pre-resolved programs and cache none themselves;
    // fold the router's name cache into the operator-facing counter so
    // "cached_programs" reports the programs actually resident.
    ServiceStats global = stats.global;
    global.cachedPrograms += stats.routerPrograms;
    std::string line = formatStats(global);
    char extra[128];
    std::snprintf(extra, sizeof extra,
                  ", \"shards\": %d, \"resolve_failures\": %lld}",
                  shards,
                  static_cast<long long>(stats.resolveFailures));
    line.pop_back(); // replace the closing '}' with the extension
    return line + extra;
}

/**
 * Close out one traced request on the shard tier: record the "write"
 * span (serialization + reply handoff; the kernel send happens later
 * in the transport's corked flush) and emit when the trace is
 * head-sampled or the request crossed the slow threshold.
 */
void
finishShardTrace(const std::shared_ptr<obs::Trace> &trace,
                 const obs::SpanClock &write_t0, double millis,
                 double slow_ms)
{
    trace->addSpan("write", write_t0.wallUs,
                   obs::microsSince(write_t0));
    if (trace->sampled() || (slow_ms > 0 && millis >= slow_ms))
        obs::TraceLog::instance().emit(*trace, "shard");
}

} // namespace

CompileServer::CompileServer(const ServerConfig &cfg)
    : router_(cfg.shards, cfg.workersPerShard, cfg.limits,
              cfg.admission),
      cfg_(cfg), traceSampler_(cfg.traceSample)
{
    for (int i = 0; i < router_.shards(); ++i)
        router_.shard(i).setMetricsEnabled(cfg.metrics);
}

CompileServer::~CompileServer() { stop(); }

void
CompileServer::replayIntoShards(StoreRecord &&rec, uint64_t &inserted)
{
    if (router_.shard(router_.shardFor(rec.key))
            .insertReplayed(rec.key, std::move(rec.result),
                            std::move(rec.tail)))
        ++inserted;
}

bool
CompileServer::start(std::string &error)
{
    // Wire the fault-injection probes into every shard.  The service
    // layer carries the hooks so it stays free of src/server includes;
    // both probes gate on one relaxed atomic load when faults are off.
    for (int i = 0; i < router_.shards(); ++i) {
        router_.shard(i).setCompileHook(
            [] { FaultInjector::instance().onCompileStart(); });
        router_.shard(i).setWorkerDeathHook(
            [] { return FaultInjector::instance().shouldKillWorker(); });
    }

    // Warm restart, strictly before the transport accepts its first
    // connection: replay this server's own log into the key-affine
    // shard caches (entries beyond CacheLimits evict normally — log
    // order is recency order), truncate any torn tail, and point
    // every shard's publish sink at the store's append queue.
    if (!cfg_.storePath.empty()) {
        store_ = std::make_unique<ArtifactStore>();
        ArtifactStore::Options sopts;
        sopts.path = cfg_.storePath;
        sopts.fsyncEachRecord = cfg_.storeFsync;
        uint64_t inserted = 0;
        if (!store_->open(sopts,
                          [this, &inserted](StoreRecord &&rec) {
                              replayIntoShards(std::move(rec),
                                               inserted);
                          },
                          error)) {
            store_.reset();
            return false;
        }
        ArtifactStore *store = store_.get();
        for (int i = 0; i < router_.shards(); ++i)
            router_.shard(i).setPublishSink(
                [store](const CacheKey &key,
                        const std::shared_ptr<const CompileResult> &r,
                        const std::shared_ptr<const std::string> &t) {
                    store->append(key, r, t);
                });
    }
    // Shard pre-warming: bulk-load a donor shard's log read-only.
    // Runs after the own-store replay, so a key present in both keeps
    // its own (more local) copy; duplicates are skipped, not
    // re-appended — content addressing makes over-replay harmless.
    if (!cfg_.prewarmPath.empty()) {
        uint64_t good_bytes = 0, replayed = 0, corrupt = 0;
        uint64_t inserted = 0;
        if (!replayStoreFile(cfg_.prewarmPath,
                             [this, &inserted](StoreRecord &&rec) {
                                 replayIntoShards(std::move(rec),
                                                  inserted);
                             },
                             good_bytes, replayed, corrupt, error))
            return false;
        if (store_ != nullptr)
            store_->notePrewarm(inserted, corrupt);
        obs::recordEvent(obs::Comp::Store, obs::Ev::StoreReplay,
                         replayed, good_bytes);
    }

    transport_ = std::make_unique<Transport>(cfg_.eventThreads);
    if (!transport_->start(
            cfg_.host, cfg_.port,
            [this](std::string_view line, std::string &out,
                   bool &close_conn,
                   const std::shared_ptr<AsyncReplySink> &async) {
                handleLineTo(line, out, close_conn, async);
            },
            error))
        return false;
    // Postmortem dumps carry a final metrics snapshot; every registry
    // this server owns is labelled into it while it is alive.
    obs::Postmortem &pm = obs::Postmortem::instance();
    for (int i = 0; i < router_.shards(); ++i) {
        char prefix[32];
        std::snprintf(prefix, sizeof prefix, "service%d", i);
        pm.registerRegistry(prefix,
                            &router_.shard(i).metricsRegistry());
    }
    pm.registerRegistry("transport", &transport_->metricsRegistry());
    pm.registerRegistry("watchdog",
                        &obs::Watchdog::instance().metricsRegistry());
    if (store_ != nullptr)
        pm.registerRegistry("store", &store_->metricsRegistry());
    return true;
}

void
CompileServer::stop()
{
    obs::Postmortem &pm = obs::Postmortem::instance();
    for (int i = 0; i < router_.shards(); ++i)
        pm.unregisterRegistry(&router_.shard(i).metricsRegistry());
    // registerRegistry does not dedupe: the watchdog's slot must be
    // released too, or start/stop churn (tests) fills the table.
    pm.unregisterRegistry(&obs::Watchdog::instance().metricsRegistry());
    if (transport_ != nullptr) {
        pm.unregisterRegistry(&transport_->metricsRegistry());
        transport_->stop();
    }
    if (store_ != nullptr) {
        pm.unregisterRegistry(&store_->metricsRegistry());
        // Drain the append queue before the fd closes: a clean
        // shutdown (SIGTERM, {"cmd": "shutdown"}) persists every
        // publish it acknowledged.
        store_->close();
    }
}

void
CompileServer::handleLineTo(std::string_view line, std::string &out,
                            bool &close_conn,
                            const std::shared_ptr<AsyncReplySink> &async)
{
    if (isProtocolNoOp(line))
        return;

    // Reused per transport thread: request parsing amortizes to zero
    // allocations on the warm path (the fields vector keeps its
    // capacity; the short key/value strings are SSO).
    thread_local JsonRequest json;
    std::string error;
    if (!parseJsonLine(line, json, error)) {
        out += formatError(json, error);
        out += '\n';
        return;
    }

    if (json.has("cmd")) {
        const std::string cmd = json.get("cmd");
        if (cmd == "stats") {
            out += formatServerStats(router_.stats(), router_.shards());
        } else if (cmd == "metrics") {
            out += formatTextReply(json, "metrics",
                                   renderMetricsText());
        } else if (cmd == "ping") {
            // Liveness probe (the fabric router's health checks): a
            // fixed reply, no service-layer work, id echoed so pings
            // multiplex over a pipelined data connection.
            out += '{';
            out += replyIdPrefix(json);
            out += "\"ok\": true, \"cmd\": \"ping\"}";
        } else if (cmd == "dump") {
            const int64_t events =
                obs::Postmortem::instance().dump("command");
            if (events < 0) {
                out += formatError(
                    json, "no postmortem file configured");
            } else {
                out += '{';
                out += replyIdPrefix(json);
                out += "\"ok\": true, \"cmd\": \"dump\", "
                       "\"events\": ";
                out += std::to_string(events);
                out += ", \"path\": \"";
                out += obs::Postmortem::instance().path();
                out += "\"}";
            }
        } else if (cmd == "shutdown") {
            shutdownRequested_.store(true);
            close_conn = true;
            out += "{\"ok\": true, \"cmd\": \"shutdown\"}";
        } else {
            out += formatError(json, "unknown cmd \"" + cmd + "\"");
        }
        out += '\n';
        return;
    }

    // Head-based trace decision, ahead of the fast path so a traced
    // request takes the fully instrumented route (the fast path stays
    // span-free — and therefore zero-overhead — for everyone else).
    // The id can arrive with the request ("trace_id", possibly via the
    // router's forwarded framing) or from this server's own sampler;
    // with traceSlowMs set, every remaining request is staged into an
    // unsampled trace that only emits if it turns out slow.
    std::shared_ptr<obs::Trace> trace;
    {
        const std::string *tid = json.find("trace_id");
        uint64_t trace_id = 0;
        if (tid != nullptr && obs::Trace::parseId(*tid, trace_id))
            trace = std::make_shared<obs::Trace>(trace_id, true);
        else if (traceSampler_.sample())
            trace =
                std::make_shared<obs::Trace>(obs::genTraceId(), true);
        else if (cfg_.traceSlowMs > 0)
            trace =
                std::make_shared<obs::Trace>(obs::genTraceId(), false);
    }
    // Traced requests only: anchors the trace id in this shard's ring
    // so a postmortem can be correlated with the request's spans.
    if (trace != nullptr && trace->sampled())
        obs::recordEvent(obs::Comp::Service, obs::Ev::Request, 0, 0,
                         trace->id());

    // Router-forwarded fast path: a "key" field carries the CacheKey
    // the router already resolved.  A published hit on the key's home
    // shard skips resolution entirely (no machine parse, no config
    // canonicalization, no name-cache lookup); anything else — miss,
    // in-flight, failed, malformed key — falls through to the full
    // path below, whose own computed key always wins.
    if (const std::string *key_hex =
            trace == nullptr ? json.find("key") : nullptr) {
        CacheKey fwd_key;
        if (parseCacheKeyHex(*key_hex, fwd_key)) {
            ServiceReply reply;
            if (router_.shard(router_.shardFor(fwd_key))
                    .tryServePublished(requestLabel(json), fwd_key,
                                       reply)) {
                formatReplyLineTo(out, replyIdPrefix(json), reply);
                out += '\n';
                return;
            }
        }
    }

    CompileRequest req;
    if (!buildRequest(json, req, error)) {
        out += formatError(json, error);
        out += '\n';
        return;
    }
    if (trace != nullptr) {
        req.traceId = trace->id();
        req.trace = trace;
    }

    if (async != nullptr) {
        // Non-blocking serve: resolve here (cheap — the program comes
        // from the router's shared name cache), then let the shard
        // decide sync (hit / shed / expired) vs async (real compile).
        std::shared_ptr<const Program> program;
        uint64_t program_fp = 0;
        CacheKey key;
        obs::SpanClock resolve_t0;
        if (trace != nullptr)
            resolve_t0 = obs::SpanClock::now();
        if (!router_.resolve(req, program, program_fp, key, error)) {
            router_.noteResolveFailure();
            out += formatError(json, error);
            out += '\n';
            return;
        }
        if (trace != nullptr)
            trace->addSpan("resolve", resolve_t0.wallUs,
                           obs::microsSince(resolve_t0));
        // `json` is thread-local and will be reused for the next line
        // on this loop; capture the only piece the completion needs —
        // the id echo — by value before going asynchronous.
        std::string id_prefix = replyIdPrefix(json);
        CompileService &shard = router_.shard(router_.shardFor(key));
        ServiceReply reply;
        const double slow_ms = cfg_.traceSlowMs;
        const bool sync = shard.submitPreparedAsync(
            req, std::move(program), program_fp, key, reply,
            [sink = async, prefix = std::move(id_prefix), trace,
             slow_ms](ServiceReply &&r) {
                obs::SpanClock write_t0;
                if (trace != nullptr)
                    write_t0 = obs::SpanClock::now();
                std::string framed;
                formatReplyLineTo(framed, prefix, r);
                framed += '\n';
                sink->post(std::move(framed));
                if (trace != nullptr)
                    finishShardTrace(trace, write_t0, r.millis,
                                     slow_ms);
            });
        if (sync) {
            obs::SpanClock write_t0;
            if (trace != nullptr)
                write_t0 = obs::SpanClock::now();
            formatReplyLineTo(out, replyIdPrefix(json), reply);
            out += '\n';
            if (trace != nullptr)
                finishShardTrace(trace, write_t0, reply.millis,
                                 cfg_.traceSlowMs);
        } else {
            async->expectReply();
        }
        return;
    }

    ServiceReply reply = router_.submit(req);
    obs::SpanClock write_t0;
    if (trace != nullptr)
        write_t0 = obs::SpanClock::now();
    formatReplyTo(out, json, reply);
    out += '\n';
    if (trace != nullptr)
        finishShardTrace(trace, write_t0, reply.millis,
                         cfg_.traceSlowMs);
}

void
CompileServer::handleLineTo(std::string_view line, std::string &out,
                            bool &close_conn)
{
    handleLineTo(line, out, close_conn, nullptr);
}

std::string
CompileServer::renderMetricsText()
{
    std::vector<obs::LabeledRegistry> regs;
    regs.reserve(static_cast<size_t>(router_.shards()));
    for (int i = 0; i < router_.shards(); ++i) {
        CompileService &shard = router_.shard(i);
        shard.syncMetricsGauges();
        regs.push_back({"shard=\"" + std::to_string(i) + "\"",
                        &shard.metricsRegistry()});
    }
    std::string text;
    obs::renderPrometheus(text, "square_service", regs);
    if (transport_ != nullptr)
        obs::renderPrometheus(text, "square_transport",
                              {{"", &transport_->metricsRegistry()}});
    obs::renderPrometheus(
        text, "square_watchdog",
        {{"", &obs::Watchdog::instance().metricsRegistry()}});
    if (store_ != nullptr)
        obs::renderPrometheus(text, "square_store",
                              {{"", &store_->metricsRegistry()}});
    FaultInjector::instance().renderMetrics(text);
    obs::renderBuildInfo(text);
    return text;
}

std::string
CompileServer::handleLine(const std::string &line, bool &close_conn)
{
    std::string out;
    handleLineTo(line, out, close_conn);
    if (!out.empty() && out.back() == '\n')
        out.pop_back();
    return out;
}

} // namespace square
