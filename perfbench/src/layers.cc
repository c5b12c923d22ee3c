/**
 * @file
 * Cells, request lines, and the in-process serving-layer replay.
 */

#include <functional>

#include "server/hash_ring.h"
#include "server/server.h"
#include "service/protocol.h"

#include "workloads.h"

using namespace square;

namespace perfbench {

std::vector<CellSpec>
cellSpecs(bool ft)
{
    struct Policy
    {
        const char *name;
        SquareConfig cfg;
    };
    const Policy policies[] = {{"lazy", SquareConfig::lazy()},
                               {"eager", SquareConfig::eager()},
                               {"square", SquareConfig::square()}};
    const std::vector<BenchmarkInfo> &registry = benchmarkRegistry();
    std::vector<CellSpec> cells;
    for (size_t i = 0; i < registry.size(); ++i) {
        const BenchmarkInfo &info = registry[i];
        for (const Policy &p : policies) {
            CellSpec c;
            c.info = &info;
            c.program = i;
            c.policy = p.name;
            c.cfg = p.cfg;
            c.spec = ft ? MachineSpec::ftBraid(info.boundaryEdge,
                                               info.boundaryEdge)
                        : MachineSpec::paperFor(info);
            cells.push_back(c);
        }
    }
    return cells;
}

std::string
cellRequest(const CellSpec &cell)
{
    std::string line = "{\"workload\": \"" + cell.info->name +
                       "\", \"policy\": \"" + cell.policy + "\"";
    if (cell.spec.kind != MachineSpec::Kind::NisqLattice)
        line += ", \"machine\": \"" + cell.spec.str() + "\"";
    line += "}";
    return line;
}

int64_t
counterValue(const obs::Registry &reg, const std::string &name)
{
    for (const auto &[n, v] : reg.counterValues()) {
        if (n == name)
            return v;
    }
    return 0;
}

obs::HistogramSnapshot
histogramValue(const obs::Registry &reg, const std::string &name)
{
    for (auto &[n, h] : reg.histogramValues()) {
        if (n == name)
            return h;
    }
    return {};
}

namespace {

/** Keeps the replayed calls' results observable to the optimizer. */
volatile int64_t g_layerSink = 0;

/**
 * Run @p body over every line, round after round, for at least 15
 * rounds and 0.15 s; each round is one span named @p name.
 */
void
replayRounds(Tracer &tracer, const char *name, size_t lines,
             const std::function<void(size_t)> &body)
{
    constexpr int kMinRounds = 15;
    constexpr int kMaxRounds = 2000;
    constexpr double kBudgetS = 0.15;
    const Clock::time_point t_begin = Clock::now();
    for (int round = 0; round < kMaxRounds &&
                        (round < kMinRounds || secondsSince(t_begin) < kBudgetS);
         ++round) {
        ScopedSpan span(tracer, name);
        for (size_t i = 0; i < lines; ++i)
            body(i);
    }
}

} // namespace

double
replayLayers(const std::vector<std::string> &lines, bool forwarded,
             Tracer &tracer, Report &rep)
{
    if (lines.empty())
        return 0;
    // An unstarted server: handleLineTo works without a transport, so
    // the replay is the shard's own code minus the sockets.
    ServerConfig cfg;
    cfg.shards = 1;
    cfg.workersPerShard = 1;
    CompileServer server(cfg);

    const size_t n = lines.size();
    std::vector<JsonRequest> jsons(n);
    std::vector<CompileRequest> reqs(n);
    std::vector<CacheKey> keys(n);
    std::vector<std::string> key_hex(n), labels(n), prefixes(n),
        shard_lines(n);
    std::vector<ServiceReply> replies(n);
    std::string error;
    bool close_conn = false;
    for (size_t i = 0; i < n; ++i) {
        // Publish the key (a cold compile the first time it is seen).
        server.handleLine(lines[i], close_conn);
        parseJsonLine(lines[i], jsons[i], error);
        buildRequest(jsons[i], reqs[i], error);
        std::shared_ptr<const Program> prog;
        uint64_t fp = 0;
        server.router().resolve(reqs[i], prog, fp, keys[i], error);
        key_hex[i] = formatCacheKeyHex(keys[i]);
        labels[i] = requestLabel(jsons[i]);
        prefixes[i] = replyIdPrefix(jsons[i]);
        if (forwarded)
            formatForwardedRequestTo(shard_lines[i], jsons[i], i + 1,
                                     keys[i]);
        else
            shard_lines[i] = lines[i];
    }
    HashRing ring;
    ring.add("shard0");
    ring.add("shard1");
    CompileService &shard = server.router().shard(0);

    JsonRequest json;
    CompileRequest req;
    std::string out;
    std::shared_ptr<const Program> prog;
    uint64_t fp = 0;
    CacheKey key;
    int64_t sink = 0;
    replayRounds(tracer, "service.parse", n, [&](size_t i) {
        sink += parseJsonLine(lines[i], json, error);
    });
    replayRounds(tracer, "service.build", n, [&](size_t i) {
        req = CompileRequest{};
        sink += buildRequest(jsons[i], req, error);
    });
    replayRounds(tracer, "service.resolve", n, [&](size_t i) {
        sink += server.router().resolve(reqs[i], prog, fp, key, error);
    });
    replayRounds(tracer, "service.key_parse", n, [&](size_t i) {
        sink += parseCacheKeyHex(key_hex[i], key);
    });
    replayRounds(tracer, "service.lookup", n, [&](size_t i) {
        sink += shard.tryServePublished(labels[i], keys[i], replies[i]);
    });
    replayRounds(tracer, "service.reply", n, [&](size_t i) {
        out.clear();
        formatReplyLineTo(out, prefixes[i], replies[i]);
        sink += static_cast<int64_t>(out.size());
    });
    replayRounds(tracer, "server.ring", n, [&](size_t i) {
        sink += ring.ownerIndex(CacheKeyHash{}(keys[i]));
    });
    replayRounds(tracer, "server.forward_format", n, [&](size_t i) {
        out.clear();
        formatForwardedRequestTo(out, jsons[i], i + 1, keys[i]);
        sink += static_cast<int64_t>(out.size());
    });
    replayRounds(tracer, "server.handle_line", n, [&](size_t i) {
        out.clear();
        server.handleLineTo(shard_lines[i], out, close_conn);
        sink += static_cast<int64_t>(out.size());
    });
    g_layerSink = sink;

    // Per-call self time of each layer, from its replay spans.
    std::map<std::string, double> self = tracer.selfNsByName();
    std::map<std::string, int64_t> count = tracer.countByName();
    auto per_call_us = [&](const char *span) {
        const double calls =
            static_cast<double>(count[span]) * static_cast<double>(n);
        return calls > 0 ? self[span] / 1e3 / calls : 0.0;
    };
    const struct
    {
        const char *span;
        const char *metric;
        bool routerHop; ///< crossed by a forwarded request at the router
    } layers[] = {
        {"service.parse", "service.parse_us", true},
        {"service.build", "service.build_us", true},
        {"service.resolve", "service.resolve_us", true},
        {"service.key_parse", "service.key_parse_us", false},
        {"service.lookup", "service.lookup_us", false},
        {"service.reply", "service.reply_us", false},
        {"server.ring", "server.ring_us", true},
        {"server.forward_format", "server.forward_format_us", true},
        {"server.handle_line", "server.handle_line_us", false},
    };
    double crossed_us = 0;
    for (const auto &l : layers) {
        const double us = per_call_us(l.span);
        rep.set(l.metric, us, "us");
        if (std::string_view(l.span) == "server.handle_line" ||
            (forwarded && l.routerHop))
            crossed_us += us;
    }
    return crossed_us;
}

} // namespace perfbench
