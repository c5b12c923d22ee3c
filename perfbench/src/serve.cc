/**
 * @file
 * serve_warm and serve_churn: real loopback sockets into in-process
 * servers, driven by one client thread in a pipelined closed loop
 * (4 connections x 8 requests per round).
 *
 * serve_warm   an in-process RouterServer over two in-process epoll
 *              CompileServer shards.  Keys are a seeded Zipf draw over
 *              the 51 NISQ cells, all prewarmed; every reply must be a
 *              hit (the forwarded-key fast path on the shard).
 * serve_churn  straight into one CompileServer (no router) with an LRU
 *              bound below the key working set and the artifact store
 *              on.  One request in kFreshEvery carries a fresh key (a
 *              cold compile on the worker pool, a publish, a store
 *              append, an eviction); the rest are Zipf-drawn hot keys
 *              served through full request resolution.
 */

#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>

#include "server/client.h"
#include "server/net.h"
#include "server/router_daemon.h"
#include "server/server.h"
#include "service/protocol.h"

#include "checks.h"
#include "workloads.h"

using namespace square;

namespace perfbench {

namespace {

// Traffic shape.  Connections, pipeline depth and the fresh-key share
// are bench/server_throughput's defaults (4 clients at depth 8; its
// committed run in docs/PERFORMANCE.md uses --cold-fraction=0.01).  The
// Zipf exponent and the LRU bound have no source in the repository:
// they are chosen, and no trace of real traffic verifies them.
constexpr size_t kConnections = 4;
constexpr int kDepth = 8;
/** Zipf's law in its classic form: rank r is drawn with weight 1/r. */
constexpr double kZipfS = 1.0;
/** One request in this many carries a fresh key. */
constexpr int kFreshEvery = 100;
/**
 * serve_churn's LRU bound: the 51 hot keys plus 13 slots, so fresh keys
 * evict mostly each other and the rarest hot keys, never the working
 * set as a whole.
 */
constexpr size_t kChurnLru = 64;
/** Set-up repeats for this long in all, half before and half after
    the closed loop. */
constexpr double kSetupS = 2.0;
/** First anchor_box_margin used to mint fresh keys. */
constexpr int kFreshMarginBase = 17;
/** Latency windows (see LatencyLog). */
constexpr double kWindowS = 0.1;
/** Spans kept per traced run (later requests go unrecorded). */
constexpr size_t kSpanCap = 200000;
/** A reply not seen within this long counts as dropped. */
constexpr int kReplyTimeoutMs = 10000;
/** Bytes read from a load-generator connection per recv(). */
constexpr size_t kRecvChunk = 16384;
/** Fresh replies kept without reallocating (more just grow the list). */
constexpr size_t kFreshSlots = 1 << 17;
/** Key index of a fresh (not hot) request in the sample log. */
constexpr uint8_t kFreshKey = 255;

/**
 * The hot key set: the 51 NISQ cells in reverse registry order, so the
 * hottest Zipf ranks are the largest programs and the tail, which is
 * what churns out of an LRU, is the cheap NISQ-scale ones.
 */
struct KeySet
{
    std::vector<CellSpec> cells;
    /** Request lines without ids (withId splices one in). */
    std::vector<std::string> lines;
    std::vector<CompileResult> refs;
};

/** The key set and its references: one in-process compile() each. */
KeySet
makeKeySet(Tracer &tracer)
{
    KeySet ks;
    ks.cells = cellSpecs(false);
    std::reverse(ks.cells.begin(), ks.cells.end());
    const std::vector<Program> programs = buildPrograms(tracer);
    ks.refs = compileCells(ks.cells, programs, tracer);
    for (const CellSpec &c : ks.cells)
        ks.lines.push_back(cellRequest(c));
    return ks;
}

/** @p line (a request object) with an "id" field spliced in first. */
std::string
withId(uint64_t id, const std::string &line)
{
    std::string out = "{\"id\": ";
    out += std::to_string(id);
    out += ", ";
    out.append(line, 1);
    return out;
}

/** The id a reply echoes, or 0 when it carries none. */
uint64_t
replyId(std::string_view reply)
{
    constexpr std::string_view kPrefix = "{\"id\": ";
    if (reply.substr(0, kPrefix.size()) != kPrefix)
        return 0;
    uint64_t id = 0;
    for (size_t i = kPrefix.size(); i < reply.size(); ++i) {
        const char c = reply[i];
        if (c < '0' || c > '9')
            break;
        id = id * 10 + static_cast<uint64_t>(c - '0');
    }
    return id;
}

bool
endsWith(std::string_view s, std::string_view tail)
{
    return s.size() >= tail.size() &&
           s.substr(s.size() - tail.size()) == tail;
}

/**
 * Checks hot-key replies against the in-process compile(), cheaply
 * enough for the hot path: the first reply of each key field by field
 * (replyMatches); every later one must end with that verified reply's
 * metric tail, byte for byte, which implies every field equal too.
 */
class HotReplyCheck
{
  public:
    explicit HotReplyCheck(const KeySet &ks) : ks_(ks), tails_(ks.refs.size())
    {}

    bool
    operator()(std::string_view reply, size_t key, std::string &why)
    {
        std::string &tail = tails_[key];
        if (tail.empty()) {
            if (!replyMatches(reply, ks_.refs[key], why))
                return false;
            tail = reply.substr(std::min(reply.find("\"gates\""),
                                         reply.size()));
            return true;
        }
        if (!endsWith(reply, tail)) {
            why = "reply differs from the verified one: " +
                  std::string(reply);
            return false;
        }
        return true;
    }

  private:
    const KeySet &ks_;
    std::vector<std::string> tails_;
};

/**
 * Per-request latencies, summarized window by window.  Each kWindowS
 * window keeps a uniform reservoir sample of kKeep requests (all of
 * them when fewer arrive) and of kKeepCold cache misses; closing a
 * window keeps only its request rate, p50, p99, cold p50 and per-key
 * medians.  The metrics are the medians of these per-window values.
 * Their fast end (fastEnd, as compile_* use per cell) swung about
 * twice as much from run to run: on ten paired runs of each serving
 * workload the median halved the IQR/median of every metric.  Every
 * buffer is allocated and touched up front, so the process's peak RSS
 * does not follow throughput.
 */
class LatencyLog
{
  public:
    static constexpr size_t kKeep = 65536;
    static constexpr size_t kKeepCold = 8192;

    LatencyLog(size_t nkeys, uint64_t seed)
        : rng_(seed), ms_(kKeep), key_(kKeep), coldMs_(kKeepCold),
          scratch_(kKeep), keyCount_(nkeys + 1), keyWindows_(nkeys)
    {}

    /**
     * A round starts @p at_s seconds into the run (non-decreasing).
     * Closes the window that ends here; call it before the round's
     * send, so closing a window is never inside a latency.
     */
    void
    startRound(double at_s)
    {
        const auto window = static_cast<int64_t>(at_s / kWindowS);
        if (window == window_)
            return;
        closeWindow(at_s);
        window_ = window;
        windowStart_ = at_s;
    }

    /** One reply of the current round; @p cold when it missed. */
    void
    add(double ms, uint8_t key, bool cold)
    {
        ++count_;
        if (cold) {
            size_t slot = coldSeen_++;
            if (slot < kKeepCold ||
                (slot = rng_.below(coldSeen_)) < kKeepCold)
                coldMs_[slot] = ms;
        }
        size_t slot = seen_++;
        if (slot >= kKeep && (slot = rng_.below(seen_)) >= kKeep)
            return;
        ms_[slot] = ms;
        key_[slot] = key;
    }

    size_t size() const { return count_; }

    /** Replies per second. */
    double reqPerS() const { return median(rates_); }

    double p50() const { return median(p50s_); }

    /** From windows with at least 1000 samples (ten beyond their p99). */
    double p99() const { return median(p99s_); }

    /** The cache misses' p50. */
    double coldP50() const { return median(coldP50s_); }

    /** Geomean over hot keys of each key's median over windows of its
        per-window median. */
    double
    perKeyGeomean() const
    {
        std::vector<double> per_key;
        for (const std::vector<double> &m : keyWindows_) {
            if (!m.empty())
                per_key.push_back(median(m));
        }
        return geomean(per_key);
    }

  private:
    /** Nearest-rank percentile of scratch_[from, from + n), reordering it. */
    double
    rank(size_t from, size_t n, double p)
    {
        const auto r = static_cast<size_t>(
            std::ceil(p / 100.0 * static_cast<double>(n)));
        const auto first =
            scratch_.begin() + static_cast<std::ptrdiff_t>(from);
        const auto it =
            first + static_cast<std::ptrdiff_t>(std::clamp<size_t>(r, 1, n) - 1);
        std::nth_element(first, it, first + static_cast<std::ptrdiff_t>(n));
        return *it;
    }

    /** Summarize the window ending at @p end_s; a window with no reply
        (a traced slice) leaves nothing. */
    void
    closeWindow(double end_s)
    {
        const size_t n = std::min(seen_, kKeep);
        const size_t n_cold = std::min(coldSeen_, kKeepCold);
        if (n > 0) {
            rates_.push_back(static_cast<double>(seen_) /
                             (end_s - windowStart_));
            std::copy(ms_.begin(), ms_.begin() + static_cast<std::ptrdiff_t>(n),
                      scratch_.begin());
            p50s_.push_back(rank(0, n, 50));
            if (seen_ >= 1000)
                p99s_.push_back(rank(0, n, 99));
            // Per-key medians: bucket the samples by key (fresh keys
            // fall in the last bucket), then one median per bucket.
            std::fill(keyCount_.begin(), keyCount_.end(), 0);
            for (size_t i = 0; i < n; ++i)
                ++keyCount_[std::min<size_t>(key_[i], keyWindows_.size())];
            size_t at = 0;
            for (size_t &c : keyCount_)
                at += std::exchange(c, at);
            for (size_t i = 0; i < n; ++i)
                scratch_[keyCount_[std::min<size_t>(key_[i],
                                                    keyWindows_.size())]++] =
                    ms_[i];
            size_t from = 0;
            for (size_t k = 0; k < keyWindows_.size(); ++k) {
                if (keyCount_[k] > from)
                    keyWindows_[k].push_back(
                        rank(from, keyCount_[k] - from, 50));
                from = keyCount_[k];
            }
        }
        if (n_cold > 0) {
            std::copy(coldMs_.begin(),
                      coldMs_.begin() + static_cast<std::ptrdiff_t>(n_cold),
                      scratch_.begin());
            coldP50s_.push_back(rank(0, n_cold, 50));
        }
        seen_ = coldSeen_ = 0;
    }

    Rng rng_;
    std::vector<double> ms_;
    std::vector<uint8_t> key_;
    std::vector<double> coldMs_;
    std::vector<double> scratch_;
    std::vector<size_t> keyCount_;
    int64_t window_ = 0;
    double windowStart_ = 0;
    size_t seen_ = 0;     ///< samples offered to the current window
    size_t coldSeen_ = 0; ///< cold samples offered to it
    size_t count_ = 0;    ///< samples offered in total
    std::vector<double> rates_, p50s_, p99s_, coldP50s_;
    std::vector<std::vector<double>> keyWindows_;
};

/**
 * The serving workloads' end-to-end metrics.
 * Delivered gates per second are the median request rate times
 * the run's mean gates per reply.
 */
void
reportServeE2E(const KeySet &ks, const std::vector<double> &setup_s,
               const LatencyLog &log, double gates_per_reply,
               double cold_ms_p50, Report &rep)
{
    rep.set("setup_s", median(setup_s), "s");
    rep.set("req_per_s", log.reqPerS(), "1/s");
    rep.set("gates_per_s", log.reqPerS() * gates_per_reply, "1/s");
    rep.set("latency_ms_p50", log.p50(), "ms");
    rep.set("latency_ms_p99", log.p99(), "ms");
    rep.set("compile_ms_geomean", log.perKeyGeomean(), "ms");
    rep.set("cold_ms_p50", cold_ms_p50, "ms");
    reportQuality(ks.cells, ks.refs, rep);
}

/** Summed transport counters of a set of servers. */
TransportStats
sumTransport(const std::vector<const Transport *> &ts)
{
    TransportStats sum;
    for (const Transport *t : ts) {
        const TransportStats s = t->stats();
        sum.lines += s.lines;
        sum.readCalls += s.readCalls;
        sum.writeCalls += s.writeCalls;
        sum.flushes += s.flushes;
        sum.batchedReplies += s.batchedReplies;
    }
    return sum;
}

/** Service-tier counters of a set of shards (deltas are taken). */
struct ServiceSnapshot
{
    int64_t requests = 0, hits = 0, compiles = 0, evictions = 0, shed = 0;
    int64_t coldUsSum = 0, queueUsSum = 0;
    obs::HistogramSnapshot cold, queue;
};

ServiceSnapshot
snapshotServices(const std::vector<CompileService *> &services)
{
    ServiceSnapshot s;
    for (CompileService *svc : services) {
        const ServiceStats st = svc->stats();
        s.requests += st.requests;
        s.hits += st.hits;
        s.compiles += st.compiles;
        s.evictions += st.evictions;
        s.shed += st.shed;
        const obs::Registry &reg = svc->metricsRegistry();
        const obs::HistogramSnapshot cold =
            histogramValue(reg, "cold_latency_us");
        const obs::HistogramSnapshot queue =
            histogramValue(reg, "queue_wait_us");
        s.coldUsSum += cold.sum;
        s.queueUsSum += queue.sum;
        if (s.cold.counts.empty())
            s.cold = cold;
        else
            s.cold.merge(cold);
        if (s.queue.counts.empty())
            s.queue = queue;
        else
            s.queue.merge(queue);
    }
    return s;
}

/**
 * The serving-tier per-layer metrics over a measured interval: service
 * and transport counter deltas (@p t0 to @p t1 summed over every
 * server), flush batching from the transport the load generator's
 * connections land on (@p c0 to @p c1).
 */
void
reportServing(const ServiceSnapshot &before, const ServiceSnapshot &after,
              const TransportStats &t0, const TransportStats &t1,
              const TransportStats &c0, const TransportStats &c1,
              int64_t requests, double wall_s, int workers, Report &rep)
{
    const double reqs = static_cast<double>(std::max<int64_t>(requests, 1));
    const int64_t svc_requests = after.requests - before.requests;
    rep.set("service.hit_rate",
            svc_requests > 0 ? static_cast<double>(after.hits - before.hits) /
                                   static_cast<double>(svc_requests)
                             : 0.0,
            "fraction");
    rep.set("service.evictions",
            static_cast<double>(after.evictions - before.evictions),
            "count");
    rep.set("service.compiles",
            static_cast<double>(after.compiles - before.compiles), "count");
    rep.set("service.shed", static_cast<double>(after.shed - before.shed),
            "count");
    rep.set("service.queue_wait_ms_p50",
            static_cast<double>(after.queue.percentile(50)) / 1e3, "ms");
    rep.set("service.cold_compile_ms_p50",
            static_cast<double>(after.cold.percentile(50)) / 1e3, "ms");
    // Busy = cold service time minus its queue wait, over the pool.
    const double busy_us =
        static_cast<double>((after.coldUsSum - before.coldUsSum) -
                            (after.queueUsSum - before.queueUsSum));
    rep.set("fleet.busy_frac", busy_us / 1e6 / (wall_s * workers),
            "fraction");
    rep.set("server.syscalls_per_req",
            static_cast<double>((t1.readCalls - t0.readCalls) +
                                (t1.writeCalls - t0.writeCalls)) /
                reqs,
            "count");
    const int64_t flushes = c1.flushes - c0.flushes;
    rep.set("server.flush_batch_mean",
            flushes > 0 ? static_cast<double>(c1.batchedReplies -
                                              c0.batchedReplies) /
                              static_cast<double>(flushes)
                        : 0.0,
            "count");
}

/** Compile layers of the key set's one reference pass. */
void
reportKeySetLayers(const KeySet &ks, const Tracer &tracer, double verify_s,
                   Report &rep)
{
    reportCompileCounts(ks.refs, rep);
    reportCompileSpans(tracer, 1, totalGates(ks.refs), rep);
    rep.set("sim.verify_s", verify_s, "s");
}

/**
 * Send every key at once, pipelined on one connection: a cold server
 * receiving its working set, each request a cold compile.  Checks each
 * reply and appends each key's latency, from the burst's send to its
 * reply, to @p cold_ms.
 */
bool
prewarm(uint16_t port, const KeySet &ks, Report &rep,
        std::vector<double> &cold_ms)
{
    LineClient client;
    std::string error;
    if (!client.connect("127.0.0.1", port, error)) {
        std::fprintf(stderr, "perfbench: connect: %s\n", error.c_str());
        return false;
    }
    client.setRecvTimeoutMs(kReplyTimeoutMs);
    const size_t n = ks.lines.size();
    // Smallest programs first (the key set is ranked largest first).
    std::string burst;
    for (size_t k = n; k-- > 0;) {
        burst += withId(k + 1, ks.lines[k]);
        burst += '\n';
    }
    std::vector<char> answered(n, 0);
    rep.attempt(static_cast<int64_t>(n));
    const Clock::time_point t0 = Clock::now();
    if (!client.sendRaw(burst)) {
        rep.fail("prewarm send failed");
        return false;
    }
    std::string reply;
    for (size_t i = 0; i < n; ++i) {
        if (!client.recvLine(reply)) {
            rep.fail("prewarm reply never arrived");
            return false;
        }
        cold_ms.push_back(secondsSince(t0) * 1e3);
        const uint64_t id = replyId(reply);
        if (id == 0 || id > n || answered[id - 1]) {
            rep.fail("prewarm reply with unexpected id: " + reply);
            continue;
        }
        answered[id - 1] = 1;
        if (!replyMatches(reply, ks.refs[id - 1], error))
            rep.fail("prewarm " + ks.lines[id - 1] + ": " + error);
    }
    return true;
}

/** Replays and digests draw this many requests. */
constexpr int kReplayLines = 512;

// ---------------------------------------------------------------------
// The closed loop both serving workloads run
// ---------------------------------------------------------------------

/** What a workload sends and how it checks what comes back. */
struct Stream
{
    /** The next request line for @p id; sets @p key (rank or kFreshKey). */
    std::function<std::string(uint64_t id, uint8_t &key)> next;
    /** Check one reply; false (with @p why) counts a failure. */
    std::function<bool(std::string_view reply, uint64_t id, uint8_t key,
                       std::string &why)>
        check;
};

/** What the closed loop measured. */
struct LoopResult
{
    int64_t replies = 0;
    double wallS = 0;
    /** Gates of the hot keys' circuits delivered in replies. */
    double hotGates = 0;
    /** Replies that missed the cache. */
    int64_t cold = 0;
    /** Traced slices: round trips, and time and requests per kind. */
    std::vector<double> tracedRttUs;
    double plainS = 0, tracedS = 0;
    int64_t plainN = 0, tracedN = 0;
};

/** One load-generator connection: its socket and reply framing. */
struct Conn
{
    int fd = -1;
    net::ReadBuffer in;
    /** Requests of the current round still unanswered on it. */
    int pending = 0;

    ~Conn()
    {
        if (fd >= 0)
            net::closeFd(fd);
    }
};

/**
 * One client thread, kConnections connections, kDepth pipelined
 * requests on each per round: send the round, then poll() the
 * connections and read whichever has replies (matched by id; replies
 * may overtake each other).  A reply's latency runs from the round's
 * send to the recv() that delivered it, so a slow reply on one
 * connection does not delay the stamps of the others.  The traced run
 * alternates half-second untraced and traced slices, so tracing
 * overhead is measured in one process; only untraced requests enter
 * @p log.
 */
bool
closedLoop(uint16_t port, double seconds, const KeySet &ks,
           const Stream &stream, Tracer &tracer, Report &rep,
           LatencyLog &log, LoopResult &out)
{
    Conn conns[kConnections];
    for (Conn &c : conns) {
        std::string error;
        if ((c.fd = net::connectTcp("127.0.0.1", port, error)) < 0) {
            std::fprintf(stderr, "perfbench: connect: %s\n", error.c_str());
            return false;
        }
    }
    constexpr size_t kRound = kConnections * kDepth;
    uint8_t key_of[kRound];
    std::vector<char> answered(kRound);
    std::string batch[kConnections];
    std::string why;
    uint64_t next_id = 1;
    const Clock::time_point run_t0 = Clock::now();
    while (secondsSince(run_t0) < seconds) {
        const double at = secondsSince(run_t0);
        log.startRound(at);
        const bool traced =
            tracer.on() && static_cast<int64_t>(at / 0.5) % 2 == 1 &&
            tracer.spans().size() < kSpanCap;
        const uint64_t first_id = next_id;
        std::fill(answered.begin(), answered.end(), 0);
        for (std::string &b : batch) {
            b.clear();
            for (int d = 0; d < kDepth; ++d) {
                b += stream.next(next_id, key_of[next_id - first_id]);
                b += '\n';
                ++next_id;
            }
        }
        rep.attempt(static_cast<int64_t>(kRound));
        const int64_t batch_span = traced ? tracer.begin("batch") : -1;
        const int64_t t_send = nowNs();
        bool dropped = false;
        for (size_t c = 0; c < kConnections && !dropped; ++c) {
            dropped = !net::sendAll(conns[c].fd, batch[c].data(),
                                    batch[c].size());
            conns[c].pending = kDepth;
        }
        size_t open = dropped ? 0 : kRound;
        while (open > 0 && !dropped) {
            pollfd fds[kConnections];
            size_t conn_of[kConnections];
            nfds_t nfds = 0;
            for (size_t c = 0; c < kConnections; ++c) {
                if (conns[c].pending > 0) {
                    fds[nfds] = {conns[c].fd, POLLIN, 0};
                    conn_of[nfds++] = c;
                }
            }
            if (::poll(fds, nfds, kReplyTimeoutMs) <= 0) {
                dropped = true;
                break;
            }
            for (nfds_t f = 0; f < nfds && !dropped; ++f) {
                if (fds[f].revents == 0)
                    continue;
                Conn &conn = conns[conn_of[f]];
                conn.in.compact();
                char *buf = conn.in.prepare(kRecvChunk);
                const ssize_t got = ::recv(conn.fd, buf, kRecvChunk, 0);
                const int64_t t_recv = nowNs();
                conn.in.commit(got > 0 ? static_cast<size_t>(got) : 0);
                if (got <= 0) {
                    dropped = true;
                    break;
                }
                std::string_view reply;
                net::ReadBuffer::LineStatus st;
                while (conn.pending > 0 &&
                       (st = conn.in.nextLine(reply)) !=
                           net::ReadBuffer::LineStatus::None) {
                    if (st == net::ReadBuffer::LineStatus::Overflow) {
                        dropped = true;
                        break;
                    }
                    --conn.pending;
                    --open;
                    const uint64_t id = replyId(reply);
                    if (id < first_id || id >= next_id ||
                        answered[id - first_id]) {
                        rep.fail("reply with unexpected id: " +
                                 std::string(reply));
                        continue;
                    }
                    answered[id - first_id] = 1;
                    ++out.replies;
                    const uint8_t key = key_of[id - first_id];
                    if (!stream.check(reply, id, key, why))
                        rep.fail(why);
                    if (key != kFreshKey)
                        out.hotGates +=
                            static_cast<double>(ks.refs[key].gates);
                    const double ms =
                        static_cast<double>(t_recv - t_send) / 1e6;
                    const bool cold =
                        reply.find("\"cache\": \"miss\"") !=
                        std::string_view::npos;
                    out.cold += cold ? 1 : 0;
                    if (traced) {
                        tracer.add(key == kFreshKey ? "request.cold"
                                                    : "request",
                                   t_send, t_recv, batch_span, id);
                        out.tracedRttUs.push_back(ms * 1e3);
                    } else {
                        log.add(ms, key, cold);
                    }
                }
            }
        }
        tracer.end(batch_span);
        if (dropped) {
            // Every unanswered request of the round fails, and the run
            // ends: the connections' order is lost.
            failUnanswered(answered, rep);
            break;
        }
        const double dt = static_cast<double>(nowNs() - t_send) / 1e9;
        (traced ? out.tracedS : out.plainS) += dt;
        (traced ? out.tracedN : out.plainN) += static_cast<int64_t>(kRound);
    }
    out.wallS = secondsSince(run_t0);
    return true;
}

/** Tracing overhead: untraced over traced requests per second, as %. */
double
overheadPct(const LoopResult &r)
{
    const double plain = static_cast<double>(r.plainN) / r.plainS;
    const double traced = static_cast<double>(r.tracedN) / r.tracedS;
    return (plain / traced - 1.0) * 100.0;
}

// ---------------------------------------------------------------------
// serve_warm
// ---------------------------------------------------------------------

/** Two epoll shards behind an in-process router. */
struct Fabric
{
    std::unique_ptr<CompileServer> shards[2];
    std::unique_ptr<RouterServer> router;

    bool
    start(std::string &error)
    {
        RouterConfig rcfg;
        for (std::unique_ptr<CompileServer> &s : shards) {
            ServerConfig cfg;
            cfg.shards = 1;
            cfg.workersPerShard = 1;
            s = std::make_unique<CompileServer>(cfg);
            if (!s->start(error))
                return false;
            rcfg.shards.push_back("127.0.0.1:" + std::to_string(s->port()));
        }
        router = std::make_unique<RouterServer>(rcfg);
        return router->start(error);
    }

    /** Router first: nothing can forward once its loop is joined. */
    void
    stop()
    {
        router.reset();
        for (std::unique_ptr<CompileServer> &s : shards)
            s.reset();
    }

    ~Fabric() { stop(); }
};

// ---------------------------------------------------------------------
// serve_churn
// ---------------------------------------------------------------------

/**
 * The churn stream: in every block of kFreshEvery requests one seeded
 * slot carries a fresh key, the rest are Zipf-drawn hot keys.
 */
class ChurnDraw
{
  public:
    ChurnDraw(uint64_t seed, size_t nkeys) : rng_(seed), zipf_(nkeys, kZipfS)
    {}

    /** True (with the fresh ordinal) or false (with the hot rank). */
    bool
    next(uint32_t &index)
    {
        if (i_ % kFreshEvery == 0)
            freshSlot_ = i_ + rng_.below(kFreshEvery);
        if (i_++ == freshSlot_) {
            index = fresh_++;
            return true;
        }
        index = static_cast<uint32_t>(zipf_.draw(rng_));
        return false;
    }

  private:
    Rng rng_;
    Zipf zipf_;
    uint64_t i_ = 0, freshSlot_ = 0;
    uint32_t fresh_ = 0;
};

/**
 * A fresh key's request line: a NISQ-scale program (in rotation) with
 * a margin no other request uses, so it is a cache miss by content.
 */
std::string
freshLine(uint32_t ordinal)
{
    static const std::vector<std::string> programs = [] {
        std::vector<std::string> names;
        for (const BenchmarkInfo &info : benchmarkRegistry()) {
            if (info.nisqScale)
                names.push_back(info.name);
        }
        return names;
    }();
    return "{\"workload\": \"" + programs[ordinal % programs.size()] +
           "\", \"policy\": \"square\", \"anchor_box_margin\": " +
           std::to_string(kFreshMarginBase + static_cast<int>(ordinal)) +
           "}";
}

/** Churn server: one shard, LRU below the working set, store on. */
std::unique_ptr<CompileServer>
startChurnServer(const std::string &store_path, std::string &error)
{
    ServerConfig cfg;
    cfg.shards = 1;
    cfg.workersPerShard = 1;
    cfg.limits.maxEntries = kChurnLru;
    cfg.admission.maxPending = 1024;
    cfg.storePath = store_path;
    ::unlink(store_path.c_str());
    auto server = std::make_unique<CompileServer>(cfg);
    if (!server->start(error))
        return nullptr;
    return server;
}

} // namespace

uint64_t
serveWarmDigest(uint64_t seed)
{
    Rng rng(seed);
    const Zipf zipf(cellSpecs(false).size(), kZipfS);
    uint64_t h = 1469598103934665603ull;
    for (int i = 0; i < kReplayLines; ++i)
        h = (h ^ zipf.draw(rng)) * 1099511628211ull;
    return h;
}

uint64_t
serveChurnDigest(uint64_t seed)
{
    ChurnDraw draw(seed, cellSpecs(false).size());
    uint64_t h = 1469598103934665603ull;
    for (int i = 0; i < kReplayLines; ++i) {
        uint32_t index = 0;
        const bool fresh = draw.next(index);
        h = (h ^ (index * 2u + (fresh ? 1u : 0u))) * 1099511628211ull;
    }
    return h;
}

int
runServeWarm(const Options &opt, Report &rep, Tracer &tracer)
{
    // References (untimed): one in-process compile() per key.
    Tracer no_trace(false);
    const Clock::time_point verify_t0 = Clock::now();
    const KeySet ks = makeKeySet(tracer.on() ? tracer : no_trace);
    const double verify_s = secondsSince(verify_t0);
    const size_t nkeys = ks.lines.size();

    // -- set-up, repeated: servers + prewarm (cold compiles) -----------
    // The prewarm's cold latency is each repetition's median.
    std::vector<double> setup_s, cold_p50;
    Fabric fabric;
    auto set_up = [&] {
        fabric.stop();
        const Clock::time_point t0 = Clock::now();
        std::string error;
        if (!fabric.start(error)) {
            std::fprintf(stderr, "perfbench: fabric: %s\n", error.c_str());
            return false;
        }
        std::vector<double> cold_ms;
        if (!prewarm(fabric.router->port(), ks, rep, cold_ms))
            return false;
        setup_s.push_back(secondsSince(t0));
        cold_p50.push_back(median(cold_ms));
        return true;
    };
    if (!repeatFor(kSetupS / 2, set_up))
        return 1;

    std::vector<CompileService *> services;
    std::vector<const Transport *> transports = {fabric.router->transport()};
    for (std::unique_ptr<CompileServer> &s : fabric.shards) {
        services.push_back(&s->router().shard(0));
        transports.push_back(s->transport());
    }
    const ServiceSnapshot svc0 = snapshotServices(services);
    const TransportStats tr0 = sumTransport(transports);
    const TransportStats rt0 = fabric.router->transport()->stats();
    const UpstreamStats up0 = fabric.router->upstreamStats();

    // -- closed loop: Zipf-drawn prewarmed keys, every reply a hit ------
    Rng rng(opt.seed);
    const Zipf zipf(nkeys, kZipfS);
    HotReplyCheck hot_ok(ks);
    Stream stream;
    stream.next = [&](uint64_t id, uint8_t &key) {
        key = static_cast<uint8_t>(zipf.draw(rng));
        return withId(id, ks.lines[key]);
    };
    stream.check = [&](std::string_view reply, uint64_t, uint8_t key,
                       std::string &why) {
        if (!hot_ok(reply, key, why))
            return false;
        if (reply.find("\"cache\": \"hit\"") == std::string_view::npos) {
            why = "warm request missed the cache";
            return false;
        }
        return true;
    };
    LatencyLog log(nkeys, opt.seed);
    LoopResult res;
    if (!closedLoop(fabric.router->port(), opt.seconds, ks, stream, tracer,
                    rep, log, res))
        return 1;

    if (!tracer.on()) {
        if (!repeatFor(kSetupS / 2, set_up))
            return 1;
        reportServeE2E(ks, setup_s, log,
                       res.hotGates / static_cast<double>(res.replies),
                       median(cold_p50), rep);
        std::printf("serve_warm: %lld replies in %.3f s, %zu latency "
                    "samples\n",
                    static_cast<long long>(res.replies), res.wallS,
                    log.size());
        return 0;
    }

    // -- per-layer (traced run) -----------------------------------------
    const ServiceSnapshot svc1 = snapshotServices(services);
    const TransportStats tr1 = sumTransport(transports);
    const TransportStats rt1 = fabric.router->transport()->stats();
    const UpstreamStats up1 = fabric.router->upstreamStats();
    reportServing(svc0, svc1, tr0, tr1, rt0, rt1, res.replies, res.wallS, 2,
                  rep);
    rep.set("server.router_forwarded",
            static_cast<double>(up1.forwarded - up0.forwarded), "count");
    rep.set("server.upstream_reconnects",
            static_cast<double>(up1.reconnects - up0.reconnects), "count");
    reportKeySetLayers(ks, tracer, verify_s, rep);

    // The layers, replayed on this workload's own request lines: the
    // router tier (parse, build, resolve, ring, forward format) and the
    // shard's whole forwarded-key handler.
    Rng replay_rng(opt.seed);
    std::vector<std::string> lines;
    for (int i = 0; i < kReplayLines; ++i)
        lines.push_back(ks.lines[zipf.draw(replay_rng)]);
    const double layers_us = replayLayers(lines, true, tracer, rep);
    rep.set("trace.unattributed_us", median(res.tracedRttUs) - layers_us,
            "us");
    rep.set("trace.overhead_pct", overheadPct(res), "%");
    return 0;
}

int
runServeChurn(const Options &opt, Report &rep, Tracer &tracer)
{
    Tracer no_trace(false);
    Clock::time_point verify_t0 = Clock::now();
    const KeySet ks = makeKeySet(tracer.on() ? tracer : no_trace);
    double verify_s = secondsSince(verify_t0);
    const size_t nkeys = ks.lines.size();
    ::mkdir(opt.outDir.c_str(), 0755);
    const std::string store_path = opt.outDir + "/churn-" +
                                   std::to_string(::getpid()) + ".store";

    // -- set-up, repeated: server start (fresh store) + prewarm --------
    std::vector<double> setup_s, prewarm_ms;
    std::unique_ptr<CompileServer> server;
    auto set_up = [&] {
        server.reset();
        const Clock::time_point t0 = Clock::now();
        std::string error;
        server = startChurnServer(store_path, error);
        if (server == nullptr) {
            std::fprintf(stderr, "perfbench: server: %s\n", error.c_str());
            return false;
        }
        if (!prewarm(server->port(), ks, rep, prewarm_ms))
            return false;
        setup_s.push_back(secondsSince(t0));
        return true;
    };
    if (!repeatFor(kSetupS / 2, set_up))
        return 1;

    CompileService &svc = server->router().shard(0);
    const ServiceSnapshot svc0 = snapshotServices({&svc});
    const TransportStats tr0 = server->transport()->stats();
    const obs::Registry &store_reg = server->store()->metricsRegistry();
    const int64_t appends0 = counterValue(store_reg, "appended");
    const int64_t bytes0 = counterValue(store_reg, "append_bytes");

    // -- closed loop: hot keys with one fresh key per block -------------
    ChurnDraw draw(opt.seed, nkeys);
    HotReplyCheck hot_ok(ks);
    std::unordered_map<uint64_t, uint32_t> fresh_of; // in-flight ids
    // Fresh replies' metrics, checked after the run; allocated and
    // touched up front like the latency log.
    std::vector<std::pair<uint32_t, ReplyMetrics>> fresh_replies(kFreshSlots);
    size_t fresh_count = 0;
    Stream stream;
    stream.next = [&](uint64_t id, uint8_t &key) {
        uint32_t index = 0;
        if (draw.next(index)) {
            key = kFreshKey;
            fresh_of[id] = index;
            return withId(id, freshLine(index));
        }
        key = static_cast<uint8_t>(index);
        return withId(id, ks.lines[key]);
    };
    stream.check = [&](std::string_view reply, uint64_t id, uint8_t key,
                       std::string &why) {
        if (key != kFreshKey)
            return hot_ok(reply, key, why);
        // Parsed now, checked after the run against a fresh compile().
        const auto it = fresh_of.find(id);
        std::pair<uint32_t, ReplyMetrics> parsed{it->second, {}};
        fresh_of.erase(it);
        if (!parseReply(reply, parsed.second, why))
            return false;
        if (fresh_count < fresh_replies.size())
            fresh_replies[fresh_count] = parsed;
        else
            fresh_replies.push_back(parsed);
        ++fresh_count;
        return true;
    };
    LatencyLog log(nkeys, opt.seed);
    LoopResult res;
    if (!closedLoop(server->port(), opt.seconds, ks, stream, tracer, rep,
                    log, res))
        return 1;

    // Fresh replies vs in-process compile() of the same request.
    verify_t0 = Clock::now();
    double fresh_gates = 0;
    fresh_replies.resize(fresh_count);
    for (const auto &[ordinal, served] : fresh_replies) {
        JsonRequest json;
        CompileRequest req;
        std::string error;
        parseJsonLine(freshLine(ordinal), json, error);
        buildRequest(json, req, error);
        const Program prog = makeBenchmark(req.workload);
        const CompileResult expect =
            compile(prog, req.machine.build(), req.cfg);
        fresh_gates += static_cast<double>(expect.gates);
        if (!metricsMatch(served, expect, error))
            rep.fail("fresh key " + std::to_string(ordinal) + ": " + error);
    }
    verify_s += secondsSince(verify_t0);

    if (!tracer.on()) {
        // (Restarts the server: svc and store_reg are not read again.)
        if (!repeatFor(kSetupS / 2, set_up))
            return 1;
        reportServeE2E(ks, setup_s, log,
                       (res.hotGates + fresh_gates) /
                           static_cast<double>(res.replies),
                       log.coldP50(), rep);
        std::printf("serve_churn: %lld replies (%zu cold) in %.3f s, %zu "
                    "latency samples\n",
                    static_cast<long long>(res.replies), static_cast<size_t>(res.cold),
                    res.wallS, log.size());
        server.reset();
        ::unlink(store_path.c_str());
        return 0;
    }

    // -- per-layer (traced run) -----------------------------------------
    const ServiceSnapshot svc1 = snapshotServices({&svc});
    const TransportStats tr1 = server->transport()->stats();
    reportServing(svc0, svc1, tr0, tr1, tr0, tr1, res.replies, res.wallS,
                  svc.workers(), rep);
    rep.set("service.store_appends",
            static_cast<double>(counterValue(store_reg, "appended") - appends0),
            "count");
    rep.set("service.store_bytes",
            static_cast<double>(counterValue(store_reg, "append_bytes") -
                                bytes0),
            "bytes");
    reportKeySetLayers(ks, tracer, verify_s, rep);
    server.reset();
    ::unlink(store_path.c_str());

    ChurnDraw replay_draw(opt.seed, nkeys);
    std::vector<std::string> lines;
    for (int i = 0; i < kReplayLines; ++i) {
        uint32_t index = 0;
        lines.push_back(replay_draw.next(index) ? freshLine(index)
                                                : ks.lines[index]);
    }
    const double handler_us = replayLayers(lines, false, tracer, rep);
    rep.set("trace.unattributed_us", median(res.tracedRttUs) - handler_us,
            "us");
    rep.set("trace.overhead_pct", overheadPct(res), "%");
    return 0;
}

} // namespace perfbench
