/**
 * @file
 * Compile-service correctness: the content-addressed cache must be
 * sound (hits bit-identical to fresh compilations, keys distinct
 * whenever any semantic config field differs, canonicalization
 * deduping display-only differences) and concurrent duplicate
 * requests must compile exactly once (this binary runs under the CI
 * ThreadSanitizer job).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/compiler.h"
#include "fleet/worker_pool.h"
#include "ir/analysis.h"
#include "service/cache_key.h"
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

/** Poll @p done until it holds (for counters a pool thread advances). */
template <typename Pred>
void
waitUntil(Pred done)
{
    while (!done())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

// -------------------------------------------------------------------
// Program fingerprints
// -------------------------------------------------------------------

TEST(Fingerprint, StableAcrossRebuilds)
{
    Program a = makeBenchmark("ADDER4");
    Program b = makeBenchmark("ADDER4");
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(Fingerprint, SensitiveToContent)
{
    Program base = makeBenchmark("ADDER4");
    const uint64_t fp = base.fingerprint();

    // Different workloads differ.
    EXPECT_NE(fp, makeBenchmark("RD53").fingerprint());

    // A one-gate change anywhere changes the fingerprint.
    Program mutated = makeBenchmark("ADDER4");
    bool flipped = false;
    for (Module &m : mutated.modules) {
        for (Stmt &s : m.compute) {
            if (s.isGate()) {
                s.gate = s.gate == GateKind::X ? GateKind::Z
                                               : GateKind::X;
                flipped = true;
                break;
            }
        }
        if (flipped)
            break;
    }
    ASSERT_TRUE(flipped);
    EXPECT_NE(fp, mutated.fingerprint());

    // So does a pure arity change.
    Program widened = makeBenchmark("ADDER4");
    widened.modules[0].numAncilla += 1;
    EXPECT_NE(fp, widened.fingerprint());
}

// -------------------------------------------------------------------
// Cache-key canonicalization
// -------------------------------------------------------------------

TEST(CacheKey, SemanticFieldsProduceDistinctKeys)
{
    const uint64_t fp = makeBenchmark("ADDER4").fingerprint();
    const MachineSpec machine = MachineSpec::nisqLattice(5, 5);
    const CacheKey base =
        makeCacheKey(fp, machine, SquareConfig::square());

    // Policy changes the key.
    EXPECT_FALSE(base ==
                 makeCacheKey(fp, machine, SquareConfig::eager()));
    EXPECT_FALSE(base ==
                 makeCacheKey(fp, machine, SquareConfig::lazy()));

    // Anchor-box margin changes the key.
    SquareConfig margin = SquareConfig::square();
    margin.anchorBoxMargin = 8;
    EXPECT_FALSE(base == makeCacheKey(fp, machine, margin));

    // LAA scoring thresholds change the key.
    SquareConfig weights = SquareConfig::square();
    weights.serializationWeight = 0.75;
    EXPECT_FALSE(base == makeCacheKey(fp, machine, weights));
    SquareConfig cap = SquareConfig::square();
    cap.candidateCap = 8;
    EXPECT_FALSE(base == makeCacheKey(fp, machine, cap));

    // CER cost-model toggles change the key.
    SquareConfig horizon = SquareConfig::square();
    horizon.holdHorizon = 0.0;
    EXPECT_FALSE(base == makeCacheKey(fp, machine, horizon));

    // The machine changes the key; the program changes the key.
    EXPECT_FALSE(base == makeCacheKey(fp, MachineSpec::nisqLattice(6, 6),
                                      SquareConfig::square()));
    EXPECT_FALSE(base ==
                 makeCacheKey(makeBenchmark("RD53").fingerprint(),
                              machine, SquareConfig::square()));
}

TEST(CacheKey, CanonicalizationIgnoresInertFields)
{
    const uint64_t fp = makeBenchmark("ADDER4").fingerprint();
    const MachineSpec machine = MachineSpec::nisqLattice(5, 5);
    const CacheKey base =
        makeCacheKey(fp, machine, SquareConfig::square());

    // The display name is not semantic.
    SquareConfig renamed = SquareConfig::square();
    renamed.name = "SQUARE(prod)";
    EXPECT_TRUE(base == makeCacheKey(fp, machine, renamed));

    // resetLatency only matters under MeasureReset.
    SquareConfig latency = SquareConfig::square();
    latency.resetLatency = 1;
    EXPECT_TRUE(base == makeCacheKey(fp, machine, latency));
    EXPECT_FALSE(makeCacheKey(fp, machine,
                              SquareConfig::measureReset(1)) ==
                 makeCacheKey(fp, machine,
                              SquareConfig::measureReset(2)));

    // LAA knobs only matter under locality-aware allocation (eager
    // uses the LIFO allocator).
    SquareConfig eager_a = SquareConfig::eager();
    SquareConfig eager_b = SquareConfig::eager();
    eager_b.anchorBoxMargin = 4;
    eager_b.commWeight = 9.0;
    EXPECT_TRUE(makeCacheKey(fp, machine, eager_a) ==
                makeCacheKey(fp, machine, eager_b));

    // CER toggles only matter under CER reclamation.
    SquareConfig laa_a = SquareConfig::squareLaaOnly();
    SquareConfig laa_b = SquareConfig::squareLaaOnly();
    laa_b.holdHorizon = 0.25;
    laa_b.usePressure = false;
    EXPECT_TRUE(makeCacheKey(fp, machine, laa_a) ==
                makeCacheKey(fp, machine, laa_b));
}

// -------------------------------------------------------------------
// Service cache behaviour
// -------------------------------------------------------------------

TEST(Service, RepeatedRequestSharesOneResult)
{
    CompileService service(2);
    CompileRequest req =
        namedRequest("ADDER4", SquareConfig::square());

    ServiceReply first = service.submit(req);
    ASSERT_TRUE(first.error.empty());
    EXPECT_FALSE(first.hit);

    ServiceReply second = service.submit(req);
    ASSERT_TRUE(second.error.empty());
    EXPECT_TRUE(second.hit);

    // Pointer equality: the hit *is* the first computation's artifact.
    EXPECT_EQ(first.result.get(), second.result.get());

    ServiceStats s = service.stats();
    EXPECT_EQ(s.requests, 2);
    EXPECT_EQ(s.hits, 1);
    EXPECT_EQ(s.misses, 1);
    EXPECT_EQ(s.compiles, 1);
    EXPECT_EQ(s.cachedPrograms, 1u);
}

TEST(Service, HitsAreBitIdenticalToFreshCompile)
{
    CompileService service(2);
    for (const SquareConfig &cfg :
         {SquareConfig::square(), SquareConfig::eager(),
          SquareConfig::lazy()}) {
        SCOPED_TRACE(cfg.name);
        CompileRequest req = namedRequest("ADDER4", cfg);
        service.submit(req);
        ServiceReply hit = service.submit(req);
        ASSERT_TRUE(hit.error.empty());
        ASSERT_TRUE(hit.hit);

        Program prog = makeBenchmark("ADDER4");
        Machine machine = req.machine.build();
        CompileResult fresh = compile(prog, machine, cfg, {});
        EXPECT_EQ(hit.result->gates, fresh.gates);
        EXPECT_EQ(hit.result->swaps, fresh.swaps);
        EXPECT_EQ(hit.result->depth, fresh.depth);
        EXPECT_EQ(hit.result->aqv, fresh.aqv);
        EXPECT_EQ(hit.result->qubitsUsed, fresh.qubitsUsed);
        EXPECT_EQ(hit.result->peakLive, fresh.peakLive);
        EXPECT_EQ(hit.result->reclaimCount, fresh.reclaimCount);
        EXPECT_EQ(hit.result->skipCount, fresh.skipCount);
        EXPECT_EQ(hit.result->commFactor, fresh.commFactor);
        EXPECT_EQ(hit.result->primaryFinalSites,
                  fresh.primaryFinalSites);
    }
}

TEST(Service, DifferingConfigFieldsMissSeparately)
{
    CompileService service(2);
    CompileRequest base = namedRequest("ADDER4", SquareConfig::square());
    ServiceReply r1 = service.submit(base);

    CompileRequest margin = base;
    margin.cfg.anchorBoxMargin = 8;
    ServiceReply r2 = service.submit(margin);
    EXPECT_FALSE(r2.hit);
    EXPECT_FALSE(r1.key == r2.key);

    CompileRequest policy = namedRequest("ADDER4", SquareConfig::eager());
    ServiceReply r3 = service.submit(policy);
    EXPECT_FALSE(r3.hit);
    EXPECT_FALSE(r1.key == r3.key);

    // A display-name-only difference is the same computation.
    CompileRequest renamed = base;
    renamed.cfg.name = "SQUARE(prod)";
    ServiceReply r4 = service.submit(renamed);
    EXPECT_TRUE(r4.hit);
    EXPECT_TRUE(r1.key == r4.key);
    EXPECT_EQ(r1.result.get(), r4.result.get());
}

TEST(Service, ExplicitProgramAndWorkloadNameShareKeys)
{
    CompileService service(2);
    ServiceReply by_name =
        service.submit(namedRequest("ADDER4", SquareConfig::square()));

    CompileRequest explicit_req;
    explicit_req.label = "explicit";
    explicit_req.program =
        std::make_shared<const Program>(makeBenchmark("ADDER4"));
    explicit_req.machine = MachineSpec::nisqLattice(5, 5);
    explicit_req.cfg = SquareConfig::square();
    ServiceReply by_program = service.submit(explicit_req);

    // Same content, same key: the explicit program is a hit.
    EXPECT_TRUE(by_program.hit);
    EXPECT_TRUE(by_name.key == by_program.key);
    EXPECT_EQ(by_name.result.get(), by_program.result.get());
}

TEST(Service, FailuresAreRepliesNotCrashes)
{
    CompileService service(2);
    CompileRequest req = namedRequest("SHA2", SquareConfig::lazy());
    req.machine = MachineSpec::nisqLattice(2, 2); // cannot fit
    ServiceReply r = service.submit(req);
    EXPECT_FALSE(r.error.empty());
    EXPECT_EQ(r.result, nullptr);
    EXPECT_EQ(service.stats().failures, 1);

    // Failed keys are not cached: the retry is a fresh miss, not a
    // replayed error (failures may be environmental).
    ServiceReply again = service.submit(req);
    EXPECT_FALSE(again.hit);
    EXPECT_FALSE(again.error.empty());
    EXPECT_EQ(service.stats().misses, 2);

    CompileRequest bogus;
    bogus.label = "bogus";
    bogus.workload = "NO-SUCH";
    bogus.cfg = SquareConfig::square();
    ServiceReply unknown = service.submit(bogus);
    EXPECT_FALSE(unknown.error.empty());
    EXPECT_EQ(unknown.result, nullptr);
}

TEST(Service, ConcurrentDuplicatesCompileExactlyOnce)
{
    CompileService service(4);
    CompileRequest req =
        namedRequest("SALSA20", SquareConfig::square());

    const int n_threads = 8;
    std::vector<ServiceReply> replies(n_threads);
    int64_t analyses_before = ProgramAnalysis::constructionCount();
    {
        std::vector<std::thread> pool;
        pool.reserve(n_threads);
        for (int t = 0; t < n_threads; ++t) {
            pool.emplace_back([&service, &req, &replies, t] {
                replies[static_cast<size_t>(t)] = service.submit(req);
            });
        }
        for (std::thread &th : pool)
            th.join();
    }

    // Exactly one compile, one analysis; every thread shares the one
    // immutable result.
    ServiceStats s = service.stats();
    EXPECT_EQ(s.requests, n_threads);
    EXPECT_EQ(s.compiles, 1);
    EXPECT_EQ(s.hits, n_threads - 1);
    EXPECT_EQ(s.analysisComputes, 1);
    EXPECT_EQ(ProgramAnalysis::constructionCount() - analyses_before, 1);
    const CompileResult *shared = replies[0].result.get();
    ASSERT_NE(shared, nullptr);
    for (const ServiceReply &r : replies) {
        EXPECT_TRUE(r.error.empty());
        EXPECT_EQ(r.result.get(), shared);
    }
}

TEST(Service, BatchDeduplicatesAndDispatchesMissesOnce)
{
    CompileService service(4);
    std::vector<CompileRequest> batch;
    for (int r = 0; r < 5; ++r) {
        batch.push_back(namedRequest("ADDER4", SquareConfig::square()));
        batch.push_back(namedRequest("ADDER4", SquareConfig::eager()));
        batch.push_back(namedRequest("RD53", SquareConfig::square()));
    }
    std::vector<ServiceReply> replies = service.submitBatch(batch);
    ASSERT_EQ(replies.size(), batch.size());

    int misses = 0;
    for (size_t i = 0; i < replies.size(); ++i) {
        SCOPED_TRACE(batch[i].label + " (request " + std::to_string(i) +
                     ")");
        EXPECT_TRUE(replies[i].error.empty());
        ASSERT_NE(replies[i].result, nullptr);
        misses += replies[i].hit ? 0 : 1;
    }
    EXPECT_EQ(misses, 3); // 3 unique keys
    ServiceStats s = service.stats();
    EXPECT_EQ(s.compiles, 3);
    EXPECT_EQ(s.hits, static_cast<int64_t>(batch.size()) - 3);
    EXPECT_EQ(s.analysisComputes, 2); // 2 unique programs

    // Replicas of one key share one artifact pointer.
    EXPECT_EQ(replies[0].result.get(), replies[3].result.get());
    EXPECT_EQ(replies[2].result.get(), replies[5].result.get());
}

TEST(Service, ReplyTailIsPreserializedOnceAndShared)
{
    // The NDJSON reply tail is encoded exactly once, at publish time,
    // and every hit shares those bytes refcounted — the wire-speed
    // warm path appends them verbatim.  The stored bytes must be
    // identical to a fresh encoding of the result (the serving bench
    // additionally golden-checks them against a fresh compile()).
    CompileService service(1);
    CompileRequest req = namedRequest("ADDER4", SquareConfig::square());

    ServiceReply first = service.submit(req);
    ASSERT_TRUE(first.error.empty());
    ASSERT_NE(first.replyTail, nullptr);
    EXPECT_EQ(*first.replyTail,
              formatReplyTail(*first.result, first.key));
    EXPECT_NE(first.replyTail->find("\"gates\""), std::string::npos);
    EXPECT_EQ(first.replyTail->back(), '}');

    ServiceReply second = service.submit(req);
    EXPECT_TRUE(second.hit);
    // Pointer-equal: the hit did not re-encode anything.
    EXPECT_EQ(second.replyTail.get(), first.replyTail.get());
}

// -------------------------------------------------------------------
// LRU cache bound (CacheLimits)
// -------------------------------------------------------------------

TEST(Lru, EntryBoundEvictsLeastRecentlyUsed)
{
    CacheLimits limits;
    limits.maxEntries = 2;
    CompileService service(1, limits);

    ServiceReply a =
        service.submit(namedRequest("ADDER4", SquareConfig::square()));
    ServiceReply b =
        service.submit(namedRequest("ADDER4", SquareConfig::eager()));
    ASSERT_TRUE(a.error.empty());
    ASSERT_TRUE(b.error.empty());
    EXPECT_EQ(service.stats().evictions, 0);

    // Third unique key: the oldest (a) is evicted, b and c stay.
    ServiceReply c =
        service.submit(namedRequest("ADDER4", SquareConfig::lazy()));
    ASSERT_TRUE(c.error.empty());
    ServiceStats s = service.stats();
    EXPECT_EQ(s.evictions, 1);
    EXPECT_EQ(s.cachedResults, 2u);
    EXPECT_GT(s.cachedBytes, 0u);

    // The evicted key recompiles; the resident ones still hit.
    EXPECT_TRUE(service
                    .submit(namedRequest("ADDER4", SquareConfig::lazy()))
                    .hit);
    ServiceReply a2 =
        service.submit(namedRequest("ADDER4", SquareConfig::square()));
    EXPECT_FALSE(a2.hit);
    ASSERT_TRUE(a2.error.empty());
    // The evicted artifact was recomputed, and identically.
    EXPECT_EQ(a2.result->gates, a.result->gates);
    EXPECT_EQ(a2.result->depth, a.result->depth);
}

TEST(Lru, HitsRefreshRecency)
{
    CacheLimits limits;
    limits.maxEntries = 2;
    CompileService service(1, limits);

    CompileRequest a = namedRequest("ADDER4", SquareConfig::square());
    CompileRequest b = namedRequest("ADDER4", SquareConfig::eager());
    CompileRequest c = namedRequest("ADDER4", SquareConfig::lazy());
    service.submit(a);
    service.submit(b);
    EXPECT_TRUE(service.submit(a).hit); // touch: a is now most recent

    // Inserting c evicts b (the least recently used), not a.
    service.submit(c);
    EXPECT_TRUE(service.submit(a).hit);
    EXPECT_FALSE(service.submit(b).hit);
    EXPECT_EQ(service.stats().evictions, 2); // b, then c on b's return
}

TEST(Lru, OversizedArtifactIsServedButNotRetained)
{
    CacheLimits limits;
    limits.maxBytes = 1; // every result exceeds this
    CompileService service(1, limits);
    CompileRequest req = namedRequest("ADDER4", SquareConfig::square());

    ServiceReply first = service.submit(req);
    ASSERT_TRUE(first.error.empty());
    ASSERT_NE(first.result, nullptr);
    EXPECT_GT(first.result->gates, 0);

    ServiceStats s = service.stats();
    EXPECT_EQ(s.evictions, 1);
    EXPECT_EQ(s.cachedResults, 0u);
    EXPECT_EQ(s.cachedBytes, 0u);

    // Still correct on the recompile path, just never a hit.
    ServiceReply second = service.submit(req);
    EXPECT_FALSE(second.hit);
    ASSERT_TRUE(second.error.empty());
    EXPECT_EQ(second.result->gates, first.result->gates);
    // The caller's shared_ptr outlives the eviction of its cache slot.
    EXPECT_EQ(first.result->depth, second.result->depth);
}

TEST(Lru, UnderBoundWorkloadBehavesAsUnbounded)
{
    // A bound the workload never reaches must not change hit behaviour
    // vs the unbounded (PR 3) cache: same hits, pointer-equal results,
    // zero evictions.
    CacheLimits limits;
    limits.maxEntries = 100;
    CompileService service(2, limits);
    CompileRequest req = namedRequest("ADDER4", SquareConfig::square());

    ServiceReply first = service.submit(req);
    ServiceReply second = service.submit(req);
    EXPECT_FALSE(first.hit);
    EXPECT_TRUE(second.hit);
    EXPECT_EQ(first.result.get(), second.result.get());
    ServiceStats s = service.stats();
    EXPECT_EQ(s.evictions, 0);
    EXPECT_EQ(s.cachedResults, 1u);
}

TEST(Lru, SubmitBatchAccountsAndEvicts)
{
    CacheLimits limits;
    limits.maxEntries = 1;
    CompileService service(2, limits);
    std::vector<CompileRequest> batch = {
        namedRequest("ADDER4", SquareConfig::square()),
        namedRequest("ADDER4", SquareConfig::eager()),
        namedRequest("ADDER4", SquareConfig::square()), // in-batch dup
    };
    // Batch misses start on the pool as soon as they are claimed: hold
    // the compiles until all three requests are claimed, so the second
    // key's publish cannot evict the first before its duplicate
    // arrives.
    CompileGate gate;
    service.setCompileHook(gate.hook());
    std::vector<ServiceReply> replies;
    std::thread batch_th(
        [&] { replies = service.submitBatch(batch); });
    waitUntil([&] { return service.stats().requests == 3; });
    gate.release();
    batch_th.join();
    ASSERT_EQ(replies.size(), 3u);
    for (const ServiceReply &r : replies) {
        EXPECT_TRUE(r.error.empty());
        ASSERT_NE(r.result, nullptr);
    }
    EXPECT_TRUE(replies[2].hit); // dedup is pre-eviction (in flight)
    ServiceStats s = service.stats();
    EXPECT_EQ(s.compiles, 2);
    EXPECT_EQ(s.evictions, 1);
    EXPECT_EQ(s.cachedResults, 1u);
}

TEST(Lru, EvictionNeverInvalidatesInFlightResults)
{
    // The eviction edge case: a key being evicted while concurrent
    // submits hold (or are about to return) its shared result must not
    // leave any thread with a dangling artifact.  With maxEntries = 1
    // and two alternating keys, every submit races an eviction of the
    // other key.  TSan-covered via the CI job that runs this binary.
    CacheLimits limits;
    limits.maxEntries = 1;
    CompileService service(2, limits);

    const CompileRequest reqs[2] = {
        namedRequest("ADDER4", SquareConfig::square()),
        namedRequest("ADDER4", SquareConfig::eager()),
    };
    // Expected metrics, computed before the churn.
    int64_t expected_gates[2];
    for (int k = 0; k < 2; ++k) {
        Program prog = makeBenchmark(reqs[k].workload);
        Machine machine = reqs[k].machine.build();
        expected_gates[k] =
            compile(prog, machine, reqs[k].cfg, {}).gates;
    }

    const int n_threads = 4;
    const int iterations = 12;
    std::atomic<int> bad{0};
    {
        std::vector<std::thread> pool;
        pool.reserve(n_threads);
        for (int t = 0; t < n_threads; ++t) {
            pool.emplace_back([&, t] {
                for (int i = 0; i < iterations; ++i) {
                    const int k = (t + i) % 2;
                    ServiceReply r = service.submit(reqs[k]);
                    // The returned artifact must be alive and correct
                    // no matter what the LRU did meanwhile.
                    if (!r.error.empty() || !r.result ||
                        r.result->gates != expected_gates[k])
                        bad.fetch_add(1);
                }
            });
        }
        for (std::thread &th : pool)
            th.join();
    }
    EXPECT_EQ(bad.load(), 0);
    ServiceStats s = service.stats();
    EXPECT_EQ(s.requests, n_threads * iterations);
    EXPECT_GT(s.evictions, 0);
    EXPECT_LE(s.cachedResults, 1u);
}

TEST(Lru, EvictedReplyBytesStayValid)
{
    // A reply (or an in-flight transport write) holding the
    // preserialized bytes must keep them valid past eviction of the
    // cache entry: sharing is refcounted, not borrowed.
    CacheLimits limits;
    limits.maxEntries = 1;
    CompileService service(1, limits);

    ServiceReply a =
        service.submit(namedRequest("ADDER4", SquareConfig::square()));
    ASSERT_TRUE(a.error.empty());
    ASSERT_NE(a.replyTail, nullptr);
    const std::string snapshot = *a.replyTail; // copy before eviction

    // Second unique key evicts a's slot (maxEntries = 1).
    ServiceReply b =
        service.submit(namedRequest("ADDER4", SquareConfig::eager()));
    ASSERT_TRUE(b.error.empty());
    EXPECT_GE(service.stats().evictions, 1);

    // The handed-out bytes are untouched by the eviction.
    EXPECT_EQ(*a.replyTail, snapshot);
    EXPECT_EQ(*a.replyTail, formatReplyTail(*a.result, a.key));
}

TEST(Lru, ConcurrentEvictionKeepsReplyBytesValid)
{
    // Eviction churn racing readers of the preserialized bytes: with
    // maxEntries = 1 and two alternating keys, every submit evicts the
    // other key while other threads may be mid-"write" of its bytes.
    // Reading every byte here lets TSan prove eviction never frees or
    // mutates bytes a reply still references.
    CacheLimits limits;
    limits.maxEntries = 1;
    CompileService service(2, limits);

    const CompileRequest reqs[2] = {
        namedRequest("ADDER4", SquareConfig::square()),
        namedRequest("ADDER4", SquareConfig::eager()),
    };
    std::string expected[2];
    for (int k = 0; k < 2; ++k) {
        ServiceReply r = service.submit(reqs[k]);
        ASSERT_TRUE(r.error.empty());
        expected[k] = *r.replyTail;
    }

    const int n_threads = 4;
    const int iterations = 8;
    std::atomic<int> bad{0};
    {
        std::vector<std::thread> pool;
        pool.reserve(n_threads);
        for (int t = 0; t < n_threads; ++t) {
            pool.emplace_back([&, t] {
                for (int i = 0; i < iterations; ++i) {
                    const int k = (t + i) % 2;
                    ServiceReply r = service.submit(reqs[k]);
                    if (!r.error.empty() || !r.replyTail ||
                        *r.replyTail != expected[k])
                        bad.fetch_add(1);
                }
            });
        }
        for (std::thread &th : pool)
            th.join();
    }
    EXPECT_EQ(bad.load(), 0);
    EXPECT_GT(service.stats().evictions, 0);
}

// -------------------------------------------------------------------
// MachineSpec and protocol round trips
// -------------------------------------------------------------------

TEST(MachineSpec, ParseBuildRoundTrip)
{
    struct Case
    {
        const char *text;
        int sites;
    } const cases[] = {
        {"nisq:5x5", 25},
        {"nisq-macro:4x6", 24},
        {"full:30", 30},
        {"ft:8x8@25", 64},
        {"ft-macro:8x8", 64},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.text);
        MachineSpec spec;
        std::string error;
        ASSERT_TRUE(MachineSpec::parse(c.text, spec, error)) << error;
        EXPECT_EQ(spec.build().numSites(), c.sites);
        // str() round-trips to an equal spec (modulo default latency
        // rendering).
        MachineSpec again;
        ASSERT_TRUE(MachineSpec::parse(spec.str(), again, error));
        EXPECT_EQ(spec.fingerprint(), again.fingerprint());
    }

    MachineSpec spec;
    std::string error;
    EXPECT_FALSE(MachineSpec::parse("nisq:5", spec, error));
    EXPECT_FALSE(MachineSpec::parse("warp:3x3", spec, error));
    EXPECT_FALSE(MachineSpec::parse("nisq:0x5", spec, error));
    EXPECT_FALSE(MachineSpec::parse("full:-2", spec, error));
}

TEST(MachineSpec, MalformedSpecsRejectWithMessages)
{
    // Every malformed form must fail with a diagnostic, never abort —
    // these reach parse() straight off the wire via buildRequest.
    const char *bad[] = {
        "",          "nisq",      "nisq:",      ":5x5",
        "nisq:5x",   "nisq:x5",   "nisq:5x5x5", "nisq:5x5@10",
        "ft:16x16@", "ft:16x16@0", "ft:16x@8",  "ft:@",
        "full:",     "full:0",    "full:2x2",   "nisq-macro:7",
        // W x H past INT_MAX sites (numSites() is an int).
        "nisq:100000x100000", "ft:65536x65536@1",
    };
    for (const char *text : bad) {
        SCOPED_TRACE(std::string("spec '") + text + "'");
        MachineSpec spec;
        std::string error;
        EXPECT_FALSE(MachineSpec::parse(text, spec, error));
        EXPECT_FALSE(error.empty());
    }

    // And through the protocol: a structured buildRequest failure.
    for (const char *machine : {"nisq:0x5", "ft:16x16@"}) {
        SCOPED_TRACE(machine);
        JsonRequest json;
        std::string error;
        ASSERT_TRUE(parseJsonLine(std::string(R"({"workload": "ADDER4",)") +
                                      R"( "machine": ")" + machine +
                                      R"("})",
                                  json, error))
            << error;
        CompileRequest req;
        EXPECT_FALSE(buildRequest(json, req, error));
        EXPECT_FALSE(error.empty());
        // The error renders as a well-formed reply line.
        std::string reply = formatError(json, error);
        EXPECT_NE(reply.find("\"ok\": false"), std::string::npos);
    }
}

TEST(Protocol, TruncatedLinesAreStructuredErrors)
{
    // Truncation points a dying client can tear a request at: all must
    // produce a parse error (and therefore an {"ok": false} reply),
    // never a crash or a silently dropped request.
    const char *truncated[] = {
        R"({"workload": "ADD)",   // torn inside a string
        R"({"workload": )",       // torn before a value
        R"({"workload")",         // torn before the colon
        R"({"workload": "A", )",  // torn after a comma
        R"({)",                   // torn after the brace
    };
    for (const char *line : truncated) {
        SCOPED_TRACE(std::string("line '") + line + "'");
        JsonRequest json;
        std::string error;
        EXPECT_FALSE(parseJsonLine(line, json, error));
        EXPECT_FALSE(error.empty());
        std::string reply = formatError(json, error);
        EXPECT_NE(reply.find("\"ok\": false"), std::string::npos);
        EXPECT_NE(reply.find("\"error\""), std::string::npos);
    }
}

TEST(Protocol, ParseAndBuildRequest)
{
    JsonRequest json;
    std::string error;
    ASSERT_TRUE(parseJsonLine(
        R"({"id": 3, "workload": "SHA2", "machine": "nisq:32x32",)"
        R"( "policy": "eager", "anchor_box_margin": 8})",
        json, error))
        << error;
    CompileRequest req;
    ASSERT_TRUE(buildRequest(json, req, error)) << error;
    EXPECT_EQ(req.workload, "SHA2");
    EXPECT_EQ(req.machine.width, 32);
    EXPECT_EQ(req.cfg.reclaim, ReclaimPolicy::Eager);
    EXPECT_EQ(req.cfg.anchorBoxMargin, 8);

    // Defaulted machine: the paper machine for the workload.
    JsonRequest small;
    ASSERT_TRUE(
        parseJsonLine(R"({"workload": "ADDER4"})", small, error));
    CompileRequest dreq;
    ASSERT_TRUE(buildRequest(small, dreq, error));
    EXPECT_EQ(dreq.machine.build().numSites(), 25);

    // Reply id echoing: numeric ids echo raw, string ids (whose
    // quoting the parser stripped) are re-quoted and re-escaped so a
    // hostile id cannot break or inject into the reply object.
    JsonRequest num_id;
    ASSERT_TRUE(parseJsonLine(R"({"id": 42})", num_id, error));
    EXPECT_EQ(formatError(num_id, "x"),
              R"({"id": 42, "ok": false, "error": "x"})");
    JsonRequest str_id;
    ASSERT_TRUE(parseJsonLine(R"({"id": "req-\"1\""})", str_id, error));
    EXPECT_EQ(formatError(str_id, "x"),
              R"({"id": "req-\"1\"", "ok": false, "error": "x"})");

    // Malformed inputs are rejected with messages, never crashes.
    EXPECT_FALSE(parseJsonLine("[1,2]", json, error));
    EXPECT_FALSE(parseJsonLine(R"({"a": {"b": 1}})", json, error));
    EXPECT_FALSE(parseJsonLine(R"({"a": 1)", json, error));
    ASSERT_TRUE(parseJsonLine(R"({"workload": "X", "oops": 1})", json,
                              error));
    EXPECT_FALSE(buildRequest(json, req, error));
    ASSERT_TRUE(parseJsonLine(R"({"policy": "square"})", json, error));
    EXPECT_FALSE(buildRequest(json, req, error)); // missing workload
}

TEST(Protocol, DeadlineAndPriorityFieldsParse)
{
    JsonRequest json;
    std::string error;
    ASSERT_TRUE(parseJsonLine(
        R"({"workload": "ADDER4", "deadline_ms": 250.5,)"
        R"( "priority": "batch"})",
        json, error))
        << error;
    CompileRequest req;
    ASSERT_TRUE(buildRequest(json, req, error)) << error;
    EXPECT_DOUBLE_EQ(req.deadlineMs, 250.5);
    EXPECT_TRUE(req.batch);

    ASSERT_TRUE(parseJsonLine(
        R"({"workload": "ADDER4", "priority": "interactive"})", json,
        error));
    ASSERT_TRUE(buildRequest(json, req, error)) << error;
    EXPECT_FALSE(req.batch);

    ASSERT_TRUE(parseJsonLine(
        R"({"workload": "ADDER4", "priority": "urgent"})", json,
        error));
    EXPECT_FALSE(buildRequest(json, req, error));
    ASSERT_TRUE(parseJsonLine(
        R"({"workload": "ADDER4", "deadline_ms": -1})", json, error));
    EXPECT_FALSE(buildRequest(json, req, error));
}

// -------------------------------------------------------------------
// The async cold path (submitPreparedAsync) and admission control
// -------------------------------------------------------------------

/** A request resolved the way the server's async path resolves it. */
struct PreparedRequest
{
    CompileRequest req;
    std::shared_ptr<const Program> program;
    uint64_t fp = 0;
    CacheKey key;
};

PreparedRequest
prepared(const std::string &workload, const SquareConfig &cfg)
{
    PreparedRequest p;
    p.req = namedRequest(workload, cfg);
    p.program =
        std::make_shared<const Program>(makeBenchmark(workload));
    p.fp = p.program->fingerprint();
    p.key = makeCacheKey(p.fp, p.req.machine, p.req.cfg);
    return p;
}

TEST(AsyncService, WarmHitIsServedSynchronously)
{
    CompileService service(2);
    PreparedRequest p = prepared("ADDER4", SquareConfig::square());
    ServiceReply warm = service.submit(p.req);
    ASSERT_TRUE(warm.error.empty());

    ServiceReply reply;
    bool fired = false;
    const bool sync = service.submitPreparedAsync(
        p.req, p.program, p.fp, p.key, reply,
        [&fired](ServiceReply &&) { fired = true; });
    EXPECT_TRUE(sync);
    EXPECT_FALSE(fired);
    EXPECT_TRUE(reply.hit);
    EXPECT_EQ(reply.result.get(), warm.result.get());
    EXPECT_TRUE(reply.status.empty());
}

TEST(AsyncService, MissCompletesThroughCallback)
{
    CompileService service(2);
    PreparedRequest p = prepared("ADDER4", SquareConfig::square());

    std::promise<ServiceReply> done;
    ServiceReply sync_reply;
    const bool sync = service.submitPreparedAsync(
        p.req, p.program, p.fp, p.key, sync_reply,
        [&done](ServiceReply &&r) { done.set_value(std::move(r)); });
    ASSERT_FALSE(sync);

    ServiceReply reply = done.get_future().get();
    EXPECT_TRUE(reply.error.empty());
    EXPECT_FALSE(reply.hit);
    ASSERT_NE(reply.result, nullptr);
    ASSERT_NE(reply.replyTail, nullptr);
    EXPECT_GT(reply.millis, 0.0);

    // The async compile published into the shared cache: a blocking
    // submit of the same request is a pointer-equal hit.
    ServiceReply hit = service.submit(p.req);
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(hit.result.get(), reply.result.get());

    ServiceStats s = service.stats();
    EXPECT_EQ(s.misses, 1);
    EXPECT_EQ(s.compiles, 1);
    EXPECT_EQ(s.pendingCompiles, 0u);
}

TEST(AsyncService, ConcurrentDuplicatesDedupAcrossAsyncAndSync)
{
    // Async waiters, a blocking submit, and the async owner all meet
    // on one in-flight entry and share one compilation.  TSan-covered.
    CompileService service(2);
    CompileGate gate;
    service.setCompileHook(gate.hook());
    PreparedRequest p = prepared("RD53", SquareConfig::square());

    const int n_async = 4;
    std::vector<std::promise<ServiceReply>> done(n_async);
    int went_async = 0;
    for (int i = 0; i < n_async; ++i) {
        ServiceReply sync_reply;
        if (!service.submitPreparedAsync(
                p.req, p.program, p.fp, p.key, sync_reply,
                [&done, i](ServiceReply &&r) {
                    done[static_cast<size_t>(i)].set_value(
                        std::move(r));
                }))
            ++went_async;
    }
    EXPECT_EQ(went_async, n_async);

    // A blocking duplicate parks on the same entry.
    std::thread blocker_th;
    ServiceReply blocked;
    gate.waitParked(1); // the owner reached the compile
    blocker_th = std::thread(
        [&service, &p, &blocked] { blocked = service.submit(p.req); });

    gate.release();
    std::vector<ServiceReply> replies;
    replies.reserve(n_async);
    for (int i = 0; i < n_async; ++i)
        replies.push_back(
            done[static_cast<size_t>(i)].get_future().get());
    blocker_th.join();

    const CompileResult *shared = replies[0].result.get();
    ASSERT_NE(shared, nullptr);
    for (const ServiceReply &r : replies) {
        EXPECT_TRUE(r.error.empty());
        EXPECT_EQ(r.result.get(), shared);
    }
    EXPECT_EQ(blocked.result.get(), shared);
    EXPECT_TRUE(blocked.hit);

    ServiceStats s = service.stats();
    EXPECT_EQ(s.compiles, 1);
    EXPECT_EQ(s.requests, n_async + 1);
    EXPECT_EQ(s.hits, n_async); // everyone but the async owner
    EXPECT_EQ(s.pendingCompiles, 0u);
}

TEST(AsyncService, OverloadShedsWithRetryAfterAndRecovers)
{
    AdmissionLimits admission;
    admission.maxPending = 1;
    CompileService service(1, {}, admission);
    CompileGate gate;
    service.setCompileHook(gate.hook());

    // First miss claims the only pending slot.
    PreparedRequest a = prepared("ADDER4", SquareConfig::square());
    std::promise<ServiceReply> a_done;
    ServiceReply sync_reply;
    ASSERT_FALSE(service.submitPreparedAsync(
        a.req, a.program, a.fp, a.key, sync_reply,
        [&a_done](ServiceReply &&r) {
            a_done.set_value(std::move(r));
        }));
    gate.waitParked(1);

    // A different key now sheds synchronously with a backoff hint.
    PreparedRequest b = prepared("ADDER4", SquareConfig::eager());
    ServiceReply shed;
    bool fired = false;
    EXPECT_TRUE(service.submitPreparedAsync(
        b.req, b.program, b.fp, b.key, shed,
        [&fired](ServiceReply &&) { fired = true; }));
    EXPECT_FALSE(fired);
    EXPECT_EQ(shed.status, "overloaded");
    EXPECT_GT(shed.retryAfterMs, 0.0);
    EXPECT_EQ(shed.result, nullptr);

    // Duplicates of the IN-FLIGHT key are never shed: they cost no
    // compile capacity.
    ServiceReply dup;
    ASSERT_FALSE(service.submitPreparedAsync(
        a.req, a.program, a.fp, a.key, dup,
        [](ServiceReply &&) {}));

    gate.release();
    ServiceReply a_reply = a_done.get_future().get();
    EXPECT_TRUE(a_reply.error.empty());

    // Recovery: the shed key is admitted once the queue drains.
    ServiceReply retried = service.submit(b.req);
    EXPECT_TRUE(retried.error.empty());
    EXPECT_TRUE(retried.status.empty());
    ASSERT_NE(retried.result, nullptr);

    ServiceStats s = service.stats();
    EXPECT_EQ(s.shed, 1);
    EXPECT_EQ(s.compiles, 2);
    EXPECT_EQ(s.pendingCompiles, 0u);
}

TEST(AsyncService, BatchTierShedsBeforeInteractive)
{
    AdmissionLimits admission;
    admission.maxPending = 4;
    admission.batchFraction = 0.5; // batch admitted while pending < 2
    CompileService service(1, {}, admission);
    CompileGate gate;
    service.setCompileHook(gate.hook());

    // Two unique misses occupy the batch tier's share of the queue.
    SquareConfig cfg_a = SquareConfig::square();
    cfg_a.anchorBoxMargin = 101;
    SquareConfig cfg_b = SquareConfig::square();
    cfg_b.anchorBoxMargin = 102;
    std::promise<ServiceReply> done_a, done_b;
    ServiceReply sync_reply;
    PreparedRequest a = prepared("ADDER4", cfg_a);
    PreparedRequest b = prepared("ADDER4", cfg_b);
    ASSERT_FALSE(service.submitPreparedAsync(
        a.req, a.program, a.fp, a.key, sync_reply,
        [&done_a](ServiceReply &&r) {
            done_a.set_value(std::move(r));
        }));
    ASSERT_FALSE(service.submitPreparedAsync(
        b.req, b.program, b.fp, b.key, sync_reply,
        [&done_b](ServiceReply &&r) {
            done_b.set_value(std::move(r));
        }));
    gate.waitParked(1);

    // pending == 2: a batch-tier miss is shed while an interactive
    // miss is still admitted.
    SquareConfig cfg_c = SquareConfig::square();
    cfg_c.anchorBoxMargin = 103;
    PreparedRequest batch_req = prepared("ADDER4", cfg_c);
    batch_req.req.batch = true;
    ServiceReply batch_reply;
    EXPECT_TRUE(service.submitPreparedAsync(
        batch_req.req, batch_req.program, batch_req.fp, batch_req.key,
        batch_reply, [](ServiceReply &&) {}));
    EXPECT_EQ(batch_reply.status, "overloaded");

    SquareConfig cfg_d = SquareConfig::square();
    cfg_d.anchorBoxMargin = 104;
    PreparedRequest inter = prepared("ADDER4", cfg_d);
    std::promise<ServiceReply> done_d;
    ASSERT_FALSE(service.submitPreparedAsync(
        inter.req, inter.program, inter.fp, inter.key, sync_reply,
        [&done_d](ServiceReply &&r) {
            done_d.set_value(std::move(r));
        }));

    gate.release();
    EXPECT_TRUE(done_a.get_future().get().error.empty());
    EXPECT_TRUE(done_b.get_future().get().error.empty());
    EXPECT_TRUE(done_d.get_future().get().error.empty());
    ServiceStats s = service.stats();
    EXPECT_EQ(s.shed, 1);
    EXPECT_EQ(s.compiles, 3);
}

TEST(AsyncService, BatchMissesPassAdmissionControl)
{
    // submitBatch claims through the same admission check as served
    // misses: with one pending slot held by the batch's first compile,
    // its two other distinct keys are shed, not queued.
    AdmissionLimits admission;
    admission.maxPending = 1;
    CompileService service(1, {}, admission);
    CompileGate gate;
    service.setCompileHook(gate.hook());
    std::vector<CompileRequest> batch = {
        namedRequest("ADDER4", SquareConfig::square()),
        namedRequest("ADDER4", SquareConfig::eager()),
        namedRequest("RD53", SquareConfig::square()),
    };
    std::vector<ServiceReply> replies;
    std::thread batch_th(
        [&] { replies = service.submitBatch(batch); });
    waitUntil([&] { return service.stats().shed == 2; });
    gate.release();
    batch_th.join();

    ASSERT_EQ(replies.size(), 3u);
    EXPECT_TRUE(replies[0].error.empty());
    EXPECT_TRUE(replies[0].status.empty());
    ASSERT_NE(replies[0].result, nullptr);
    for (size_t i = 1; i < 3; ++i) {
        SCOPED_TRACE(batch[i].label);
        EXPECT_EQ(replies[i].label, batch[i].label);
        EXPECT_EQ(replies[i].status, "overloaded");
        EXPECT_GT(replies[i].retryAfterMs, 0.0);
        EXPECT_EQ(replies[i].result, nullptr);
    }
    ServiceStats s = service.stats();
    EXPECT_EQ(s.requests, 3);
    EXPECT_EQ(s.shed, 2);
    EXPECT_EQ(s.compiles, 1);
    EXPECT_EQ(s.pendingCompiles, 0u);
}

TEST(AsyncService, ExpiredDeadlineCancelsBeforeCompiling)
{
    CompileService service(1);
    CompileGate gate;
    service.setCompileHook(gate.hook());

    // A long compile occupies the single pool worker...
    PreparedRequest a = prepared("ADDER4", SquareConfig::square());
    std::promise<ServiceReply> a_done;
    ServiceReply sync_reply;
    ASSERT_FALSE(service.submitPreparedAsync(
        a.req, a.program, a.fp, a.key, sync_reply,
        [&a_done](ServiceReply &&r) {
            a_done.set_value(std::move(r));
        }));
    gate.waitParked(1);

    // ...while a deadline-carrying miss queues behind it.
    PreparedRequest b = prepared("ADDER4", SquareConfig::eager());
    b.req.deadlineMs = 1;
    std::promise<ServiceReply> b_done;
    ASSERT_FALSE(service.submitPreparedAsync(
        b.req, b.program, b.fp, b.key, sync_reply,
        [&b_done](ServiceReply &&r) {
            b_done.set_value(std::move(r));
        }));

    // Let the deadline lapse before the worker frees up, then release.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    gate.release();

    EXPECT_TRUE(a_done.get_future().get().error.empty());
    ServiceReply expired = b_done.get_future().get();
    EXPECT_EQ(expired.status, "deadline_expired");
    EXPECT_EQ(expired.result, nullptr);

    // The cancelled key stays retriable and compiles cleanly now.
    ServiceReply retried = service.submit(b.req);
    EXPECT_TRUE(retried.error.empty());
    EXPECT_TRUE(retried.status.empty());
    ASSERT_NE(retried.result, nullptr);

    ServiceStats s = service.stats();
    EXPECT_EQ(s.deadlineExpired, 1);
    EXPECT_EQ(s.compiles, 2); // a, and b's retry — never b's original
    EXPECT_EQ(s.pendingCompiles, 0u);
}

// -------------------------------------------------------------------
// WorkerPool: the async compile pool's own contract
// -------------------------------------------------------------------

TEST(WorkerPool, RunsEveryPostedJob)
{
    WorkerPool pool(2);
    std::atomic<int> ran{0};
    std::promise<void> all;
    const int n = 16;
    for (int i = 0; i < n; ++i) {
        pool.post([&ran, &all] {
            if (ran.fetch_add(1) + 1 == n)
                all.set_value();
        });
    }
    all.get_future().wait();
    EXPECT_EQ(ran.load(), n);
    pool.stop();
    EXPECT_EQ(pool.deaths(), 0);
}

TEST(WorkerPool, CancelRemovesQueuedJobs)
{
    WorkerPool pool(1);
    CompileGate gate;
    std::atomic<bool> second_ran{false};
    pool.post(gate.hook());
    gate.waitParked(1); // the worker is occupied
    uint64_t id =
        pool.post([&second_ran] { second_ran.store(true); });
    EXPECT_EQ(pool.queued(), 1u);
    EXPECT_TRUE(pool.cancel(id));
    EXPECT_FALSE(pool.cancel(id)); // already gone
    gate.release();
    pool.stop();
    EXPECT_FALSE(second_ran.load());
}

TEST(WorkerPool, DeathHookRequeuesJobAndRespawnsWorker)
{
    WorkerPool pool(1);
    std::atomic<int> deaths_left{3};
    pool.setDeathHook([&deaths_left] {
        return deaths_left.fetch_sub(1) > 0; // die 3 times, then run
    });
    std::promise<void> ran;
    pool.post([&ran] { ran.set_value(); });
    ran.get_future().wait(); // the job survived its 3 dead workers
    EXPECT_EQ(pool.deaths(), 3);
    EXPECT_EQ(pool.workers(), 1);
    pool.stop();
}

} // namespace
} // namespace square
