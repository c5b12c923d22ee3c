/**
 * @file
 * Pool-compilation correctness: a batch compiled on the service's
 * worker pool must produce bit-identical per-request results to
 * serial compilation of the same requests, in request order,
 * regardless of pool width or thread scheduling.  This is the contract
 * that makes the re-entrant CompileContext design observable: any
 * hidden shared mutable state between concurrent compilations shows
 * up here (and under the CI ThreadSanitizer job, which runs exactly
 * this binary).
 *
 * Also covers the policy-configuration units for the MeasureReset and
 * Forced reclamation policies.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/compiler.h"
#include "core/policy.h"
#include "ir/analysis.h"
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

/** The mixed batch: heterogeneous workloads, machines, and policies. */
std::vector<CompileRequest>
mixedBatch()
{
    std::vector<CompileRequest> reqs;
    for (const char *name : {"SALSA20", "ADDER32", "Belle", "Belle-s"}) {
        reqs.push_back(namedRequest(name, SquareConfig::square()));
        reqs.push_back(namedRequest(name, SquareConfig::eager()));
        reqs.push_back(namedRequest(name, SquareConfig::lazy()));
    }
    return reqs;
}

void
expectIdentical(const CompileResult &a, const CompileResult &b)
{
    EXPECT_EQ(a.gates, b.gates);
    EXPECT_EQ(a.swaps, b.swaps);
    EXPECT_EQ(a.depth, b.depth);
    EXPECT_EQ(a.aqv, b.aqv);
    EXPECT_EQ(a.qubitsUsed, b.qubitsUsed);
    EXPECT_EQ(a.peakLive, b.peakLive);
    EXPECT_EQ(a.reclaimCount, b.reclaimCount);
    EXPECT_EQ(a.skipCount, b.skipCount);
    EXPECT_EQ(a.commFactor, b.commFactor);
    EXPECT_EQ(a.primaryInitialSites, b.primaryInitialSites);
    EXPECT_EQ(a.primaryFinalSites, b.primaryFinalSites);
    ASSERT_EQ(a.usageCurve.size(), b.usageCurve.size());
    for (size_t i = 0; i < a.usageCurve.size(); ++i) {
        EXPECT_EQ(a.usageCurve[i].time, b.usageCurve[i].time);
        EXPECT_EQ(a.usageCurve[i].live, b.usageCurve[i].live);
    }
}

TEST(Fleet, ParallelMatchesSerialBitIdentically)
{
    std::vector<CompileRequest> reqs = mixedBatch();

    CompileService serial_service(1);
    CompileService parallel_service(8);
    std::vector<ServiceReply> serial = serial_service.submitBatch(reqs);
    std::vector<ServiceReply> parallel =
        parallel_service.submitBatch(reqs);

    ASSERT_EQ(serial.size(), reqs.size());
    ASSERT_EQ(parallel.size(), reqs.size());
    EXPECT_EQ(serial_service.stats().failures, 0);
    EXPECT_EQ(parallel_service.stats().failures, 0);
    for (size_t i = 0; i < reqs.size(); ++i) {
        SCOPED_TRACE(reqs[i].label + " (request " + std::to_string(i) +
                     ")");
        EXPECT_EQ(serial[i].label, reqs[i].label);
        EXPECT_EQ(parallel[i].label, reqs[i].label);
        EXPECT_EQ(serial[i].error, parallel[i].error);
        ASSERT_NE(serial[i].result, nullptr);
        ASSERT_NE(parallel[i].result, nullptr);
        expectIdentical(*serial[i].result, *parallel[i].result);
    }
}

TEST(Fleet, ParallelMatchesDirectCompile)
{
    // The pool path adds no hidden state: each reply equals a direct
    // compile() of a freshly rebuilt program on its paper machine,
    // with an internally computed analysis (the service shares one
    // program and one analysis per workload across the batch).
    std::vector<CompileRequest> reqs = mixedBatch();
    CompileService service(4);
    std::vector<ServiceReply> replies = service.submitBatch(reqs);
    ASSERT_EQ(replies.size(), reqs.size());
    for (size_t i = 0; i < reqs.size(); ++i) {
        SCOPED_TRACE(reqs[i].label + " (request " + std::to_string(i) +
                     ")");
        ASSERT_TRUE(replies[i].error.empty()) << replies[i].error;
        ASSERT_NE(replies[i].result, nullptr);
        const BenchmarkInfo &info = findBenchmark(reqs[i].workload);
        Program rebuilt = makeBenchmark(reqs[i].workload);
        Machine m = MachineSpec::paperFor(info).build();
        CompileResult direct = compile(rebuilt, m, reqs[i].cfg, {});
        expectIdentical(*replies[i].result, direct);
    }
}

TEST(Fleet, AnalysisComputedOncePerUniqueProgram)
{
    // 4 replicas x 3 policies per workload, 2 unique workloads: the
    // batch must analyze each unique program fingerprint exactly once.
    std::vector<CompileRequest> reqs;
    for (int r = 0; r < 4; ++r) {
        for (const char *name : {"SALSA20", "Belle-s"}) {
            reqs.push_back(namedRequest(name, SquareConfig::square()));
            reqs.push_back(namedRequest(name, SquareConfig::eager()));
            reqs.push_back(namedRequest(name, SquareConfig::lazy()));
        }
    }
    CompileService service(8);
    int64_t before = ProgramAnalysis::constructionCount();
    std::vector<ServiceReply> replies = service.submitBatch(reqs);
    int64_t after = ProgramAnalysis::constructionCount();
    ASSERT_EQ(replies.size(), reqs.size());
    ServiceStats s = service.stats();
    EXPECT_EQ(s.failures, 0);
    EXPECT_EQ(s.compiles, 6);
    EXPECT_EQ(s.analysisComputes, 2);
    EXPECT_EQ(after - before, 2);

    // The service's analysis cache outlives the batch: new keys over
    // the same programs compile without analyzing again.
    std::vector<CompileRequest> again = {
        namedRequest("SALSA20", SquareConfig::squareLaaOnly()),
        namedRequest("Belle-s", SquareConfig::squareLaaOnly()),
    };
    service.submitBatch(again);
    s = service.stats();
    EXPECT_EQ(s.compiles, 8);
    EXPECT_EQ(s.analysisComputes, 2);
    EXPECT_EQ(ProgramAnalysis::constructionCount(), after);
}

TEST(Fleet, FailedRequestsAreReportedNotFatal)
{
    // A program that cannot fit its machine fails its own request only.
    std::vector<CompileRequest> reqs = {
        namedRequest("SALSA20", SquareConfig::square()),
        namedRequest("SHA2", SquareConfig::lazy()),
    };
    // SHA2 under LAZY on a tiny machine cannot fit: 4 sites.
    std::string error;
    ASSERT_TRUE(MachineSpec::parse("nisq:2x2", reqs[1].machine, error));
    CompileService service(2);
    std::vector<ServiceReply> replies = service.submitBatch(reqs);
    ASSERT_EQ(replies.size(), 2u);
    EXPECT_TRUE(replies[0].error.empty());
    ASSERT_NE(replies[0].result, nullptr);
    EXPECT_GT(replies[0].result->gates, 0);
    EXPECT_FALSE(replies[1].error.empty());
    EXPECT_EQ(replies[1].result, nullptr);
    EXPECT_EQ(service.stats().failures, 1);
}

// -------------------------------------------------------------------
// Policy-configuration units: MeasureReset and Forced
// -------------------------------------------------------------------

TEST(PolicyConfig, MeasureResetFactoryAndSemantics)
{
    SquareConfig cfg = SquareConfig::measureReset(500);
    EXPECT_EQ(cfg.reclaim, ReclaimPolicy::MeasureReset);
    EXPECT_EQ(cfg.alloc, AllocPolicy::Locality);
    EXPECT_EQ(cfg.resetLatency, 500);
    EXPECT_EQ(cfg.name, "M&R(500)");

    // Every invocation with ancilla resets them: reclaim count matches
    // the eager policy's, no uncompute gates are issued, and each reset
    // pays the latency (visible in the depth).
    const BenchmarkInfo &info = findBenchmark("ADDER4");
    Program prog = info.build();
    Machine m1 = Machine::nisqLattice(5, 5);
    CompileResult mr = compile(prog, m1, cfg, {});
    EXPECT_GT(mr.reclaimCount, 0);
    EXPECT_EQ(mr.uncomputeIrGates, 0);
    EXPECT_GE(mr.depth, cfg.resetLatency);

    Machine m2 = Machine::nisqLattice(5, 5);
    CompileResult eager = compile(prog, m2, SquareConfig::eager(), {});
    EXPECT_EQ(mr.reclaimCount, eager.reclaimCount);
    EXPECT_GT(eager.uncomputeIrGates, 0);
}

TEST(PolicyConfig, ForcedFactoryAndScriptConsumption)
{
    SquareConfig cfg = SquareConfig::forced({true, false, true});
    EXPECT_EQ(cfg.reclaim, ReclaimPolicy::Forced);
    EXPECT_EQ(cfg.alloc, AllocPolicy::Locality);
    EXPECT_EQ(cfg.name, "FORCED");
    ASSERT_EQ(cfg.forcedDecisions.size(), 3u);
    EXPECT_TRUE(cfg.forcedDecisions[0]);
    EXPECT_FALSE(cfg.forcedDecisions[1]);
    EXPECT_TRUE(cfg.forcedDecisions[2]);

    const BenchmarkInfo &info = findBenchmark("ADDER4");
    Program prog = info.build();

    // All-keep script: identical to lazy reclamation under the same
    // (locality-aware) allocator, i.e. SQUARE(LAA only).
    Machine m1 = Machine::nisqLattice(5, 5);
    CompileResult keep = compile(prog, m1, SquareConfig::forced({}), {});
    EXPECT_EQ(keep.reclaimCount, 0);
    Machine m2 = Machine::nisqLattice(5, 5);
    CompileResult laa =
        compile(prog, m2, SquareConfig::squareLaaOnly(), {});
    EXPECT_EQ(keep.gates, laa.gates);
    EXPECT_EQ(keep.swaps, laa.swaps);
    EXPECT_EQ(keep.aqv, laa.aqv);
    EXPECT_EQ(keep.skipCount, laa.skipCount);

    // All-reclaim script: every Free point with garbage uncomputes.
    std::vector<bool> all_true(
        static_cast<size_t>(keep.skipCount), true);
    Machine m3 = Machine::nisqLattice(5, 5);
    CompileResult reclaim =
        compile(prog, m3, SquareConfig::forced(all_true), {});
    EXPECT_EQ(reclaim.skipCount, 0);
    EXPECT_GT(reclaim.reclaimCount, 0);
    EXPECT_GT(reclaim.uncomputeIrGates, 0);
}

} // namespace
} // namespace square
