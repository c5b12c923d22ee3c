/**
 * @file
 * Golden-value determinism regression for the compile hot path.
 *
 * The zero-allocation refactor (arena-backed executor, allocation-free
 * topology/routing iteration, lattice-specialized LAA sweep) must be
 * behavior-preserving: compilation is a deterministic function of
 * (program, machine, policy).  These tests pin the headline
 * CompileResult fields for the two largest workloads under all three
 * paper policies on the boundary-scale lattice machine, so any future
 * change to the allocator/router/scheduler stack that alters output is
 * caught immediately.  A second table pins the same workloads (plus
 * MUL32) on the FT braid machine, where the braid router's path and
 * stall choices set depth, AQV and the conflict count.
 *
 * The golden values were captured from the pre-refactor seed build and
 * verified bit-identical against the refactored hot path.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/hash.h"
#include "core/compiler.h"
#include "core/policy.h"
#include "workloads/registry.h"

namespace square {
namespace {

struct Golden
{
    const char *workload;
    const char *policy;
    int64_t gates;
    int64_t swaps;
    int qubitsUsed;
    int reclaimCount;
    int64_t aqv;
};

// Captured from the seed build (pre-refactor) at boundary scale.
const Golden kGoldens[] = {
    {"SHA2", "LAZY", 27140, 48687, 855, 0, 47242845},
    {"SHA2", "EAGER", 90892, 78230, 465, 137, 80170853},
    {"SHA2", "SQUARE", 27140, 39415, 791, 80, 38532394},
    {"SALSA20", "LAZY", 8832, 8485, 281, 0, 4252901},
    {"SALSA20", "EAGER", 17536, 7475, 87, 96, 3082684},
    {"SALSA20", "SQUARE", 8832, 5922, 200, 75, 2628073},
};

SquareConfig
policyByName(const std::string &name)
{
    if (name == "LAZY")
        return SquareConfig::lazy();
    if (name == "EAGER")
        return SquareConfig::eager();
    return SquareConfig::square();
}

TEST(Determinism, GoldenCompileResults)
{
    for (const Golden &g : kGoldens) {
        SCOPED_TRACE(std::string(g.workload) + "/" + g.policy);
        const BenchmarkInfo &info = findBenchmark(g.workload);
        Program prog = info.build();
        Machine m =
            Machine::nisqLattice(info.boundaryEdge, info.boundaryEdge);
        CompileResult r = compile(prog, m, policyByName(g.policy), {});
        EXPECT_EQ(r.gates, g.gates);
        EXPECT_EQ(r.swaps, g.swaps);
        EXPECT_EQ(r.qubitsUsed, g.qubitsUsed);
        EXPECT_EQ(r.reclaimCount, g.reclaimCount);
        EXPECT_EQ(r.aqv, g.aqv);
    }
}

struct FtGolden
{
    const char *workload;
    const char *policy;
    int64_t depth;
    int64_t aqv;
    int64_t gates;
    int64_t braids;
    int64_t braidConflicts;
    double avgBraidLength;
};

// Captured at boundary scale on FT braid machines before the braid
// router's occupancy rework; every braid decision feeds depth, AQV and
// the conflict count, so a changed route or stall shows here.
const FtGolden kFtGoldens[] = {
    {"SHA2", "LAZY", 43261, 24862021, 27140, 12672, 568, 36.065340909090907},
    {"SHA2", "EAGER", 224472, 74136748, 90892, 42304, 2056, 30.872730711043872},
    {"SHA2", "SQUARE", 43484, 23239807, 27140, 12672, 710, 32.694760101010104},
    {"SALSA20", "LAZY", 6636, 1124300, 8832, 4224, 171, 18.00284090909091},
    {"SALSA20", "EAGER", 56400, 3883158, 17536, 8320, 290, 12.874278846153846},
    {"SALSA20", "SQUARE", 6840, 955998, 8832, 4224, 156, 13.486268939393939},
    {"MUL32", "LAZY", 56108, 23138373, 26352, 11808, 492, 31.621273712737128},
    {"MUL32", "EAGER", 62289, 9043797, 34752, 15168, 682, 20.350210970464136},
    {"MUL32", "SQUARE", 59149, 8934575, 33102, 14508, 506, 16.220016542597186},
};

// FNV-1a over the start time of every scheduled gate of SALSA20/SQUARE
// on its FT machine, in trace order.
constexpr uint64_t kFtTraceStartDigest = 0x8c75afdf1359a9b3ull;

TEST(Determinism, GoldenFtCompileResults)
{
    for (const FtGolden &g : kFtGoldens) {
        SCOPED_TRACE(std::string(g.workload) + "/" + g.policy);
        const BenchmarkInfo &info = findBenchmark(g.workload);
        Program prog = info.build();
        Machine m = Machine::ftBraid(info.boundaryEdge, info.boundaryEdge);
        CompileOptions opts;
        const bool traced =
            std::string(g.workload) == "SALSA20" &&
            std::string(g.policy) == "SQUARE";
        opts.recordTrace = traced;
        CompileResult r = compile(prog, m, policyByName(g.policy), opts);
        EXPECT_EQ(r.depth, g.depth);
        EXPECT_EQ(r.aqv, g.aqv);
        EXPECT_EQ(r.gates, g.gates);
        EXPECT_EQ(r.sched.braids, g.braids);
        EXPECT_EQ(r.sched.braidConflicts, g.braidConflicts);
        EXPECT_DOUBLE_EQ(r.avgBraidLength, g.avgBraidLength);
        if (traced) {
            ASSERT_FALSE(r.trace.empty());
            Fnv1a h;
            for (const TimedGate &tg : r.trace)
                h.i64(tg.start);
            EXPECT_EQ(h.value(), kFtTraceStartDigest);
        }
    }
}

TEST(Determinism, RepeatedCompilesAreIdentical)
{
    const BenchmarkInfo &info = findBenchmark("SALSA20");
    Program prog = info.build();
    SquareConfig cfg = SquareConfig::square();

    Machine m1 =
        Machine::nisqLattice(info.boundaryEdge, info.boundaryEdge);
    CompileResult a = compile(prog, m1, cfg, {});
    Machine m2 =
        Machine::nisqLattice(info.boundaryEdge, info.boundaryEdge);
    CompileResult b = compile(prog, m2, cfg, {});

    EXPECT_EQ(a.gates, b.gates);
    EXPECT_EQ(a.swaps, b.swaps);
    EXPECT_EQ(a.depth, b.depth);
    EXPECT_EQ(a.aqv, b.aqv);
    EXPECT_EQ(a.qubitsUsed, b.qubitsUsed);
    EXPECT_EQ(a.reclaimCount, b.reclaimCount);
    EXPECT_EQ(a.skipCount, b.skipCount);
}

} // namespace
} // namespace square
