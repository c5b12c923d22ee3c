/**
 * @file
 * Unit tests for the swap router and the braid router.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

#include "common/hash.h"
#include "common/logging.h"

#include "route/braid_router.h"
#include "route/swap_router.h"

namespace square {
namespace {

TEST(SwapRouter, AdjacentNeedsNoSwaps)
{
    LatticeTopology topo(4, 4);
    Layout layout(16);
    SwapRouter router(topo, layout);
    LogicalQubit qa = layout.place(topo.siteAt(1, 1));
    layout.place(topo.siteAt(2, 1));
    PhysQubit a = topo.siteAt(1, 1);
    int swaps = router.makeAdjacent(a, topo.siteAt(2, 1),
                                    [](PhysQubit, PhysQubit) {});
    EXPECT_EQ(swaps, 0);
    EXPECT_EQ(layout.siteOf(qa), topo.siteAt(1, 1));
}

TEST(SwapRouter, MovesQubitAlongPath)
{
    LatticeTopology topo(6, 1);
    Layout layout(6);
    SwapRouter router(topo, layout);
    LogicalQubit qa = layout.place(0);
    LogicalQubit qb = layout.place(5);
    int emitted = 0;
    PhysQubit a = 0;
    int swaps = router.makeAdjacent(
        a, 5, [&](PhysQubit, PhysQubit) { ++emitted; });
    EXPECT_EQ(swaps, 4); // distance 5, stop adjacent
    EXPECT_EQ(emitted, 4);
    EXPECT_EQ(a, 4);
    EXPECT_EQ(layout.siteOf(qa), 4);
    EXPECT_EQ(layout.siteOf(qb), 5);
    EXPECT_EQ(router.totalSwaps(), 4);
}

TEST(SwapRouter, SwapsThroughOccupiedSites)
{
    LatticeTopology topo(4, 1);
    Layout layout(4);
    SwapRouter router(topo, layout);
    LogicalQubit qa = layout.place(0);
    LogicalQubit mid = layout.place(1);
    LogicalQubit qb = layout.place(3);
    PhysQubit a = 0;
    router.makeAdjacent(a, 3, [](PhysQubit, PhysQubit) {});
    EXPECT_EQ(layout.siteOf(qa), 2);
    // the in-between qubit was displaced to site 0 then stayed
    EXPECT_EQ(layout.siteOf(mid), 0);
    EXPECT_EQ(layout.siteOf(qb), 3);
}

TEST(SwapRouter, MoveToLandsExactly)
{
    LatticeTopology topo(5, 5);
    Layout layout(25);
    SwapRouter router(topo, layout);
    LogicalQubit q = layout.place(topo.siteAt(0, 0));
    PhysQubit a = topo.siteAt(0, 0);
    int swaps = router.moveTo(a, topo.siteAt(3, 2),
                              [](PhysQubit, PhysQubit) {});
    EXPECT_EQ(swaps, 5);
    EXPECT_EQ(a, topo.siteAt(3, 2));
    EXPECT_EQ(layout.siteOf(q), topo.siteAt(3, 2));
}

TEST(BraidRouter, ReservesAtReadyWhenFree)
{
    LatticeTopology topo(6, 6);
    BraidRouter router(topo);
    auto res = router.reserve(topo.siteAt(0, 0), topo.siteAt(4, 4),
                              /*ready=*/10, /*dur=*/2);
    EXPECT_EQ(res.start, 10);
    EXPECT_EQ(res.conflicts, 0);
    EXPECT_GT(res.pathCells, 0);
    EXPECT_EQ(router.totalBraids(), 1);
}

TEST(BraidRouter, NonOverlappingTimesNoConflict)
{
    LatticeTopology topo(6, 6);
    BraidRouter router(topo);
    auto r1 = router.reserve(topo.siteAt(0, 2), topo.siteAt(5, 2), 0, 2);
    // Same corridor but after r1 released.
    auto r2 = router.reserve(topo.siteAt(0, 2), topo.siteAt(5, 2), 2, 2);
    EXPECT_EQ(r1.conflicts, 0);
    EXPECT_EQ(r2.conflicts, 0);
    EXPECT_EQ(r2.start, 2);
}

TEST(BraidRouter, CrossingBraidsConflictOrDetour)
{
    LatticeTopology topo(8, 8);
    BraidRouter router(topo);
    // A long horizontal braid across row 2.
    auto r1 = router.reserve(topo.siteAt(0, 2), topo.siteAt(7, 2), 0, 4);
    EXPECT_EQ(r1.conflicts, 0);
    // A vertical braid crossing it in time: must detour or stall but
    // still complete.
    auto r2 = router.reserve(topo.siteAt(4, 0), topo.siteAt(4, 7), 0, 4);
    EXPECT_GE(r2.start, 0);
    // It either found a free route (possibly around) or waited.
    EXPECT_TRUE(r2.conflicts > 0 || r2.start >= 0);
    EXPECT_EQ(router.totalBraids(), 2);
}

TEST(BraidRouter, HeavyCongestionStillCompletes)
{
    LatticeTopology topo(4, 4);
    BraidRouter router(topo);
    int64_t max_start = 0;
    for (int i = 0; i < 200; ++i) {
        auto r = router.reserve(topo.siteAt(0, i % 4),
                                topo.siteAt(3, (i + 1) % 4), 0, 3);
        max_start = std::max(max_start, r.start);
    }
    EXPECT_EQ(router.totalBraids(), 200);
    // Congestion forces some braids to start late.
    EXPECT_GT(max_start, 0);
    EXPECT_GT(router.totalConflicts(), 0);
}

TEST(BraidRouter, AdjacentSitesStillBraid)
{
    LatticeTopology topo(4, 4);
    BraidRouter router(topo);
    auto r = router.reserve(topo.siteAt(1, 1), topo.siteAt(2, 1), 5, 2);
    EXPECT_EQ(r.start, 5);
    EXPECT_GT(r.pathCells, 0);
}

/** splitmix64: a fixed, platform-independent stream for the test. */
uint64_t
nextRandom(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

TEST(BraidRouter, SeededSequenceGolden)
{
    // A long seeded reservation stream on one congested lattice pins
    // every routing decision: which path is granted, when, and after how
    // many blocked attempts.  Ready times drift forward with jitter, so
    // they are not monotone; the two durations make short braids squeeze
    // between long ones; one reservation in eight joins adjacent sites.
    // ~6k braids over ~480 channel cells claim each cell far more than
    // the 8 times its occupancy ring holds, so the ring wraps.
    constexpr int kEdge = 12;
    constexpr int kReservations = 6000;
    LatticeTopology topo(kEdge, kEdge);
    BraidRouter router(topo);
    uint64_t rng = 0x5eed;
    auto pick = [&](int n) {
        return static_cast<int>(nextRandom(rng) % static_cast<uint64_t>(n));
    };

    Fnv1a digest;
    int adjacent = 0, earlier = 0, rerouted = 0, detours = 0, stalls = 0;
    int64_t prev_ready = 0;
    for (int i = 0; i < kReservations; ++i) {
        const int ax = pick(kEdge), ay = pick(kEdge);
        int bx = pick(kEdge), by = pick(kEdge);
        if (pick(8) == 0) {
            // An in-bounds neighbour of a.
            const int dir = pick(4);
            bx = ax + (dir == 0 ? 1 : dir == 1 ? -1 : 0);
            by = ay + (dir == 2 ? 1 : dir == 3 ? -1 : 0);
            if (bx < 0 || bx >= kEdge)
                bx = ax - (bx - ax);
            if (by < 0 || by >= kEdge)
                by = ay - (by - ay);
            ++adjacent;
        } else if (bx == ax && by == ay) {
            bx = (ax + 1 + pick(kEdge - 1)) % kEdge;
        }
        const int64_t ready = i / 8 + pick(24);
        const int dur = pick(4) == 0 ? 10 : 2;
        earlier += ready < prev_ready;
        prev_ready = ready;

        auto r = router.reserve(topo.siteAt(ax, ay), topo.siteAt(bx, by),
                                ready, dur);
        digest.i64(r.start);
        digest.i32(r.conflicts);
        digest.i32(r.pathCells);

        // Cell counts of the horizontal-first and vertical-first
        // L-paths; a longer granted path is a BFS detour.
        const int l_h = 1 + std::abs(2 * bx - 2 * ax - 1) +
                        std::abs(2 * by + 1 - 2 * ay);
        const int l_v = 1 + std::abs(2 * by - 2 * ay - 1) +
                        std::abs(2 * bx + 1 - 2 * ax);
        rerouted += r.conflicts > 0 && r.start == ready;
        detours += r.pathCells > std::max(l_h, l_v);
        stalls += r.start > ready;
    }
    // The stream reaches every branch of reserve().
    EXPECT_GT(adjacent, 0);
    EXPECT_GT(earlier, 0);
    EXPECT_GT(rerouted, 0);
    EXPECT_GT(detours, 0);
    EXPECT_GT(stalls, 0);

    EXPECT_EQ(router.totalBraids(), kReservations);
    EXPECT_EQ(router.totalConflicts(), 18187);
    EXPECT_EQ(router.totalPathCells(), 106856);
    EXPECT_EQ(digest.value(), 0x80e5ed14d4e17087ull);
}

} // namespace
} // namespace square
