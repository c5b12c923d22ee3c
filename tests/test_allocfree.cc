/**
 * @file
 * Counting-allocator regression for the zero-allocation hot path.
 *
 * Steady-state compilation must not heap-allocate per gate: topology
 * iteration, routing, scheduling, and the LAA candidate sweep all run
 * on reused member buffers, and Invocation records — including their
 * child-record and ancilla arrays — are trivially-destructible arena
 * slices.  What remains is one-time per-compilation setup (dominated
 * by ProgramAnalysis building the interaction sets, ~86% of the count
 * on SHA2, plus arena chunk growth and AQV event-vector doubling), so
 * the total is bound by program structure, not by issued gates.
 *
 * For scale: the pre-refactor seed performed ~4.8 heap allocations per
 * issued gate on SHA2 (321k total); with the arena-backed executor and
 * arena kid/ancilla lists the whole compile performs ~0.15 (9.7k).
 * The asserted bound of issued/5 keeps margin for stdlib growth-policy
 * differences while tripping immediately on any reintroduced per-gate
 * allocation (one vector per routed gate pushes the ratio above 1.0).
 *
 * This file replaces the global operator new/delete to count, so it
 * must not be linked into any other test binary.  It replaces the
 * nothrow forms too: std::stable_sort takes its temporary buffer from
 * new(n, std::nothrow) and returns it through the sized delete, so a
 * partial overload set pairs a sanitizer's new with this file's free()
 * (AddressSanitizer reports alloc-dealloc-mismatch) and leaves those
 * buffers uncounted.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/compiler.h"
#include "core/policy.h"
#include "workloads/registry.h"

namespace {
std::atomic<long> g_allocs{0};
std::atomic<bool> g_counting{false};
} // namespace

void *
operator new(std::size_t n)
{
    if (g_counting.load(std::memory_order_relaxed))
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    if (g_counting.load(std::memory_order_relaxed))
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n);
}

void *
operator new[](std::size_t n, const std::nothrow_t &tag) noexcept
{
    return ::operator new(n, tag);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace square {
namespace {

/** Allocations during one compile and the issued-gate count. */
std::pair<long, int64_t>
countCompile(const char *workload)
{
    const BenchmarkInfo &info = findBenchmark(workload);
    Program prog = info.build();
    Machine m =
        Machine::nisqLattice(info.boundaryEdge, info.boundaryEdge);
    g_allocs.store(0);
    g_counting.store(true);
    CompileResult r = compile(prog, m, SquareConfig::square(), {});
    g_counting.store(false);
    return {g_allocs.load(), r.gates + r.swaps};
}

TEST(AllocationFreedom, CompileAllocationsDoNotScaleWithGates)
{
    for (const char *workload : {"SALSA20", "SHA2"}) {
        SCOPED_TRACE(workload);
        auto [allocs, issued] = countCompile(workload);
        ASSERT_GT(issued, 0);
        // Per-gate allocation would push allocs past issued (ratio >= 1);
        // the per-compilation setup remainder sits under issued / 5.
        EXPECT_LT(allocs, issued / 5)
            << allocs << " heap allocations for " << issued
            << " issued gates";
    }
}

} // namespace
} // namespace square
