/**
 * @file
 * Fault-tolerant communication: braid-space routing.
 *
 * Surface-code logical qubits occupy tiles on a 2-D grid; the space
 * between tiles forms routing channels.  A logical CNOT claims a braid:
 * a path through the channels connecting the two operand tiles, held for
 * a fixed braid window.  Braids may extend to any length in constant
 * time but may NOT cross an active braid (Sec. II-C1), so congestion -
 * not distance - is the communication cost.  The router:
 *
 *  1. tries the two L-shaped channel paths between the operands;
 *  2. falls back to a BFS through free channel cells;
 *  3. when no route exists, stalls the gate until the latest-ending
 *     braid that blocks either L-path releases its cells.
 *
 * Each attempt whose horizontal-first L-path is blocked counts one
 * conflict, whether the vertical L-path, the BFS or a stall follows.
 *
 * The conflicts-per-gate ratio is the S communication factor CER uses
 * on FT machines (Sec. IV-D).
 *
 * Geometry: a site (x, y) of a W x H lattice maps to cell
 * (2x+1, 2y+1) of a (2W+1) x (2H+1) cell grid; cells with an even
 * coordinate are channels.
 *
 * reserve() is on the per-gate hot path; the candidate-path and BFS
 * buffers are reused members so steady-state routing is allocation-free.
 * Most occupancy checks land on a cell whose every claim has already
 * ended, so a dense per-cell "latest end" summary answers them without
 * touching the cell's ring; the ring test itself is a fixed-width OR
 * with no data-dependent branch.  Work only the stall path needs (the
 * release time) or that the common case never reaches (the
 * vertical-first L-path) is deferred until it is needed.
 */

#ifndef SQUARE_ROUTE_BRAID_ROUTER_H
#define SQUARE_ROUTE_BRAID_ROUTER_H

#include <cstdint>
#include <vector>

#include "arch/topology.h"

namespace square {

/** Routes braids through the channel grid of an FT machine. */
class BraidRouter
{
  public:
    /** Outcome of one braid reservation. */
    struct Reservation
    {
        int64_t start = 0;  ///< time the braid window begins
        int conflicts = 0;  ///< blocked attempts before success
        int pathCells = 0;  ///< channel cells claimed
    };

    explicit BraidRouter(const LatticeTopology &topo);

    /**
     * Reserve a braid between sites @p a and @p b starting no earlier
     * than @p ready, holding its path for @p dur cycles.
     */
    Reservation reserve(PhysQubit a, PhysQubit b, int64_t ready, int dur);

    /** Total conflicts (blocked attempts) across all reservations. */
    int64_t totalConflicts() const { return total_conflicts_; }

    /** Total braids routed. */
    int64_t totalBraids() const { return total_braids_; }

    /** Sum of claimed path lengths (for average braid length stats). */
    int64_t totalPathCells() const { return total_path_cells_; }

  private:
    /**
     * Fixed-capacity ring of recent reservations [start, end) on one
     * channel cell.  Reservations start at t >= 0 and last dur > 0
     * cycles, so end == 0 marks a slot never written.
     */
    struct CellOccupancy
    {
        static constexpr int kCapacity = 8;
        int64_t starts[kCapacity] = {};
        int64_t ends[kCapacity] = {}; // exclusive; 0 = empty slot
        int head = 0;

        void
        add(int64_t start, int64_t end)
        {
            starts[head] = start;
            ends[head] = end;
            head = (head + 1) % kCapacity;
        }

        /** True when [t, t+dur) overlaps a recorded reservation. */
        bool
        overlaps(int64_t t, int dur) const
        {
            const int64_t end = t + dur;
            bool hit = false;
            for (int i = 0; i < kCapacity; ++i)
                hit |= (starts[i] < end) & (t < ends[i]);
            return hit;
        }

        /**
         * Raise @p release to the end of every recorded reservation
         * overlapping [t, t+dur).
         */
        void busyUntil(int64_t t, int dur, int64_t &release) const;
    };

    int cellId(int cx, int cy) const { return cy * cells_w_ + cx; }
    bool isChannel(int cx, int cy) const { return cx % 2 == 0 || cy % 2 == 0; }

    /**
     * L-shaped channel path, horizontal-first or vertical-first,
     * written into @p out (replacing its contents).
     */
    void directPathInto(PhysQubit a, PhysQubit b, bool horizontal_first,
                        std::vector<int> &out) const;

    /**
     * BFS through channel cells free during [t, t+dur), written into
     * @p out; leaves @p out empty when no route exists.
     */
    void searchPathInto(PhysQubit a, PhysQubit b, int64_t t, int dur,
                        std::vector<int> &out);

    /** True when cell @p id is free during [t, t+dur). */
    bool
    cellFree(int id, int64_t t, int dur) const
    {
        const auto i = static_cast<size_t>(id);
        return t >= max_end_[i] || !cells_[i].overlaps(t, dur);
    }

    /** True when every cell of @p path is free during [t, t+dur). */
    bool pathFree(const std::vector<int> &path, int64_t t, int dur) const;

    /**
     * Raise @p release to the latest end among the reservations that
     * block @p path during [t, t+dur).
     */
    void pathRelease(const std::vector<int> &path, int64_t t, int dur,
                     int64_t &release) const;

    void claim(const std::vector<int> &path, int64_t t, int dur);

    const LatticeTopology &topo_;
    int cells_w_;
    int cells_h_;
    std::vector<CellOccupancy> cells_;
    std::vector<int64_t> max_end_;  // latest end ever claimed per cell
    std::vector<int64_t> bfs_mark_; // visit stamps for searchPathInto
    std::vector<int> bfs_parent_;
    std::vector<int> bfs_queue_;    // reused BFS frontier storage
    std::vector<int> path_h_;       // reused horizontal-first L-path
    std::vector<int> path_v_;       // reused vertical-first L-path
    std::vector<int> path_scratch_; // reused BFS result path
    int64_t bfs_stamp_ = 0;
    int64_t total_conflicts_ = 0;
    int64_t total_braids_ = 0;
    int64_t total_path_cells_ = 0;
};

} // namespace square

#endif // SQUARE_ROUTE_BRAID_ROUTER_H
