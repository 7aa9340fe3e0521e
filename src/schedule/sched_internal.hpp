#ifndef RAW_SCHEDULE_SCHED_INTERNAL_HPP
#define RAW_SCHEDULE_SCHED_INTERNAL_HPP

/**
 * @file
 * Internals shared by the block schedulers.
 *
 * The greedy list scheduler (event_scheduler.cpp) and the cross-tile
 * modulo scheduler (modulo.cpp) both operate on the same
 * task-graph-plus-comm-paths model: identical dependence bookkeeping,
 * identical priority computation, identical per-switch reservation
 * state.  This header factors those pieces out so the two schedulers
 * cannot drift on the resource model — a schedule either of them
 * accepts reserves processor slots and switch ports under exactly the
 * same rules.
 */

#include <cstdint>
#include <vector>

#include "schedule/comm.hpp"

namespace raw {
namespace sched {

/** Per-switch, per-cycle reservation state. */
struct SwRes
{
    uint8_t in_used = 0;  // bitmask over Dir
    uint8_t out_used = 0; // bitmask over Dir
    bool reg_used = false;

    /** True when every port @p h needs is still free this cycle. */
    bool admits(const TreeHop &h) const
    {
        uint8_t in_bit =
            static_cast<uint8_t>(1u << static_cast<int>(h.in));
        return !(in_used & in_bit) && !(out_used & h.out_mask) &&
               !(h.to_reg && reg_used);
    }
    /** Reserve the ports @p h needs this cycle. */
    void take(const TreeHop &h)
    {
        in_used |= static_cast<uint8_t>(1u << static_cast<int>(h.in));
        out_used |= h.out_mask;
        reg_used = reg_used || h.to_reg;
    }
};

/**
 * Switch reservations of one block schedule: a dense SwRes row per
 * tile, indexed by cycle and grown on demand, the scheme the
 * processor-slot bitmaps use.  The slot searches probe every route
 * hop at every candidate cycle, so a probe is an array index rather
 * than a tree lookup.
 */
class SwitchTable
{
  public:
    explicit SwitchTable(int n_tiles) : rows_(n_tiles) {}

    /** True when hop @p h can cross its switch at @p cycle. */
    bool admits(const TreeHop &h, int64_t cycle) const
    {
        const std::vector<SwRes> &row = rows_[h.tile];
        return cycle >= static_cast<int64_t>(row.size()) ||
               row[cycle].admits(h);
    }
    /** First cycle >= @p cycle at which hop @p h can cross. */
    int64_t next_free(const TreeHop &h, int64_t cycle) const
    {
        const std::vector<SwRes> &row = rows_[h.tile];
        while (cycle < static_cast<int64_t>(row.size()) &&
               !row[cycle].admits(h))
            cycle++;
        return cycle;
    }
    /** Reserve hop @p h's ports at @p cycle. */
    void take(const TreeHop &h, int64_t cycle)
    {
        std::vector<SwRes> &row = rows_[h.tile];
        if (cycle >= static_cast<int64_t>(row.size()))
            row.resize(cycle + 1);
        row[cycle].take(h);
    }

  private:
    std::vector<std::vector<SwRes>> rows_;
};

/** Priorities: level (critical path) and clamped fertility. */
struct Priorities
{
    std::vector<int64_t> level;
    std::vector<int64_t> fert;
};

/** Topological order of the task graph (panics on a cycle). */
std::vector<int> topo_order(const TaskGraph &g);

Priorities compute_priorities(const TaskGraph &g, const Partition &part,
                              const MachineConfig &m);

/** Dependence bookkeeping shared by every scheduling pass. */
struct DepInfo
{
    /** node -> paths it sources (usually <= 2: data + bcast). */
    std::vector<std::vector<int>> paths_of_node;
    /** Node's non-broadcast (value-carrying) path, or -1. */
    std::vector<int> data_path_of_node;
    /** Initial unsatisfied-dependence count per node. */
    std::vector<int> deps_init;
    std::vector<std::vector<int>> node_waiters; // node -> nodes
    std::vector<std::vector<int>> path_waiters; // path -> nodes
    std::vector<std::vector<int>> in_edges;     // node -> edge ids
};

DepInfo build_deps(const TaskGraph &g, const Partition &part,
                   const std::vector<CommPath> &paths);

} // namespace sched
} // namespace raw

#endif // RAW_SCHEDULE_SCHED_INTERNAL_HPP
