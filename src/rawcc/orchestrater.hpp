#ifndef RAW_RAWCC_ORCHESTRATER_HPP
#define RAW_RAWCC_ORCHESTRATER_HPP

/**
 * @file
 * Basic block orchestrater (Section 3.3, Figure 5).
 *
 * Transforms each basic block of a renamed function into an
 * equivalent set of per-tile and per-switch instruction sequences:
 *
 *   task graph builder -> instruction partitioner -> data partitioner
 *     -> basic block stitcher -> communication code generator
 *     -> event scheduler
 *
 * The stitch code (home-to-consumer imports at block entry,
 * producer-to-home write-backs at block exit) is represented by
 * import nodes and write-back moves inside the task graph, so it is
 * scheduled together with all other communication rather than in
 * separate synchronizing phases, exactly as the paper describes.
 *
 * Control flow is orchestrated per block: branch conditions are
 * either control-replicated (counted loops) or multicast to every
 * processor and active switch over the static network.
 *
 * The output is a *virtual* program: instruction streams over value
 * ids, consumed by the register allocator and linker.
 */

#include <cstdint>
#include <map>
#include <vector>

#include "analysis/replication.hpp"
#include "ir/function.hpp"
#include "machine/machine.hpp"
#include "partition/partition.hpp"
#include "rawcc/data_partitioner.hpp"
#include "schedule/event_scheduler.hpp"
#include "sim/isa.hpp"

namespace raw {

/**
 * Modulo-scheduling outcome of one loop block (--modulo).  Collected
 * for every block on a CFG cycle; `pipelined` records whether the
 * modulo schedule beat the greedy fallback (schedule/modulo.hpp).
 */
struct BlockPipelineStats
{
    int block = -1;
    /** Source loop the block was lowered from (-1: none). */
    int src_loop = -1;
    bool pipelined = false;
    /** Modeled steady-state initiation interval of the emitted sched. */
    int64_t ii = 0;
    /** Lower bound max(res_mii, rec_mii, flat_mii). */
    int64_t mii = 0;
    int64_t res_mii = 0;
    int64_t rec_mii = 0;
    int64_t flat_mii = 0;
};

/** A processor instruction over value ids (pre register allocation). */
struct VInstr
{
    Op op = Op::kHalt;
    Type type = Type::kI32;
    ValueId dst = kNoValue;
    ValueId src[2] = {kNoValue, kNoValue};
    uint32_t imm = 0;
    int array = -1;
    int print_seq = -1;
    /** kBranch (true) / kJump target: block id, patched by the linker. */
    int target_block = -1;
};

/** Hit/miss counters of the block-schedule cache. */
struct SchedCacheCounters
{
    int64_t part_hits = 0;
    int64_t part_misses = 0;
    int64_t sched_hits = 0;
    int64_t sched_misses = 0;

    int64_t hits() const { return part_hits + sched_hits; }
    int64_t misses() const { return part_misses + sched_misses; }
    void add(const SchedCacheCounters &o);
};

/** Orchestration knobs (ablation switches included). */
struct OrchestraterOptions
{
    PartitionOptions partition;
    SchedOptions sched;
    /**
     * Worker threads for the per-block partition and schedule phases
     * (the `--jobs` contract: >= 1 verbatim, 0 = one per core).
     * Results are bit-identical at any value: blocks are independent,
     * all function mutation happens serially before the fan-out, and
     * cross-block merges run serially in block order afterwards.
     */
    int jobs = 1;
    /** Consult/fill the in-memory block-schedule cache. */
    bool use_cache = true;
    /** Disable control replication (every branch broadcasts). */
    bool enable_replication = true;
    /** Fold communication ports into instruction operands
     *  (Section 3.1; Figure 4's two-cycle effective overhead). */
    bool fold_ports = true;
    /**
     * Per-value home-tile override from a previous compilation
     * (usage-aware data partitioning; empty = round-robin).  Entries
     * of -1 fall back to round-robin.
     */
    std::vector<int> var_home_override;
};

/** The orchestrated program, pre register allocation. */
struct VirtualProgram
{
    /** tiles[t][b]: processor stream of block b on tile t. */
    std::vector<std::vector<std::vector<VInstr>>> tiles;
    /**
     * switches[t][b]: switch stream of block b on switch t; branch
     * targets in SInstr::target hold block ids until linking.
     */
    std::vector<std::vector<std::vector<SInstr>>> switches;
    /** Switches that carry any route (inactive ones stay empty). */
    std::vector<bool> switch_active;
    /** persistent[t]: values register-resident across blocks on t. */
    std::vector<std::vector<ValueId>> persistent;
    DataPartition data;
    int num_prints = 0;
    /** Scheduler makespan estimate per block (stats/benches). */
    std::vector<int64_t> block_makespan;
    /** Estimated issue slots per tile, summed over blocks. */
    std::vector<int64_t> est_tile_busy;
    /** Count of memory refs that fell back to the dynamic network. */
    int dynamic_refs = 0;
    /** Placement candidate swaps evaluated, summed over blocks. */
    int64_t placement_swaps = 0;
    /** Count of blocks whose branch was control-replicated. */
    int replicated_branches = 0;
    int broadcast_branches = 0;
    /**
     * Usage votes per variable: var_votes[v][tile] counts how often
     * v's value was produced or consumed on that tile.  Feed back via
     * OrchestraterOptions::var_home_override for the usage-aware data
     * partitioning the paper lists as future work.
     */
    std::map<ValueId, std::map<int, int>> var_votes;
    /**
     * Per-loop-block modulo-scheduling outcomes, in block order
     * (empty unless the sched options enable --modulo).
     */
    std::vector<BlockPipelineStats> block_pipeline;
    /** Block-schedule cache traffic of this orchestration. */
    SchedCacheCounters cache;
    /** Wall-clock of the parallel partition phase (ms). */
    double partition_phase_ms = 0;
    /** Wall-clock of the parallel schedule+emit phase (ms). */
    double schedule_phase_ms = 0;
};

/**
 * Orchestrate @p fn (renamed, folded) for @p machine.
 * @p fn is mutated: statically unanalyzable memory references are
 * rewritten to dynamic ones and fresh values are created for control
 * tails.
 */
VirtualProgram orchestrate(Function &fn, const MachineConfig &machine,
                           const OrchestraterOptions &opts);

} // namespace raw

#endif // RAW_RAWCC_ORCHESTRATER_HPP
