#ifndef RAW_RAWCC_SCHEDCACHE_HPP
#define RAW_RAWCC_SCHEDCACHE_HPP

/**
 * @file
 * Content-addressed block-schedule cache.
 *
 * RAWCC schedules each basic block independently (per-block task
 * graphs, partitions, placements, event schedules), so the result of
 * orchestrating one block is a pure function of (a) the block's
 * renamed instructions plus its control tail, (b) the per-block slice
 * of the global analyses — variable homes, liveness, replication,
 * switch-register binding, entry congruence facts, array bases — and
 * (c) the machine configuration and the scheduling-relevant compiler
 * options.  This module canonicalizes exactly those inputs into a
 * content-addressed key and caches the per-block outputs, so that
 * --pgo candidate races, smart-homes double compiles and repeated
 * runs reuse every block they don't actually change.
 *
 * Keys are *alpha-invariant*: value ids and array ids are renumbered
 * by first appearance inside the block, so renaming churn caused by
 * unrelated edits elsewhere in the program still hits.  Cached
 * streams are stored in the same canonical numbering and remapped
 * onto the hitting block's real ids on the way out, which is what
 * makes a hit bit-identical to a recompute.
 *
 * Two entry kinds per block, matching the two expensive pipeline
 * stages:
 *  - a *partition* entry (placement, usage votes, switch-activity
 *    probe), keyed by block content + partition options;
 *  - a *schedule* entry (the final per-tile / per-switch instruction
 *    streams of the block), keyed by the partition key + event
 *    scheduler options + the global switch-activity vector.
 *
 * One tier: a process-wide in-memory map, bounded (insertions stop at
 * the cap) and living exactly as long as the process, so an entry is
 * always produced by the code that reads it.  Entries are stored in
 * serialized form, one flat buffer per entry, parsed on hit: keeping
 * hundreds of thousands of structured entries (nested stream/route
 * vectors) resident degraded the allocator for the whole process.
 */

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/liveness.hpp"
#include "analysis/replication.hpp"
#include "analysis/taskgraph.hpp"
#include "rawcc/orchestrater.hpp"
#include "sim/isa.hpp"

namespace raw {

/**
 * Canonical per-block renumbering of value and array ids, in order of
 * first appearance over the block's instructions followed by its
 * control tail.  The forward vectors turn cached canonical streams
 * back into real ids; the inverse direction is served by sorted
 * (id, canon) vectors and binary search — blocks are looked up
 * thousands of times per compile, and hash maps here cost one node
 * allocation per distinct id, which dominated warm-cache compiles.
 */
struct BlockCanon
{
    std::vector<ValueId> canon_to_value;
    std::vector<int32_t> canon_to_array;
    /** (real id, canonical id), sorted by real id. */
    std::vector<std::pair<ValueId, int32_t>> value_lookup;
    std::vector<std::pair<int32_t, int32_t>> array_lookup;
    /** Global print_seq of the block's first kPrint (-1: none). */
    int print_base = -1;

    int32_t canon_value(ValueId v) const;
    ValueId value_of(int32_t canon) const;
    int32_t canon_array(int32_t a) const;
    int32_t array_of(int32_t canon) const;
    /** canon_value without the must-exist check (-1 when absent). */
    int32_t find_value(ValueId v) const;
};

/**
 * A content-addressed cache key: a 128-bit digest (two independent
 * FNV-1a streams over the canonical content).  At 128 bits an
 * accidental collision is negligible even across billions of
 * entries, and hashing/compare of multi-kilobyte canonical key
 * strings was the dominant cost of warm compiles.
 */
struct BlockKey
{
    uint64_t h1 = 0;
    uint64_t h2 = 0;
};

/** Cached result of the partition stage of one block. */
struct PartEntry
{
    /** Tile per task-graph node (canonical == real node order). */
    std::vector<int32_t> tile_of;
    int32_t cross_edges = 0;
    int64_t swaps_evaluated = 0;
    /**
     * Switches touched by the block's (broadcast-free) comm paths.
     * Computing this mask costs a full comm-routing pass, so it is
     * only filled when the compile actually consumes it (no
     * broadcast forcing every switch active); probe_valid records
     * whether it was.  An entry without it still serves compiles
     * that don't need it; one that does treats it as a miss and
     * re-puts the upgraded entry.
     */
    std::vector<uint8_t> probe_switch;
    bool probe_valid = false;
    /** Usage votes: (canonical var, tile, count). */
    std::vector<std::array<int64_t, 3>> votes;
};

/** Cached result of the scheduling + stream-emission stage. */
struct SchedEntry
{
    int64_t makespan = 0;
    std::vector<int64_t> tile_busy;
    /**
     * Modulo-scheduling outcome (BlockSchedule metadata): carrying it
     * in the payload keeps --stats and the quality benches identical
     * between cold and warm compiles.
     */
    uint8_t pipelined = 0;
    int64_t ii = 0;
    int64_t mii = 0;
    int64_t res_mii = 0;
    int64_t rec_mii = 0;
    int64_t flat_mii = 0;
    /**
     * Per-tile processor / switch streams in canonical form: value
     * and array ids canonicalized, print_seq relative to the block's
     * first print, branch targets replaced by terminator slots
     * (kTargetSlot0 / kTargetSlot1).
     */
    std::vector<std::vector<VInstr>> tiles;
    std::vector<std::vector<SInstr>> switches;
};

/** Sentinels for terminator-target slots inside cached streams. */
constexpr int32_t kTargetSlot0 = -2;
constexpr int32_t kTargetSlot1 = -3;

/**
 * Build the canonical renumbering of block @p b.  @p tail is the
 * block's control tail (cloned replicated instructions, fresh temps
 * included); @p pseq holds the block's global print tags per
 * instruction (-1: not a print).
 */
BlockCanon block_canon(const Function &fn, int b,
                       const std::vector<VInstr> &tail,
                       const std::vector<int> &pseq);

/**
 * Alpha-invariant content key of block @p b for the partition stage:
 * canonical instructions and control tail, per-value context (type,
 * home, replication, switch register, liveness), per-array context
 * (base, dynamic-pin residue), entry congruence facts, machine
 * configuration and partition options.  @p svreg_count is the total
 * number of bound switch registers (it fixes where switch-temp
 * recycling starts during emission).
 */
BlockKey block_partition_key(const Function &fn, int b,
                             const std::vector<VInstr> &tail,
                             const BlockCanon &canon,
                             const MachineConfig &machine,
                             const HomeMap &homes,
                             const ReplicationAnalysis &repl,
                             const VarLiveness &live,
                             const std::vector<int> &svreg_of,
                             int svreg_count,
                             const PartitionOptions &popts);

/**
 * Schedule-stage key: partition key + scheduler options + context.
 * The digest continues the partition key's streams.
 */
BlockKey block_schedule_key(const BlockKey &part_key,
                            const SchedOptions &sopts,
                            const std::vector<bool> &switch_active);

/**
 * Canonicalize freshly emitted block streams for insertion
 * (dehydrate).  @p term is the block's terminator (target slots);
 * @p sched supplies the makespan, busy estimate and pipeline stats.
 */
SchedEntry dehydrate_streams(const BlockCanon &canon, const Instr &term,
                             const BlockSchedule &sched,
                             const std::vector<std::vector<VInstr>> &tiles,
                             const std::vector<std::vector<SInstr>> &switches);

/**
 * Decode a cached schedule payload straight into the block's output
 * streams (ids remapped onto block @p b's real ids, print_seq
 * rebased, terminator slots resolved via @p term).  Fusing decode
 * and rehydration skips the intermediate SchedEntry — the hit path
 * runs once per block per compile, and the temporary's nested
 * vectors were most of its cost.  Returns false on a malformed
 * payload.
 */
bool rehydrate_sched_payload(const std::string &payload,
                             const BlockCanon &canon, const Instr &term,
                             int64_t &makespan,
                             std::vector<int64_t> &tile_busy,
                             BlockPipelineStats &pipe,
                             std::vector<std::vector<VInstr>> &tiles_out,
                             std::vector<std::vector<SInstr>> &switches_out);

/**
 * The process-wide cache.  All methods are thread-safe; identical
 * keys always carry identical payloads (outputs are deterministic
 * functions of the key), so concurrent insert races are benign.
 */
class SchedCache
{
  public:
    static SchedCache &instance();

    /**
     * Look up a partition / schedule entry; nullptr on miss.  @p c
     * accumulates hit/miss counters.  An entry whose switch-probe
     * mask is absent counts as a miss when @p need_probe is set.
     */
    std::shared_ptr<const PartEntry>
    get_part(const BlockKey &key, bool need_probe,
             SchedCacheCounters &c);
    /**
     * A schedule hit returns the serialized payload; callers feed it
     * to rehydrate_sched_payload, so a hit never materializes a
     * structured entry.
     */
    std::shared_ptr<const std::string>
    get_sched(const BlockKey &key, SchedCacheCounters &c);

    /** Insert an entry (first insert of a key wins). */
    void put_part(const BlockKey &key, const PartEntry &e);
    void put_sched(const BlockKey &key, const SchedEntry &e);

    /** Drop every entry. */
    void clear_memory();

    /** Approximate bytes held by the in-memory tier. */
    int64_t memory_bytes() const;

    /** Process-wide counters (sum over all compilations). */
    SchedCacheCounters totals() const;

  private:
    SchedCache() = default;
};

} // namespace raw

#endif // RAW_RAWCC_SCHEDCACHE_HPP
