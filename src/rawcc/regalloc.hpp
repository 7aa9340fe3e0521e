#ifndef RAW_RAWCC_REGALLOC_HPP
#define RAW_RAWCC_REGALLOC_HPP

/**
 * @file
 * Per-tile register allocator.
 *
 * Runs after event scheduling, mirroring the paper's phase order (and
 * its consequence: the scheduler exposes parallelism without regard
 * to register pressure, so wide schedules can spill — the fpppp
 * Section 6 effect).
 *
 * Two value classes exist on a tile:
 *  - *persistent* values (variables homed here, and replicated loop
 *    counters) live across blocks; the hottest get dedicated physical
 *    registers, the rest become memory-resident in the tile's spill
 *    region;
 *  - *temporaries* live within one block; linear scan with
 *    furthest-end spilling.
 *
 * Spill code (2-cycle reloads) is inserted into the stream; by the
 * static ordering property this never affects correctness, only time.
 */

#include <vector>

#include "ir/function.hpp"
#include "rawcc/orchestrater.hpp"
#include "sim/isa.hpp"
#include "support/stamped_table.hpp"

namespace raw {

/** Result of allocating one tile. */
struct RegallocResult
{
    /** blocks[b]: physical-register code of block b. */
    std::vector<std::vector<PInstr>> blocks;
    /** Spill slots used. */
    int spill_slots = 0;
    /** Number of spill loads/stores inserted. */
    int spill_ops = 0;
};

/**
 * Working tables of allocate_registers, dense over the function's
 * value ids.  One scratch serves every tile of a program (and every
 * block of a tile): reuse clears a table by bumping its epoch, so a
 * block costs no hashing and no allocation.  Not shared between
 * threads.
 */
struct RegallocScratch
{
    /** A persistent value's use count and home: register or slot. */
    struct Pers
    {
        int uses = 0;
        int reg = -1;
        int slot = -1;
    };
    /** A temporary's live interval in one block and its home. */
    struct Temp
    {
        int start = 0;
        int end = 0;
        int reg = -1;
        int slot = -1;
    };
    /** One interval of the linear scan's active set. */
    struct Active
    {
        int end;
        ValueId value;
    };

    StampedTable<Pers> pers; ///< per tile
    StampedTable<Temp> temp; ///< per block
    std::vector<ValueId> temps;
    std::vector<Active> active;
    std::vector<int> free_regs;
};

/**
 * Allocate registers for one tile's virtual code.
 *
 * @param fn         the function (value table)
 * @param blocks     per-block virtual instructions of this tile
 * @param persistent values register-resident across blocks here
 * @param num_regs   GPRs available on this tile
 * @param scratch    working tables, reusable across calls
 */
RegallocResult allocate_registers(
    const Function &fn,
    const std::vector<std::vector<VInstr>> &blocks,
    const std::vector<ValueId> &persistent, int num_regs,
    RegallocScratch &scratch);

} // namespace raw

#endif // RAW_RAWCC_REGALLOC_HPP
