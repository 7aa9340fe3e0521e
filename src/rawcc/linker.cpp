#include "rawcc/linker.hpp"

#include "rawcc/regalloc.hpp"
#include "support/error.hpp"

namespace raw {

CompiledProgram
link_program(const Function &fn, VirtualProgram &vp,
             const MachineConfig &machine, LinkStats *stats)
{
    const int n_tiles = machine.n_tiles;
    const int n_blocks = static_cast<int>(fn.blocks.size());

    CompiledProgram cp;
    cp.machine = machine;
    cp.arrays = vp.data.arrays;
    cp.total_words = vp.data.total_words;
    cp.num_prints = vp.num_prints;
    cp.spill_slots.assign(n_tiles, 0);
    cp.tiles.resize(n_tiles);
    cp.switches.resize(n_tiles);

    RegallocScratch scratch; // one set of tables for every tile
    for (int t = 0; t < n_tiles; t++) {
        RegallocResult ra =
            allocate_registers(fn, vp.tiles[t], vp.persistent[t],
                               machine.num_registers, scratch);
        cp.spill_slots[t] = ra.spill_slots;
        if (stats) {
            stats->spill_ops += ra.spill_ops;
            stats->total_spill_slots += ra.spill_slots;
        }

        // Decide trailing-jump elimination and block start offsets.
        std::vector<int64_t> start(n_blocks + 1, 0);
        std::vector<bool> drop(n_blocks, false);
        int64_t off = 0;
        for (int b = 0; b < n_blocks; b++) {
            start[b] = off;
            const auto &code = ra.blocks[b];
            size_t sz = code.size();
            if (!code.empty() && code.back().op == Op::kJump &&
                code.back().target == b + 1) {
                drop[b] = true;
                sz--;
            }
            off += static_cast<int64_t>(sz);
        }
        start[n_blocks] = off;

        TileProgram &tp = cp.tiles[t];
        tp.code.reserve(off);
        for (int b = 0; b < n_blocks; b++) {
            const auto &code = ra.blocks[b];
            size_t n = code.size() - (drop[b] ? 1 : 0);
            for (size_t k = 0; k < n; k++) {
                PInstr p = code[k];
                if (p.op == Op::kJump || p.op == Op::kBranch) {
                    check(p.target >= 0 && p.target < n_blocks,
                          "linker: bad processor branch target");
                    p.target = start[p.target];
                }
                tp.code.push_back(p);
            }
        }
    }

    for (int t = 0; t < n_tiles; t++) {
        if (!vp.switch_active[t])
            continue;
        std::vector<int64_t> start(n_blocks + 1, 0);
        std::vector<bool> drop(n_blocks, false);
        int64_t off = 0;
        for (int b = 0; b < n_blocks; b++) {
            start[b] = off;
            const auto &code = vp.switches[t][b];
            size_t sz = code.size();
            if (!code.empty() && code.back().k == SInstr::K::kJump &&
                code.back().target == b + 1) {
                drop[b] = true;
                sz--;
            }
            off += static_cast<int64_t>(sz);
        }
        start[n_blocks] = off;

        SwitchProgram &sp = cp.switches[t];
        sp.code.reserve(off);
        for (int b = 0; b < n_blocks; b++) {
            const auto &code = vp.switches[t][b];
            size_t n = code.size() - (drop[b] ? 1 : 0);
            for (size_t k = 0; k < n; k++) {
                SInstr s = code[k];
                if (s.k == SInstr::K::kJump ||
                    s.k == SInstr::K::kBnez) {
                    check(s.target >= 0 && s.target < n_blocks,
                          "linker: bad switch branch target");
                    s.target = start[s.target];
                }
                sp.code.push_back(std::move(s));
            }
        }
    }
    return cp;
}

} // namespace raw
