#include "rawcc/regalloc.hpp"

#include <algorithm>
#include <utility>

#include "support/error.hpp"

namespace raw {

RegallocResult
allocate_registers(const Function &fn,
                   const std::vector<std::vector<VInstr>> &blocks,
                   const std::vector<ValueId> &persistent, int num_regs,
                   RegallocScratch &scratch)
{
    using Temp = RegallocScratch::Temp;
    using Active = RegallocScratch::Active;
    check(num_regs >= 8, "regalloc: too few registers");
    const int s0 = num_regs - 3, s1 = num_regs - 2, s2 = num_regs - 1;
    const int pool_size = num_regs - 3;

    RegallocResult out;
    out.blocks.resize(blocks.size());

    StampedTable<RegallocScratch::Pers> &pers = scratch.pers;
    StampedTable<Temp> &temp = scratch.temp;
    const size_t n_values = fn.values.size();
    pers.clear(n_values);

    // ---- Persistent assignment by use count. ---------------------
    for (ValueId v : persistent)
        pers.get(v);
    for (const auto &blk : blocks) {
        for (const VInstr &in : blk) {
            for (ValueId s : in.src)
                if (s >= 0 && pers.has(s))
                    pers.get(s).uses++;
            if (in.dst >= 0 && pers.has(in.dst))
                pers.get(in.dst).uses++;
        }
    }
    std::vector<ValueId> pers_sorted = persistent;
    std::sort(pers_sorted.begin(), pers_sorted.end(),
              [&](ValueId a, ValueId b) {
                  int ua = pers.at(a).uses, ub = pers.at(b).uses;
                  if (ua != ub)
                      return ua > ub;
                  return a < b;
              });
    // Keep at least 8 pool registers for temporaries.
    int max_pers = pool_size > 16 ? pool_size - 8 : pool_size / 2;
    int next_slot = 0;
    for (size_t i = 0; i < pers_sorted.size(); i++) {
        if (static_cast<int>(i) < max_pers)
            pers.get(pers_sorted[i]).reg = static_cast<int>(i);
        else
            pers.get(pers_sorted[i]).slot = next_slot++;
    }
    const int temp_base = std::min<int>(
        static_cast<int>(pers_sorted.size()), max_pers);
    const int n_temp_regs = pool_size - temp_base;
    check(n_temp_regs >= 1, "regalloc: no temp registers left");

    // ---- Per-block temporaries. ----------------------------------
    for (size_t b = 0; b < blocks.size(); b++) {
        const std::vector<VInstr> &code = blocks[b];

        temp.clear(n_values);
        std::vector<ValueId> &order = scratch.temps;
        order.clear();
        auto touch = [&](ValueId v, int pos) {
            if (v < 0 || pers.has(v))
                return; // no value, a port, or persistent
            if (!temp.has(v)) {
                temp.get(v) = {pos, pos, -1, -1};
                order.push_back(v);
            } else {
                temp.get(v).end = pos;
            }
        };
        for (size_t k = 0; k < code.size(); k++) {
            const VInstr &in = code[k];
            touch(in.src[0], static_cast<int>(k));
            touch(in.src[1], static_cast<int>(k));
            touch(in.dst, static_cast<int>(k));
        }
        std::sort(order.begin(), order.end(),
                  [&](ValueId a, ValueId b) {
                      int sa = temp.at(a).start, sb = temp.at(b).start;
                      if (sa != sb)
                          return sa < sb;
                      return a < b;
                  });

        // Linear scan with furthest-end spilling.  `active` is sorted
        // by end, equal ends in insertion order (a multimap's order):
        // expiry frees registers earliest-inserted first, and the
        // spill victim is the last-inserted of the furthest ends.
        std::vector<int> &free_regs = scratch.free_regs;
        free_regs.clear();
        for (int r = n_temp_regs; r-- > 0;)
            free_regs.push_back(temp_base + r);
        std::vector<Active> &active = scratch.active;
        active.clear();
        auto activate = [&](int end, ValueId v) {
            auto by_end = [](int e, const Active &a) { return e < a.end; };
            active.insert(std::upper_bound(active.begin(), active.end(),
                                           end, by_end),
                          {end, v});
        };
        for (ValueId v : order) {
            Temp &iv = temp.get(v);
            size_t expired = 0;
            while (expired < active.size() &&
                   active[expired].end < iv.start)
                free_regs.push_back(temp.at(active[expired++].value).reg);
            active.erase(active.begin(), active.begin() + expired);
            if (!free_regs.empty()) {
                iv.reg = free_regs.back();
                free_regs.pop_back();
                activate(iv.end, v);
                continue;
            }
            // Spill the interval with the furthest end.
            const Active victim = active.back();
            if (victim.end > iv.end) {
                Temp &vi = temp.get(victim.value);
                iv.reg = vi.reg;
                vi.reg = -1;
                vi.slot = next_slot++;
                active.pop_back();
                activate(iv.end, v);
            } else {
                iv.slot = next_slot++;
            }
        }

        // ---- Rewrite. --------------------------------------------
        std::vector<PInstr> &dst_code = out.blocks[b];
        auto emit_spill_load = [&](int slot, int scratch, Type ty) {
            PInstr l;
            l.op = Op::kLoad;
            l.type = ty;
            l.dst = scratch;
            l.array = kSpillArray;
            l.imm = static_cast<uint32_t>(slot);
            dst_code.push_back(l);
            out.spill_ops++;
        };
        auto emit_spill_store = [&](int slot, int scratch, Type ty) {
            PInstr st;
            st.op = Op::kStore;
            st.type = ty;
            st.src[1] = scratch;
            st.array = kSpillArray;
            st.imm = static_cast<uint32_t>(slot);
            dst_code.push_back(st);
            out.spill_ops++;
        };
        // Register (or -1) and spill slot (or -1) holding value v.
        auto home_of = [&](ValueId v, const char *what) {
            if (pers.has(v))
                return std::make_pair(pers.at(v).reg, pers.at(v).slot);
            check(temp.has(v) &&
                      (temp.at(v).reg >= 0 || temp.at(v).slot >= 0),
                  what);
            return std::make_pair(temp.at(v).reg, temp.at(v).slot);
        };
        auto src_reg = [&](ValueId v, int scratch) -> int {
            if (v == kNoValue)
                return -1;
            if (v == kPortOperand)
                return kPortOperand;
            auto [reg, slot] =
                home_of(v, "regalloc: use of unallocated value");
            if (reg >= 0)
                return reg;
            emit_spill_load(slot, scratch, fn.values[v].type);
            return scratch;
        };

        for (const VInstr &in : code) {
            PInstr p;
            p.op = in.op;
            p.type = in.type;
            p.imm = in.imm;
            p.array = in.array;
            p.print_seq = in.print_seq;
            p.target = in.target_block;
            p.src[0] = src_reg(in.src[0], s0);
            p.src[1] = src_reg(in.src[1], s1);

            ValueId d = in.dst;
            int store_slot = -1;
            Type store_type = Type::kI32;
            if (d == kNoValue) {
                p.dst = -1;
            } else if (d == kPortOperand) {
                p.dst = kPortOperand;
            } else {
                auto [reg, slot] =
                    home_of(d, "regalloc: def of unallocated value");
                if (reg >= 0) {
                    p.dst = reg;
                } else {
                    p.dst = s2;
                    store_slot = slot;
                    store_type = fn.values[d].type;
                }
            }
            dst_code.push_back(p);
            if (store_slot >= 0)
                emit_spill_store(store_slot, s2, store_type);
        }
    }

    out.spill_slots = next_slot;
    return out;
}

} // namespace raw
