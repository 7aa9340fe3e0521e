/**
 * @file
 * Register allocator tests: persistent vs. temporary classes, spill
 * insertion under pressure, end-to-end correctness with tiny register
 * files, and output identical to a map-based reference allocator.
 */

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <sstream>
#include <unordered_map>

#include "harness/harness.hpp"
#include "rawcc/regalloc.hpp"

namespace raw {
namespace {

// ---- Reference allocator ------------------------------------------
// The hash-map and std::multimap linear scan the dense allocator
// replaced, kept verbatim as an oracle.  Its spill victim is the
// multimap's last element: the furthest end, and among equal ends the
// interval inserted last.

struct RefInterval
{
    ValueId value;
    int start;
    int end;
};

RegallocResult
reference_allocate_registers(
    const Function &fn, const std::vector<std::vector<VInstr>> &blocks,
    const std::vector<ValueId> &persistent, int num_regs)
{
    check(num_regs >= 8, "regalloc: too few registers");
    const int s0 = num_regs - 3, s1 = num_regs - 2, s2 = num_regs - 1;
    const int pool_size = num_regs - 3;

    RegallocResult out;
    out.blocks.resize(blocks.size());

    // ---- Persistent assignment by use count. ---------------------
    std::unordered_map<ValueId, int64_t> use_count;
    for (ValueId v : persistent)
        use_count[v] = 0;
    for (const auto &blk : blocks) {
        for (const VInstr &in : blk) {
            for (ValueId s : in.src)
                if (s != kNoValue && use_count.count(s))
                    use_count[s]++;
            if (in.dst != kNoValue && use_count.count(in.dst))
                use_count[in.dst]++;
        }
    }
    std::vector<ValueId> pers_sorted = persistent;
    std::sort(pers_sorted.begin(), pers_sorted.end(),
              [&](ValueId a, ValueId b) {
                  if (use_count[a] != use_count[b])
                      return use_count[a] > use_count[b];
                  return a < b;
              });
    // Keep at least 8 pool registers for temporaries.
    int max_pers = pool_size > 16 ? pool_size - 8 : pool_size / 2;
    std::unordered_map<ValueId, int> pers_reg;   // value -> phys
    std::unordered_map<ValueId, int> mem_slot;   // value -> spill slot
    int next_slot = 0;
    for (size_t i = 0; i < pers_sorted.size(); i++) {
        if (static_cast<int>(i) < max_pers)
            pers_reg[pers_sorted[i]] = static_cast<int>(i);
        else
            mem_slot[pers_sorted[i]] = next_slot++;
    }
    const int temp_base = std::min<int>(
        static_cast<int>(pers_sorted.size()), max_pers);
    const int n_temp_regs = pool_size - temp_base;
    check(n_temp_regs >= 1, "regalloc: no temp registers left");

    // ---- Per-block temporaries. ----------------------------------
    for (size_t b = 0; b < blocks.size(); b++) {
        const std::vector<VInstr> &code = blocks[b];

        std::unordered_map<ValueId, RefInterval> ivals;
        auto touch = [&](ValueId v, int pos) {
            if (v == kNoValue || v == kPortOperand ||
                pers_reg.count(v) || mem_slot.count(v))
                return;
            if (fn.values[v].is_var && use_count.count(v))
                return; // persistent handled above
            auto it = ivals.find(v);
            if (it == ivals.end())
                ivals[v] = {v, pos, pos};
            else
                it->second.end = pos;
        };
        for (size_t k = 0; k < code.size(); k++) {
            const VInstr &in = code[k];
            touch(in.src[0], static_cast<int>(k));
            touch(in.src[1], static_cast<int>(k));
            touch(in.dst, static_cast<int>(k));
        }

        std::vector<RefInterval> order;
        order.reserve(ivals.size());
        for (auto &kv : ivals)
            order.push_back(kv.second);
        std::sort(order.begin(), order.end(),
                  [](const RefInterval &a, const RefInterval &b) {
                      if (a.start != b.start)
                          return a.start < b.start;
                      return a.value < b.value;
                  });

        // Linear scan with furthest-end spilling.
        std::unordered_map<ValueId, int> temp_reg;
        std::unordered_map<ValueId, int> temp_slot;
        std::vector<int> free_regs;
        for (int r = n_temp_regs; r-- > 0;)
            free_regs.push_back(temp_base + r);
        // Active intervals sorted by end.
        std::multimap<int, ValueId> active;
        for (const RefInterval &iv : order) {
            while (!active.empty() &&
                   active.begin()->first < iv.start) {
                free_regs.push_back(temp_reg[active.begin()->second]);
                active.erase(active.begin());
            }
            if (!free_regs.empty()) {
                temp_reg[iv.value] = free_regs.back();
                free_regs.pop_back();
                active.insert({iv.end, iv.value});
                continue;
            }
            // Spill the interval with the furthest end.
            auto victim = std::prev(active.end());
            if (victim->first > iv.end) {
                ValueId vv = victim->second;
                temp_reg[iv.value] = temp_reg[vv];
                temp_reg.erase(vv);
                if (!temp_slot.count(vv))
                    temp_slot[vv] = next_slot++;
                active.erase(victim);
                active.insert({iv.end, iv.value});
            } else {
                if (!temp_slot.count(iv.value))
                    temp_slot[iv.value] = next_slot++;
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
        auto src_reg = [&](ValueId v, int scratch) -> int {
            if (v == kNoValue)
                return -1;
            if (v == kPortOperand)
                return kPortOperand;
            auto pr = pers_reg.find(v);
            if (pr != pers_reg.end())
                return pr->second;
            auto pm = mem_slot.find(v);
            if (pm != mem_slot.end()) {
                emit_spill_load(pm->second, scratch,
                                fn.values[v].type);
                return scratch;
            }
            auto tr = temp_reg.find(v);
            if (tr != temp_reg.end())
                return tr->second;
            auto ts = temp_slot.find(v);
            check(ts != temp_slot.end(),
                  "regalloc: use of unallocated value");
            emit_spill_load(ts->second, scratch, fn.values[v].type);
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
            } else if (pers_reg.count(d)) {
                p.dst = pers_reg[d];
            } else if (mem_slot.count(d)) {
                p.dst = s2;
                store_slot = mem_slot[d];
                store_type = fn.values[d].type;
            } else if (temp_reg.count(d)) {
                p.dst = temp_reg[d];
            } else {
                check(temp_slot.count(d) > 0,
                      "regalloc: def of unallocated value");
                p.dst = s2;
                store_slot = temp_slot[d];
                store_type = fn.values[d].type;
            }
            dst_code.push_back(p);
            if (store_slot >= 0)
                emit_spill_store(store_slot, s2, store_type);
        }
    }

    out.spill_slots = next_slot;
    return out;
}

bool
same_pinstr(const PInstr &a, const PInstr &b)
{
    return a.op == b.op && a.type == b.type && a.dst == b.dst &&
           a.src[0] == b.src[0] && a.src[1] == b.src[1] &&
           a.imm == b.imm && a.array == b.array &&
           a.target == b.target && a.print_seq == b.print_seq;
}

void
expect_same(const RegallocResult &got, const RegallocResult &want,
            const std::string &what)
{
    EXPECT_EQ(got.spill_slots, want.spill_slots) << what;
    EXPECT_EQ(got.spill_ops, want.spill_ops) << what;
    ASSERT_EQ(got.blocks.size(), want.blocks.size()) << what;
    for (size_t b = 0; b < got.blocks.size(); b++) {
        ASSERT_EQ(got.blocks[b].size(), want.blocks[b].size())
            << what << " block " << b;
        for (size_t k = 0; k < got.blocks[b].size(); k++)
            ASSERT_TRUE(same_pinstr(got.blocks[b][k], want.blocks[b][k]))
                << what << " block " << b << " instr " << k;
    }
}

TEST(Regalloc, NoSpillsWhenRegistersSuffice)
{
    Function fn;
    ValueId a = fn.new_value(Type::kI32, "a", true);
    std::vector<std::vector<VInstr>> blocks(1);
    VInstr c;
    c.op = Op::kConst;
    c.dst = a;
    c.imm = int_bits(5);
    blocks[0].push_back(c);
    VInstr h;
    h.op = Op::kHalt;
    blocks[0].push_back(h);
    RegallocScratch scratch;
    RegallocResult r = allocate_registers(fn, blocks, {a}, 32, scratch);
    EXPECT_EQ(r.spill_ops, 0);
    EXPECT_EQ(r.spill_slots, 0);
    EXPECT_EQ(r.blocks[0].size(), 2u);
}

TEST(Regalloc, TempPressureSpills)
{
    // 40 simultaneously-live temps cannot fit in 16 registers.
    Function fn;
    std::vector<std::vector<VInstr>> blocks(1);
    std::vector<ValueId> temps;
    for (int i = 0; i < 40; i++) {
        ValueId t = fn.new_value(Type::kI32);
        temps.push_back(t);
        VInstr c;
        c.op = Op::kConst;
        c.dst = t;
        c.imm = int_bits(i);
        blocks[0].push_back(c);
    }
    // Consume them all afterwards so every interval overlaps.
    ValueId acc = fn.new_value(Type::kI32);
    VInstr c0;
    c0.op = Op::kConst;
    c0.dst = acc;
    blocks[0].push_back(c0);
    for (ValueId t : temps) {
        ValueId next = fn.new_value(Type::kI32);
        VInstr add;
        add.op = Op::kAdd;
        add.dst = next;
        add.src[0] = acc;
        add.src[1] = t;
        blocks[0].push_back(add);
        acc = next;
    }
    VInstr h;
    h.op = Op::kHalt;
    blocks[0].push_back(h);

    RegallocScratch scratch;
    RegallocResult r = allocate_registers(fn, blocks, {}, 16, scratch);
    EXPECT_GT(r.spill_ops, 0);
    EXPECT_GT(r.spill_slots, 0);
    // Every physical register index stays within bounds.
    for (const PInstr &p : r.blocks[0]) {
        EXPECT_LT(p.dst, 16);
        EXPECT_LT(p.src[0], 16);
        EXPECT_LT(p.src[1], 16);
    }
}

TEST(Regalloc, ManyPersistentVarsGoMemoryResident)
{
    Function fn;
    std::vector<ValueId> vars;
    std::vector<std::vector<VInstr>> blocks(1);
    for (int i = 0; i < 60; i++) {
        ValueId v =
            fn.new_value(Type::kI32, "v" + std::to_string(i), true);
        vars.push_back(v);
        VInstr c;
        c.op = Op::kConst;
        c.dst = v;
        c.imm = int_bits(i);
        blocks[0].push_back(c);
    }
    VInstr h;
    h.op = Op::kHalt;
    blocks[0].push_back(h);
    RegallocScratch scratch;
    RegallocResult r = allocate_registers(fn, blocks, vars, 32, scratch);
    EXPECT_GT(r.spill_slots, 0) << "60 vars cannot all live in regs";
    EXPECT_GT(r.spill_ops, 0);
}

/** End-to-end pressure sweep: reduced register files still compute
 *  the right answer, just with more spill traffic. */
class RegisterSweep : public ::testing::TestWithParam<int>
{};

TEST_P(RegisterSweep, CorrectUnderPressure)
{
    int regs = GetParam();
    // Wide FP block with many live values.
    std::ostringstream src;
    src << "float A[24];\nint i;\n";
    src << "for (i = 0; i < 24; i = i + 1) { A[i] = (float)(i + 1); }\n";
    for (int k = 0; k < 12; k++)
        src << "float x" << k << ";\n"
            << "x" << k << " = A[" << k << "] * A[" << (k + 12)
            << "] + " << k << ".5;\n";
    src << "float s;\ns = 0.0;\n";
    for (int k = 0; k < 12; k++)
        src << "s = s + x" << k << ";\n";
    src << "print(s);\n";

    RunResult base = run_baseline(src.str());
    MachineConfig m = MachineConfig::base(4);
    m.num_registers = regs;
    CompilerOptions opts;
    RunResult par = run_rawcc(src.str(), m, "", opts);
    EXPECT_EQ(par.prints, base.prints) << regs << " registers";
    if (regs <= 12)
        EXPECT_GT(par.stats.spill_ops, 0);
}

INSTANTIATE_TEST_SUITE_P(Pressure, RegisterSweep,
                         ::testing::Values(10, 12, 16, 24, 32, 64));

TEST(Regalloc, InfRegEliminatesSpills)
{
    const BenchmarkProgram &prog = benchmark("fpppp-kernel");
    RunResult base32 = run_rawcc(prog.source, MachineConfig::base(1),
                                 prog.check_array);
    RunResult inf = run_rawcc(prog.source, MachineConfig::inf_reg(1),
                              prog.check_array);
    EXPECT_EQ(inf.stats.spill_ops, 0);
    EXPECT_EQ(inf.check_words, base32.check_words);
    EXPECT_LE(inf.cycles, base32.cycles)
        << "no register pressure can only help";
}

// Seeded random tile streams over temporaries, persistent variables
// and variables homed elsewhere (allocated as temporaries), with few
// registers so the linear scan spills.  Each block ends by consuming
// temporaries in pairs, so many intervals share an end.
TEST(Regalloc, MatchesReferenceOnRandomStreams)
{
    std::mt19937 rng(20261018);
    RegallocScratch scratch; // reused across trials, as across tiles
    int spilling = 0;
    for (int trial = 0; trial < 300; trial++) {
        Function fn;
        std::vector<ValueId> vars, temps, persistent;
        for (int i = static_cast<int>(rng() % 30); i-- > 0;) {
            ValueId v = fn.new_value(Type::kI32,
                                     "v" + std::to_string(i), true);
            vars.push_back(v);
            if (rng() % 4)
                persistent.push_back(v);
        }
        for (int i = 5 + static_cast<int>(rng() % 60); i-- > 0;)
            temps.push_back(
                fn.new_value(rng() % 2 ? Type::kI32 : Type::kF32));
        auto pick = [&]() -> ValueId {
            unsigned r = rng() % 16;
            if (r == 0)
                return kNoValue;
            if (r == 1)
                return kPortOperand;
            if (r < 4 && !vars.empty())
                return vars[rng() % vars.size()];
            return temps[rng() % temps.size()];
        };
        std::vector<std::vector<VInstr>> blocks(1 + rng() % 3);
        for (auto &blk : blocks) {
            for (int k = 1 + static_cast<int>(rng() % 80); k-- > 0;) {
                VInstr in;
                in.op = Op::kAdd;
                in.dst = pick();
                in.src[0] = pick();
                in.src[1] = pick();
                blk.push_back(in);
            }
            for (size_t k = 0; k + 1 < temps.size(); k += 2) {
                VInstr in;
                in.op = Op::kPrint;
                in.src[0] = temps[k];
                in.src[1] = temps[k + 1];
                blk.push_back(in);
            }
        }
        const int regs = 8 + static_cast<int>(rng() % 9);
        RegallocResult want =
            reference_allocate_registers(fn, blocks, persistent, regs);
        RegallocResult got =
            allocate_registers(fn, blocks, persistent, regs, scratch);
        expect_same(got, want, "trial " + std::to_string(trial));
        if (want.spill_ops > 0)
            spilling++;
    }
    EXPECT_GT(spilling, 200) << "streams too easy to spill";
}

// Five temporaries fill the five temp registers of an 8-register
// tile; t3 and t4 both end at the last instruction.  A sixth, short
// interval must evict the last-inserted of the furthest ends: t4,
// not t3.
TEST(Regalloc, SpillVictimIsLastInsertedFurthestEnd)
{
    Function fn;
    std::vector<ValueId> t;
    std::vector<std::vector<VInstr>> blocks(1);
    for (int i = 0; i < 6; i++) {
        t.push_back(fn.new_value(Type::kI32));
        VInstr c;
        c.op = Op::kConst;
        c.dst = t[i];
        c.imm = int_bits(i);
        blocks[0].push_back(c);
    }
    auto print = [&](ValueId a, ValueId b) {
        VInstr p;
        p.op = Op::kPrint;
        p.src[0] = a;
        p.src[1] = b;
        blocks[0].push_back(p);
    };
    print(t[5], kNoValue);
    print(t[0], t[1]);
    print(t[2], kNoValue);
    print(t[3], t[4]);
    const int regs = 8, s1 = regs - 2, temp_regs = regs - 3;
    RegallocScratch scratch;
    RegallocResult r = allocate_registers(fn, blocks, {}, regs, scratch);
    expect_same(r, reference_allocate_registers(fn, blocks, {}, regs),
                "victim");
    EXPECT_EQ(r.spill_slots, 1);
    EXPECT_EQ(r.spill_ops, 2); // t4's store and its one reload
    const PInstr &last = r.blocks[0].back();
    ASSERT_EQ(last.op, Op::kPrint);
    EXPECT_LT(last.src[0], temp_regs) << "t3 keeps its register";
    EXPECT_EQ(last.src[1], s1) << "t4 is reloaded";
}

} // namespace
} // namespace raw
