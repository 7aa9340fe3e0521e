/**
 * @file
 * Schedule-quality optimizer tests (SchedOptions::sched_iters,
 * SchedOptions::route_select, CompilerOptions::pgo):
 *
 *  - best-of-N rescheduling never produces a longer block schedule
 *    than the single greedy pass, on randomized task graphs over
 *    2/4/16-tile meshes;
 *  - YX-ordered route trees satisfy the same prefix-consistency
 *    invariants as XY trees (build_route_tree's internal checks) and
 *    agree on depths, so swapping the dimension order never changes
 *    a path's latency, only its transit switches;
 *  - optimized schedules stay structurally valid (slot exclusivity,
 *    end-to-end contiguous paths under whichever tree was chosen);
 *  - the scheduler's estimated block length tracks the simulator's
 *    achieved fault-free length on straight-line programs;
 *  - fifo_priority mode orders node and path tasks by one global
 *    ready sequence (imports complete eagerly), pinned by value;
 *  - --pgo (measured best-of portfolio) never loses cycles and never
 *    changes program semantics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "analysis/liveness.hpp"
#include "analysis/replication.hpp"
#include "analysis/taskgraph.hpp"
#include "frontend/lower.hpp"
#include "frontend/parser.hpp"
#include "harness/harness.hpp"
#include "schedule/event_scheduler.hpp"
#include "sim/profile.hpp"
#include "transform/congruence.hpp"
#include "transform/constfold.hpp"
#include "transform/rename.hpp"

namespace raw {
namespace {

// Same harness as test_schedule.cpp: lower, fold, rename, analyze,
// round-robin homes, build the task graph for one block, partition,
// derive paths, schedule with the given options.
struct Ctx
{
    Function fn;
    std::unique_ptr<ReplicationAnalysis> repl;
    std::unique_ptr<VarLiveness> live;
    HomeMap homes;
    std::unique_ptr<TaskGraph> graph;
    Partition part;
    std::vector<CommPath> paths;
    BlockSchedule sched;
    MachineConfig machine;
};

Ctx
schedule(const std::string &src, int n_tiles, const SchedOptions &so)
{
    Ctx c;
    c.fn = lower_program(parse_program(src));
    constfold_function(c.fn);
    rename_function(c.fn);
    c.repl = std::make_unique<ReplicationAnalysis>(c.fn, 8, 12, true);
    c.live = std::make_unique<VarLiveness>(c.fn);
    c.homes.n_tiles = n_tiles;
    c.homes.var_home.assign(c.fn.values.size(), 0);
    int next = 0;
    for (ValueId v : c.fn.var_ids())
        if (!c.repl->var_replicated(v)) {
            c.homes.var_home[v] = next;
            next = (next + 1) % n_tiles;
        }
    int64_t off = 0;
    for (const ArrayInfo &a : c.fn.arrays) {
        c.homes.array_base.push_back(off);
        off += a.size();
    }
    c.machine = MachineConfig::base(n_tiles);
    CongruenceMap cong(c.fn, 0);
    c.graph = std::make_unique<TaskGraph>(c.fn, 0, c.machine, cong,
                                          *c.repl, *c.live, c.homes);
    c.part = partition_taskgraph(*c.graph, c.machine,
                                 PartitionOptions{});
    c.paths = build_comm_paths(*c.graph, c.part, c.machine, -1, {});
    c.sched =
        schedule_block(*c.graph, c.part, c.machine, c.paths, so);
    return c;
}

const char *kSpread = R"(
float A[8];
float B[8];
A[0] = 1.0; A[1] = 2.0; A[2] = 3.0; A[3] = 4.0;
A[4] = 5.0; A[5] = 6.0; A[6] = 7.0; A[7] = 8.0;
B[0] = A[0] * A[1] + A[2];
B[1] = A[3] * A[4] + A[5];
B[2] = A[6] * A[7] + A[0];
B[3] = A[1] + A[4] + A[7];
)";

/**
 * Deterministic pseudo-random straight-line program: @p k statements
 * mixing wide independent expressions with occasional chains through
 * earlier results, so the task graph has both breadth (many ready
 * tasks competing for slots) and depth (critical paths crossing
 * tiles).  Pure LCG so every run sees the same graphs.
 */
std::string
random_program(uint32_t seed, int k)
{
    uint32_t s = seed * 2654435761u + 1u;
    auto rnd = [&s](int m) {
        s = s * 1664525u + 1013904223u;
        return static_cast<int>((s >> 16) % m);
    };
    std::string src = "float A[16];\nfloat B[32];\n";
    for (int i = 0; i < 16; i++)
        src += "A[" + std::to_string(i) + "] = " +
               std::to_string(i + 1) + ".0;\n";
    for (int i = 0; i < k; i++) {
        std::string lhs = "B[" + std::to_string(i % 32) + "]";
        auto operand = [&]() -> std::string {
            if (i > 0 && rnd(4) == 0) // chain through an earlier B
                return "B[" + std::to_string(rnd(std::min(i, 32))) +
                       "]";
            return "A[" + std::to_string(rnd(16)) + "]";
        };
        const char *op1 = rnd(2) ? " * " : " + ";
        const char *op2 = rnd(2) ? " + " : " - ";
        src += lhs + " = " + operand() + op1 + operand() + op2 +
               operand() + ";\n";
    }
    return src;
}

// ---------------------------------------------------------------
// (a) Best-of-N never longer than the single greedy pass.

TEST(BestOfN, NeverLongerThanSinglePass)
{
    std::vector<std::string> programs = {kSpread};
    for (uint32_t seed : {1u, 2u, 3u, 4u})
        programs.push_back(random_program(seed, 24));
    for (const std::string &src : programs) {
        for (int n : {2, 4, 16}) {
            int64_t base =
                schedule(src, n, SchedOptions{}).sched.makespan;
            SchedOptions iters;
            iters.sched_iters = 3;
            SchedOptions route;
            route.route_select = true;
            SchedOptions both;
            both.sched_iters = 3;
            both.route_select = true;
            EXPECT_LE(schedule(src, n, iters).sched.makespan, base)
                << "sched_iters regressed, n=" << n;
            EXPECT_LE(schedule(src, n, route).sched.makespan, base)
                << "route_select regressed, n=" << n;
            EXPECT_LE(schedule(src, n, both).sched.makespan, base)
                << "combined flags regressed, n=" << n;
        }
    }
}

// ---------------------------------------------------------------
// (b) YX route trees: same invariants and depths as XY.

TEST(RouteTreeYX, DimensionOrderYThenX)
{
    MachineConfig m = MachineConfig::base(16); // 4x4
    CommPath p;
    p.src_tile = 0;
    p.dests = {{10, true, false}}; // row 2, col 2
    RouteTree t = build_route_tree(m, p, RouteOrder::kYX);
    // Path: 0 ->S 4 ->S 8 ->E 9 ->E 10 (rows first, then columns).
    std::map<int, Dir> in_of;
    for (const TreeHop &h : t.hops)
        in_of[h.tile] = h.in;
    ASSERT_TRUE(in_of.count(4));
    ASSERT_TRUE(in_of.count(8));
    ASSERT_TRUE(in_of.count(9));
    ASSERT_TRUE(in_of.count(10));
    EXPECT_EQ(in_of[4], Dir::kNorth);
    EXPECT_EQ(in_of[8], Dir::kNorth);
    EXPECT_EQ(in_of[9], Dir::kWest);
    EXPECT_EQ(in_of[10], Dir::kWest);
    EXPECT_EQ(t.max_depth, 4);
}

TEST(RouteTreeYX, SameDepthsAsXYOnDerivedPaths)
{
    // Every path a real block derives must build a YX tree that
    // passes build_route_tree's internal prefix-consistency checks
    // (they panic on violation) and deliver to the same destinations
    // at the same depths as the XY tree — the Manhattan distance
    // does not depend on the dimension order.
    for (uint32_t seed : {1u, 2u, 3u}) {
        Ctx c = schedule(random_program(seed, 24), 16,
                         SchedOptions{});
        for (const CommPath &p : c.paths) {
            RouteTree xy = build_route_tree(c.machine, p);
            RouteTree yx =
                build_route_tree(c.machine, p, RouteOrder::kYX);
            EXPECT_EQ(xy.max_depth, yx.max_depth);
            auto xr = xy.proc_recvs, yr = yx.proc_recvs;
            std::sort(xr.begin(), xr.end());
            std::sort(yr.begin(), yr.end());
            EXPECT_EQ(xr, yr) << "delivery set/depth differs";
            EXPECT_EQ(xy.hops.size(), yx.hops.size())
                << "single-dest trees reserve equal slot counts";
        }
    }
}

// ---------------------------------------------------------------
// Optimized schedules keep the structural guarantees of the seed
// scheduler: exclusive slots, contiguous end-to-end paths (under
// whichever route tree the pass committed).

TEST(BestOfN, OptimizedScheduleStructurallyValid)
{
    SchedOptions so;
    so.sched_iters = 3;
    so.route_select = true;
    for (uint32_t seed : {1u, 2u}) {
        Ctx c = schedule(random_program(seed, 24), 16, so);
        for (int t = 0; t < 16; t++) {
            std::set<int64_t> used;
            for (const TileItem &it : c.sched.tiles[t])
                EXPECT_TRUE(used.insert(it.cycle).second)
                    << "double-booked processor slot, tile " << t;
            std::map<int64_t, uint8_t> in_used, out_used;
            for (const SwitchItem &it : c.sched.switches[t]) {
                uint8_t in_bit = static_cast<uint8_t>(
                    1u << static_cast<int>(it.in));
                EXPECT_EQ(in_used[it.cycle] & in_bit, 0)
                    << "input port reused, tile " << t;
                EXPECT_EQ(out_used[it.cycle] & it.out_mask, 0)
                    << "output port collision, tile " << t;
                in_used[it.cycle] |= in_bit;
                out_used[it.cycle] |= it.out_mask;
            }
        }
        // Each send must be contiguous under the XY or the YX tree.
        auto matches = [&](const TileItem &send,
                           const RouteTree &tree) {
            for (const TreeHop &h : tree.hops) {
                bool found = false;
                for (const SwitchItem &sw : c.sched.switches[h.tile])
                    if (sw.path == send.path &&
                        sw.cycle == send.cycle + 1 + h.depth)
                        found = true;
                if (!found)
                    return false;
            }
            for (auto &[tile, depth] : tree.proc_recvs) {
                bool found = false;
                for (const TileItem &rv : c.sched.tiles[tile])
                    if (rv.kind == TileItem::Kind::kRecv &&
                        rv.path == send.path &&
                        rv.cycle == send.cycle + 2 + depth)
                        found = true;
                if (!found)
                    return false;
            }
            return true;
        };
        for (int t = 0; t < 16; t++)
            for (const TileItem &it : c.sched.tiles[t]) {
                if (it.kind != TileItem::Kind::kSend)
                    continue;
                const CommPath &p = c.paths[it.path];
                bool ok =
                    matches(it, build_route_tree(c.machine, p)) ||
                    matches(it, build_route_tree(c.machine, p,
                                                 RouteOrder::kYX));
                EXPECT_TRUE(ok)
                    << "path neither XY- nor YX-contiguous";
            }
    }
}

// ---------------------------------------------------------------
// (c) Estimated vs achieved block length, fault-free.

TEST(EstVsAchieved, StraightLineBlocksTrackSimulator)
{
    // Calibration (see docs/scheduling.md): on straight-line
    // single-block programs the scheduler's estimate is a near-exact
    // lower bound of the fault-free run — the simulator only adds
    // startup/halt overhead and memory-port serialization the block
    // scheduler does not model, and port folding can shave at most a
    // cycle or two below the estimate.
    std::vector<std::string> programs = {kSpread};
    for (uint32_t seed : {1u, 2u, 3u})
        programs.push_back(random_program(seed, 24));
    for (const std::string &src : programs) {
        for (int n : {2, 4, 16}) {
            CompileOutput out = compile_source(
                src, MachineConfig::base(n), CompilerOptions{});
            ASSERT_EQ(out.stats.block_makespan.size(), 1u)
                << "straight-line program must be a single block";
            Simulator sim(out.program);
            int64_t meas = sim.run().cycles;
            int64_t est = out.stats.estimated_makespan();
            EXPECT_LE(est, meas + 8)
                << "estimate far above achieved length, n=" << n;
            EXPECT_LE(meas, 2 * est + 64)
                << "achieved length far above estimate, n=" << n;
        }
    }
}

// ---------------------------------------------------------------
// fifo_priority global ready sequence.

TEST(FifoPriority, SingleGlobalSequencePin)
{
    // In fifo mode the ready queue is one global sequence: an import
    // completes the moment it is pushed, so its communication paths
    // enter the queue at the import's ready position instead of after
    // a queue round-trip behind every already-ready node.  The exact
    // makespan below pins that ordering for kSpread on 4 tiles;
    // reverting to deferred import completion reorders the FIFO and
    // changes it.
    SchedOptions so;
    so.fifo_priority = true;
    Ctx c = schedule(kSpread, 4, so);
    EXPECT_EQ(c.sched.makespan, 40);
    // Fifo schedules stay structurally exclusive.
    for (int t = 0; t < 4; t++) {
        std::set<int64_t> used;
        for (const TileItem &it : c.sched.tiles[t])
            EXPECT_TRUE(used.insert(it.cycle).second);
    }
}

TEST(FifoPriority, EagerImportsNeverDeadlockRandomGraphs)
{
    SchedOptions so;
    so.fifo_priority = true;
    for (uint32_t seed : {1u, 2u, 3u, 4u})
        for (int n : {2, 4, 16}) {
            Ctx c = schedule(random_program(seed, 24), n, so);
            EXPECT_GT(c.sched.makespan, 0);
            int computes = 0;
            for (int t = 0; t < n; t++)
                for (const TileItem &it : c.sched.tiles[t])
                    if (it.kind == TileItem::Kind::kCompute)
                        computes++;
            int instr_nodes = 0;
            for (const TGNode &nd : c.graph->nodes())
                if (nd.kind == TGKind::kInstr)
                    instr_nodes++;
            EXPECT_EQ(computes, instr_nodes);
        }
}

// ---------------------------------------------------------------
// --pgo measured portfolio: never worse, semantics preserved, and the
// winning cycles pinned so a change to the race shows up here.

TEST(Pgo, NeverWorseAndSemanticsPreserved)
{
    const struct
    {
        const char *bench;
        int64_t cycles;
    } kPinned[] = {{"fpppp-kernel", 1896}, {"jacobi", 92287}};
    MachineConfig m = MachineConfig::base(4);
    CompilerOptions opts;
    opts.pgo = true;
    for (const auto &pin : kPinned) {
        const BenchmarkProgram &prog = benchmark(pin.bench);
        RunResult plain = run_rawcc(prog.source, m, prog.check_array);
        RunResult tuned =
            run_rawcc(prog.source, m, prog.check_array, opts);
        EXPECT_LE(tuned.cycles, plain.cycles)
            << pin.bench
            << ": pgo portfolio must keep the plain compile as "
               "candidate 0";
        EXPECT_EQ(tuned.cycles, pin.cycles) << pin.bench;
        EXPECT_EQ(tuned.check_words, plain.check_words) << pin.bench;
        EXPECT_EQ(tuned.prints, plain.prints) << pin.bench;
    }
}

} // namespace
} // namespace raw
