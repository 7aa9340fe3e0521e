/**
 * @file
 * Analysis tests: inter-block liveness, control replication, and the
 * task graph builder (nodes, pins, edges, disambiguation).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "analysis/liveness.hpp"
#include "analysis/replication.hpp"
#include "analysis/taskgraph.hpp"
#include "frontend/lower.hpp"
#include "frontend/parser.hpp"
#include "transform/congruence.hpp"
#include "transform/constfold.hpp"
#include "transform/rename.hpp"

namespace raw {
namespace {

ValueId
var_named(const Function &fn, const std::string &name)
{
    for (ValueId v : fn.var_ids())
        if (fn.values[v].name == name)
            return v;
    return kNoValue;
}

Function
prepare(const char *src)
{
    Function fn = lower_program(parse_program(src));
    constfold_function(fn);
    rename_function(fn);
    return fn;
}

TEST(Liveness, LoopCarriedVariableLiveAroundLoop)
{
    Function fn = prepare(R"(
int i; int s;
s = 0;
for (i = 0; i < 8; i = i + 1) { s = s + i; }
print(s);
)");
    VarLiveness live(fn);
    ValueId s = var_named(fn, "s");
    ASSERT_NE(s, kNoValue);
    // s is live out of every block on the loop path (it is read in
    // the body and by the epilogue store).
    int live_blocks = 0;
    for (size_t b = 0; b < fn.blocks.size(); b++)
        if (live.live_out(static_cast<int>(b), s))
            live_blocks++;
    EXPECT_GE(live_blocks, 2);
}

TEST(Liveness, DeadAfterLastUse)
{
    Function fn = prepare(R"(
int a; int b;
a = 5;
b = a + 1;
print(b);
)");
    VarLiveness live(fn);
    ValueId a = var_named(fn, "a");
    // Single block: `a` is not live out (the epilogue stores happen
    // within the same block).
    EXPECT_FALSE(live.live_out(0, a));
}

TEST(Replication, LoopCountersReplicate)
{
    Function fn = prepare(R"(
int A[16];
int i;
for (i = 0; i < 16; i = i + 1) { A[i] = i; }
)");
    ReplicationAnalysis repl(fn, 8, 12, true);
    ValueId i = var_named(fn, "i");
    EXPECT_TRUE(repl.var_replicated(i));
    // The loop header's branch is computed locally everywhere.
    int replicated_branches = 0;
    for (size_t b = 0; b < fn.blocks.size(); b++)
        if (fn.blocks[b].terminator().op == Op::kBranch &&
            repl.branch_replicated(static_cast<int>(b)))
            replicated_branches++;
    EXPECT_GE(replicated_branches, 1);
}

TEST(Replication, DataDependentConditionsBroadcast)
{
    Function fn = prepare(R"(
int A[16];
int x;
x = A[3];
if (x > 0) { A[0] = 1; } else { A[0] = 2; }
)");
    ReplicationAnalysis repl(fn, 8, 12, true);
    ValueId x = var_named(fn, "x");
    EXPECT_FALSE(repl.var_replicated(x)) << "x comes from memory";
    for (size_t b = 0; b < fn.blocks.size(); b++)
        if (fn.blocks[b].terminator().op == Op::kBranch)
            EXPECT_FALSE(repl.branch_replicated(static_cast<int>(b)));
}

TEST(Replication, FloatVariablesNeverReplicate)
{
    Function fn = prepare(R"(
float f;
f = 1.0;
int g;
g = 2;
print(f);
print(g);
)");
    ReplicationAnalysis repl(fn, 8, 12, true);
    EXPECT_FALSE(repl.var_replicated(var_named(fn, "f")));
}

TEST(Replication, DisabledSwitch)
{
    Function fn = prepare(R"(
int A[16];
int i;
for (i = 0; i < 16; i = i + 1) { A[i] = i; }
)");
    ReplicationAnalysis repl(fn, 8, 12, false);
    EXPECT_EQ(repl.num_replicated_vars(), 0);
    for (size_t b = 0; b < fn.blocks.size(); b++)
        EXPECT_FALSE(repl.branch_replicated(static_cast<int>(b)));
}

TEST(Replication, ClonedOrderDefinesBeforeUses)
{
    Function fn = prepare(R"(
int A[64];
int i; int j;
for (i = 0; i < 64; i = i + 4) {
  for (j = 0; j < 4; j = j + 1) {
    A[i + j] = i;
  }
}
)");
    ReplicationAnalysis repl(fn, 8, 12, true);
    for (size_t b = 0; b < fn.blocks.size(); b++) {
        const std::vector<int> &order =
            repl.cloned_instrs(static_cast<int>(b));
        std::set<ValueId> defined;
        for (int k : order) {
            const Instr &in = fn.blocks[b].instrs[k];
            for (int s = 0; s < in.num_srcs(); s++) {
                ValueId v = in.src[s];
                if (!fn.values[v].is_var)
                    EXPECT_TRUE(defined.count(v))
                        << "temp used before cloned def, block " << b;
            }
            if (in.has_dst() && !fn.values[in.dst].is_var)
                defined.insert(in.dst);
        }
    }
}

struct GraphParts
{
    Function fn;
    std::unique_ptr<ReplicationAnalysis> repl;
    std::unique_ptr<VarLiveness> live;
    HomeMap homes;
    std::unique_ptr<TaskGraph> graph;
    int block = 0;
};

GraphParts
build_graph(const char *src, int n_tiles, int block = 0)
{
    GraphParts g;
    g.fn = prepare(src);
    g.repl = std::make_unique<ReplicationAnalysis>(g.fn, 8, 12, true);
    g.live = std::make_unique<VarLiveness>(g.fn);
    g.homes.n_tiles = n_tiles;
    g.homes.var_home.assign(g.fn.values.size(), 0);
    int next = 0;
    for (ValueId v : g.fn.var_ids())
        if (!g.repl->var_replicated(v)) {
            g.homes.var_home[v] = next;
            next = (next + 1) % n_tiles;
        }
    int64_t off = 0;
    for (const ArrayInfo &a : g.fn.arrays) {
        g.homes.array_base.push_back(off);
        off += a.size();
    }
    MachineConfig m = MachineConfig::base(n_tiles);
    CongruenceMap cong(g.fn, block);
    g.block = block;
    g.graph = std::make_unique<TaskGraph>(g.fn, block, m, cong,
                                          *g.repl, *g.live, g.homes);
    return g;
}

TEST(TaskGraph, StaticRefsArePinnedToHomes)
{
    GraphParts g = build_graph(R"(
int A[8];
A[1] = 10;
A[6] = 20;
)",
                               4);
    int pinned = 0;
    for (const TGNode &nd : g.graph->nodes()) {
        if (nd.kind != TGKind::kInstr)
            continue;
        const Instr &in = g.fn.blocks[0].instrs[nd.instr];
        if (in.op == Op::kStore && in.array == 0) {
            EXPECT_GE(nd.pin, 0);
            pinned++;
        }
    }
    EXPECT_EQ(pinned, 2);
}

TEST(TaskGraph, DisjointExactRefsUnordered)
{
    GraphParts g = build_graph(R"(
int A[8];
A[1] = 10;
A[2] = 20;
)",
                               4);
    // The two stores hit provably different addresses: no ordering
    // edge between them.
    std::vector<int> stores;
    for (size_t i = 0; i < g.graph->nodes().size(); i++) {
        const TGNode &nd = g.graph->nodes()[i];
        if (nd.kind == TGKind::kInstr &&
            g.fn.blocks[0].instrs[nd.instr].op == Op::kStore &&
            g.fn.blocks[0].instrs[nd.instr].array == 0)
            stores.push_back(static_cast<int>(i));
    }
    ASSERT_EQ(stores.size(), 2u);
    for (const TGEdge &e : g.graph->edges())
        EXPECT_FALSE(e.from == stores[0] && e.to == stores[1]);
}

TEST(TaskGraph, SameAddressRefsOrdered)
{
    GraphParts g = build_graph(R"(
int A[8];
int x;
A[1] = 10;
x = A[1];
print(x);
)",
                               4);
    int store = -1, load = -1;
    for (size_t i = 0; i < g.graph->nodes().size(); i++) {
        const TGNode &nd = g.graph->nodes()[i];
        if (nd.kind != TGKind::kInstr)
            continue;
        Op op = g.fn.blocks[0].instrs[nd.instr].op;
        if (op == Op::kStore &&
            g.fn.blocks[0].instrs[nd.instr].array == 0)
            store = static_cast<int>(i);
        if (op == Op::kLoad)
            load = static_cast<int>(i);
    }
    ASSERT_GE(store, 0);
    ASSERT_GE(load, 0);
    bool ordered = false;
    for (const TGEdge &e : g.graph->edges())
        if (e.from == store && e.to == load)
            ordered = true;
    EXPECT_TRUE(ordered);
}

TEST(TaskGraph, ImportNodesForLiveInReads)
{
    GraphParts g = build_graph(R"(
int a; int b;
a = 1;
b = 2;
if (a > 0) {
  b = a + b;
}
print(b);
)",
                               2, /*block=*/1);
    // Block 1 (the then-block) reads a and b as live-ins.
    int imports = 0;
    for (const TGNode &nd : g.graph->nodes())
        if (nd.kind == TGKind::kImport) {
            imports++;
            EXPECT_EQ(nd.cost, 0);
            EXPECT_GE(nd.pin, 0);
        }
    EXPECT_GE(imports, 1);
}

TEST(TaskGraph, PrintsChained)
{
    GraphParts g = build_graph(R"(
print(1);
print(2);
print(3);
)",
                               4);
    std::vector<int> prints;
    for (size_t i = 0; i < g.graph->nodes().size(); i++) {
        const TGNode &nd = g.graph->nodes()[i];
        if (nd.kind == TGKind::kInstr &&
            g.fn.blocks[0].instrs[nd.instr].op == Op::kPrint)
            prints.push_back(static_cast<int>(i));
    }
    ASSERT_EQ(prints.size(), 3u);
    int order_edges = 0;
    for (const TGEdge &e : g.graph->edges())
        if (e.kind == DepKind::kOrder)
            order_edges++;
    EXPECT_GE(order_edges, 2);
}

TEST(TaskGraph, Acyclic)
{
    // Note: the loop is rolled and `x` is data-dependent, so the body
    // block exercises imports, write-backs and arithmetic together
    // (memory refs would need the orchestrater's dynamic rewrite
    // first, which is tested end-to-end elsewhere).
    GraphParts g = build_graph(R"(
int i; int s; int x;
s = 0;
x = 3;
for (i = 0; i < 16; i = i + 1) { s = s + x; x = x * 2 + s; }
print(s);
)",
                               4, 2);
    // Kahn's algorithm visits every node.
    const int n = static_cast<int>(g.graph->nodes().size());
    std::vector<int> indeg(n, 0);
    for (int i = 0; i < n; i++)
        indeg[i] = static_cast<int>(g.graph->preds(i).size());
    std::vector<int> work;
    for (int i = 0; i < n; i++)
        if (indeg[i] == 0)
            work.push_back(i);
    int seen = 0;
    while (!work.empty()) {
        int v = work.back();
        work.pop_back();
        seen++;
        for (int s : g.graph->succs(v))
            if (--indeg[s] == 0)
                work.push_back(s);
    }
    EXPECT_EQ(seen, n);
}

// k dynamic references to one array, as the orchestrater leaves a
// block whose indices it cannot analyze: every pair with a store is
// ordered, once, and no (from, to) pair is ever stored twice.
TEST(TaskGraph, DynamicRefsOrderedOncePerPair)
{
    const char *src = R"(
int A[64];
int B[4];
int x; int y;
x = B[1];
y = A[x] + A[x + 1];
A[x + 2] = y * y;
A[x + 3] = y + A[x + 4];
A[x + 5] = A[x + 6] + A[x + 7];
A[x] = A[x + 1] + y;
print(y);
)";
    GraphParts g;
    g.fn = prepare(src);
    // The orchestrater's demotion: an array with an unanalyzable
    // index is fully dynamic.
    for (Block &blk : g.fn.blocks)
        for (Instr &in : blk.instrs)
            if (in.op == Op::kLoad && in.array == 0)
                in.op = Op::kDynLoad;
            else if (in.op == Op::kStore && in.array == 0)
                in.op = Op::kDynStore;
    g.repl = std::make_unique<ReplicationAnalysis>(g.fn, 8, 12, true);
    g.live = std::make_unique<VarLiveness>(g.fn);
    g.homes.n_tiles = 4;
    g.homes.var_home.assign(g.fn.values.size(), 0);
    g.homes.array_base.assign(g.fn.arrays.size(), 0);
    MachineConfig m = MachineConfig::base(4);
    CongruenceMap cong(g.fn, 0);
    TaskGraph tg(g.fn, 0, m, cong, *g.repl, *g.live, g.homes);

    std::vector<int> refs; // dynamic refs in node order
    for (size_t i = 0; i < tg.nodes().size(); i++) {
        const TGNode &nd = tg.nodes()[i];
        if (nd.kind != TGKind::kInstr)
            continue;
        Op op = g.fn.blocks[0].instrs[nd.instr].op;
        if (op == Op::kDynLoad || op == Op::kDynStore)
            refs.push_back(static_cast<int>(i));
    }
    ASSERT_GE(refs.size(), 10u);
    auto is_store = [&](int node) {
        return g.fn.blocks[0].instrs[tg.nodes()[node].instr].op ==
               Op::kDynStore;
    };
    std::set<std::pair<int, int>> seen, ordered;
    for (const TGEdge &e : tg.edges()) {
        EXPECT_TRUE(seen.insert({e.from, e.to}).second)
            << "duplicate edge " << e.from << " -> " << e.to;
        if (e.kind == DepKind::kOrder)
            ordered.insert({e.from, e.to});
    }
    size_t pairs = 0;
    for (size_t a = 0; a < refs.size(); a++)
        for (size_t b = a + 1; b < refs.size(); b++)
            if (is_store(refs[a]) || is_store(refs[b])) {
                pairs++;
                // A store feeding a later ref by value is already a
                // data edge; data outranks order.
                bool data = false;
                for (int e : tg.out_edges(refs[a]))
                    data = data || (tg.edges()[e].to == refs[b] &&
                                    tg.edges()[e].kind == DepKind::kData);
                EXPECT_TRUE(data || ordered.count({refs[a], refs[b]}))
                    << refs[a] << " -> " << refs[b] << " unordered";
            }
    size_t ref_edges = 0;
    for (const TGEdge &e : tg.edges())
        if (std::find(refs.begin(), refs.end(), e.from) != refs.end() &&
            std::find(refs.begin(), refs.end(), e.to) != refs.end())
            ref_edges++;
    EXPECT_EQ(ref_edges, pairs);
}

// A pair added under several kinds keeps one edge of the strongest
// kind (data > order > anti), in either order of arrival, whether the
// repeats come back to back or with another source's edge between.
TEST(TaskGraph, RepeatedPairKeepsStrongestKind)
{
    for (bool reverse : {false, true})
        for (bool interleave : {false, true}) {
            SCOPED_TRACE(std::string(reverse ? "reverse" : "forward") +
                         (interleave ? ", interleaved" : ""));
            TaskGraph g(std::vector<TGNode>(3));
            std::vector<DepKind> kinds = {
                DepKind::kAnti, DepKind::kOrder, DepKind::kData};
            if (reverse)
                std::reverse(kinds.begin(), kinds.end());
            for (DepKind k : kinds) {
                g.add_edge(0, 1, k);
                if (interleave)
                    g.add_edge(2, 1, DepKind::kAnti); // new source
            }
            g.add_edge(2, 1, DepKind::kAnti);
            g.add_edge(1, 1, DepKind::kData); // self-edges are dropped
            ASSERT_EQ(g.edges().size(), 2u);
            EXPECT_EQ(g.edges()[0].from, 0);
            EXPECT_EQ(g.edges()[0].to, 1);
            EXPECT_EQ(g.edges()[0].kind, DepKind::kData);
            EXPECT_EQ(g.edges()[1].kind, DepKind::kAnti);
            EXPECT_EQ(g.succs(0), std::vector<int>{1});
            EXPECT_EQ(g.preds(1), (std::vector<int>{0, 2}));
            EXPECT_EQ(g.out_edges(0), std::vector<int>{0});
        }
}

} // namespace
} // namespace raw
