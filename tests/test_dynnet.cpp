/**
 * @file
 * Dynamic wormhole network tests: header encoding, request/reply
 * round trips, handler serialization under contention, worm ordering,
 * and interaction with the static network.
 */

#include <gtest/gtest.h>

#include "harness/harness.hpp"
#include "sim/simulator.hpp"

namespace raw {
namespace {

TEST(DynHeader, RoundTrip)
{
    for (int dst : {0, 3, 31, 1023}) {
        for (int src : {0, 7, 1023}) {
            for (int len : {0, 1, 2, 15}) {
                for (DynKind k :
                     {DynKind::kLoadReq, DynKind::kStoreReq,
                      DynKind::kLoadReply, DynKind::kStoreAck}) {
                    uint32_t h = dyn_header(dst, src, len, k);
                    EXPECT_EQ(dyn_hdr_dst(h), dst);
                    EXPECT_EQ(dyn_hdr_src(h), src);
                    EXPECT_EQ(dyn_hdr_len(h), len);
                    EXPECT_EQ(dyn_hdr_kind(h), k);
                }
            }
        }
    }
}

PInstr
pi(Op op, int dst = -1, int a = -1, int b = -1)
{
    PInstr p;
    p.op = op;
    p.dst = dst;
    p.src[0] = a;
    p.src[1] = b;
    return p;
}

CompiledProgram
skeleton(int n)
{
    CompiledProgram cp;
    cp.machine = MachineConfig::base(n);
    cp.tiles.resize(n);
    cp.switches.resize(n);
    cp.arrays.push_back({"A", Type::kI32, 0, 64});
    cp.total_words = 64;
    return cp;
}

/**
 * Every tile dyn-stores then dyn-loads a word homed on the last tile
 * (A[(n-1) + n*t]), then prints it; the last tile finds its word
 * local and sends no message.
 */
CompiledProgram
all_to_one(int n)
{
    CompiledProgram cp = skeleton(n);
    cp.arrays[0].size = n * n;
    cp.total_words = n * n;
    for (int t = 0; t < n; t++) {
        PInstr addr = pi(Op::kConst, 1);
        addr.imm = int_bits((n - 1) + n * t);
        PInstr val = pi(Op::kConst, 2);
        val.imm = int_bits(100 + t);
        PInstr st = pi(Op::kDynStore, -1, 1, 2);
        st.array = 0;
        PInstr ld = pi(Op::kDynLoad, 3, 1);
        ld.array = 0;
        PInstr pr = pi(Op::kPrint, -1, 3);
        pr.print_seq = t;
        cp.tiles[t].code = {addr, val, st, ld, pr, pi(Op::kHalt)};
    }
    return cp;
}

TEST(DynNet, AllToOneContention)
{
    const int n = 8;
    CompiledProgram cp = all_to_one(n);
    Simulator sim(cp);
    SimResult r = sim.run();
    ASSERT_EQ(r.prints.size(), static_cast<size_t>(n));
    for (int t = 0; t < n; t++)
        EXPECT_EQ(bits_int(r.prints[t].bits), 100 + t);
    // 2 messages per tile, all serialized at tile 7's handler.
    // Tile 7 finds its word local, so it sends no messages.
    EXPECT_EQ(r.dyn_messages, 2 * (n - 1));
    EXPECT_GT(r.cycles, 2 * (n - 1) * cp.machine.dyn_handler_cycles)
        << "handler serialization must show in the cycle count";
}

/** Is no tile of @p plane marked as holding a word? */
bool
mask_empty(const DynPlane &plane)
{
    for (uint64_t w : plane.occupied)
        if (w != 0)
            return false;
    return true;
}

TEST(DynNet, PlaneBookkeepingAuditedUnderContention)
{
    // 128 tiles (8x16) spread the occupancy mask over two words; all
    // traffic converges on the last tile.  The fifo_bounds audit
    // checks every plane's per-tile word counts and occupancy bits
    // against its input buffers after each plane step.
    const int n = 128;
    CompiledProgram cp = all_to_one(n);
    CheckConfig checks;
    checks.fifo_bounds = true;
    for (SimBackend be :
         {SimBackend::kReference, SimBackend::kThreaded}) {
        SCOPED_TRACE(sim_backend_name(be));
        Simulator sim(cp, {}, checks, be);
        SimResult r = sim.run();
        ASSERT_EQ(r.prints.size(), static_cast<size_t>(n));
        EXPECT_EQ(r.dyn_messages, 2 * (n - 1));
        EXPECT_EQ(r.check_failure_count, 0);
        for (const DynPlane *plane :
             {&sim.request_plane(), &sim.reply_plane()}) {
            EXPECT_EQ(plane->resident, 0);
            EXPECT_TRUE(mask_empty(*plane));
        }
    }
}

TEST(DynNet, PlaneAuditReportsBookkeepingDrift)
{
    // A word pushed past DynPlane::push leaves the tile's count and
    // occupancy bit stale; the audit must flag it as fifo-bounds.
    DynPlane plane;
    plane.init(MachineConfig::base(4));
    plane.in_bufs[2][1].push(0, 7);
    CheckConfig checks;
    checks.fifo_bounds = true;
    RuntimeChecker checker(4, checks);
    checker.audit_plane(plane, 1);
    std::vector<CheckFailure> f = checker.take_failures();
    ASSERT_EQ(f.size(), 1u);
    EXPECT_EQ(f[0].kind, "fifo-bounds");
    EXPECT_EQ(f[0].tile, 2);

    // Consistent bookkeeping audits clean.
    plane.init(MachineConfig::base(4));
    plane.inject(2, 0, 7);
    checker.audit_plane(plane, 1);
    EXPECT_TRUE(checker.take_failures().empty());
}

TEST(DynNet, LatencyGrowsWithDistance)
{
    // One dyn load from tile 0 to the far corner vs. a neighbor.
    auto run_one = [&](int n_tiles, int home) {
        CompiledProgram cp = skeleton(n_tiles);
        PInstr addr = pi(Op::kConst, 1);
        addr.imm = int_bits(home);
        PInstr ld = pi(Op::kDynLoad, 3, 1);
        ld.array = 0;
        cp.tiles[0].code = {addr, ld, pi(Op::kHalt)};
        for (int t = 1; t < n_tiles; t++)
            cp.tiles[t].code = {pi(Op::kHalt)};
        Simulator sim(cp);
        return sim.run().cycles;
    };
    int64_t near = run_one(32, 1);
    int64_t far = run_one(32, 31);
    EXPECT_GT(far, near + 6)
        << "round trip to the far corner crosses ~2x8 more links";
}

TEST(DynNet, StoreThenLoadSameTileOrdered)
{
    // A tile's own requests complete in order (it blocks on each),
    // so a dyn store followed by a dyn load of the same address
    // observes the stored value.
    CompiledProgram cp = skeleton(2);
    PInstr addr = pi(Op::kConst, 1);
    addr.imm = int_bits(9); // home 1
    PInstr v1 = pi(Op::kConst, 2);
    v1.imm = int_bits(41);
    PInstr st1 = pi(Op::kDynStore, -1, 1, 2);
    st1.array = 0;
    PInstr v2 = pi(Op::kConst, 2);
    v2.imm = int_bits(42);
    PInstr st2 = pi(Op::kDynStore, -1, 1, 2);
    st2.array = 0;
    PInstr ld = pi(Op::kDynLoad, 3, 1);
    ld.array = 0;
    PInstr pr = pi(Op::kPrint, -1, 3);
    pr.print_seq = 0;
    cp.tiles[0].code = {addr, v1, st1, v2, st2, ld, pr,
                        pi(Op::kHalt)};
    cp.tiles[1].code = {pi(Op::kHalt)};
    Simulator sim(cp);
    SimResult r = sim.run();
    EXPECT_EQ(bits_int(r.prints[0].bits), 42);
}

TEST(DynNet, MixedStaticAndDynamicProgram)
{
    // End-to-end: a program with an opaque index ensures both
    // networks carry traffic and the results stay bit-exact.
    const char *src = R"(
int A[64];
int idx; int i; int s;
idx = 0;
while (idx < 5) { idx = idx + 1; }
// idx == 5 but unknown to the compiler.
for (i = 0; i < 50; i = i + 1) {
  A[i + idx] = i * 3;
}
s = 0;
for (i = 5; i < 55; i = i + 1) {
  s = s + A[i];
}
print(s);
)";
    RunResult base = run_baseline(src, "A");
    for (int n : {2, 4, 16}) {
        RunResult par = run_rawcc(src, MachineConfig::base(n), "A");
        EXPECT_EQ(par.prints, base.prints) << n;
        EXPECT_EQ(par.check_words, base.check_words) << n;
        if (n > 1)
            EXPECT_GT(par.sim.dyn_messages, 0) << n;
    }
}

TEST(DynNet, FaultsDoNotChangeDynResults)
{
    const char *src = R"(
int A[32];
int k; int i;
k = 0;
while (k < 3) { k = k + 1; }
for (i = 0; i < 29; i = i + 1) {
  A[i + k] = i * i;
}
print(A[17]);
)";
    CompileOutput out =
        compile_source(src, MachineConfig::base(4), CompilerOptions{});
    std::string ref;
    for (uint64_t seed : {1ull, 2ull, 3ull}) {
        FaultConfig f;
        f.miss_rate = 0.4;
        f.penalty = 11;
        f.seed = seed;
        Simulator sim(out.program, f);
        std::string got = sim.run().print_text();
        if (ref.empty())
            ref = got;
        EXPECT_EQ(got, ref);
    }
}

TEST(DynNet, ReadModifyWriteRaceRegression)
{
    // Regression: bins[key[i]] += 1 is a loop-carried read-modify-
    // write through statically unanalyzable addresses.  Conservative
    // handling must pin every access of `bins` to one tile so the
    // cross-block order is the program order.
    const char *src = R"(
int key[40];
int bins[8];
int i;
for (i = 0; i < 8; i = i + 1) { bins[i] = 0; }
for (i = 0; i < 40; i = i + 1) { key[i] = (i * 7 + 2) % 8; }
for (i = 0; i < 40; i = i + 1) {
  bins[key[i]] = bins[key[i]] + 1;
}
int cs;
cs = 0;
for (i = 0; i < 8; i = i + 1) { cs = cs + bins[i] * (i + 1); }
print(cs);
)";
    RunResult base = run_baseline(src, "bins");
    for (int n : {2, 4, 8, 16, 32}) {
        RunResult par = run_rawcc(src, MachineConfig::base(n), "bins");
        EXPECT_EQ(par.check_words, base.check_words) << "n=" << n;
        EXPECT_EQ(par.prints, base.prints) << "n=" << n;
    }
}

} // namespace
} // namespace raw
