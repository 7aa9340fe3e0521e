/**
 * @file
 * Block-schedule cache tests: key canonicalization (alpha-equivalent
 * blocks hit, scheduling-relevant option changes miss), warm-compile
 * identity, concurrent compiles racing clear_memory(), and the PGO
 * candidate dedupe built on options_fingerprint().
 */

#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "harness/harness.hpp"
#include "rawcc/schedcache.hpp"
#include "sim/disasm.hpp"

namespace raw {
namespace {

// Two loops plus a data-dependent branch: enough blocks to exercise
// partition and schedule entries, small enough to compile fast.
const char *kProg = R"(
int A[64];
int i; int s;
for (i = 0; i < 64; i = i + 1) { A[i] = i * 3; }
s = 0;
for (i = 0; i < 64; i = i + 1) {
  if (A[i] > 90) { s = s + A[i]; }
}
print(s);
)";

// kProg with every identifier renamed; lowers to alpha-equivalent IR.
const char *kProgRenamed = R"(
int B[64];
int j; int t;
for (j = 0; j < 64; j = j + 1) { B[j] = j * 3; }
t = 0;
for (j = 0; j < 64; j = j + 1) {
  if (B[j] > 90) { t = t + B[j]; }
}
print(t);
)";

// For each j > 3 the peeled i = 0, 1 copies of the guard fold their
// body away and branch to one join block, while the i = 2, 3 copies
// are the same block branching two ways; the degenerate copies come
// first in block order.
const char *kProgCoincidingTargets = R"(
int B[4];
int i; int j; int n; int s;
B[0] = 8;
n = B[0];
s = 0;
for (j = 0; j < n; j = j + 1) {
  for (i = 0; i < 4; i = i + 1) {
    if (j > 3) {
      if (i > 1) { s = s + 1; }
    }
  }
}
print(s);
)";

CompileOutput
compile_with(const char *src, CompilerOptions opts)
{
    return compile_source(src, MachineConfig::base(4), opts);
}

TEST(SchedCache, WarmRecompileHitsEverything)
{
    SchedCache::instance().clear_memory();
    CompilerOptions opts;
    CompileOutput cold = compile_with(kProg, opts);
    EXPECT_GT(cold.stats.cache.part_misses, 0);
    EXPECT_GT(cold.stats.cache.sched_misses, 0);

    CompileOutput warm = compile_with(kProg, opts);
    EXPECT_EQ(warm.stats.cache.part_misses, 0);
    EXPECT_EQ(warm.stats.cache.sched_misses, 0);
    EXPECT_GT(warm.stats.cache.part_hits, 0);
    EXPECT_GT(warm.stats.cache.sched_hits, 0);
    EXPECT_EQ(disasm_program(warm.program),
              disasm_program(cold.program));
}

TEST(SchedCache, AlphaEquivalentSourcesShareEntries)
{
    SchedCache::instance().clear_memory();
    CompilerOptions opts;
    CompileOutput a = compile_with(kProg, opts);
    // Identifier names never enter the cache key, so the renamed
    // program must be a full hit of the first compile.
    CompileOutput b = compile_with(kProgRenamed, opts);
    EXPECT_EQ(b.stats.cache.part_misses, 0);
    EXPECT_EQ(b.stats.cache.sched_misses, 0);
    EXPECT_EQ(b.program.tiles.size(), a.program.tiles.size());
}

// Cached streams store branch targets as terminator slots, and a
// branch whose two targets coincide stores both as one slot.  Its
// streams must never serve an otherwise identical two-way branch:
// that hit sent the taken edge to the fall-through block, and the
// program printed 0 instead of 8.
TEST(SchedCache, CoincidingBranchTargetsNeverServeTwoWayBranches)
{
    CompilerOptions off;
    off.orch.use_cache = false;
    CompileOutput want = compile_with(kProgCoincidingTargets, off);

    SchedCache::instance().clear_memory();
    CompilerOptions on;
    CompileOutput got = compile_with(kProgCoincidingTargets, on);
    EXPECT_EQ(disasm_program(got.program), disasm_program(want.program));
    SimResult r = Simulator(got.program).run();
    EXPECT_EQ(r.print_text(), "8\n");
}

TEST(SchedCache, SchedOptionChangeMissesScheduleOnly)
{
    SchedCache::instance().clear_memory();
    CompilerOptions opts;
    compile_with(kProg, opts);

    CompilerOptions changed = opts;
    changed.orch.sched.level_weight *= 2;
    CompileOutput c = compile_with(kProg, changed);
    // Partition entries are keyed only on partition-relevant inputs,
    // so they survive a scheduler priority change; schedule entries
    // must not.
    EXPECT_EQ(c.stats.cache.part_misses, 0);
    EXPECT_GT(c.stats.cache.sched_misses, 0);
}

// Every scheduler knob is a schedule-stage input: each SchedOptions
// field must churn the schedule key on its own (a schedule cached
// under one setting must never satisfy a compile under another), and
// no two single-field changes may collide.
TEST(SchedCache, EverySchedOptionChangesScheduleKey)
{
    BlockKey pk;
    pk.h1 = 0x1234567890abcdefULL;
    pk.h2 = 0xfedcba0987654321ULL;
    std::vector<bool> sw = {true, false, true, true};
    auto key = [&](const SchedOptions &so) {
        BlockKey k = block_schedule_key(pk, so, sw);
        return std::make_pair(k.h1, k.h2);
    };

    const SchedOptions base;
    const auto base_key = key(base);
    EXPECT_EQ(key(base), base_key) << "key must be deterministic";

    std::vector<std::pair<const char *, SchedOptions>> variants;
    auto vary = [&](const char *name, auto mutate) {
        SchedOptions so = base;
        mutate(so);
        variants.emplace_back(name, so);
    };
    vary("level_weight", [](SchedOptions &so) { so.level_weight++; });
    vary("fertility_weight",
         [](SchedOptions &so) { so.fertility_weight++; });
    vary("fifo_priority",
         [](SchedOptions &so) { so.fifo_priority = !so.fifo_priority; });
    vary("sched_iters", [](SchedOptions &so) { so.sched_iters++; });
    vary("route_select",
         [](SchedOptions &so) { so.route_select = !so.route_select; });

    std::set<std::pair<uint64_t, uint64_t>> keys = {base_key};
    for (const auto &[name, so] : variants) {
        EXPECT_NE(key(so), base_key) << name << " must churn the key";
        keys.insert(key(so));
    }
    EXPECT_EQ(keys.size(), variants.size() + 1)
        << "two single-field changes collide";
}

TEST(SchedCache, PartitionOptionChangeMisses)
{
    SchedCache::instance().clear_memory();
    CompilerOptions opts;
    compile_with(kProg, opts);

    CompilerOptions changed = opts;
    changed.orch.partition.seed = 1234;
    CompileOutput c = compile_with(kProg, changed);
    EXPECT_GT(c.stats.cache.part_misses, 0);
}

TEST(SchedCache, CacheOffMatchesCacheOn)
{
    SchedCache::instance().clear_memory();
    CompilerOptions off;
    off.orch.use_cache = false;
    CompileOutput plain = compile_with(kProg, off);
    EXPECT_EQ(plain.stats.cache.hits() + plain.stats.cache.misses(),
              0);

    CompilerOptions on;
    CompileOutput cold = compile_with(kProg, on);
    CompileOutput warm = compile_with(kProg, on);
    EXPECT_EQ(disasm_program(cold.program),
              disasm_program(plain.program));
    EXPECT_EQ(disasm_program(warm.program),
              disasm_program(plain.program));
}

TEST(SchedCache, ParallelJobsMatchSerial)
{
    SchedCache::instance().clear_memory();
    CompilerOptions serial;
    serial.orch.use_cache = false;
    CompileOutput base = compile_with(kProg, serial);

    for (int jobs : {2, 4}) {
        SchedCache::instance().clear_memory();
        CompilerOptions par;
        par.orch.jobs = jobs;
        CompileOutput c = compile_with(kProg, par);
        EXPECT_EQ(disasm_program(c.program),
                  disasm_program(base.program))
            << "jobs=" << jobs;
    }
}

TEST(SchedCache, PgoCandidatesDuplicateFree)
{
    CompilerOptions base;
    base.pgo = true;
    PlacementFeedback fb;
    fb.comm_penalty = {3, 0, 7, 1};
    fb.proc_penalty = {1, 2, 0, 4};
    for (const PlacementFeedback &f :
         {PlacementFeedback{}, fb}) {
        std::vector<CompilerOptions> cands = pgo_candidates(base, f);
        std::set<std::string> seen;
        for (const CompilerOptions &c : cands) {
            EXPECT_FALSE(c.pgo);
            EXPECT_TRUE(
                seen.insert(options_fingerprint(c)).second)
                << "duplicate candidate fingerprint";
        }
        EXPECT_EQ(seen.size(), cands.size());
    }

    // A base that already carries a portfolio knob collapses the
    // matching candidate instead of racing it twice.
    CompilerOptions pre = base;
    pre.orch.partition.crit_weight = 8;
    size_t plain_n = pgo_candidates(base, fb).size();
    size_t pre_n = pgo_candidates(pre, fb).size();
    EXPECT_LT(pre_n, plain_n);
}

TEST(SchedCache, FingerprintTracksEffectiveOptions)
{
    CompilerOptions a;
    CompilerOptions b;
    EXPECT_EQ(options_fingerprint(a), options_fingerprint(b));
    // Driver-only knobs don't change the fingerprint...
    b.verify_ir = !b.verify_ir;
    b.pgo = !b.pgo;
    b.orch.jobs = 8;
    b.orch.use_cache = false;
    EXPECT_EQ(options_fingerprint(a), options_fingerprint(b));
    // ...every program-affecting knob does.
    b.orch.sched.sched_iters = 5;
    EXPECT_NE(options_fingerprint(a), options_fingerprint(b));
    b = a;
    b.orch.partition.seed = 99;
    EXPECT_NE(options_fingerprint(a), options_fingerprint(b));
    b = a;
    b.unroll.small_peel_limit *= 2;
    EXPECT_NE(options_fingerprint(a), options_fingerprint(b));
    b = a;
    b.smart_homes = true;
    EXPECT_NE(options_fingerprint(a), options_fingerprint(b));
    b = a;
    b.orch.sched.route_select = true;
    EXPECT_NE(options_fingerprint(a), options_fingerprint(b));
}

// Concurrent compiles on one process-wide cache while clear_memory()
// keeps dropping it: the serve daemon's workers share the cache the
// same way.  Hits, misses and inserts racing a clear must never change
// the compiled program or escape as an exception.
TEST(SchedCache, ConcurrentCompilesRacingClearStayConsistent)
{
    SchedCache::instance().clear_memory();
    CompilerOptions off;
    off.orch.use_cache = false;
    const std::string want_a =
        disasm_program(compile_with(kProg, off).program);
    const std::string want_b =
        disasm_program(compile_with(kProgRenamed, off).program);

    std::atomic<bool> stop{false};
    std::atomic<int> mismatches{0};
    std::atomic<int> throws{0};
    std::thread clearer([&] {
        while (!stop.load()) {
            SchedCache::instance().clear_memory();
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    });

    constexpr int kThreads = 4;
    constexpr int kIters = 6;
    std::vector<std::thread> compilers;
    for (int t = 0; t < kThreads; t++)
        compilers.emplace_back([&, t] {
            for (int i = 0; i < kIters; i++) {
                const char *src = (t + i) % 2 ? kProgRenamed : kProg;
                const std::string &want =
                    (t + i) % 2 ? want_b : want_a;
                try {
                    CompilerOptions opts;
                    CompileOutput out = compile_with(src, opts);
                    if (disasm_program(out.program) != want)
                        mismatches.fetch_add(1);
                } catch (const std::exception &) {
                    throws.fetch_add(1);
                }
            }
        });
    for (auto &t : compilers)
        t.join();
    stop.store(true);
    clearer.join();

    EXPECT_EQ(mismatches.load(), 0)
        << "cache hits must reproduce the uncached program";
    EXPECT_EQ(throws.load(), 0);

    // And a warm recompile after the race is a full hit.
    CompilerOptions opts;
    compile_with(kProg, opts);
    CompileOutput warm = compile_with(kProg, opts);
    EXPECT_EQ(warm.stats.cache.misses(), 0);
    EXPECT_EQ(disasm_program(warm.program), want_a);
}

} // namespace
} // namespace raw
