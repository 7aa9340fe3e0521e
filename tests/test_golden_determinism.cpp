/**
 * @file
 * Golden determinism suite: replay the recorded simulator outputs
 * under tests/goldens/ against the current tree and require
 * byte-for-byte identical summaries (cycle counts, aggregate
 * counters, profile sums, print traces).  Every point is run both
 * serially and fanned over the parallel harness, pinning the promise
 * that performance work — fast-path simulator core, incremental
 * placement cost, multi-threaded benches — never changes results.
 *
 * The goldens were recorded from the pre-optimization (PR 1)
 * simulator by tools/golden_gen.cpp.  If this suite fails after a
 * perf change, the change is wrong; regenerate goldens only for an
 * intentional semantic change.
 */

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/harness.hpp"
#include "harness/parallel.hpp"
#include "rawcc/schedcache.hpp"

namespace raw {
namespace {

std::string
read_golden(const GoldenPoint &p)
{
    std::string path =
        std::string(RAW_GOLDEN_DIR) + "/" + p.name() + ".golden";
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << "missing golden file " << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

std::string
run_point(const GoldenPoint &p, int jobs = 1)
{
    const BenchmarkProgram &prog = benchmark(p.bench);
    CompilerOptions opts = p.options();
    opts.orch.jobs = jobs;
    RunResult r =
        run_rawcc(prog.source, MachineConfig::base(p.tiles),
                  prog.check_array, opts, p.faults);
    return golden_summary(p.bench, p.tiles, p.faults, r.sim);
}

TEST(GoldenDeterminism, SerialMatchesRecordedGoldens)
{
    for (const GoldenPoint &p : golden_points())
        EXPECT_EQ(run_point(p), read_golden(p)) << p.name();
}

TEST(GoldenDeterminism, ParallelHarnessMatchesRecordedGoldens)
{
    // Same points, fanned over worker threads: each job owns its
    // compiler and simulator, so results must not depend on the
    // thread count or on interleaving.
    const std::vector<GoldenPoint> &points = golden_points();
    const int n = static_cast<int>(points.size());
    std::vector<std::string> got(n);
    run_parallel(n, 4, [&](int i) { got[i] = run_point(points[i]); });
    for (int i = 0; i < n; i++)
        EXPECT_EQ(got[i], read_golden(points[i])) << points[i].name();
}

TEST(GoldenDeterminism, ParallelCompileColdAndWarmCacheMatch)
{
    // The full matrix the compile-throughput layer promises: every
    // golden point, compiled serially and with per-block worker
    // threads, with a cold cache and a warm one (the cache is
    // cleared once before the cold sweep, so the warm sweep replays
    // every block from the in-memory tier), must stay byte-identical
    // to the recorded output.
    for (int jobs : {1, 4}) {
        SchedCache::instance().clear_memory();
        for (const char *pass : {"cold", "warm"})
            for (const GoldenPoint &p : golden_points())
                EXPECT_EQ(run_point(p, jobs), read_golden(p))
                    << p.name() << " jobs=" << jobs << " "
                    << pass;
    }
}

TEST(GoldenDeterminism, ResolveJobs)
{
    EXPECT_EQ(resolve_jobs(1), 1);
    EXPECT_EQ(resolve_jobs(7), 7);
    EXPECT_GE(resolve_jobs(0), 1);
    EXPECT_GE(resolve_jobs(-3), 1);
}

} // namespace
} // namespace raw
