/**
 * @file
 * Argv handling of every bench binary under bench/: `--help` prints
 * usage, runs nothing and writes no file; an unknown flag or a flag
 * missing its value exits 2 with a message naming the flag.  Each
 * bench runs in an empty temporary directory so a stray default
 * output (BENCH_*.json) would show up.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace {

namespace fs = std::filesystem;

const char *const kBenches[] = {
    "bench_table1_latencies",        "bench_table2_characteristics",
    "bench_table3_speedup",          "bench_fig4_message_latency",
    "bench_fig8_fpppp_configs",      "bench_ablation_partition",
    "bench_ablation_priority",       "bench_ablation_unroll",
    "bench_ablation_dynamic_events", "bench_ablation_homes",
    "bench_wallclock",               "bench_faults",
    "bench_serve",
};

/** Benches whose output path flag takes a value. */
const char *const kJsonOut[] = {
    "bench_table3_speedup", "bench_ablation_priority",
    "bench_wallclock",      "bench_faults",
    "bench_serve",
};

struct BenchRun
{
    int status = -1;
    std::string out, err;
    /** Entries the bench left in its working directory. */
    int files_left = 0;
};

std::string
slurp(const fs::path &p)
{
    std::ifstream in(p);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

BenchRun
run_bench(const std::string &name, const std::string &args)
{
    char tmpl[] = "/tmp/bench-cli-XXXXXX";
    fs::path root = mkdtemp(tmpl);
    fs::path cwd = root / "cwd";
    fs::create_directory(cwd);
    std::string cmd = "cd '" + cwd.string() + "' && '" +
                      std::string(BENCH_DIR) + "/" + name + "' " + args +
                      " >'" + (root / "out").string() + "' 2>'" +
                      (root / "err").string() + "'";
    BenchRun r;
    int rc = std::system(cmd.c_str());
    r.status = WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
    r.out = slurp(root / "out");
    r.err = slurp(root / "err");
    for (auto it = fs::directory_iterator(cwd);
         it != fs::directory_iterator(); ++it)
        r.files_left++;
    fs::remove_all(root);
    return r;
}

TEST(BenchCli, HelpPrintsUsageAndRunsNothing)
{
    for (const char *b : kBenches) {
        SCOPED_TRACE(b);
        for (const char *flag : {"--help", "-h"}) {
            BenchRun r = run_bench(b, flag);
            EXPECT_EQ(r.status, 0);
            EXPECT_EQ(r.out.rfind(std::string("usage: ") + b, 0), 0u)
                << r.out;
            EXPECT_EQ(r.files_left, 0);
        }
    }
}

TEST(BenchCli, UnknownFlagExitsTwoNamingIt)
{
    for (const char *b : kBenches) {
        SCOPED_TRACE(b);
        BenchRun r = run_bench(b, "--no-such-flag");
        EXPECT_EQ(r.status, 2);
        EXPECT_NE(r.err.find("--no-such-flag"), std::string::npos)
            << r.err;
        EXPECT_EQ(r.files_left, 0);
    }
}

TEST(BenchCli, MissingValueExitsTwoNamingFlag)
{
    for (const char *b : kJsonOut) {
        SCOPED_TRACE(b);
        BenchRun r = run_bench(b, "--json-out");
        EXPECT_EQ(r.status, 2);
        EXPECT_NE(r.err.find("--json-out expects a value"),
                  std::string::npos)
            << r.err;
        EXPECT_EQ(r.files_left, 0);
    }
    BenchRun r = run_bench("bench_wallclock", "--jobs");
    EXPECT_EQ(r.status, 2);
    EXPECT_NE(r.err.find("--jobs expects a value"), std::string::npos)
        << r.err;
}

} // namespace
