/**
 * @file
 * Large-mesh output identity: compile life@128, mxm@64 and
 * cholesky@64 through the real rawcc CLI (schedule cache off) at
 * --jobs 1 and --jobs 4, and pin each point's static instruction
 * count and a 64-bit FNV-1a of its --disasm listing.
 *
 * The goldens stop at 16 tiles and the 64-tile sim-diff smoke only
 * compares the simulator cores with each other, so this is the gate
 * that keeps compiler output past 32 tiles byte-identical across
 * compile-time optimizations of partitioning and scheduling.  The
 * --jobs 4 runs catch per-block working state leaking across worker
 * threads.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

namespace {

struct Point
{
    const char *bench;
    int tiles;
    long long static_instrs;
    uint64_t disasm_fnv;
};

// Recorded from the compiler before the large-mesh compile-time
// rewrites of placement, DSC and the switch reservation table.
constexpr Point kPoints[] = {
    {"life", 128, 517339, 0x5c88928e8ff66b8eULL},
    {"mxm", 64, 224355, 0x39f8890b2ec752faULL},
    {"cholesky", 64, 464890, 0xb72d7baeb34fb5a7ULL},
};

uint64_t
fnv1a64(const std::string &s)
{
    uint64_t h = 0xcbf29ce484222325ULL; // FNV-1a offset basis
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL; // FNV-1a prime
    }
    return h;
}

/** Run rawcc and return its stdout; @p status gets the exit code. */
std::string
run_rawcc(const std::string &args, int &status)
{
    std::string cmd = std::string(RAWCC_BIN) + " " + args;
    FILE *f = popen(cmd.c_str(), "r");
    std::string out;
    if (!f) {
        status = -1;
        return out;
    }
    char buf[1 << 16];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        out.append(buf, n);
    status = pclose(f);
    return out;
}

class ScaleDigest : public ::testing::TestWithParam<int>
{
};

TEST_P(ScaleDigest, DisasmAndStaticCountPinned)
{
    const int jobs = GetParam();
    for (const Point &pt : kPoints) {
        SCOPED_TRACE(std::string(pt.bench) + "@" +
                     std::to_string(pt.tiles) + " --jobs " +
                     std::to_string(jobs));
        int status = 0;
        std::string out = run_rawcc(
            "--tiles " + std::to_string(pt.tiles) +
                " --no-run --disasm --stats --no-sched-cache --jobs " +
                std::to_string(jobs) + " " + pt.bench,
            status);
        ASSERT_EQ(status, 0);
        // The listing is everything before the --stats block.
        const std::string stats_head = "\nmachine:             ";
        size_t cut = out.find(stats_head);
        ASSERT_NE(cut, std::string::npos) << "no --stats block";
        std::string listing = out.substr(0, cut + 1);

        const std::string count_head = "machine instrs:";
        size_t at = out.find(count_head, cut);
        ASSERT_NE(at, std::string::npos) << "no static count";
        long long static_instrs =
            std::stoll(out.substr(at + count_head.size()));

        EXPECT_EQ(static_instrs, pt.static_instrs);
        EXPECT_EQ(fnv1a64(listing), pt.disasm_fnv)
            << "disasm listing of " << listing.size()
            << " bytes changed";
    }
}

INSTANTIATE_TEST_SUITE_P(Jobs, ScaleDigest, ::testing::Values(1, 4));

} // namespace
