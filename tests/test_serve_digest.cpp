/**
 * @file
 * Serve-key output identity: compile every key of the serve_zipf
 * workload (the seven Table 2 kernels x tiles {1, 2, 4} x machines
 * base / 1-cycle x --route-select off / on, 84 points) through the
 * real rawcc CLI with --no-run (schedule cache off), and pin each
 * point's static instruction count and a 64-bit FNV-1a of its
 * --disasm listing.
 *
 * The goldens cover only the base machine at 1/4/16 tiles for four
 * kernels, so this is the gate that keeps the 1-cycle machine and
 * route-selected schedules byte-identical across compile-time
 * optimizations.  Each point is compiled at --jobs 1 and --jobs 4.
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
    const char *config; ///< rawcc --config value
    bool route_select;
    long long static_instrs;
    uint64_t disasm_fnv;
};

// Recorded from the compiler before the per-block compile-cost
// rewrites of the task graph, placement, register allocation, port
// folding and the event scheduler's processor slots.
constexpr Point kPoints[] = {
    {"life", 1, "base", false, 746, 0x173c28669cd643f0ULL},
    {"life", 1, "base", true, 746, 0x173c28669cd643f0ULL},
    {"life", 1, "1-cycle", false, 746, 0xfc09b27176c4273aULL},
    {"life", 1, "1-cycle", true, 746, 0xfc09b27176c4273aULL},
    {"life", 2, "base", false, 1728, 0x67f055bec1738ac6ULL},
    {"life", 2, "base", true, 1728, 0x67f055bec1738ac6ULL},
    {"life", 2, "1-cycle", false, 1721, 0x320ba74619926f12ULL},
    {"life", 2, "1-cycle", true, 1721, 0x320ba74619926f12ULL},
    {"life", 4, "base", false, 3690, 0x2ee94fc2e8c337baULL},
    {"life", 4, "base", true, 3690, 0x2ee94fc2e8c337baULL},
    {"life", 4, "1-cycle", false, 3682, 0x98e2c9b98c1173adULL},
    {"life", 4, "1-cycle", true, 3682, 0x98e2c9b98c1173adULL},
    {"vpenta", 1, "base", false, 266, 0xb7e06014624798c0ULL},
    {"vpenta", 1, "base", true, 266, 0xb7e06014624798c0ULL},
    {"vpenta", 1, "1-cycle", false, 266, 0x50ab892d0a112002ULL},
    {"vpenta", 1, "1-cycle", true, 266, 0x50ab892d0a112002ULL},
    {"vpenta", 2, "base", false, 1215, 0x584c4dd41d3a626aULL},
    {"vpenta", 2, "base", true, 1215, 0x584c4dd41d3a626aULL},
    {"vpenta", 2, "1-cycle", false, 1198, 0xea4eca9a8be550ddULL},
    {"vpenta", 2, "1-cycle", true, 1198, 0xea4eca9a8be550ddULL},
    {"vpenta", 4, "base", false, 4154, 0x924b18b12885d689ULL},
    {"vpenta", 4, "base", true, 4154, 0x924b18b12885d689ULL},
    {"vpenta", 4, "1-cycle", false, 4134, 0x1d44a99f71a8443bULL},
    {"vpenta", 4, "1-cycle", true, 4134, 0x1d44a99f71a8443bULL},
    {"cholesky", 1, "base", false, 1614, 0x7dacfc6303f3b29eULL},
    {"cholesky", 1, "base", true, 1614, 0x7dacfc6303f3b29eULL},
    {"cholesky", 1, "1-cycle", false, 1614, 0x8662bbf6e7c05500ULL},
    {"cholesky", 1, "1-cycle", true, 1614, 0x8662bbf6e7c05500ULL},
    {"cholesky", 2, "base", false, 17340, 0x1fddacd39c43369cULL},
    {"cholesky", 2, "base", true, 17340, 0x1fddacd39c43369cULL},
    {"cholesky", 2, "1-cycle", false, 16908, 0x9f7ecba05655ca1bULL},
    {"cholesky", 2, "1-cycle", true, 16908, 0x9f7ecba05655ca1bULL},
    {"cholesky", 4, "base", false, 112723, 0x0e371e433b096798ULL},
    {"cholesky", 4, "base", true, 112723, 0x0e371e433b096798ULL},
    {"cholesky", 4, "1-cycle", false, 112349, 0x2fc80b481254e985ULL},
    {"cholesky", 4, "1-cycle", true, 112349, 0x2fc80b481254e985ULL},
    {"tomcatv", 1, "base", false, 645, 0xe51b44ae970b022dULL},
    {"tomcatv", 1, "base", true, 645, 0xe51b44ae970b022dULL},
    {"tomcatv", 1, "1-cycle", false, 645, 0xd19ff46d13f5b797ULL},
    {"tomcatv", 1, "1-cycle", true, 645, 0xd19ff46d13f5b797ULL},
    {"tomcatv", 2, "base", false, 1069, 0x2875ff771591696eULL},
    {"tomcatv", 2, "base", true, 1069, 0x2875ff771591696eULL},
    {"tomcatv", 2, "1-cycle", false, 1080, 0xdfdfbbec2b5d5f45ULL},
    {"tomcatv", 2, "1-cycle", true, 1080, 0xdfdfbbec2b5d5f45ULL},
    {"tomcatv", 4, "base", false, 3298, 0xab04650931307059ULL},
    {"tomcatv", 4, "base", true, 3298, 0xab04650931307059ULL},
    {"tomcatv", 4, "1-cycle", false, 3356, 0x6cc16acf69410c14ULL},
    {"tomcatv", 4, "1-cycle", true, 3356, 0x6cc16acf69410c14ULL},
    {"fpppp-kernel", 1, "base", false, 3493, 0xa4ef4827a79073f4ULL},
    {"fpppp-kernel", 1, "base", true, 3493, 0xa4ef4827a79073f4ULL},
    {"fpppp-kernel", 1, "1-cycle", false, 3432, 0xeb9a07a5ccdbc619ULL},
    {"fpppp-kernel", 1, "1-cycle", true, 3432, 0xeb9a07a5ccdbc619ULL},
    {"fpppp-kernel", 2, "base", false, 5689, 0x6358a1a416571e83ULL},
    {"fpppp-kernel", 2, "base", true, 5689, 0x6358a1a416571e83ULL},
    {"fpppp-kernel", 2, "1-cycle", false, 5734, 0x86c60b94514d7210ULL},
    {"fpppp-kernel", 2, "1-cycle", true, 5734, 0x86c60b94514d7210ULL},
    {"fpppp-kernel", 4, "base", false, 6358, 0x262d052f657479edULL},
    {"fpppp-kernel", 4, "base", true, 6358, 0x262d052f657479edULL},
    {"fpppp-kernel", 4, "1-cycle", false, 6257, 0x90d5936a7c0c02bbULL},
    {"fpppp-kernel", 4, "1-cycle", true, 6257, 0x90d5936a7c0c02bbULL},
    {"mxm", 1, "base", false, 480, 0x453d1d27118a5f81ULL},
    {"mxm", 1, "base", true, 480, 0x453d1d27118a5f81ULL},
    {"mxm", 1, "1-cycle", false, 480, 0x8d75d642e6aff995ULL},
    {"mxm", 1, "1-cycle", true, 480, 0x8d75d642e6aff995ULL},
    {"mxm", 2, "base", false, 1447, 0x704bbf12f6ab6cfeULL},
    {"mxm", 2, "base", true, 1447, 0x704bbf12f6ab6cfeULL},
    {"mxm", 2, "1-cycle", false, 1402, 0x95ef54061163df9bULL},
    {"mxm", 2, "1-cycle", true, 1402, 0x95ef54061163df9bULL},
    {"mxm", 4, "base", false, 2037, 0xa4b5d84e5b7dbd13ULL},
    {"mxm", 4, "base", true, 2037, 0xa4b5d84e5b7dbd13ULL},
    {"mxm", 4, "1-cycle", false, 2065, 0x51ead8e25246dfd5ULL},
    {"mxm", 4, "1-cycle", true, 2065, 0x51ead8e25246dfd5ULL},
    {"jacobi", 1, "base", false, 447, 0x5d7cf911efd6331cULL},
    {"jacobi", 1, "base", true, 447, 0x5d7cf911efd6331cULL},
    {"jacobi", 1, "1-cycle", false, 447, 0x4cd3fddae8f62f3aULL},
    {"jacobi", 1, "1-cycle", true, 447, 0x4cd3fddae8f62f3aULL},
    {"jacobi", 2, "base", false, 1011, 0x4dac5cc799a9dd1cULL},
    {"jacobi", 2, "base", true, 1011, 0x4dac5cc799a9dd1cULL},
    {"jacobi", 2, "1-cycle", false, 1036, 0xd88789ffa1dbe642ULL},
    {"jacobi", 2, "1-cycle", true, 1036, 0xd88789ffa1dbe642ULL},
    {"jacobi", 4, "base", false, 2014, 0xdf214cead6633aaeULL},
    {"jacobi", 4, "base", true, 2014, 0xdf214cead6633aaeULL},
    {"jacobi", 4, "1-cycle", false, 2037, 0xfc6d9d96aac663fcULL},
    {"jacobi", 4, "1-cycle", true, 2037, 0xfc6d9d96aac663fcULL},
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

class ServeDigest : public ::testing::TestWithParam<int>
{
};

TEST_P(ServeDigest, DisasmAndStaticCountPinned)
{
    const int jobs = GetParam();
    EXPECT_EQ(sizeof kPoints / sizeof kPoints[0], 84u);
    for (const Point &pt : kPoints) {
        std::string args = "--tiles " + std::to_string(pt.tiles) +
                           " --config " + pt.config +
                           (pt.route_select ? " --route-select" : "") +
                           " --no-run --disasm --stats --no-sched-cache"
                           " --jobs " +
                           std::to_string(jobs) + " " + pt.bench;
        SCOPED_TRACE(args);
        int status = 0;
        std::string out = run_rawcc(args, status);
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

INSTANTIATE_TEST_SUITE_P(Jobs, ServeDigest, ::testing::Values(1, 4));

} // namespace
