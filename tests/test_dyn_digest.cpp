/**
 * @file
 * Dynamic-network timing identity: run programs that send thousands
 * of dynamic messages through the real rawcc CLI on the threaded and
 * reference cores, and pin each point's cycle count, dynamic message
 * count, words routed and a 64-bit FNV-1a of its --profile listing.
 *
 * Every golden records `dyn_messages 0`, and --sim-diff only compares
 * the simulator cores with each other while all of them share the
 * wormhole router (Simulator::step_plane).  This is the gate that
 * keeps dynamic-network timing byte-identical across performance work
 * on the router.  The listing holds the per-tile served, queue-wait,
 * max-queue and net-blocked counters of every remote-memory handler;
 * the compile wall-clock lines are removed before hashing.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>

namespace {

struct Point
{
    const char *args;
    long long cycles;
    long long dyn_messages;
    long long words_routed;
    uint64_t profile_fnv;
};

// Recorded from the simulator before the router stepped by occupied
// tiles; the threaded and reference cores must both reproduce them.
constexpr Point kPoints[] = {
    {"vpenta --tiles 16 --no-unroll", 239122, 24642, 146245,
     0x8cef17ddb8b0f936ULL},
    {"jacobi --tiles 16 --no-unroll", 479587, 26881, 167520,
     0xc917afbb85f0c383ULL},
    {"cholesky --tiles 64", 225199, 8305, 296944,
     0x56dbd6c8ab042fe3ULL},
    {"vpenta --tiles 16 --no-unroll --dyn-delay-rate 0.1 "
     "--dyn-delay-cycles 7 --seed 3",
     249546, 24642, 146245, 0x126e23df69103c70ULL},
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

/** @p out without the lines that report wall-clock time. */
std::string
strip_wall_clock(const std::string &out)
{
    std::istringstream in(out);
    std::string line, kept;
    while (std::getline(in, line)) {
        if (line.rfind("compile stages (ms):", 0) == 0 ||
            line.rfind("orchestrate phases:", 0) == 0)
            continue;
        kept += line;
        kept += '\n';
    }
    return kept;
}

/** The number just before @p label in the run summary line. */
long long
summary_field(const std::string &out, const std::string &label)
{
    size_t at = out.find(" " + label);
    if (at == std::string::npos)
        return -1;
    size_t begin = out.find_last_of("[ ", at - 1);
    return std::stoll(out.substr(begin + 1, at - begin - 1));
}

class DynDigest : public ::testing::TestWithParam<const char *>
{
};

TEST_P(DynDigest, TimingAndProfilePinned)
{
    const std::string backend = GetParam();
    for (const Point &pt : kPoints) {
        SCOPED_TRACE(std::string(pt.args) + " --sim-backend " +
                     backend);
        int status = 0;
        std::string out = run_rawcc(
            std::string(pt.args) +
                " --profile --no-sched-cache --jobs 1 --sim-backend " +
                backend,
            status);
        ASSERT_EQ(status, 0);
        ASSERT_NE(out.find("== profile:"), std::string::npos)
            << "no --profile listing";

        EXPECT_EQ(summary_field(out, "cycles,"), pt.cycles);
        EXPECT_EQ(summary_field(out, "dynamic msgs]"), pt.dyn_messages);
        EXPECT_EQ(summary_field(out, "words routed,"), pt.words_routed);
        std::string listing = strip_wall_clock(out);
        uint64_t fnv = fnv1a64(listing);
        EXPECT_EQ(fnv, pt.profile_fnv)
            << "--profile listing of " << listing.size()
            << " bytes changed: 0x" << std::hex << fnv;
    }
}

INSTANTIATE_TEST_SUITE_P(Backends, DynDigest,
                         ::testing::Values("threaded", "reference"));

} // namespace
