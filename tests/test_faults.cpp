/**
 * @file
 * Fault-injection and self-checking tests: multi-channel fault
 * determinism, the static-ordering property under every channel, the
 * runtime provenance/FIFO checker (clean on real schedules, firing on
 * a hand-built violation), the exact wait-for-graph deadlock
 * diagnostic with its timeout backstop, the campaign driver, and CLI
 * validation of the fault flags.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include <sys/wait.h>

#include <gtest/gtest.h>

#include "harness/campaign.hpp"
#include "harness/harness.hpp"

namespace raw {
namespace {

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
    cp.total_words = 16;
    return cp;
}

SInstr
route1(Dir in, Dir out)
{
    SInstr s;
    s.k = SInstr::K::kRoute;
    s.routes = {
        {in, static_cast<uint8_t>(1u << static_cast<int>(out)), -1}};
    return s;
}

SInstr
shalt()
{
    SInstr s;
    s.k = SInstr::K::kHalt;
    return s;
}

/**
 * Two switches each waiting for a word from the other before
 * forwarding to their processor: a genuine routing cycle (both procs
 * recv first, so nothing is ever injected).
 */
CompiledProgram
routing_cycle()
{
    CompiledProgram cp = skeleton(2);
    cp.tiles[0].code = {pi(Op::kRecv, 1), pi(Op::kSend, -1, 1),
                        pi(Op::kHalt)};
    cp.tiles[1].code = {pi(Op::kRecv, 1), pi(Op::kSend, -1, 1),
                        pi(Op::kHalt)};
    cp.switches[0].code = {route1(Dir::kEast, Dir::kProc),
                           route1(Dir::kProc, Dir::kEast), shalt()};
    cp.switches[1].code = {route1(Dir::kWest, Dir::kProc),
                           route1(Dir::kProc, Dir::kWest), shalt()};
    return cp;
}

TEST(Deadlock, WaitForGraphNamesTheCycle)
{
    CompiledProgram cp = routing_cycle();
    Simulator sim(cp);
    try {
        sim.run();
        FAIL() << "routing cycle must deadlock";
    } catch (const DeadlockError &e) {
        std::string msg = e.what();
        // Exact detection (no timeout spin) with the cyclic switches
        // named along the blocking cycle.
        EXPECT_NE(msg.find("wait-for-graph"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("blocking cycle"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("sw0@pc0"), std::string::npos) << msg;
        EXPECT_NE(msg.find("sw1@pc0"), std::string::npos) << msg;
    }
}

TEST(Deadlock, ExactDetectionFiresFast)
{
    // The frozen-machine detector must report at the freeze, not
    // after the 100k-cycle stall-count window.
    CompiledProgram cp = routing_cycle();
    Simulator sim(cp);
    try {
        sim.run();
        FAIL() << "routing cycle must deadlock";
    } catch (const DeadlockError &e) {
        std::string msg = e.what();
        EXPECT_EQ(msg.find("no progress for"), std::string::npos)
            << "timeout backstop fired instead of exact detection: "
            << msg;
    }
}

TEST(Deadlock, TimeoutBackstopStillFiresUnderJitter)
{
    // Clock jitter redraws every cycle, which disables the exact
    // frozen-machine proof; the stall-count backstop must still
    // catch the same cycle (and say so in the old format).
    CompiledProgram cp = routing_cycle();
    FaultConfig f;
    f.jitter_rate = 0.5;
    f.seed = 3;
    Simulator sim(cp, f);
    try {
        sim.run();
        FAIL() << "routing cycle must deadlock under jitter too";
    } catch (const DeadlockError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("no progress for"), std::string::npos)
            << msg;
        // The wait-for-graph analysis is appended to the timeout
        // report as well.
        EXPECT_NE(msg.find("blocking cycle"), std::string::npos)
            << msg;
    }
}

TEST(Faults, MultiChannelDeterministicPerSeed)
{
    const BenchmarkProgram &prog = benchmark("jacobi");
    FaultConfig f;
    f.miss_rate = 0.05;
    f.penalty = 11;
    f.route_stall_rate = 0.05;
    f.route_stall_cycles = 2;
    f.dyn_delay_rate = 0.1;
    f.dyn_delay_cycles = 5;
    f.jitter_rate = 0.02;
    f.seed = 1234;
    RunResult a = run_rawcc(prog.source, MachineConfig::base(4),
                            prog.check_array, {}, f);
    RunResult b = run_rawcc(prog.source, MachineConfig::base(4),
                            prog.check_array, {}, f);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.prints, b.prints);
    EXPECT_EQ(a.check_words, b.check_words);
}

TEST(Faults, StaticOrderingHoldsUnderEveryChannel)
{
    // Appendix A live: each channel perturbs timing (cycles change)
    // but never results (prints and memory identical to clean).
    const BenchmarkProgram &prog = benchmark("jacobi");
    RunResult clean = run_rawcc(prog.source, MachineConfig::base(4),
                                prog.check_array);
    FaultConfig route, dyn, jitter;
    route.route_stall_rate = 0.2;
    route.route_stall_cycles = 4;
    route.seed = 7;
    dyn.dyn_delay_rate = 0.3;
    dyn.dyn_delay_cycles = 9;
    dyn.seed = 7;
    jitter.jitter_rate = 0.1;
    jitter.seed = 7;
    bool perturbed = false;
    for (const FaultConfig &f : {route, dyn, jitter}) {
        RunResult r = run_rawcc(prog.source, MachineConfig::base(4),
                                prog.check_array, {}, f);
        EXPECT_EQ(r.prints, clean.prints);
        EXPECT_EQ(r.check_words, clean.check_words);
        // Injected latency may only ever cost cycles (a channel the
        // schedule never exercises — e.g. dyn delay on an all-static
        // program — costs none).
        EXPECT_GE(r.cycles, clean.cycles);
        perturbed |= r.cycles != clean.cycles;
    }
    EXPECT_TRUE(perturbed)
        << "no fault channel perturbed the timing at all";
}

TEST(Checker, CleanOnRealScheduleAndHashTimingInvariant)
{
    const BenchmarkProgram &prog = benchmark("jacobi");
    CheckConfig checks;
    checks.provenance = true;
    checks.fifo_bounds = true;
    RunResult clean = run_rawcc(prog.source, MachineConfig::base(4),
                                prog.check_array, {}, {}, checks);
    EXPECT_EQ(clean.sim.check_failure_count, 0);
    EXPECT_NE(clean.sim.prov_hash, 0u);
    // Same program under heavy faults: still zero violations, and
    // the provenance stream hash is bit-identical (the checker's
    // live statement of the static-ordering property).
    FaultConfig f;
    f.miss_rate = 0.2;
    f.penalty = 17;
    f.route_stall_rate = 0.1;
    f.route_stall_cycles = 3;
    f.dyn_delay_rate = 0.1;
    f.dyn_delay_cycles = 6;
    f.jitter_rate = 0.05;
    f.seed = 99;
    RunResult faulty = run_rawcc(prog.source, MachineConfig::base(4),
                                 prog.check_array, {}, f, checks);
    EXPECT_EQ(faulty.sim.check_failure_count, 0);
    EXPECT_EQ(faulty.sim.prov_hash, clean.sim.prov_hash);
}

TEST(Checker, FlagsProducerChangeAtOneConsumptionPoint)
{
    // Tile 0 sends from two different pcs; tile 1 consumes both at
    // the SAME recv pc (a loop).  A real static schedule never does
    // this — the checker must flag the binding change, record a
    // structured failure, and let the run finish.
    CompiledProgram cp = skeleton(2);
    PInstr two = pi(Op::kConst, 2);
    two.imm = int_bits(2);
    PInstr one = pi(Op::kConst, 3);
    one.imm = int_bits(1);
    PInstr v = pi(Op::kConst, 1);
    v.imm = int_bits(42);
    cp.tiles[0].code = {v, pi(Op::kSend, -1, 1),
                        pi(Op::kSend, -1, 1), pi(Op::kHalt)};
    PInstr br = pi(Op::kBranch, -1, 2);
    br.target = 2;
    cp.tiles[1].code = {two, one,
                        pi(Op::kRecv, 4),      // pc2: the loop body
                        pi(Op::kSub, 2, 2, 3), // counter--
                        br, pi(Op::kHalt)};
    cp.switches[0].code = {route1(Dir::kProc, Dir::kEast),
                           route1(Dir::kProc, Dir::kEast), shalt()};
    cp.switches[1].code = {route1(Dir::kWest, Dir::kProc),
                           route1(Dir::kWest, Dir::kProc), shalt()};
    CheckConfig checks;
    checks.provenance = true;
    checks.fifo_bounds = true;
    Simulator sim(cp, {}, checks);
    SimResult r = sim.run();
    ASSERT_GE(r.check_failure_count, 1);
    ASSERT_FALSE(r.check_failures.empty());
    EXPECT_EQ(r.check_failures[0].kind, "provenance");
    EXPECT_EQ(r.check_failures[0].tile, 1);
    EXPECT_NE(r.check_failures[0].detail.find(
                  "static-ordering violation"),
              std::string::npos);
}

TEST(Checker, ZeroCostPathsUntouchedWhenDisabled)
{
    // With checking off the SimResult check fields stay at their
    // defaults (the simulator takes none of the checker paths).
    const BenchmarkProgram &prog = benchmark("jacobi");
    RunResult r = run_rawcc(prog.source, MachineConfig::base(4),
                            prog.check_array);
    EXPECT_EQ(r.sim.check_failure_count, 0);
    EXPECT_EQ(r.sim.prov_hash, 0u);
    EXPECT_TRUE(r.sim.check_failures.empty());
}

TEST(Campaign, PointGeneratorCoversChannelsAndSeeds)
{
    FaultConfig clean = campaign_point(5, 0);
    EXPECT_FALSE(clean.any());
    bool miss = false, route = false, dyn = false, jitter = false;
    for (int i = 1; i <= 16; i++) {
        FaultConfig f = campaign_point(5, i);
        EXPECT_TRUE(f.any()) << "point " << i;
        EXPECT_NE(f.seed, campaign_point(5, i - 1).seed);
        miss |= f.miss_rate > 0;
        route |= f.route_stall_rate > 0;
        dyn |= f.dyn_delay_rate > 0;
        jitter |= f.jitter_rate > 0;
    }
    EXPECT_TRUE(miss && route && dyn && jitter);
}

TEST(Campaign, SmallSweepCleanAndReportWellFormed)
{
    CampaignReport rep = run_fault_campaign(
        "jacobi", MachineConfig::base(4), 6, 11, 2);
    EXPECT_TRUE(rep.clean()) << rep.summary();
    EXPECT_EQ(rep.failed_points(), 0);
    ASSERT_EQ(rep.points.size(), 6u);
    EXPECT_EQ(rep.points[0].channels, "clean");
    for (const CampaignPoint &p : rep.points) {
        EXPECT_TRUE(p.ok());
        EXPECT_EQ(p.prov_hash, rep.points[0].prov_hash);
    }
    std::string js = rep.to_json();
    EXPECT_NE(js.find("\"clean\": true"), std::string::npos);
    EXPECT_NE(js.find("\"points\": 6"), std::string::npos);
}

#ifdef RAWCC_BIN
int
run_cli(const std::string &args)
{
    std::string cmd = std::string(RAWCC_BIN) + " " + args +
                      " >/dev/null 2>&1";
    int rc = std::system(cmd.c_str());
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

/** Exit code of rawcc @p args; its stdout or stderr lands in @p out. */
int
run_cli_capture(const std::string &args, bool want_stderr,
                std::string &out)
{
    std::string cmd = std::string(RAWCC_BIN) + " " + args +
                      (want_stderr ? " 2>&1 >/dev/null" : " 2>/dev/null");
    FILE *f = popen(cmd.c_str(), "r");
    if (!f)
        return -1;
    out.clear();
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    int rc = pclose(f);
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

TEST(Cli, RejectsNaNAndOutOfRangeRates)
{
    EXPECT_EQ(run_cli("--miss-rate nan jacobi"), 2);
    EXPECT_EQ(run_cli("--miss-rate 1.5 jacobi"), 2);
    EXPECT_EQ(run_cli("--miss-rate -0.1 jacobi"), 2);
    EXPECT_EQ(run_cli("--miss-penalty -3 jacobi"), 2);
    EXPECT_EQ(run_cli("--route-stall-rate nan jacobi"), 2);
    EXPECT_EQ(run_cli("--dyn-delay-rate 2 jacobi"), 2);
    EXPECT_EQ(run_cli("--jitter-rate nan jacobi"), 2);
}

TEST(Cli, RejectsBadModuloKnobs)
{
    EXPECT_EQ(run_cli("--mii-cap 0 jacobi"), 2);
    EXPECT_EQ(run_cli("--mii-cap -5 jacobi"), 2);
    EXPECT_EQ(run_cli("--mii-cap 65537 jacobi"), 2);
    EXPECT_EQ(run_cli("--mii-cap nope jacobi"), 2);
    // Missing value at end of line.
    EXPECT_EQ(run_cli("jacobi --mii-cap"), 2);
}

TEST(Cli, ModuloKnobsRoundTrip)
{
    // In-range values parse and compile cleanly.
    EXPECT_EQ(run_cli("--modulo --mii-cap 64 --tiles 4 --no-run jacobi"),
              0);
    EXPECT_EQ(run_cli("--mii-cap 1 --tiles 4 --no-run jacobi"), 0);
}

// rawcc has no --oracle-budget: with or without a value it is an
// unknown flag like any other.
TEST(Cli, RemovedOracleFlagIsUnknown)
{
    EXPECT_EQ(run_cli("--oracle-budget 1000 --no-run jacobi"), 2);
    EXPECT_EQ(run_cli("--oracle-budget 0 --no-run jacobi"), 2);
    EXPECT_EQ(run_cli("jacobi --oracle-budget"), 2);
    std::string err;
    EXPECT_EQ(run_cli_capture("--oracle-budget 10 jacobi", true, err), 2);
    EXPECT_NE(err.find("unknown flag '--oracle-budget'"),
              std::string::npos)
        << err;
}

// The on-disk schedule cache is gone: --cache-dir is rejected like any
// unknown flag rather than silently ignored.
TEST(Cli, RemovedCacheDirFlagIsUnknown)
{
    std::string err;
    EXPECT_EQ(run_cli_capture("--cache-dir d jacobi", true, err), 2);
    EXPECT_NE(err.find("unknown flag '--cache-dir'"), std::string::npos)
        << err;
}

// A second input is a usage error, not a silently replaced first one.
TEST(Cli, SecondPositionalExitsTwo)
{
    std::string err;
    EXPECT_EQ(run_cli_capture("jacobi extra --no-run", true, err), 2);
    EXPECT_NE(err.find("'jacobi' and 'extra'"), std::string::npos)
        << err;
    EXPECT_EQ(run_cli("--no-run jacobi life"), 2);
    EXPECT_EQ(run_cli("--tiles 4 jacobi --no-run"), 0);
}

// --config is checked while parsing: a bad name exits 2 before the
// input is even opened (the input here does not exist).
TEST(Cli, BadConfigExitsTwoAtParseTime)
{
    std::string err;
    EXPECT_EQ(run_cli_capture("--config bogus no-such-file.rawc", true,
                              err),
              2);
    EXPECT_NE(err.find("--config"), std::string::npos) << err;
    EXPECT_EQ(err.find("cannot open input"), std::string::npos) << err;
    EXPECT_EQ(run_cli("--config bogus jacobi --no-run"), 2);
    EXPECT_EQ(run_cli("--config inf-reg jacobi --no-run"), 0);
    EXPECT_EQ(run_cli("--config 1-cycle --baseline jacobi --no-run"), 0);
}

// --help is asked-for output: usage on stdout, nothing on stderr,
// exit 0.  A usage error still prints the usage to stderr.
TEST(Cli, HelpPrintsUsageToStdout)
{
    std::string out, err;
    EXPECT_EQ(run_cli_capture("--help", false, out), 0);
    EXPECT_NE(out.find("usage: rawcc"), std::string::npos) << out;
    EXPECT_EQ(run_cli_capture("--help", true, err), 0);
    EXPECT_TRUE(err.empty()) << err;
    EXPECT_EQ(run_cli_capture("-h jacobi", false, out), 0);
    EXPECT_NE(out.find("usage: rawcc"), std::string::npos) << out;
    EXPECT_EQ(run_cli_capture("", true, err), 2);
    EXPECT_NE(err.find("usage: rawcc"), std::string::npos) << err;
}
#endif

} // namespace
} // namespace raw
