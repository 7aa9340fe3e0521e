/**
 * @file
 * End-to-end smoke of the real `rawcc serve` daemon (ctest label
 * serve-smoke): fork the binary, speak the line protocol over a Unix
 * socket, and walk the whole robustness surface in a few seconds —
 * compile (miss then hit), simulate, a deterministically forced
 * overload shed, and a SIGTERM drain that must answer every
 * outstanding request and exit 0.  Also pins the daemon's argv
 * handling and the strict request-field walk.
 */

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <string>

#include "serve/client.hpp"
#include "support/error.hpp"

#ifndef RAWCC_BIN
#define RAWCC_BIN "rawcc"
#endif

namespace raw {
namespace serve {
namespace {

using Clock = std::chrono::steady_clock;

std::string
test_sock(const char *tag)
{
    return "/tmp/rawcc-serve-test-" + std::to_string(::getpid()) +
           "-" + tag + ".sock";
}

/** Poll the stats op until @p pred holds or @p ms elapse. */
template <typename Pred>
bool
wait_stats(ServeClient &c, int64_t ms, Pred pred)
{
    Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(ms);
    while (Clock::now() < deadline) {
        Json st = c.request("{\"op\":\"stats\"}", 2000);
        if (pred(st))
            return true;
        ::usleep(10000);
    }
    return false;
}

TEST(ServeCli, CompileSimulateShedAndDrain)
{
    // One worker + depth-1 queue makes the overload scenario
    // deterministic: worker busy + queue full => third request shed.
    ServeDaemon d;
    d.start(RAWCC_BIN,
            {"--socket", test_sock("smoke"), "--workers", "1",
             "--queue-depth", "1", "--drain", "3000"});

    ServeClient ctl; // control-plane ops (inline: ping/stats)
    ctl.connect(d.endpoint());

    // -- liveness --------------------------------------------
    Json pong = ctl.request("{\"op\":\"ping\",\"id\":\"p\"}", 2000);
    EXPECT_TRUE(pong.bool_or("ok", false));
    EXPECT_EQ(pong.str_or("id", ""), "p");

    // -- compile: miss, then hit -----------------------------
    const std::string kCompile =
        "{\"op\":\"compile\",\"bench\":\"jacobi\",\"tiles\":4}";
    Json c1 = ctl.request(kCompile, 15000);
    ASSERT_TRUE(c1.bool_or("ok", false)) << c1.str_or("message", "");
    EXPECT_EQ(c1.str_or("cache", ""), "miss");
    EXPECT_GT(c1.int_or("static_instrs", 0), 0);
    std::string digest = c1.str_or("digest", "");
    EXPECT_EQ(digest.size(), 32u);

    Json c2 = ctl.request(kCompile, 15000);
    ASSERT_TRUE(c2.bool_or("ok", false));
    EXPECT_EQ(c2.str_or("cache", ""), "hit");
    EXPECT_EQ(c2.str_or("digest", ""), digest);

    // -- simulate (shares the compile cache entry) -----------
    Json sim = ctl.request(
        "{\"op\":\"simulate\",\"bench\":\"jacobi\",\"tiles\":4,"
        "\"checks\":{\"provenance\":true}}",
        15000);
    ASSERT_TRUE(sim.bool_or("ok", false))
        << sim.str_or("message", "");
    EXPECT_EQ(sim.str_or("cache", ""), "hit");
    EXPECT_GT(sim.int_or("cycles", 0), 0);
    EXPECT_EQ(sim.int_or("check_failures", -1), 0);
    EXPECT_NE(sim.str_or("prov_hash", "0000000000000000"),
              "0000000000000000");

    // -- structured errors keep the daemon alive -------------
    Json bad = ctl.request(
        "{\"op\":\"compile\",\"source\":\"syntax error\"}", 15000);
    EXPECT_FALSE(bad.bool_or("ok", true));
    EXPECT_EQ(bad.str_or("error", ""), "compile_error");
    EXPECT_TRUE(
        ctl.request("{\"op\":\"ping\"}", 2000).bool_or("ok", false));

    // -- forced overload shed --------------------------------
    // Stall 1 occupies the only worker; stall 2 fills the only
    // queue slot; the third work request must be shed.
    ServeClient stalls;
    stalls.connect(d.endpoint());
    int64_t base =
        ctl.request("{\"op\":\"stats\"}", 2000).int_or("admitted", 0);
    stalls.send_line("{\"op\":\"stall\",\"ms\":1500,\"id\":\"s1\"}");
    // Wait until s1 is admitted AND dequeued (worker holds it);
    // only then can s2 occupy the single queue slot instead of
    // racing the worker for it.
    ASSERT_TRUE(wait_stats(ctl, 2000, [&](const Json &st) {
        return st.int_or("admitted", 0) == base + 1 &&
               st.int_or("queue_depth", -1) == 0;
    })) << "worker never picked up the first stall";
    stalls.send_line("{\"op\":\"stall\",\"ms\":1500,\"id\":\"s2\"}");
    ASSERT_TRUE(wait_stats(ctl, 2000, [&](const Json &st) {
        return st.int_or("admitted", 0) == base + 2 &&
               st.int_or("queue_depth", 0) == 1;
    })) << "queue slot never filled";

    Json shed = ctl.request(kCompile, 5000);
    EXPECT_FALSE(shed.bool_or("ok", true));
    EXPECT_EQ(shed.str_or("error", ""), "overloaded");

    // -- SIGTERM drain ---------------------------------------
    // Queued stall s2 must be cancelled with a structured reply;
    // in-flight s1 finishes; the daemon exits 0.
    d.kill_with(SIGTERM);
    bool got_ok = false, got_cancelled = false;
    for (int i = 0; i < 2; i++) {
        std::string line;
        ASSERT_TRUE(stalls.recv_line(line, 5000))
            << "drain dropped a reply";
        Json r;
        std::string err;
        ASSERT_TRUE(json_parse(line, r, err)) << line;
        if (r.bool_or("ok", false))
            got_ok = true;
        else if (r.str_or("error", "") == "shutting_down")
            got_cancelled = true;
    }
    EXPECT_TRUE(got_ok) << "in-flight stall must complete";
    EXPECT_TRUE(got_cancelled)
        << "queued stall must be cancelled, not ghosted";

    EXPECT_EQ(d.stop(), 0) << "clean exit after drain";
}

TEST(ServeCli, RejectsGarbageLinesWithoutDying)
{
    ServeDaemon d;
    d.start(RAWCC_BIN, {"--socket", test_sock("garbage"),
                        "--workers", "1", "--queue-depth", "2"});
    ServeClient c;
    c.connect(d.endpoint());

    Json r1 = c.request("this is not json", 5000);
    EXPECT_EQ(r1.str_or("error", ""), "bad_request");
    Json r2 = c.request("[1,2,3]", 5000);
    EXPECT_EQ(r2.str_or("error", ""), "bad_request");
    // Out-of-range fault rates and unknown benches are malformed
    // requests, rejected before admission.
    Json r3 = c.request("{\"op\":\"simulate\",\"bench\":\"jacobi\","
                        "\"faults\":{\"miss_rate\":7.5}}",
                        5000);
    EXPECT_EQ(r3.str_or("error", ""), "bad_request");
    Json r4 = c.request("{\"op\":\"compile\",\"bench\":\"nope\"}",
                        5000);
    EXPECT_EQ(r4.str_or("error", ""), "bad_request");

    // Still alive and still serving after all of that.
    Json ok = c.request("{\"op\":\"compile\",\"bench\":\"life\","
                        "\"tiles\":4}",
                        15000);
    EXPECT_TRUE(ok.bool_or("ok", false));
    EXPECT_EQ(d.stop(), 0);
}

// Compile options are validated, not defaulted: an unknown key, a
// value of the wrong type, a non-integer or out-of-range sched_iters
// and a repeated key each get bad_request, on compile and simulate.
TEST(ServeCli, RejectsBadCompileOptions)
{
    ServeDaemon d;
    d.start(RAWCC_BIN, {"--socket", test_sock("options"), "--workers",
                        "1", "--queue-depth", "2"});
    ServeClient c;
    c.connect(d.endpoint());

    const char *kBad[] = {
        "[]",
        "{\"route_selct\":true}",
        "{\"route_select\":\"yes\"}",
        "{\"pgo\":1}",
        "{\"smart_homes\":null}",
        "{\"verify_ir\":\"false\"}",
        "{\"sched_iters\":2.5}",
        "{\"sched_iters\":\"2\"}",
        "{\"sched_iters\":-1}",
        "{\"sched_iters\":17}",
        "{\"sched_iters\":64}",
        "{\"route_select\":true,\"route_select\":false}",
    };
    int64_t bad = 0;
    for (const char *opts : kBad)
        for (const char *op : {"compile", "simulate"}) {
            Json r = c.request(std::string("{\"op\":\"") + op +
                                   "\",\"bench\":\"jacobi\","
                                   "\"tiles\":4,\"options\":" +
                                   opts + "}",
                               15000);
            EXPECT_FALSE(r.bool_or("ok", true)) << op << " " << opts;
            EXPECT_EQ(r.str_or("error", ""), "bad_request")
                << op << " " << opts << ": " << r.str_or("message", "");
            bad++;
        }
    EXPECT_EQ(c.request("{\"op\":\"stats\"}", 2000)
                  .int_or("bad_requests", -1),
              bad);

    // Every key at a valid value still compiles.
    Json ok = c.request(
        "{\"op\":\"compile\",\"bench\":\"jacobi\",\"tiles\":4,"
        "\"options\":{\"route_select\":true,\"sched_iters\":16,"
        "\"pgo\":false,\"smart_homes\":false,\"verify_ir\":true}}",
        30000);
    EXPECT_TRUE(ok.bool_or("ok", false)) << ok.str_or("message", "");
    EXPECT_EQ(d.stop(), 0);
}

// Every request field is named, typed and given once, like the
// compile options: each malformed request gets bad_request, a
// well-formed id is still echoed, and the daemon keeps serving.
TEST(ServeCli, RejectsBadRequestFields)
{
    ServeDaemon d;
    d.start(RAWCC_BIN, {"--socket", test_sock("fields"), "--workers",
                        "1", "--queue-depth", "2"});
    ServeClient c;
    c.connect(d.endpoint());

    const char *kBad[] = {
        "{\"op\":\"compile\",\"bench\":\"jacobi\",\"tiles\":4.5}",
        "{\"op\":\"compile\",\"bench\":\"jacobi\",\"tiles\":\"4\"}",
        "{\"op\":\"compile\",\"bench\":\"jacobi\",\"tiles\":0}",
        "{\"op\":\"compile\",\"bench\":\"jacobi\",\"tiles\":4,"
        "\"tiles\":4}",
        "{\"op\":\"compile\",\"bench\":\"jacobi\",\"tile\":4}",
        "{\"op\":\"compile\",\"bench\":\"nope\"}",
        "{\"op\":\"compile\",\"bench\":7}",
        "{\"op\":\"compile\"}",
        "{\"op\":\"compile\",\"bench\":\"jacobi\",\"source\":\"x\"}",
        "{\"op\":\"compile\",\"source\":\"\"}",
        "{\"op\":\"compile\",\"bench\":\"jacobi\",\"machine\":\"big\"}",
        "{\"op\":\"compile\",\"bench\":\"jacobi\",\"timeout_ms\":0}",
        "{\"op\":\"compile\",\"bench\":\"jacobi\",\"timeout_ms\":\"5\"}",
        "{\"op\":\"compile\",\"bench\":\"jacobi\",\"id\":5}",
        "{\"op\":7}",
        "{\"bench\":\"jacobi\"}",
        "{\"op\":\"simulate\",\"bench\":\"jacobi\",\"faults\":{\"seed\":-1}}",
        "{\"op\":\"simulate\",\"bench\":\"jacobi\","
        "\"faults\":{\"penalty\":\"x\"}}",
        "{\"op\":\"simulate\",\"bench\":\"jacobi\","
        "\"faults\":{\"miss_rate\":7.5}}",
        "{\"op\":\"simulate\",\"bench\":\"jacobi\","
        "\"faults\":{\"miss_rat\":0.1}}",
        "{\"op\":\"simulate\",\"bench\":\"jacobi\",\"faults\":[]}",
        "{\"op\":\"simulate\",\"bench\":\"jacobi\","
        "\"checks\":{\"provenance\":1}}",
        "{\"op\":\"simulate\",\"bench\":\"jacobi\",\"backend\":\"fast\"}",
        "{\"op\":\"simulate\",\"bench\":\"jacobi\",\"max_cycles\":0}",
        "{\"op\":\"stall\",\"ms\":-1}",
        "{\"op\":\"stall\",\"ms\":60001}",
        "{\"op\":\"ping\",\"extra\":true}",
    };
    int64_t bad = 0;
    for (const char *line : kBad) {
        Json r = c.request(line, 15000);
        EXPECT_FALSE(r.bool_or("ok", true)) << line;
        EXPECT_EQ(r.str_or("error", ""), "bad_request")
            << line << ": " << r.str_or("message", "");
        bad++;
    }
    // The bad member does not hide a well-formed id, wherever it is.
    Json echoed = c.request(
        "{\"tiles\":\"4\",\"op\":\"compile\",\"bench\":\"jacobi\","
        "\"id\":\"e\"}",
        5000);
    EXPECT_EQ(echoed.str_or("error", ""), "bad_request");
    EXPECT_EQ(echoed.str_or("id", ""), "e");
    bad++;
    EXPECT_EQ(c.request("{\"op\":\"stats\"}", 2000)
                  .int_or("bad_requests", -1),
              bad);

    // The shapes the load generators send are accepted.
    Json sim = c.request(
        "{\"id\":\"17\",\"op\":\"simulate\",\"bench\":\"jacobi\","
        "\"tiles\":2,\"machine\":\"one_cycle\",\"backend\":\"threaded\","
        "\"options\":{\"route_select\":true}}",
        30000);
    EXPECT_TRUE(sim.bool_or("ok", false)) << sim.str_or("message", "");
    EXPECT_EQ(sim.str_or("id", ""), "17");
    Json full = c.request(
        "{\"op\":\"simulate\",\"bench\":\"jacobi\",\"tiles\":4,"
        "\"machine\":\"inf_reg\",\"backend\":\"region\","
        "\"max_cycles\":100000000,\"timeout_ms\":30000,"
        "\"faults\":{\"miss_rate\":0.01,\"penalty\":5,\"seed\":7,"
        "\"route_stall_rate\":0,\"dyn_delay_rate\":1,"
        "\"jitter_rate\":0.05},"
        "\"checks\":{\"provenance\":true,\"fifo_bounds\":false}}",
        30000);
    EXPECT_TRUE(full.bool_or("ok", false)) << full.str_or("message", "");
    Json stall = c.request("{\"op\":\"stall\",\"ms\":0}", 5000);
    EXPECT_TRUE(stall.bool_or("ok", false));
    EXPECT_EQ(d.stop(), 0);
}

/**
 * Exit code of `rawcc serve @p args`; its output, redirected by
 * @p redirect (stdout and stderr by default), lands in @p out.
 */
int
run_serve(const std::string &args, std::string &out,
          const char *redirect = " 2>&1")
{
    std::string cmd =
        std::string(RAWCC_BIN) + " serve " + args + redirect;
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

// The daemon walks argv with cli::Args like rawcc: --help prints the
// usage to stdout and exits 0; an unknown flag (the removed
// --cache-dir among them), a missing or bad value and a missing
// endpoint exit 2 before anything listens.
TEST(ServeCli, FlagHandling)
{
    std::string out;
    EXPECT_EQ(run_serve("--help", out, " 2>/dev/null"), 0);
    EXPECT_NE(out.find("usage: rawcc serve"), std::string::npos) << out;

    EXPECT_EQ(run_serve("--cache-dir /tmp/x --port 0", out), 2);
    EXPECT_NE(out.find("unknown flag '--cache-dir'"), std::string::npos)
        << out;
    EXPECT_EQ(run_serve("--port 0 --workers", out), 2);
    EXPECT_NE(out.find("--workers expects a value"), std::string::npos)
        << out;
    EXPECT_EQ(run_serve("--workers x --port 0", out), 2);
    EXPECT_EQ(run_serve("--queue-depth 0 --port 0", out), 2);
    EXPECT_EQ(run_serve("--workers 2", out), 2);
    EXPECT_NE(out.find("need --socket PATH or --port N"),
              std::string::npos)
        << out;
}

} // namespace
} // namespace serve
} // namespace raw
