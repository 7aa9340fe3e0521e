/**
 * @file
 * The serve workload (serve_zipf): a forked `rawcc serve` driven open
 * loop over loopback TCP.  Requests arrive as a Poisson process at
 * fixed rates; each one's latency runs from the time it was due, so a
 * stall is charged to every request queued behind it.  Every reply is
 * checked, and sent == ok + shed + timeout + error + cancelled +
 * silent must hold with nothing silent.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <cstdlib>
#include <mutex>
#include <random>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "harness/harness.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "support/error.hpp"

#ifndef RAWCC_BIN
#define RAWCC_BIN "rawcc"
#endif

namespace perfbench {

namespace {

using raw::serve::Json;
using raw::serve::ServeClient;
using raw::serve::ServeDaemon;

constexpr int kConnections = 4;
/** The daemon's default result-cache entry cap. */
constexpr size_t kCacheEntries = 64;
/** Daemon worker threads, and requests in flight during prefill. */
constexpr int kWorkers = 2;
/** Share of requests that are `simulate` (the rest `compile`). */
constexpr double kSimulateShare = 0.75;

// Offered rates and limits, frozen as absolute values from the seed
// commit's measured capacity (README.md, "Choices and what they
// replaced").
constexpr double kRateLo = 15.0;
constexpr double kRateHi = 30.0;
/**
 * Ladder rungs above the two fixed rates, tried in order.  They span
 * the capacity measured on the seed commit (shedding began between 60
 * and 150 rps), 15-20 rps apart, so the highest passing rung moves
 * with capacity.
 */
const double kLadderAbove[] = {45.0, 60.0, 75.0, 90.0, 110.0, 130.0, 150.0};
/** Alternating low/high rounds; each is 10% of --seconds. */
constexpr size_t kRounds = 4;
constexpr double kP95LimitMs = 500.0;
/**
 * A rung whose last reply comes later than this after its last
 * arrival left a growing backlog behind.
 */
constexpr double kDrainLimitMs = 1000.0;

/**
 * The 84 request keys (7 kernels x tiles {1,2,4} x machines {base,
 * one_cycle} x route_select {off, on}) in Zipf rank order: a fixed
 * shuffle, the same for every seed, so that popularity is tied to no
 * kernel, mesh size or machine.  Each is a distinct entry of the
 * daemon's cache (its digest covers all four).  README.md says why
 * the keys stop at 4 tiles and use no inf_reg machine.
 */
std::vector<Point>
key_population()
{
    std::vector<Point> keys;
    for (const Point &p : suite16_points())
        for (int t : {1, 2, 4})
            for (const char *m : {"base", "one_cycle"})
                for (bool rs : {false, true})
                    keys.push_back({p.prog, t, m, rs});
    std::mt19937_64 fixed(0x5eedULL);
    std::shuffle(keys.begin(), keys.end(), fixed);
    return keys;
}

std::string
request_line(int64_t id, const Point &k, bool simulate)
{
    raw::serve::JsonBuilder b;
    b.kv("id", std::to_string(id))
        .kv("op", simulate ? "simulate" : "compile")
        .kv("bench", k.prog)
        .kv("tiles", k.tiles)
        .kv("machine", k.machine);
    if (simulate)
        b.kv("backend", "threaded");
    if (k.route_select)
        b.raw("options", "{\"route_select\":true}");
    return b.str();
}

/** One request's life, filled by the sender and the reader. */
struct Req
{
    int64_t id = 0; ///< unique per OpenLoop
    int key = 0;
    bool simulate = false;
    Clock::time_point due, sent, done;
    std::string kind; ///< "ok", an error kind, "eof" or "silent"
    Json reply;
};

/**
 * Observed exact values per key: every reply for a key must repeat
 * the first one (cycles, prints, provenance hash, code size).
 */
struct KeyFacts
{
    int64_t cycles = -1, prints = -1, static_instrs = -1;
    std::string prov;
};

/**
 * Open-loop driver: kConnections connections to one daemon, one
 * reader thread each; the calling thread sends on schedule.
 */
class OpenLoop
{
  public:
    explicit OpenLoop(const std::string &endpoint)
    {
        for (ServeClient &c : conns_)
            c.connect(endpoint);
        try {
            for (int c = 0; c < kConnections; c++)
                readers_[c] = std::thread([this, c] { read_loop(c); });
        } catch (...) {
            join();
            throw;
        }
    }

    ~OpenLoop() { join(); }

    OpenLoop(const OpenLoop &) = delete;
    OpenLoop &operator=(const OpenLoop &) = delete;

    /**
     * Send @p reqs (due times already set) on schedule; wait until
     * every one is answered or @p drain_s after the last is due.
     */
    void
    run(std::vector<Req> &reqs, const std::vector<Point> &keys,
        double drain_s)
    {
        for (Req &r : reqs) {
            std::this_thread::sleep_until(r.due);
            r.id = next_id_++;
            {
                std::lock_guard<std::mutex> lock(mu_);
                pending_[r.id] = &r;
                r.sent = Clock::now();
            }
            try {
                conns_[r.id % kConnections].send_line(
                    request_line(r.id, keys[r.key], r.simulate));
            } catch (const std::exception &) {
                std::lock_guard<std::mutex> lock(mu_);
                pending_.erase(r.id);
                r.kind = "eof";
            }
        }
        Clock::time_point until =
            (reqs.empty() ? Clock::now() : reqs.back().due) +
            std::chrono::milliseconds(static_cast<int64_t>(drain_s * 1e3));
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait_until(lock, until, [&] { return pending_.empty(); });
        for (auto &[id, r] : pending_)
            r->kind = "silent";
        pending_.clear();
    }

  private:
    void
    join()
    {
        stop_ = true;
        for (std::thread &t : readers_)
            if (t.joinable())
                t.join();
    }

    /** Receive replies until EOF or until join() stops us. */
    void
    read_loop(int c)
    {
        std::string line;
        while (!stop_) {
            try {
                // The short timeout only bounds how long shutdown
                // waits; an expiry is not an error here.
                if (!conns_[c].recv_line(line, 100))
                    return;
            } catch (const raw::FatalError &) {
                continue;
            }
            Clock::time_point now = Clock::now();
            Json j;
            std::string err;
            if (!raw::serve::json_parse(line, j, err))
                continue;
            std::lock_guard<std::mutex> lock(mu_);
            auto it = pending_.find(
                std::strtoll(j.str_or("id", "-1").c_str(), nullptr, 10));
            if (it == pending_.end())
                continue;
            Req *r = it->second;
            r->done = now;
            r->kind = j.bool_or("ok", false) ? "ok"
                                             : j.str_or("error", "error");
            r->reply = std::move(j);
            pending_.erase(it);
            if (pending_.empty())
                cv_.notify_all();
        }
    }

    ServeClient conns_[kConnections];
    std::atomic<bool> stop_{false};
    std::mutex mu_;
    std::condition_variable cv_;
    /** Requests sent and not yet answered, by id; guarded by mu_. */
    std::unordered_map<int64_t, Req *> pending_;
    int64_t next_id_ = 1;
    std::thread readers_[kConnections];
};

/** Checks and tallies replies; conservation law included. */
struct Tally
{
    int64_t sent = 0, ok = 0, shed = 0, timeout = 0, error = 0,
            cancelled = 0, silent = 0, wrong = 0;
    /** lat_ms: simulate requests only; the rest: every ok reply. */
    std::vector<double> lat_ms, queue_ms, compile_ms, sim_ms, lag_ms;
    /** Simulated cycles of the ok simulate replies. */
    double cycles = 0;
    /** One line per request that was not answered ok. */
    std::vector<std::string> refusals;

    int64_t failed() const
    {
        return shed + timeout + error + cancelled + silent + wrong;
    }
};

void
check_reply(const Req &r, const Point &k,
            std::map<std::string, KeyFacts> &facts,
            const std::map<std::string, int64_t> &committed,
            Outcome &out, Tally &t)
{
    t.sent++;
    if (r.kind == "ok")
        t.ok++;
    else if (r.kind == "overloaded")
        t.shed++;
    else if (r.kind == "timeout")
        t.timeout++;
    else if (r.kind == "shutting_down")
        t.cancelled++;
    else if (r.kind == "silent" || r.kind == "eof")
        t.silent++;
    else
        t.error++;
    t.lag_ms.push_back(ms_between(r.due, r.sent));
    if (r.kind != "ok") {
        t.refusals.push_back(k.label() + ": " + r.kind + " " +
                             r.reply.str_or("message", ""));
        return;
    }
    const Json &j = r.reply;
    // Latency percentiles are over the simulate op: a compile hit
    // answers in about a millisecond, and a quarter of the requests
    // near zero would put the median on the gap between the two ops.
    if (r.simulate)
        t.lat_ms.push_back(ms_between(r.due, r.done));
    t.queue_ms.push_back(j.num_or("queue_ms", 0));
    std::string cache = j.str_or("cache", "");
    KeyFacts &f = facts[k.label()];
    bool good = true;
    auto same = [&](int64_t &slot, int64_t v, const char *what) {
        if (slot < 0)
            slot = v;
        else if (slot != v) {
            out.errors.push_back(k.label() + ": " + what +
                                 " differs between replies");
            good = false;
        }
    };
    if (r.simulate) {
        t.sim_ms.push_back(j.num_or("sim_ms", 0));
        t.cycles += static_cast<double>(j.int_or("cycles", 0));
        if (cache == "miss")
            t.compile_ms.push_back(j.num_or("compile_ms", 0));
        const raw::RunResult &base =
            raw::cached_baseline(raw::benchmark(k.prog));
        int64_t cycles = j.int_or("cycles", -1);
        same(f.cycles, cycles, "cycles");
        same(f.prints, j.int_or("prints", -1), "print count");
        if (f.prov.empty())
            f.prov = j.str_or("prov_hash", "");
        if (f.prov != j.str_or("prov_hash", "?")) {
            out.errors.push_back(k.label() +
                                 ": prov_hash differs between replies");
            good = false;
        }
        if (j.int_or("prints", -1) !=
            static_cast<int64_t>(base.sim.prints.size())) {
            out.errors.push_back(k.label() +
                                 ": print count differs from baseline");
            good = false;
        }
        if (j.int_or("check_failures", -1) != 0) {
            out.errors.push_back(k.label() + ": self-check failures");
            good = false;
        }
        auto c = committed.find(k.label());
        if (k.plain() && c != committed.end() && c->second != cycles) {
            out.errors.push_back(k.label() + ": cycles " +
                                 std::to_string(cycles) +
                                 " != committed " +
                                 std::to_string(c->second));
            good = false;
        }
    } else {
        if (cache == "miss")
            t.compile_ms.push_back(j.num_or("run_ms", 0));
        same(f.static_instrs, j.int_or("static_instrs", -1),
             "static_instrs");
    }
    if (!good) {
        t.ok--;
        t.wrong++;
    }
}

/**
 * Add @p t to the run's totals.  On the @p edge rung (the first
 * ladder rung above the fixed rates that fails) refusals are the
 * measured overload, not failures; wrong answers always are.
 */
void
count_into(const Tally &t, Outcome &out, bool edge = false)
{
    out.attempted += t.sent;
    out.failed += edge ? t.wrong : t.failed();
    if (!edge)
        out.errors.insert(out.errors.end(), t.refusals.begin(),
                          t.refusals.end());
}

/** Zipf(@p s) weights of ranks 1..n, summing to 1. */
std::vector<double>
zipf_weights(size_t n, double s)
{
    std::vector<double> w(n);
    double sum = 0;
    for (size_t k = 0; k < n; k++)
        sum += w[k] = 1.0 / std::pow(static_cast<double>(k + 1), s);
    for (double &x : w)
        x /= sum;
    return w;
}

/** One request before it is timed: which key, which op. */
struct Draw
{
    int key = 0;
    bool simulate = false;
};

/**
 * A mix of @p n requests holding each key in exact proportion to its
 * Zipf weight (largest remainder) and exactly kSimulateShare simulate
 * ops, in seeded random order.  Fixing the mix removes the run-to-run
 * noise of sampling it; the seed decides only the order.
 */
std::vector<Draw>
draw_mix(size_t n, const std::vector<double> &weights, std::mt19937_64 &rng)
{
    std::vector<int> keys;
    std::vector<std::pair<double, int>> rest;
    for (size_t k = 0; k < weights.size(); k++) {
        double want = weights[k] * static_cast<double>(n);
        keys.insert(keys.end(), static_cast<size_t>(want),
                    static_cast<int>(k));
        rest.push_back({want - std::floor(want), static_cast<int>(k)});
    }
    std::stable_sort(rest.begin(), rest.end(),
                     [](const auto &a, const auto &b) {
                         return a.first > b.first;
                     });
    for (size_t i = 0; keys.size() < n; i++)
        keys.push_back(rest[i].second);
    std::shuffle(keys.begin(), keys.end(), rng);

    size_t sims = static_cast<size_t>(
        std::llround(kSimulateShare * static_cast<double>(n)));
    std::vector<Draw> mix(n);
    for (size_t i = 0; i < n; i++)
        mix[i] = {keys[i], i < sims};
    std::shuffle(mix.begin(), mix.end(), rng);
    return mix;
}

/**
 * Requests [@p from, @p to) of @p mix arriving at uniform random times
 * in [0, @p secs) after @p t0: a Poisson process given its count.
 */
std::vector<Req>
arrivals(const std::vector<Draw> &mix, size_t from, size_t to, double secs,
         Clock::time_point t0, std::mt19937_64 &rng)
{
    std::uniform_real_distribution<double> u(0.0, secs);
    std::vector<double> at(to - from);
    for (double &t : at)
        t = u(rng);
    std::sort(at.begin(), at.end());
    std::vector<Req> reqs(at.size());
    for (size_t i = 0; i < at.size(); i++) {
        reqs[i].due = t0 + std::chrono::microseconds(
                               static_cast<int64_t>(at[i] * 1e6));
        reqs[i].key = mix[from + i].key;
        reqs[i].simulate = mix[from + i].simulate;
    }
    return reqs;
}

Json
daemon_stats(const std::string &endpoint)
{
    ServeClient c;
    c.connect(endpoint);
    return c.request("{\"op\":\"stats\"}");
}

std::vector<std::string>
daemon_args()
{
    return {"--port", "0", "--workers", std::to_string(kWorkers)};
}

/** Stop @p d with SIGTERM; the daemon must drain and exit 0. */
void
stop_daemon(ServeDaemon &d, Outcome &out)
{
    int code = d.stop();
    out.check(code == 0, "daemon exit code " + std::to_string(code) +
                             " after SIGTERM (want 0)");
}

/** One measured phase of the open loop. */
struct Phase
{
    double rate = 0;
    Tally tally;
    /** Last reply after the last arrival. */
    double drain_ms = 0;

    bool
    passes() const
    {
        return tally.failed() == 0 && drain_ms <= kDrainLimitMs &&
               smoothed_quantile(tally.lat_ms, 0.95) <= kP95LimitMs;
    }
};

/** Send @p reqs open loop and check every reply. */
Phase
run_phase(OpenLoop &loop, double rate, std::vector<Req> reqs,
          const std::vector<Point> &keys,
          std::map<std::string, KeyFacts> &facts,
          const std::map<std::string, int64_t> &committed, Tracer &tr,
          Outcome &out)
{
    Phase ph;
    ph.rate = rate;
    loop.run(reqs, keys, 30.0);
    for (const Req &r : reqs) {
        check_reply(r, keys[r.key], facts, committed, out, ph.tally);
        if (r.kind != "ok")
            continue;
        ph.drain_ms =
            std::max(ph.drain_ms, ms_between(reqs.back().due, r.done));
        tr.add("serve.request", r.due, r.done, r.id);
    }
    return ph;
}

/**
 * The serve.* metrics of the traffic between two `stats` replies:
 * the daemon's counters as differences, the reply fields from @p t.
 */
void
serve_stats_metrics(const Json &before, const Json &after, const Tally &t,
                    Outcome &out)
{
    auto delta = [&](const char *section, const char *name) {
        auto read = [&](const Json &st) {
            const Json *sec = section ? st.find(section) : &st;
            return sec ? sec->num_or(name, 0) : 0.0;
        };
        return read(after) - read(before);
    };
    auto &m = out.metrics;
    double hits = delta("cache", "hits");
    double misses = delta("cache", "misses");
    double waits = delta("cache", "waits");
    double lookups = hits + misses + waits;
    m["serve.flight_hit_frac"] = lookups > 0 ? hits / lookups : 0;
    m["serve.miss_frac"] = lookups > 0 ? misses / lookups : 0;
    m["serve.flight_waits"] = waits;
    m["serve.evictions"] = delta("cache", "evictions");
    m["serve.shed"] = delta(nullptr, "shed");
    m["serve.queue_ms.p50"] = smoothed_quantile(t.queue_ms, 0.5);
    m["serve.queue_ms.p95"] = smoothed_quantile(t.queue_ms, 0.95);
    m["serve.compile_ms.p95"] = smoothed_quantile(t.compile_ms, 0.95);
    m["serve.sim_ms.p50"] = smoothed_quantile(t.sim_ms, 0.5);
    m["serve.gen_lag_ms.p95"] = smoothed_quantile(t.lag_ms, 0.95);
    m["serve.fail_frac"] = t.sent > 0 ? static_cast<double>(t.failed()) /
                                            static_cast<double>(t.sent)
                                      : 0;
}

void
merge(Tally &into, const Tally &t)
{
    into.sent += t.sent;
    into.ok += t.ok;
    into.shed += t.shed;
    into.timeout += t.timeout;
    into.error += t.error;
    into.cancelled += t.cancelled;
    into.silent += t.silent;
    into.wrong += t.wrong;
    into.cycles += t.cycles;
    into.refusals.insert(into.refusals.end(), t.refusals.begin(),
                         t.refusals.end());
    for (auto [dst, src] :
         {std::pair{&into.lat_ms, &t.lat_ms}, {&into.queue_ms, &t.queue_ms},
          {&into.compile_ms, &t.compile_ms}, {&into.sim_ms, &t.sim_ms},
          {&into.lag_ms, &t.lag_ms}})
        dst->insert(dst->end(), src->begin(), src->end());
}

/**
 * Send one request per key in @p order, closed loop with kWorkers
 * requests in flight; returns the requests, answered or not.
 */
std::vector<Req>
closed_loop(const std::string &endpoint, const std::vector<int> &order,
            bool simulate, const std::vector<Point> &keys, Outcome &out)
{
    std::vector<Req> reqs(order.size());
    std::atomic<size_t> next{0};
    std::mutex mu;
    std::vector<std::string> broken; // guarded by mu
    auto client = [&]() {
        try {
            ServeClient c;
            c.connect(endpoint);
            for (size_t i; (i = next++) < reqs.size();) {
                Req &r = reqs[i];
                r.key = order[i];
                r.simulate = simulate;
                r.due = r.sent = Clock::now();
                r.reply = c.request(request_line(static_cast<int64_t>(i),
                                                 keys[r.key], simulate),
                                    120000);
                r.done = Clock::now();
                r.kind = r.reply.bool_or("ok", false)
                             ? "ok"
                             : r.reply.str_or("error", "error");
            }
        } catch (const std::exception &e) {
            std::lock_guard<std::mutex> lock(mu);
            broken.push_back(std::string("closed loop: ") + e.what());
        }
    };
    {
        std::vector<std::jthread> clients; // joined on scope exit
        for (int w = 0; w < kWorkers; w++)
            clients.emplace_back(client);
    }
    out.errors.insert(out.errors.end(), broken.begin(), broken.end());
    return reqs;
}

/** What the prefill measured. */
struct Prefill
{
    double wall_s = 0;
    double compile_s = 0; ///< daemon compile time, summed over keys
    double cycles_geomean = 0, speedup_geomean = 0;
    int64_t static_instrs = 0;
    Tally sims;
};

/**
 * Bring the daemon's cache to its steady state without overloading
 * it, and measure the pipeline on the way.  First every key is
 * compiled, coldest rank first (84 misses; the cache ends up holding
 * the hottest keys, hottest most recent); then every cached key is
 * simulated, again coldest first (all hits, same final LRU order).
 * Closed loop, one request in flight per daemon worker; every reply
 * is checked like any other.
 */
Prefill
prefill(const std::string &endpoint, const std::vector<Point> &keys,
        std::map<std::string, KeyFacts> &facts,
        const std::map<std::string, int64_t> &committed, Outcome &out)
{
    Prefill p;
    std::vector<int> order;
    for (int k = static_cast<int>(keys.size()) - 1; k >= 0; k--)
        order.push_back(k);
    Clock::time_point t0 = Clock::now();
    std::vector<Req> compiles = closed_loop(endpoint, order, false, keys, out);
    order.erase(order.begin(),
                order.end() - std::min<size_t>(order.size(), kCacheEntries));
    std::vector<Req> sims = closed_loop(endpoint, order, true, keys, out);
    p.wall_s = seconds_since(t0);

    Tally t;
    for (const Req &r : compiles) {
        check_reply(r, keys[r.key], facts, committed, out, t);
        p.compile_s += r.reply.num_or("run_ms", 0) / 1e3;
        p.static_instrs += r.reply.int_or("static_instrs", 0);
        out.check(r.reply.str_or("cache", "") == "miss",
                  keys[r.key].label() + ": prefill compile was not a miss");
    }
    std::vector<double> cycles, speedups;
    for (const Req &r : sims) {
        const Point &k = keys[r.key];
        check_reply(r, k, facts, committed, out, p.sims);
        double cy = static_cast<double>(r.reply.int_or("cycles", 0));
        if (cy <= 0)
            continue;
        cycles.push_back(cy);
        // Table 3's speedup: base machine against the 1-tile baseline.
        if (k.plain())
            speedups.push_back(
                static_cast<double>(
                    raw::cached_baseline(raw::benchmark(k.prog)).cycles) /
                cy);
    }
    p.cycles_geomean = geomean(cycles);
    p.speedup_geomean = geomean(speedups);
    count_into(t, out);
    count_into(p.sims, out);
    return p;
}

void
fill_baselines()
{
    for (const Point &p : suite16_points())
        raw::cached_baseline(raw::benchmark(p.prog));
}

/**
 * The untraced run: cold daemons, each started (timed) and prefilled
 * (timed), until --seconds have elapsed.
 */
void
measure_untraced(const Options &o,
                 const std::map<std::string, int64_t> &committed,
                 Outcome &out)
{
    fill_baselines();
    std::map<std::string, KeyFacts> facts;
    std::vector<Point> keys = key_population();
    std::vector<double> setup, walls, compiles, rss;
    std::vector<Prefill> pres;
    double cycles = 0, sim_ms = 0;
    Clock::time_point start = Clock::now();
    do {
        ServeDaemon d;
        Clock::time_point t0 = Clock::now();
        d.start(RAWCC_BIN, daemon_args());
        setup.push_back(seconds_since(t0));
        Prefill p = prefill(d.endpoint(), keys, facts, committed, out);
        rss.push_back(proc_peak_rss_mb(d.pid()));
        stop_daemon(d, out);
        out.check(pres.empty() ||
                      (p.cycles_geomean == pres[0].cycles_geomean &&
                       p.static_instrs == pres[0].static_instrs),
                  "exact counts differ between prefills");
        walls.push_back(p.wall_s);
        compiles.push_back(p.compile_s);
        cycles += p.sims.cycles;
        for (double ms : p.sims.sim_ms)
            sim_ms += ms;
        pres.push_back(std::move(p));
    } while (seconds_since(start) < o.seconds);

    auto &m = out.metrics;
    m["setup_s"] = median(setup);
    m["e2e_s"] = median(walls);
    m["compile_s"] = median(compiles);
    m["sim_mcps"] = cycles / sim_ms / 1e3;
    m["sim_cycles_geomean"] = pres[0].cycles_geomean;
    m["speedup_geomean"] = pres[0].speedup_geomean;
    m["static_instrs"] = static_cast<double>(pres[0].static_instrs);
    // The daemon's memory, not the load generator's.
    m["peak_rss_mb"] = median(rss);
}

} // namespace

void
serve_layers(const Options &o,
             const std::map<std::string, int64_t> &committed, Tracer &tr,
             Outcome &out)
{
    fill_baselines();
    std::map<std::string, KeyFacts> facts;
    std::vector<Point> keys = key_population();
    std::vector<double> weights = zipf_weights(keys.size(), o.zipf_s);
    std::mt19937_64 rng(o.seed);
    ServeDaemon d;
    d.start(RAWCC_BIN, daemon_args());
    prefill(d.endpoint(), keys, facts, committed, out);
    Json before = daemon_stats(d.endpoint()), after;
    std::vector<Phase> phases(2);
    phases[0].rate = kRateLo;
    phases[1].rate = kRateHi;
    {
        OpenLoop loop(d.endpoint());
        // The two fixed rates alternate in short rounds, so a slow
        // spell of the host falls on both alike; then the rungs above
        // them, until one fails.  Each fixed rate's mix is drawn for
        // all its rounds at once, so the rare keys of the Zipf tail
        // (the misses) are in it.
        double secs = 0.1 * o.seconds;
        auto start = [] {
            return Clock::now() + std::chrono::milliseconds(20);
        };
        std::vector<std::vector<Draw>> mixes;
        for (const Phase &ph : phases)
            mixes.push_back(draw_mix(
                static_cast<size_t>(std::llround(ph.rate * secs * kRounds)),
                weights, rng));
        for (size_t r = 0; r < kRounds; r++)
            for (size_t i = 0; i < phases.size(); i++) {
                size_t n = mixes[i].size();
                Phase part = run_phase(
                    loop, phases[i].rate,
                    arrivals(mixes[i], r * n / kRounds,
                             (r + 1) * n / kRounds, secs, start(), rng),
                    keys, facts, committed, tr, out);
                merge(phases[i].tally, part.tally);
                phases[i].drain_ms =
                    std::max(phases[i].drain_ms, part.drain_ms);
            }
        after = daemon_stats(d.endpoint());
        for (double rate : kLadderAbove) {
            if (!phases.back().passes())
                break;
            std::vector<Draw> mix = draw_mix(
                static_cast<size_t>(std::llround(rate * secs)), weights, rng);
            phases.push_back(run_phase(
                loop, rate, arrivals(mix, 0, mix.size(), secs, start(), rng),
                keys, facts, committed, tr, out));
        }
    }
    Tally both = phases[0].tally;
    merge(both, phases[1].tally);
    serve_stats_metrics(before, after, both, out);
    stop_daemon(d, out);

    // A rung above the fixed rates that fails is the measured edge:
    // its refusals are reported, not counted as failures.
    double max_rps = 0;
    bool climbing = true;
    for (const Phase &ph : phases) {
        count_into(ph.tally, out, ph.rate > kRateHi && !ph.passes());
        climbing = climbing && ph.passes();
        if (climbing)
            max_rps = ph.rate;
        std::fprintf(stderr,
                     "perfbench: serve rate %.1f/s: sent %lld ok %lld "
                     "p50 %.1f p95 %.1f ms, drain %.0f ms, %s\n",
                     ph.rate, static_cast<long long>(ph.tally.sent),
                     static_cast<long long>(ph.tally.ok),
                     smoothed_quantile(ph.tally.lat_ms, 0.5),
                     smoothed_quantile(ph.tally.lat_ms, 0.95), ph.drain_ms,
                     ph.passes() ? "pass" : "fail");
    }
    out.check(max_rps > 0, "the low rate failed its latency limit");
    auto &m = out.metrics;
    m["serve_p50_ms.lo"] = smoothed_quantile(phases[0].tally.lat_ms, 0.5);
    m["serve_p95_ms.lo"] = smoothed_quantile(phases[0].tally.lat_ms, 0.95);
    m["serve_p50_ms.hi"] = smoothed_quantile(phases[1].tally.lat_ms, 0.5);
    m["serve_p95_ms.hi"] = smoothed_quantile(phases[1].tally.lat_ms, 0.95);
    m["serve_max_rps"] = max_rps;
}

Outcome
run_serve_workload(const Options &o)
{
    Outcome out;
    std::map<std::string, int64_t> committed = committed_cycles();
    if (!o.trace) {
        measure_untraced(o, committed, out);
        return out;
    }
    // The in-process layers compile this workload's own keys, each
    // cold: what a miss costs the daemon.
    Tracer tr;
    traced_layers(o, key_population(), committed, tr, out);
    serve_layers(o, committed, tr, out);
    tr.write_chrome(o.trace_out);
    return out;
}

} // namespace perfbench
