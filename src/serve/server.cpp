#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <set>
#include <unordered_set>

#include "harness/cli.hpp"
#include "programs/programs.hpp"
#include "rawcc/compiler.hpp"
#include "serve/json.hpp"
#include "sim/simulator.hpp"
#include "support/error.hpp"

namespace raw {
namespace serve {

namespace {

using Clock = std::chrono::steady_clock;

/** A malformed request field; replied as `bad_request`. */
class BadRequest : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

double
ms_between(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/**
 * The fields of one request, read once at the front door by
 * parse_request(): every value is typed and range-checked before the
 * request is admitted, so a worker never sees a malformed field.
 */
struct Request
{
    std::string id; ///< echoed "id", may be empty
    std::string op;
    int64_t timeout_ms = 0; ///< 0: the daemon's --timeout
    /** Inline "source" text, or the source of the named "bench". */
    std::string source;
    MachineConfig machine = MachineConfig::base(4);
    CompilerOptions copts;
    FaultConfig faults;
    CheckConfig checks;
    SimBackend backend = SimBackend::kReference;
    int64_t max_cycles = 2000000000LL;
    int64_t stall_ms = 100;
};

/**
 * Walk the members of object @p o, named @p what in messages: each
 * key is handed once to @p field, which throws BadRequest for a key
 * it does not know or a value of the wrong type or range.  A bad
 * member does not stop the walk — the request's well-formed "id" and
 * "op" are still read and echoed — but the first problem found is
 * thrown once the walk ends.
 */
template <typename Field>
void
walk_members(const Json &o, const std::string &what, Field field)
{
    if (!o.is_object())
        throw BadRequest("\"" + what + "\" must be an object");
    std::set<std::string> seen;
    std::string first;
    for (const auto &[key, v] : o.object) {
        try {
            if (!seen.insert(key).second)
                throw BadRequest(what + " key \"" + key +
                                 "\" given twice");
            field(key, v);
        } catch (const BadRequest &e) {
            if (first.empty())
                first = e.what();
        }
    }
    if (!first.empty())
        throw BadRequest(first);
}

const std::string &
string_of(const std::string &key, const Json &v)
{
    if (!v.is_string())
        throw BadRequest("\"" + key + "\" must be a string");
    return v.string;
}

bool
bool_of(const std::string &key, const Json &v)
{
    if (!v.is_bool())
        throw BadRequest("\"" + key + "\" must be true or false");
    return v.boolean;
}

int64_t
int_in(const std::string &key, const Json &v, int64_t lo, int64_t hi)
{
    if (!v.is_number() || !v.is_int || v.integer < lo || v.integer > hi)
        throw BadRequest("\"" + key + "\" must be an integer in [" +
                         std::to_string(lo) + ", " +
                         std::to_string(hi) + "]");
    return v.integer;
}

double
rate_of(const std::string &key, const Json &v)
{
    if (!v.is_number() || !(v.number >= 0.0 && v.number <= 1.0))
        throw BadRequest("\"" + key + "\" must be a rate in [0, 1]");
    return v.number;
}

void
parse_options(const Json &o, CompilerOptions &copts)
{
    walk_members(o, "options", [&](const std::string &key,
                                   const Json &v) {
        if (key == "sched_iters") {
            copts.orch.sched.sched_iters =
                static_cast<int>(int_in(key, v, 0, 16));
            return;
        }
        bool *flag = key == "pgo"           ? &copts.pgo
                     : key == "smart_homes" ? &copts.smart_homes
                     : key == "verify_ir"   ? &copts.verify_ir
                     : key == "route_select"
                         ? &copts.orch.sched.route_select
                         : nullptr;
        if (!flag)
            throw BadRequest("unknown option \"" + key + "\"");
        *flag = bool_of(key, v);
    });
}

void
parse_faults(const Json &o, FaultConfig &f)
{
    walk_members(o, "faults", [&](const std::string &key,
                                  const Json &v) {
        if (key == "miss_rate")
            f.miss_rate = rate_of(key, v);
        else if (key == "route_stall_rate")
            f.route_stall_rate = rate_of(key, v);
        else if (key == "dyn_delay_rate")
            f.dyn_delay_rate = rate_of(key, v);
        else if (key == "jitter_rate")
            f.jitter_rate = rate_of(key, v);
        else if (key == "penalty")
            f.penalty = static_cast<int>(int_in(key, v, 0, 1000000));
        else if (key == "seed")
            f.seed = static_cast<uint64_t>(
                int_in(key, v, 0, INT64_MAX));
        else
            throw BadRequest("unknown faults key \"" + key + "\"");
    });
}

void
parse_checks(const Json &o, CheckConfig &c)
{
    walk_members(o, "checks", [&](const std::string &key,
                                  const Json &v) {
        if (key == "provenance")
            c.provenance = bool_of(key, v);
        else if (key == "fifo_bounds")
            c.fifo_bounds = bool_of(key, v);
        else
            throw BadRequest("unknown checks key \"" + key + "\"");
    });
}

/**
 * Read request @p body into @p r.  Throws BadRequest for an unknown
 * key, a value of the wrong type or range, a repeated key, an
 * unknown op, bench, machine or backend, or a compile/simulate
 * without exactly one of "source" and "bench".
 */
void
parse_request(const Json &body, Request &r)
{
    // Per-request concurrency comes from the worker pool, not from
    // per-compile fan-out.
    r.copts.orch.jobs = 1;
    r.copts.orch.use_cache = true;
    int64_t tiles = 4;
    std::string machine = "base";
    int sources = 0;
    walk_members(body, "request", [&](const std::string &key,
                                      const Json &v) {
        if (key == "id")
            r.id = string_of(key, v);
        else if (key == "op")
            r.op = string_of(key, v);
        else if (key == "timeout_ms")
            r.timeout_ms = int_in(key, v, 1, INT64_MAX);
        else if (key == "source") {
            r.source = string_of(key, v);
            if (r.source.empty())
                throw BadRequest("\"source\" must not be empty");
            sources++;
        } else if (key == "bench") {
            try {
                r.source = benchmark(string_of(key, v)).source;
            } catch (const FatalError &e) {
                throw BadRequest(e.what());
            }
            sources++;
        } else if (key == "tiles")
            tiles = int_in(key, v, 1, 64);
        else if (key == "machine")
            machine = string_of(key, v);
        else if (key == "backend") {
            try {
                r.backend = sim_backend_from_string(string_of(key, v));
            } catch (const FatalError &e) {
                throw BadRequest(e.what());
            }
        } else if (key == "max_cycles")
            r.max_cycles = int_in(key, v, 1, INT64_MAX);
        else if (key == "ms")
            r.stall_ms = int_in(key, v, 0, 60000);
        else if (key == "options")
            parse_options(v, r.copts);
        else if (key == "faults")
            parse_faults(v, r.faults);
        else if (key == "checks")
            parse_checks(v, r.checks);
        else
            throw BadRequest("unknown request key \"" + key + "\"");
    });
    if (r.op != "ping" && r.op != "stats" && r.op != "compile" &&
        r.op != "simulate" && r.op != "stall")
        throw BadRequest("unknown op: " +
                         (r.op.empty() ? "(missing)" : r.op));
    const int n = static_cast<int>(tiles);
    if (machine == "base")
        r.machine = MachineConfig::base(n);
    else if (machine == "inf_reg")
        r.machine = MachineConfig::inf_reg(n);
    else if (machine == "one_cycle")
        r.machine = MachineConfig::one_cycle(n);
    else
        throw BadRequest("unknown \"machine\": " + machine);
    if ((r.op == "compile" || r.op == "simulate") && sources != 1)
        throw BadRequest(
            "request needs exactly one of \"source\" and \"bench\"");
}

/** One client connection; writes are serialized by wmu. */
struct Conn
{
    int fd = -1;
    std::mutex wmu;
    std::atomic<bool> open{true};

    ~Conn()
    {
        if (fd >= 0)
            ::close(fd);
    }

    /** Write one protocol line; false (and closed) on error. */
    bool
    send_line(const std::string &body)
    {
        std::string line = body;
        line.push_back('\n');
        std::lock_guard<std::mutex> lock(wmu);
        if (!open.load())
            return false;
        size_t off = 0;
        while (off < line.size()) {
            ssize_t n = ::send(fd, line.data() + off,
                               line.size() - off, MSG_NOSIGNAL);
            if (n <= 0) {
                if (n < 0 && errno == EINTR)
                    continue;
                open.store(false);
                return false;
            }
            off += static_cast<size_t>(n);
        }
        return true;
    }
};

/**
 * One admitted request.  The `replied` flag is the reply race: the
 * worker (success/error), the reaper (deadline) and the drain path
 * (cancellation) all try to claim it; exactly one wins, so the client
 * gets exactly one reply per request.
 */
struct Pending
{
    std::shared_ptr<Conn> conn;
    uint64_t seq = 0;          ///< server-assigned, for logs
    Request req;
    Clock::time_point arrival{};
    Clock::time_point deadline{};
    std::atomic<bool> replied{false};

    /** Claim the reply slot; true if this caller won. */
    bool claim() { return !replied.exchange(true); }
};

using PendingPtr = std::shared_ptr<Pending>;

} // namespace

// ---------------------------------------------------------------
// Impl
// ---------------------------------------------------------------

struct ServeServer::Impl
{
    ServeOptions opts;
    AdmissionQueue<PendingPtr> queue;
    FlightCache cache;

    int listen_fd = -1;
    int wake_rd = -1, wake_wr = -1;
    std::atomic<bool> draining{false};
    std::atomic<bool> reaper_stop{false};
    std::atomic<bool> drain_done{false};
    Clock::time_point started = Clock::now();
    std::atomic<uint64_t> next_seq{1};

    std::vector<std::thread> workers;
    std::thread reaper;
    std::vector<std::thread> conn_threads;
    std::mutex conns_mu;
    std::vector<std::shared_ptr<Conn>> conns;

    std::mutex pending_mu;
    std::vector<PendingPtr> pending;

    mutable std::mutex stats_mu;
    ServeStats st;

    explicit Impl(const ServeOptions &o)
        : opts(o),
          queue(static_cast<size_t>(std::max(1, o.queue_depth))),
          cache(static_cast<size_t>(std::max(1, o.cache_entries)),
                o.cache_bytes)
    {
    }

    // -- logging ------------------------------------------------

    void
    logf(const char *fmt, ...)
    {
        char buf[512];
        va_list ap;
        va_start(ap, fmt);
        std::vsnprintf(buf, sizeof buf, fmt, ap);
        va_end(ap);
        std::fprintf(stderr, "[serve] %s\n", buf);
    }

    void
    log_req(const Pending &p, const char *what)
    {
        if (opts.verbose)
            logf("req=%llu op=%s %s",
                 static_cast<unsigned long long>(p.seq),
                 p.req.op.c_str(), what);
    }

    // -- replies ------------------------------------------------

    JsonBuilder
    reply_head(const Pending &p)
    {
        JsonBuilder b;
        if (!p.req.id.empty())
            b.kv("id", p.req.id);
        b.kv("req", static_cast<int64_t>(p.seq));
        b.kv("op", p.req.op);
        return b;
    }

    /** Structured error reply; returns true if this caller won. */
    bool
    reply_error(Pending &p, const char *kind, const std::string &msg)
    {
        if (!p.claim())
            return false;
        JsonBuilder b = reply_head(p);
        b.kv("ok", false).kv("error", kind).kv("message", msg);
        p.conn->send_line(b.str());
        if (opts.verbose)
            logf("req=%llu op=%s error=%s %s",
                 static_cast<unsigned long long>(p.seq),
                 p.req.op.c_str(), kind, msg.c_str());
        return true;
    }

    void
    count(int64_t ServeStats::*field, int64_t by = 1)
    {
        std::lock_guard<std::mutex> lock(stats_mu);
        st.*field += by;
    }

    // -- request key --------------------------------------------

    static Digest
    request_digest(const std::string &source, const MachineConfig &m,
                   const CompilerOptions &copts)
    {
        std::string key;
        key.reserve(source.size() + 64);
        key += source;
        key.push_back('\0');
        key += m.name();
        key.push_back('/');
        key += std::to_string(m.num_registers);
        key.push_back('/');
        key += m.unit_latency ? '1' : '0';
        key.push_back('\0');
        key += options_fingerprint(copts);
        return digest_bytes(key);
    }

    // -- ops ----------------------------------------------------

    /** Compile through the single-flight cache; shared by ops. */
    FlightCache::Value
    cached_compile(Pending &p, const std::string &source,
                   const MachineConfig &machine,
                   const CompilerOptions &copts, Digest &key,
                   FlightOutcome &outcome)
    {
        key = request_digest(source, machine, copts);
        return cache.get_or_compute(
            key,
            [&]() -> FlightCache::Value {
                log_req(p, "compiling");
                return std::make_shared<const CompileOutput>(
                    compile_source(source, machine, copts));
            },
            p.deadline, outcome);
    }

    void
    do_compile(Pending &p)
    {
        const Request &r = p.req;
        Digest key;
        FlightOutcome outcome;
        Clock::time_point t0 = Clock::now();
        FlightCache::Value out = cached_compile(
            p, r.source, r.machine, r.copts, key, outcome);
        if (!out) {
            if (reply_error(p, "timeout",
                            "deadline expired waiting for an "
                            "in-flight identical compile"))
                count(&ServeStats::timeouts);
            return;
        }
        if (!p.claim()) {
            count(&ServeStats::detached);
            return;
        }
        JsonBuilder b = reply_head(p);
        b.kv("ok", true)
            .kv("digest", key.hex())
            .kv("cache", flight_outcome_name(outcome))
            .kv("tiles", r.machine.n_tiles)
            .kv("static_instrs", out->stats.static_instrs)
            .kv("ir_instrs", out->stats.ir_instrs)
            .kv("est_makespan", out->stats.estimated_makespan())
            .kv("queue_ms", ms_between(p.arrival, t0))
            .kv("run_ms", ms_between(t0, Clock::now()));
        p.conn->send_line(b.str());
        count(&ServeStats::completed);
    }

    void
    do_simulate(Pending &p)
    {
        const Request &r = p.req;
        Digest key;
        FlightOutcome outcome;
        Clock::time_point t0 = Clock::now();
        FlightCache::Value out = cached_compile(
            p, r.source, r.machine, r.copts, key, outcome);
        if (!out) {
            if (reply_error(p, "timeout",
                            "deadline expired waiting for an "
                            "in-flight identical compile"))
                count(&ServeStats::timeouts);
            return;
        }

        // The simulation honors the request deadline from the
        // inside: the sim polls the wall clock and throws
        // SimTimeoutError, which the firewall below turns into a
        // structured timeout reply.
        Simulator sim(out->program, r.faults, r.checks, r.backend);
        sim.set_wall_deadline(p.deadline);
        Clock::time_point t1 = Clock::now();
        SimResult res = sim.run(r.max_cycles);

        if (!p.claim()) {
            count(&ServeStats::detached);
            return;
        }
        char prov[24];
        std::snprintf(prov, sizeof prov, "%016llx",
                      static_cast<unsigned long long>(res.prov_hash));
        JsonBuilder b = reply_head(p);
        b.kv("ok", true)
            .kv("digest", key.hex())
            .kv("cache", flight_outcome_name(outcome))
            .kv("backend", sim_backend_name(r.backend))
            .kv("cycles", res.cycles)
            .kv("instrs", res.instrs_executed)
            .kv("words_routed", res.words_routed)
            .kv("dyn_messages", res.dyn_messages)
            .kv("prints", static_cast<int64_t>(res.prints.size()))
            .kv("check_failures", res.check_failure_count)
            .kv("prov_hash", prov)
            .kv("queue_ms", ms_between(p.arrival, t0))
            .kv("compile_ms", ms_between(t0, t1))
            .kv("sim_ms", ms_between(t1, Clock::now()));
        p.conn->send_line(b.str());
        count(&ServeStats::completed);
    }

    /** Debug op: hold a worker for N ms (deterministic overload). */
    void
    do_stall(Pending &p)
    {
        const int64_t ms = p.req.stall_ms;
        // The stall is measured from execution start (not arrival):
        // the point of the op is to hold a *worker* for ms.
        Clock::time_point until =
            Clock::now() + std::chrono::milliseconds(ms);
        while (Clock::now() < until) {
            if (Clock::now() >= p.deadline) {
                if (reply_error(p, "timeout", "stall hit deadline"))
                    count(&ServeStats::timeouts);
                return;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(2));
        }
        if (!p.claim()) {
            count(&ServeStats::detached);
            return;
        }
        JsonBuilder b = reply_head(p);
        b.kv("ok", true).kv("stalled_ms", ms);
        p.conn->send_line(b.str());
        count(&ServeStats::completed);
    }

    // -- worker loop + exception firewall -----------------------

    void
    worker_loop()
    {
        PendingPtr p;
        while (queue.pop(p)) {
            run_one(*p);
            p.reset();
        }
    }

    void
    run_one(Pending &p)
    {
        if (p.replied.load()) {
            // Reaper (queue timeout) or drain cancelled it while it
            // sat in the queue; nothing left to do.
            return;
        }
        if (Clock::now() >= p.deadline) {
            if (reply_error(p, "timeout", "deadline expired in queue"))
                count(&ServeStats::timeouts);
            return;
        }
        // Exception firewall: nothing a request does may kill the
        // daemon.  Every failure mode maps to one taxonomy kind.
        try {
            if (p.req.op == "compile")
                do_compile(p);
            else if (p.req.op == "simulate")
                do_simulate(p);
            else
                do_stall(p);
        } catch (const BadRequest &e) {
            if (reply_error(p, "bad_request", e.what()))
                count(&ServeStats::bad_requests);
        } catch (const SimTimeoutError &e) {
            if (reply_error(p, "timeout", e.what()))
                count(&ServeStats::timeouts);
        } catch (const DeadlockError &e) {
            if (reply_error(p, "sim_error", e.what()))
                count(&ServeStats::sim_errors);
        } catch (const FatalError &e) {
            const char *kind = p.req.op == "simulate" ? "sim_error"
                                                      : "compile_error";
            if (reply_error(p, kind, e.what())) {
                if (p.req.op == "simulate")
                    count(&ServeStats::sim_errors);
                else
                    count(&ServeStats::compile_errors);
            }
        } catch (const std::exception &e) {
            if (reply_error(p, "internal", e.what()))
                count(&ServeStats::internal_errors);
        } catch (...) {
            if (reply_error(p, "internal", "unknown exception"))
                count(&ServeStats::internal_errors);
        }
    }

    // -- reaper -------------------------------------------------

    void
    reaper_loop()
    {
        while (!reaper_stop.load()) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
            Clock::time_point now = Clock::now();
            std::vector<PendingPtr> expired;
            {
                std::lock_guard<std::mutex> lock(pending_mu);
                auto keep = pending.begin();
                for (auto &p : pending) {
                    if (p->replied.load())
                        continue; // drop
                    if (now >= p->deadline)
                        expired.push_back(p);
                    *keep++ = p;
                }
                pending.erase(keep, pending.end());
            }
            for (auto &p : expired) {
                // The worker may finish concurrently; the claim
                // race decides.  A compile keeps running after this
                // reply and still populates the cache — the worker
                // is reclaimed when it finishes, not abandoned.
                if (reply_error(*p, "timeout",
                                "deadline expired during execution"))
                    count(&ServeStats::timeouts);
            }
        }
    }

    // -- per-connection protocol loop ---------------------------

    std::string
    stats_line(const Pending &p)
    {
        ServeStats s;
        {
            std::lock_guard<std::mutex> lock(stats_mu);
            s = st;
        }
        FlightCache::Stats cs = cache.stats();
        JsonBuilder c;
        c.kv("hits", cs.hits)
            .kv("misses", cs.misses)
            .kv("compiles", cs.compiles)
            .kv("waits", cs.waits)
            .kv("wait_timeouts", cs.wait_timeouts)
            .kv("leader_failures", cs.leader_failures)
            .kv("retries", cs.retries)
            .kv("evictions", cs.evictions)
            .kv("entries", cs.entries)
            .kv("bytes", cs.bytes);
        JsonBuilder b;
        if (!p.req.id.empty())
            b.kv("id", p.req.id);
        b.kv("req", static_cast<int64_t>(p.seq))
            .kv("op", "stats")
            .kv("ok", true)
            .kv("uptime_ms", ms_between(started, Clock::now()))
            .kv("connections", s.connections)
            .kv("requests", s.requests)
            .kv("admitted", s.admitted)
            .kv("completed", s.completed)
            .kv("shed", s.shed)
            .kv("timeouts", s.timeouts)
            .kv("bad_requests", s.bad_requests)
            .kv("compile_errors", s.compile_errors)
            .kv("sim_errors", s.sim_errors)
            .kv("internal_errors", s.internal_errors)
            .kv("cancelled", s.cancelled)
            .kv("detached", s.detached)
            .kv("queue_depth", static_cast<int64_t>(queue.size()))
            .kv("queue_cap", static_cast<int64_t>(queue.depth()))
            .kv("workers", opts.workers)
            .kv("draining", draining.load())
            .raw("cache", c.str());
        return b.str();
    }

    void
    handle_line(const std::shared_ptr<Conn> &conn,
                const std::string &line)
    {
        count(&ServeStats::requests);
        auto p = std::make_shared<Pending>();
        p->conn = conn;
        p->seq = next_seq.fetch_add(1);
        p->arrival = Clock::now();

        Json body;
        std::string err;
        if (!json_parse(line, body, err) || !body.is_object()) {
            p->req.op = "?";
            if (err.empty())
                err = "request must be a JSON object";
        } else {
            try {
                parse_request(body, p->req);
            } catch (const BadRequest &e) {
                err = e.what();
            }
        }
        if (!err.empty()) {
            if (reply_error(*p, "bad_request", err))
                count(&ServeStats::bad_requests);
            return;
        }
        const int64_t ms =
            std::min(p->req.timeout_ms > 0 ? p->req.timeout_ms
                                           : opts.default_timeout_ms,
                     opts.max_timeout_ms);
        p->deadline = p->arrival + std::chrono::milliseconds(ms);
        log_req(*p, "received");

        if (p->req.op == "ping") {
            if (p->claim()) {
                JsonBuilder b = reply_head(*p);
                b.kv("ok", true);
                conn->send_line(b.str());
            }
            return;
        }
        if (p->req.op == "stats") {
            if (p->claim())
                conn->send_line(stats_line(*p));
            return;
        }

        // Admission decision, synchronously at the front door.
        if (!queue.try_push(p)) {
            if (draining.load()) {
                if (reply_error(*p, "shutting_down",
                                "daemon is draining"))
                    count(&ServeStats::cancelled);
            } else {
                if (reply_error(
                        *p, "overloaded",
                        "queue full (depth " +
                            std::to_string(queue.depth()) +
                            "); retry with backoff"))
                    count(&ServeStats::shed);
            }
            return;
        }
        count(&ServeStats::admitted);
        std::lock_guard<std::mutex> lock(pending_mu);
        pending.push_back(std::move(p));
    }

    void
    conn_loop(std::shared_ptr<Conn> conn)
    {
        std::string buf;
        char chunk[16384];
        for (;;) {
            ssize_t n = ::recv(conn->fd, chunk, sizeof chunk, 0);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                break;
            buf.append(chunk, static_cast<size_t>(n));
            size_t start = 0;
            for (;;) {
                size_t nl = buf.find('\n', start);
                if (nl == std::string::npos)
                    break;
                std::string line =
                    buf.substr(start, nl - start);
                start = nl + 1;
                if (!line.empty() && line.back() == '\r')
                    line.pop_back();
                if (!line.empty())
                    handle_line(conn, line);
            }
            buf.erase(0, start);
            if (buf.size() > opts.max_line_bytes) {
                // Hostile input bound: a line that long is not a
                // protocol request.  Reply once and hang up.
                JsonBuilder b;
                b.kv("ok", false)
                    .kv("error", "bad_request")
                    .kv("message",
                        "request line exceeds " +
                            std::to_string(opts.max_line_bytes) +
                            " bytes");
                conn->send_line(b.str());
                count(&ServeStats::bad_requests);
                break;
            }
        }
        conn->open.store(false);
        ::shutdown(conn->fd, SHUT_RDWR);
    }

    // -- listener -----------------------------------------------

    int
    bind_and_listen(std::string &where)
    {
        int fd = -1;
        if (!opts.socket_path.empty()) {
            sockaddr_un addr;
            std::memset(&addr, 0, sizeof addr);
            addr.sun_family = AF_UNIX;
            if (opts.socket_path.size() >= sizeof addr.sun_path)
                throw FatalError("socket path too long: " +
                                 opts.socket_path);
            std::strncpy(addr.sun_path, opts.socket_path.c_str(),
                         sizeof addr.sun_path - 1);
            fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
            if (fd < 0)
                throw FatalError("socket(): " +
                                 std::string(std::strerror(errno)));
            ::unlink(opts.socket_path.c_str());
            if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                       sizeof addr) != 0) {
                int e = errno;
                ::close(fd);
                throw FatalError("bind(" + opts.socket_path +
                                 "): " + std::strerror(e));
            }
            where = "unix:" + opts.socket_path;
        } else {
            fd = ::socket(AF_INET, SOCK_STREAM, 0);
            if (fd < 0)
                throw FatalError("socket(): " +
                                 std::string(std::strerror(errno)));
            int one = 1;
            ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one,
                         sizeof one);
            sockaddr_in addr;
            std::memset(&addr, 0, sizeof addr);
            addr.sin_family = AF_INET;
            addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
            addr.sin_port =
                htons(static_cast<uint16_t>(opts.port));
            if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                       sizeof addr) != 0) {
                int e = errno;
                ::close(fd);
                throw FatalError("bind(127.0.0.1:" +
                                 std::to_string(opts.port) +
                                 "): " + std::strerror(e));
            }
            socklen_t len = sizeof addr;
            ::getsockname(fd, reinterpret_cast<sockaddr *>(&addr),
                          &len);
            where = "tcp:127.0.0.1:" +
                    std::to_string(ntohs(addr.sin_port));
        }
        if (::listen(fd, 64) != 0) {
            int e = errno;
            ::close(fd);
            throw FatalError("listen(): " +
                             std::string(std::strerror(e)));
        }
        return fd;
    }

    void
    accept_one()
    {
        int cfd = ::accept(listen_fd, nullptr, nullptr);
        if (cfd < 0)
            return;
        // Bound a stuck client's damage: writes give up after 5s.
        timeval tv{5, 0};
        ::setsockopt(cfd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);

        size_t active;
        {
            std::lock_guard<std::mutex> lock(conns_mu);
            conns.erase(
                std::remove_if(conns.begin(), conns.end(),
                               [](const std::shared_ptr<Conn> &c) {
                                   return !c->open.load();
                               }),
                conns.end());
            active = conns.size();
        }
        if (active >= static_cast<size_t>(opts.max_conns)) {
            JsonBuilder b;
            b.kv("ok", false)
                .kv("error", "overloaded")
                .kv("message",
                    "connection limit (" +
                        std::to_string(opts.max_conns) +
                        ") reached");
            std::string line = b.str();
            line.push_back('\n');
            (void)!::send(cfd, line.data(), line.size(),
                          MSG_NOSIGNAL);
            ::close(cfd);
            count(&ServeStats::conns_refused);
            return;
        }
        auto conn = std::make_shared<Conn>();
        conn->fd = cfd;
        {
            std::lock_guard<std::mutex> lock(conns_mu);
            conns.push_back(conn);
        }
        count(&ServeStats::connections);
        conn_threads.emplace_back(
            [this, conn] { conn_loop(conn); });
    }

    // -- drain --------------------------------------------------

    int
    drain()
    {
        logf("drain: admission closed, %zu queued, draining for "
             "up to %lld ms",
             queue.size(),
             static_cast<long long>(opts.drain_ms));
        draining.store(true);
        queue.close_admission();

        // Anything still queued is cancelled with a structured
        // reply — a drained daemon never ghosts a client.
        PendingPtr p;
        while (queue.try_pop(p)) {
            if (reply_error(*p, "shutting_down",
                            "daemon is draining"))
                count(&ServeStats::cancelled);
        }
        queue.close();

        // Hard backstop: if an in-flight request outlives the drain
        // budget, exit anyway (still 0 — the work owed to clients
        // was already replied-to or cancelled above).
        std::thread watchdog([this] {
            Clock::time_point give_up =
                Clock::now() +
                std::chrono::milliseconds(opts.drain_ms);
            while (Clock::now() < give_up) {
                if (drain_done.load())
                    return;
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(20));
            }
            if (!drain_done.load()) {
                logf("drain deadline exceeded; exiting");
                std::fflush(nullptr);
                ::_exit(0);
            }
        });

        for (auto &w : workers)
            w.join();
        reaper_stop.store(true);
        if (reaper.joinable())
            reaper.join();

        // Release connection threads blocked in recv().
        {
            std::lock_guard<std::mutex> lock(conns_mu);
            for (auto &c : conns) {
                c->open.store(false);
                ::shutdown(c->fd, SHUT_RDWR);
            }
        }
        for (auto &t : conn_threads)
            t.join();

        drain_done.store(true);
        watchdog.join();

        FlightCache::Stats cs = cache.stats();
        ServeStats s;
        {
            std::lock_guard<std::mutex> lock(stats_mu);
            s = st;
        }
        logf("exit: %lld completed, %lld shed, %lld timeouts, "
             "%lld cancelled; cache %lld hits / %lld compiles",
             static_cast<long long>(s.completed),
             static_cast<long long>(s.shed),
             static_cast<long long>(s.timeouts),
             static_cast<long long>(s.cancelled),
             static_cast<long long>(cs.hits),
             static_cast<long long>(cs.compiles));
        return 0;
    }

    int
    serve_forever()
    {
        int pipefd[2];
        if (::pipe(pipefd) != 0)
            throw FatalError("pipe(): " +
                             std::string(std::strerror(errno)));
        wake_rd = pipefd[0];
        wake_wr = pipefd[1];

        std::string where;
        listen_fd = bind_and_listen(where);

        int nworkers = std::max(1, opts.workers);
        workers.reserve(static_cast<size_t>(nworkers));
        for (int i = 0; i < nworkers; i++)
            workers.emplace_back([this] { worker_loop(); });
        reaper = std::thread([this] { reaper_loop(); });

        // Readiness line on stdout: clients (and the smoke test)
        // block on this before connecting.
        std::printf("listening on %s workers=%d queue=%d\n",
                    where.c_str(), nworkers, opts.queue_depth);
        std::fflush(stdout);
        logf("up: %s", where.c_str());

        for (;;) {
            pollfd fds[2];
            fds[0] = {listen_fd, POLLIN, 0};
            fds[1] = {wake_rd, POLLIN, 0};
            int rc = ::poll(fds, 2, 200);
            if (rc < 0) {
                if (errno == EINTR)
                    continue;
                break;
            }
            if (fds[1].revents & POLLIN)
                break; // signal: drain
            if (fds[0].revents & POLLIN)
                accept_one();
        }

        ::close(listen_fd);
        listen_fd = -1;
        int code = drain();
        if (!opts.socket_path.empty())
            ::unlink(opts.socket_path.c_str());
        ::close(wake_rd);
        ::close(wake_wr);
        return code;
    }
};

// ---------------------------------------------------------------
// ServeServer facade
// ---------------------------------------------------------------

ServeServer::ServeServer(const ServeOptions &opts)
    : impl_(new Impl(opts))
{
}

ServeServer::~ServeServer() = default;

int
ServeServer::serve_forever()
{
    return impl_->serve_forever();
}

void
ServeServer::request_stop()
{
    // Async-signal-safe: one write(2), nothing else.
    if (impl_->wake_wr >= 0) {
        char c = 's';
        (void)!::write(impl_->wake_wr, &c, 1);
    }
}

ServeStats
ServeServer::stats() const
{
    std::lock_guard<std::mutex> lock(impl_->stats_mu);
    return impl_->st;
}

FlightCache::Stats
ServeServer::cache_stats() const
{
    return impl_->cache.stats();
}

// ---------------------------------------------------------------
// serve_main: flags + signals
// ---------------------------------------------------------------

namespace {

ServeServer *g_server = nullptr;

void
on_signal(int)
{
    if (g_server)
        g_server->request_stop();
}

const char kServeUsage[] =
    "usage: rawcc serve [options]\n"
    "  --socket PATH      listen on a Unix socket\n"
    "  --port N           listen on 127.0.0.1:N (0 = ephemeral)\n"
    "  --workers N        worker threads (default 2)\n"
    "  --queue-depth N    admission queue depth (default 16)\n"
    "  --cache-entries N  request-cache entries (default 64)\n"
    "  --cache-mb N       request-cache size cap (default 256)\n"
    "  --timeout MS       default per-request deadline\n"
    "  --max-timeout MS   per-request deadline ceiling\n"
    "  --drain MS         drain budget on SIGTERM/SIGINT\n"
    "  --max-conns N      concurrent connection cap\n"
    "  --verbose          log every request to stderr\n"
    "  --help, -h         print this summary to stdout\n"
    "(protocol: docs/serve.md)\n";

} // namespace

int
serve_main(int argc, char **argv)
{
    ServeOptions opts;
    bool have_endpoint = false;
    const char *const kTool = "rawcc serve";
    cli::Args args(kTool, kServeUsage, argc, argv);
    auto num = [&](const char *flag, long lo, long hi,
                   const char *want) -> long {
        return cli::parse_long_in(kTool, args.value(), flag, lo, hi,
                                  want);
    };
    auto ms = [&](const char *flag) -> int64_t {
        return num(flag, 1, 86400000, "milliseconds in [1, 86400000]");
    };
    while (args.next()) {
        if (args.is("--socket")) {
            opts.socket_path = args.value();
            have_endpoint = true;
        } else if (args.is("--port")) {
            opts.port = static_cast<int>(
                num("--port", 0, 65535, "a port in [0, 65535]"));
            have_endpoint = true;
        } else if (args.is("--workers"))
            opts.workers = static_cast<int>(
                num("--workers", 1, 256, "a count in [1, 256]"));
        else if (args.is("--queue-depth"))
            opts.queue_depth = static_cast<int>(num(
                "--queue-depth", 1, 65536, "a depth in [1, 65536]"));
        else if (args.is("--cache-entries"))
            opts.cache_entries = static_cast<int>(
                num("--cache-entries", 1, 1000000,
                    "a count in [1, 1000000]"));
        else if (args.is("--cache-mb"))
            opts.cache_bytes =
                static_cast<int64_t>(num("--cache-mb", 1, 65536,
                                         "MB in [1, 65536]"))
                << 20;
        else if (args.is("--timeout"))
            opts.default_timeout_ms = ms("--timeout");
        else if (args.is("--max-timeout"))
            opts.max_timeout_ms = ms("--max-timeout");
        else if (args.is("--drain"))
            opts.drain_ms = ms("--drain");
        else if (args.is("--max-conns"))
            opts.max_conns = static_cast<int>(num(
                "--max-conns", 1, 4096, "a count in [1, 4096]"));
        else if (args.is("--verbose"))
            opts.verbose = true;
        else
            args.unknown();
    }
    if (!have_endpoint) {
        std::fprintf(stderr, "%s: need --socket PATH or --port N\n%s",
                     kTool, kServeUsage);
        return 2;
    }
    if (opts.max_timeout_ms < opts.default_timeout_ms)
        opts.max_timeout_ms = opts.default_timeout_ms;

    ServeServer server(opts);
    g_server = &server;
    struct sigaction sa;
    std::memset(&sa, 0, sizeof sa);
    sa.sa_handler = on_signal;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
    ::signal(SIGPIPE, SIG_IGN);

    int code;
    try {
        code = server.serve_forever();
    } catch (const FatalError &e) {
        std::fprintf(stderr, "rawcc serve: %s\n", e.what());
        code = 1;
    }
    g_server = nullptr;
    return code;
}

} // namespace serve
} // namespace raw
