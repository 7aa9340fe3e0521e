#ifndef PERFBENCH_BENCH_HPP
#define PERFBENCH_BENCH_HPP

/**
 * @file
 * Shared pieces of the RawCC benchmark driver: run options, the
 * metric result a workload hands back, statistics helpers, the span
 * recorder the traced run wraps around each call into a layer, and
 * the committed per-point cycle counts every run is checked against.
 * See README.md for the workloads and the metric definitions.
 */

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b);
double seconds_since(Clock::time_point t0);

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);
/**
 * Quantile @p q estimated as the mean of the order statistics within
 * min(0.05, (1 - q) / 2) of it (the 45th-55th percentile for the
 * median, the 92.5th-97.5th for p95).  Latencies of a mix of a few
 * dozen programs fall in clusters with gaps between them; a plain
 * order statistic jumps across a gap when the mix shifts by one
 * request, while this window average moves smoothly.  0 when empty.
 */
double smoothed_quantile(std::vector<double> v, double q);
/** Geometric mean of positive values. */
double geomean(const std::vector<double> &v);

/** Parsed command line of one run. */
struct Options
{
    std::string workload;
    uint64_t seed = 0;
    int seconds = 0;
    bool trace = false;
    /** Chrome trace-event output of the traced run. */
    std::string trace_out;
    /** Zipf exponent of the serve_zipf key popularity. */
    double zipf_s = 0.8;
};

/** What one workload run hands back to main(). */
struct Outcome
{
    /** Metric name -> value; units come from the manifest. */
    std::map<std::string, double> metrics;
    /** Programs (compile workloads) or requests (serve) attempted. */
    int64_t attempted = 0;
    /** Verification failures, or failed/refused/silent requests. */
    int64_t failed = 0;
    /** Every broken check, one line each (printed to stderr). */
    std::vector<std::string> errors;

    void
    check(bool ok, const std::string &what)
    {
        if (!ok)
            errors.push_back(what);
    }
};

/**
 * One compile point: a Table 2 kernel at a mesh size, on the base
 * machine with default options unless a serve key says otherwise.
 */
struct Point
{
    std::string prog;
    int tiles = 0;
    /** "base" or "one_cycle", as the serve protocol names them. */
    std::string machine = "base";
    bool route_select = false;

    /** "prog.tN" for the base machine, e.g. "life.t16". */
    std::string
    label() const
    {
        return prog + ".t" + std::to_string(tiles) +
               (machine == "base" ? "" : "." + machine) +
               (route_select ? ".rs" : "");
    }

    /** Committed cycles exist for base-machine default-option points. */
    bool
    plain() const
    {
        return machine == "base" && !route_select;
    }
};

/** The seven Table 2 kernels at 16 tiles. */
std::vector<Point> suite16_points();
/** life@128, mxm@64, cholesky@64. */
std::vector<Point> mesh_large_points();
/** suite16 then mesh_large: the ten per-program rows. */
std::vector<Point> all_points();

/**
 * Simulated cycles of each committed point in BENCH_wallclock.json
 * (top-level runs[] and scaling.runs[]), keyed by "prog.tN".  The
 * file is read from the working directory, the repository root.
 * Throws FatalError when it is missing or malformed.
 */
std::map<std::string, int64_t> committed_cycles();

/** Peak resident set of this process, in MB. */
double self_peak_rss_mb();
/**
 * Peak resident set (VmHWM) of process @p pid, in MB.  Throws
 * FatalError when /proc/<pid>/status cannot be read.
 */
double proc_peak_rss_mb(int pid);

/**
 * In-memory span recorder for the traced run.  Spans nest: the span
 * open when another opens is its parent.  Each span carries the id of
 * the request (program or serve request) it belongs to.  Single
 * threaded by design: the traced pipeline runs on one thread.
 */
class Tracer
{
  public:
    struct Rec
    {
        std::string name;
        Clock::time_point start, end;
        int id = 0;
        int parent = 0; ///< 0 = root
        int64_t req = 0;
        /** Time covered by direct children. */
        double child_ms = 0;

        double ms() const { return ms_between(start, end); }
        double self_ms() const { return ms() - child_ms; }
    };

    /**
     * RAII span.  @p req >= 0 starts a new request; otherwise the
     * span belongs to its parent's.
     */
    class Span
    {
      public:
        Span(Tracer &t, const std::string &name, int64_t req = -1);
        ~Span();
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        Tracer &t_;
        size_t idx_ = 0;
    };

    /** Record a finished span directly (serve requests). */
    void add(const std::string &name, Clock::time_point start,
             Clock::time_point end, int64_t req);

    /** Sum of self time of every span named @p name. */
    double self_ms(const std::string &name) const;
    /** Sum of duration of every span named @p name. */
    double total_ms(const std::string &name) const;
    /** Sum of self time of every span whose name starts @p prefix. */
    double self_ms_prefix(const std::string &prefix) const;

    /** Chrome trace-event JSON ("X" events, ids in args). */
    void write_chrome(const std::string &path) const;

  private:
    std::vector<Rec> recs_;
    std::vector<size_t> open_;
    Clock::time_point epoch_ = Clock::now();
};

Outcome run_compile_workload(const Options &o,
                             const std::vector<Point> &own);

/**
 * The traced in-process pipeline: untraced passes of @p own before
 * and after (for the tracing overhead), the same points compiled
 * layer by layer with spans into @p tr and verified on every core,
 * then the points of all_points() outside @p own, once each, for the
 * per-program rows.  Fills every per-layer metric except the serve
 * ones.
 */
void traced_layers(const Options &o, const std::vector<Point> &own,
                   const std::map<std::string, int64_t> &committed,
                   Tracer &tr, Outcome &out);
Outcome run_serve_workload(const Options &o);

/**
 * The serve layer, measured the same way in every traced run: a
 * forked `rawcc serve` driven open loop with the serve_zipf traffic
 * (prefill, alternating low/high-rate rounds, then the ladder above
 * them), with a span per request into @p tr.  Fills the serve_* and
 * serve.* per-layer metrics; the serve.* daemon counters cover the
 * low/high-rate rounds only.
 */
void serve_layers(const Options &o,
                  const std::map<std::string, int64_t> &committed,
                  Tracer &tr, Outcome &out);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HPP
