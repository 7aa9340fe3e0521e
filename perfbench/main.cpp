/**
 * @file
 * RawCC benchmark driver.  One run executes one workload for a fixed
 * time, checks every output, and prints each metric by name and unit;
 * the last stdout line is a JSON object
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * carrying the end-to-end metrics (--trace 0) or the per-layer
 * metrics (--trace 1).  The metric table below is the single source
 * of BENCHMARK.json, which --emit-manifest writes.  See README.md.
 */

#include <cstdio>
#include <cstring>
#include <cmath>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "harness/cli.hpp"
#include "serve/json.hpp"

namespace {

using namespace perfbench;

const char *kTool = "perfbench";
constexpr int kRunSeconds = 30;

struct WorkloadDef
{
    const char *name;
    const char *why;
};

const WorkloadDef kWorkloads[] = {
    {"suite16", "the seven Table 2 kernels at 16 tiles, cold: the "
                "paper's headline mesh, compile and simulate in even "
                "shares; the no-change control for large-mesh work"},
    {"mesh_large", "life@128, mxm@64, cholesky@64 cold: compile-bound "
                   "(partition and schedule) and the staticization "
                   "cliff past 32 tiles"},
    {"serve_zipf", "84 Zipf-ranked keys through a forked rawcc serve "
                   "with a 64-entry cache: cold start and cache fill; "
                   "traced, open-loop load for hits, misses, evictions "
                   "and queueing"},
};

struct MetricDef
{
    const char *name;
    const char *unit;
    const char *better;
    double bound; ///< share of the parent's median; < 0 = per-layer
};

const MetricDef kEndToEnd[] = {
    {"setup_s", "s", "lower", 0.25},
    {"e2e_s", "s", "lower", 0.25},
    {"compile_s", "s", "lower", 0.25},
    {"sim_mcps", "Mcycles/s", "higher", 0.25},
    {"sim_cycles_geomean", "cycles", "lower", 0.01},
    {"speedup_geomean", "x", "higher", 0.01},
    {"static_instrs", "count", "lower", 0.01},
    {"peak_rss_mb", "MB", "lower", 0.25},
};

std::vector<MetricDef>
per_layer_defs()
{
    std::vector<MetricDef> v = {
        {"frontend.parse_ms", "ms", "lower", -1},
        {"frontend.unroll_ms", "ms", "lower", -1},
        {"frontend.lower_ms", "ms", "lower", -1},
        {"frontend.ir_instrs", "count", "lower", -1},
        {"transform.ms", "ms", "lower", -1},
        {"transform.ir_instrs", "count", "lower", -1},
        {"unroll.static_loops_frac", "fraction", "higher", -1},
        {"orchestrate.dynamic_refs", "count", "lower", -1},
        {"schedule.est_over_actual", "ratio", "higher", -1},
        {"orchestrate.ms", "ms", "lower", -1},
        {"orchestrate.partition_ms", "ms", "lower", -1},
        {"orchestrate.schedule_ms", "ms", "lower", -1},
        {"partition.swaps", "count", "lower", -1},
        {"link.ms", "ms", "lower", -1},
        {"regalloc.spill_ops", "count", "lower", -1},
        {"link.static_instrs", "count", "lower", -1},
        {"schedcache.part_hit_frac", "fraction", "higher", -1},
        {"schedcache.sched_hit_frac", "fraction", "higher", -1},
        {"schedcache.bytes", "bytes", "lower", -1},
        {"sim.threaded.mcps", "Mcycles/s", "higher", -1},
        {"sim.reference.mcps", "Mcycles/s", "higher", -1},
        {"sim.region.mcps", "Mcycles/s", "higher", -1},
        {"sim.threaded.ns_per_instr", "ns", "lower", -1},
        {"sim.instrs", "count", "lower", -1},
        {"sim.words_routed", "count", "lower", -1},
        {"sim.dyn_messages", "count", "lower", -1},
        {"sim.proc_stall_cycles", "cycles", "lower", -1},
        {"serve_p50_ms.lo", "ms", "lower", -1},
        {"serve_p95_ms.lo", "ms", "lower", -1},
        {"serve_p50_ms.hi", "ms", "lower", -1},
        {"serve_p95_ms.hi", "ms", "lower", -1},
        {"serve_max_rps", "1/s", "higher", -1},
        {"serve.queue_ms.p50", "ms", "lower", -1},
        {"serve.queue_ms.p95", "ms", "lower", -1},
        {"serve.compile_ms.p95", "ms", "lower", -1},
        {"serve.sim_ms.p50", "ms", "lower", -1},
        {"serve.flight_hit_frac", "fraction", "higher", -1},
        {"serve.miss_frac", "fraction", "lower", -1},
        {"serve.flight_waits", "count", "lower", -1},
        {"serve.evictions", "count", "lower", -1},
        {"serve.shed", "count", "lower", -1},
        {"serve.gen_lag_ms.p95", "ms", "lower", -1},
        {"serve.fail_frac", "fraction", "lower", -1},
        {"verify.fail_frac", "fraction", "lower", -1},
        {"trace.overhead_frac", "fraction", "lower", -1},
        {"trace.self_sum_frac", "fraction", "higher", -1},
    };
    // Per-program rows: strings owned by a static table.
    static std::vector<std::string> names;
    if (names.empty())
        for (const Point &p : all_points()) {
            names.push_back("cycles." + p.label());
            names.push_back("compile_ms." + p.label());
        }
    for (size_t i = 0; i < names.size(); i++)
        v.push_back({names[i].c_str(), i % 2 ? "ms" : "cycles",
                     "lower", -1});
    return v;
}

std::string
manifest_json()
{
    using raw::serve::json_quote;
    std::string s = "{\n  \"command\": [\"python3\", "
                    "\"perfbench/run.py\"],\n"
                    "  \"paths\": [\"perfbench\"],\n"
                    "  \"run_seconds\": " +
                    std::to_string(kRunSeconds) +
                    ",\n  \"workloads\": [\n";
    for (size_t i = 0; i < std::size(kWorkloads); i++)
        s += std::string("    {\"name\": ") +
             json_quote(kWorkloads[i].name) +
             ", \"why\": " + json_quote(kWorkloads[i].why) + "}" +
             (i + 1 < std::size(kWorkloads) ? ",\n" : "\n");
    s += "  ],\n  \"end_to_end\": [\n";
    for (size_t i = 0; i < std::size(kEndToEnd); i++) {
        char bound[32];
        std::snprintf(bound, sizeof bound, "%g", kEndToEnd[i].bound);
        s += std::string("    {\"name\": ") +
             json_quote(kEndToEnd[i].name) +
             ", \"unit\": " + json_quote(kEndToEnd[i].unit) +
             ", \"better\": " + json_quote(kEndToEnd[i].better) +
             ", \"bound\": " + bound + "}" +
             (i + 1 < std::size(kEndToEnd) ? ",\n" : "\n");
    }
    s += "  ],\n  \"per_layer\": [\n";
    std::vector<MetricDef> pl = per_layer_defs();
    for (size_t i = 0; i < pl.size(); i++)
        s += std::string("    {\"name\": ") + json_quote(pl[i].name) +
             ", \"unit\": " + json_quote(pl[i].unit) +
             ", \"better\": " + json_quote(pl[i].better) + "}" +
             (i + 1 < pl.size() ? ",\n" : "\n");
    s += "  ]\n}\n";
    return s;
}

void
usage(FILE *f)
{
    std::fprintf(
        f,
        "usage: %s --workload NAME --seed N --seconds N --trace 0|1\n"
        "          [--trace-out PATH] [--zipf-s S]\n"
        "       %s --emit-manifest PATH\n"
        "       %s --help\n\n"
        "Runs one workload for --seconds, checks every output and\n"
        "prints its metrics; the last stdout line is the JSON result.\n"
        "--trace 1 reports the per-layer metrics instead of the\n"
        "end-to-end ones and writes a Chrome trace (default\n"
        ".bench_build/trace-<workload>.json).  --zipf-s sets the\n"
        "serve_zipf popularity exponent (default 0.8).  --emit-manifest\n"
        "writes the benchmark manifest (BENCHMARK.json) and runs\n"
        "nothing.\n\n"
        "workloads:\n",
        kTool, kTool, kTool);
    for (const WorkloadDef &w : kWorkloads)
        std::fprintf(f, "  %-11s %s\n", w.name, w.why);
}

bool
known_workload(const std::string &w)
{
    for (const WorkloadDef &d : kWorkloads)
        if (w == d.name)
            return true;
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    bool have_workload = false, have_seed = false, have_seconds = false,
         have_trace = false;
    std::string manifest_out;
    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        if (a == "--help" || a == "-h") {
            usage(stdout);
            return 0;
        }
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: %s needs a value\n", kTool,
                             a.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--workload") {
            o.workload = value();
            if (!known_workload(o.workload))
                raw::cli::bad_value(kTool, "--workload",
                                    o.workload.c_str(),
                                    "suite16, mesh_large or serve_zipf");
            have_workload = true;
        } else if (a == "--seed") {
            o.seed = raw::cli::parse_u64(kTool, value(), "--seed");
            have_seed = true;
        } else if (a == "--seconds") {
            o.seconds = static_cast<int>(raw::cli::parse_long_in(
                kTool, value(), "--seconds", 1, 3600,
                "an integer in 1..3600"));
            have_seconds = true;
        } else if (a == "--trace") {
            o.trace = raw::cli::parse_long_in(kTool, value(), "--trace",
                                              0, 1, "0 or 1") == 1;
            have_trace = true;
        } else if (a == "--trace-out") {
            o.trace_out = value();
        } else if (a == "--zipf-s") {
            o.zipf_s = raw::cli::parse_double(kTool, value(), "--zipf-s");
            if (!(o.zipf_s >= 0.0 && o.zipf_s <= 4.0))
                raw::cli::bad_value(kTool, "--zipf-s", argv[i],
                                    "a number in 0..4");
        } else if (a == "--emit-manifest") {
            manifest_out = value();
        } else {
            std::fprintf(stderr, "%s: unknown flag '%s' (see --help)\n",
                         kTool, a.c_str());
            return 2;
        }
    }
    if (!manifest_out.empty()) {
        std::ofstream out(manifest_out);
        out << manifest_json();
        if (!out) {
            std::fprintf(stderr, "%s: cannot write %s\n", kTool,
                         manifest_out.c_str());
            return 1;
        }
        return 0;
    }
    const char *missing = !have_workload  ? "--workload"
                          : !have_seed    ? "--seed"
                          : !have_seconds ? "--seconds"
                          : !have_trace   ? "--trace"
                                          : nullptr;
    if (missing) {
        std::fprintf(stderr, "%s: missing required flag %s (see --help)\n",
                     kTool, missing);
        return 2;
    }
    if (o.trace && o.trace_out.empty()) {
        o.trace_out = ".bench_build/trace-" + o.workload + ".json";
        std::error_code ec;
        std::filesystem::create_directories(".bench_build", ec);
    }

    Outcome out;
    try {
        if (o.workload == "serve_zipf")
            out = run_serve_workload(o);
        else
            out = run_compile_workload(o, o.workload == "suite16"
                                              ? suite16_points()
                                              : mesh_large_points());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s: %s failed: %s\n", kTool,
                     o.workload.c_str(), e.what());
        return 1;
    }
    // Every metric of the selected table must have been measured.
    std::vector<MetricDef> defs;
    if (o.trace)
        defs = per_layer_defs();
    else
        defs.assign(std::begin(kEndToEnd), std::end(kEndToEnd));
    for (const MetricDef &d : defs)
        out.check(out.metrics.count(d.name) == 1,
                  std::string("metric not measured: ") + d.name);
    for (const auto &[name, v] : out.metrics) {
        out.check(std::isfinite(v), "metric " + name + " is not finite");
        bool listed = false;
        for (const MetricDef &d : defs)
            listed |= name == d.name;
        out.check(listed, "unlisted metric " + name);
    }
    for (const std::string &e : out.errors)
        std::fprintf(stderr, "%s: CHECK FAILED: %s\n", kTool, e.c_str());

    bool correct = out.errors.empty() && out.failed == 0;
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(out.attempted) +
            ", \"failed\": " + std::to_string(out.failed) +
            ", \"metrics\": {";
    bool first = true;
    for (const MetricDef &d : defs) {
        auto it = out.metrics.find(d.name);
        if (it == out.metrics.end())
            continue;
        char v[40];
        std::snprintf(v, sizeof v, "%.17g",
                      std::isfinite(it->second) ? it->second : 0.0);
        std::printf("%-28s %20.6f %s\n", d.name, it->second, d.unit);
        json += std::string(first ? "" : ", ") +
                raw::serve::json_quote(d.name) + ": {\"value\": " + v +
                ", \"unit\": " + raw::serve::json_quote(d.unit) + "}";
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
