#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "bench.hpp"
#include "serve/json.hpp"
#include "support/error.hpp"

namespace perfbench {

double
ms_between(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

double
seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
smoothed_quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double half = std::min(0.05, (1.0 - q) / 2.0);
    double last = static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(std::floor((q - half) * last));
    size_t hi = static_cast<size_t>(std::ceil((q + half) * last));
    double s = 0;
    for (size_t i = lo; i <= hi; i++)
        s += v[i];
    return s / static_cast<double>(hi - lo + 1);
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0;
    for (double x : v)
        s += std::log(x);
    return std::exp(s / static_cast<double>(v.size()));
}

std::vector<Point>
suite16_points()
{
    return {{"life", 16},   {"vpenta", 16},       {"cholesky", 16},
            {"tomcatv", 16}, {"fpppp-kernel", 16}, {"mxm", 16},
            {"jacobi", 16}};
}

std::vector<Point>
mesh_large_points()
{
    return {{"life", 128}, {"mxm", 64}, {"cholesky", 64}};
}

std::vector<Point>
all_points()
{
    std::vector<Point> v = suite16_points();
    for (const Point &p : mesh_large_points())
        v.push_back(p);
    return v;
}

std::map<std::string, int64_t>
committed_cycles()
{
    const char *path = "BENCH_wallclock.json";
    std::ifstream in(path);
    if (!in)
        raw::fatal(std::string("cannot read ") + path +
                   " (run from the repository root)");
    std::stringstream ss;
    ss << in.rdbuf();
    raw::serve::Json doc;
    std::string err;
    if (!raw::serve::json_parse(ss.str(), doc, err))
        raw::fatal(std::string(path) + ": " + err);

    std::map<std::string, int64_t> out;
    auto take = [&](const raw::serve::Json *runs) {
        if (!runs)
            return;
        for (const raw::serve::Json &r : runs->array) {
            std::string key = r.str_or("name", "") + ".t" +
                              std::to_string(r.int_or("tiles", 0));
            int64_t cycles = r.int_or("cycles", -1);
            auto [it, fresh] = out.emplace(key, cycles);
            if (!fresh && it->second != cycles)
                raw::fatal(std::string(path) + ": runs disagree on " +
                           key);
        }
    };
    take(doc.find("runs"));
    if (const raw::serve::Json *sc = doc.find("scaling"))
        take(sc->find("runs"));
    for (const Point &p : all_points())
        if (!out.count(p.label()))
            raw::fatal(std::string(path) + " has no run for " +
                       p.label());
    return out;
}

double
self_peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
proc_peak_rss_mb(int pid)
{
    std::string path = "/proc/" + std::to_string(pid) + "/status";
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    raw::fatal("no VmHWM in " + path);
}

// -- Tracer ----------------------------------------------------------

Tracer::Span::Span(Tracer &t, const std::string &name, int64_t req)
    : t_(t)
{
    Rec r;
    r.name = name;
    r.id = static_cast<int>(t_.recs_.size()) + 1;
    if (!t_.open_.empty()) {
        const Rec &p = t_.recs_[t_.open_.back()];
        r.parent = p.id;
        r.req = p.req;
    }
    if (req >= 0)
        r.req = req;
    idx_ = t_.recs_.size();
    t_.recs_.push_back(r);
    t_.open_.push_back(idx_);
    t_.recs_[idx_].start = Clock::now();
}

Tracer::Span::~Span()
{
    Rec &r = t_.recs_[idx_];
    r.end = Clock::now();
    t_.open_.pop_back();
    if (r.parent > 0)
        t_.recs_[r.parent - 1].child_ms += r.ms();
}

void
Tracer::add(const std::string &name, Clock::time_point start,
            Clock::time_point end, int64_t req)
{
    Rec r;
    r.name = name;
    r.id = static_cast<int>(recs_.size()) + 1;
    r.start = start;
    r.end = end;
    r.req = req;
    recs_.push_back(r);
}

double
Tracer::self_ms(const std::string &name) const
{
    double s = 0;
    for (const Rec &r : recs_)
        if (r.name == name)
            s += r.self_ms();
    return s;
}

double
Tracer::total_ms(const std::string &name) const
{
    double s = 0;
    for (const Rec &r : recs_)
        if (r.name == name)
            s += r.ms();
    return s;
}

double
Tracer::self_ms_prefix(const std::string &prefix) const
{
    double s = 0;
    for (const Rec &r : recs_)
        if (r.name.rfind(prefix, 0) == 0)
            s += r.self_ms();
    return s;
}

void
Tracer::write_chrome(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        raw::fatal("cannot write trace " + path);
    out << "{\"traceEvents\":[\n";
    bool first = true;
    for (const Rec &r : recs_) {
        auto us = [&](Clock::time_point t) {
            return std::chrono::duration<double, std::micro>(t - epoch_)
                .count();
        };
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,",
                      us(r.start), us(r.end) - us(r.start),
                      r.parent == 0 && r.name == "serve.request" ? 2
                                                                 : 1);
        out << (first ? "" : ",\n") << "{\"name\":"
            << raw::serve::json_quote(r.name) << ",\"ph\":\"X\","
            << buf << "\"args\":{\"id\":" << r.id
            << ",\"parent\":" << r.parent << ",\"req\":" << r.req
            << "}}";
        first = false;
    }
    out << "\n]}\n";
    if (!out)
        raw::fatal("short write to trace " + path);
}

} // namespace perfbench
