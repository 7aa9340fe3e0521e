#include "sim/checker.hpp"

#include <sstream>

#include "sim/simulator.hpp"

namespace raw {

namespace {

inline uint64_t
fnv_mix(uint64_t h, uint64_t x)
{
    return (h ^ x) * 0x100000001B3ULL;
}

} // namespace

std::string
CheckFailure::to_string() const
{
    std::ostringstream os;
    os << kind << " @tile" << tile << " pc" << pc << " cycle" << cycle
       << ": " << detail;
    return os.str();
}

RuntimeChecker::RuntimeChecker(int n_tiles, const CheckConfig &cfg)
    : cfg_(cfg)
{
    p2s_.resize(n_tiles);
    s2p_.resize(n_tiles);
    links_.assign(n_tiles, std::vector<std::deque<WordProv>>(4));
    proc_points_.resize(n_tiles);
    switch_points_.resize(n_tiles);
}

void
RuntimeChecker::fail(const std::string &kind, int tile, int64_t pc,
                     int64_t cycle, const std::string &detail)
{
    total_failures_++;
    if (static_cast<int>(failures_.size()) < kMaxRecorded)
        failures_.push_back({kind, tile, pc, cycle, detail});
}

void
RuntimeChecker::audit(const Fifo &f, size_t shadow_depth,
                      const char *what, int tile, int64_t cycle)
{
    if (!cfg_.fifo_bounds)
        return;
    if (!f.audit_bounds())
        fail("fifo-bounds", tile, -1, cycle,
             std::string(what) + ": ring invariants violated "
                                 "(occupancy outside [0, cap])");
    else if (static_cast<size_t>(f.size()) != shadow_depth) {
        std::ostringstream os;
        os << what << ": occupancy " << f.size()
           << " != shadow depth " << shadow_depth;
        fail("fifo-bounds", tile, -1, cycle, os.str());
    }
}

void
RuntimeChecker::audit_plane(const DynPlane &plane, int64_t cycle)
{
    if (!cfg_.fifo_bounds)
        return;
    const int n = static_cast<int>(plane.words.size());
    int64_t sum = 0;
    for (int t = 0; t < n; t++) {
        int held = 0;
        for (const Fifo &f : plane.in_bufs[t])
            held += f.size();
        const int count = plane.words[t];
        const bool bit = (plane.occupied[t >> 6] >> (t & 63)) & 1;
        if (count != held || bit != (count != 0)) {
            std::ostringstream os;
            os << "dyn plane: word count " << count << ", occupied bit "
               << bit << ", input buffers hold " << held;
            fail("fifo-bounds", t, -1, cycle, os.str());
        }
        sum += count;
    }
    if (sum != plane.resident) {
        std::ostringstream os;
        os << "dyn plane: tile word counts sum to " << sum
           << " != resident " << plane.resident;
        fail("fifo-bounds", -1, -1, cycle, os.str());
    }
}

WordProv
RuntimeChecker::take(std::deque<WordProv> &q, const char *what,
                     int tile, int64_t cycle)
{
    if (q.empty()) {
        fail("shadow-underflow", tile, -1, cycle,
             std::string(what) +
                 ": pop with empty provenance shadow queue");
        return {};
    }
    WordProv p = q.front();
    q.pop_front();
    return p;
}

void
RuntimeChecker::send_p2s(int tile, int64_t pc, const Fifo &f,
                         int64_t cycle)
{
    p2s_[tile].push_back({tile, pc});
    audit(f, p2s_[tile].size(), "p2s", tile, cycle);
}

WordProv
RuntimeChecker::take_p2s(int tile, const Fifo &f, int64_t cycle)
{
    WordProv p = take(p2s_[tile], "p2s", tile, cycle);
    audit(f, p2s_[tile].size(), "p2s", tile, cycle);
    return p;
}

void
RuntimeChecker::put_s2p(int tile, WordProv p, const Fifo &f,
                        int64_t cycle)
{
    s2p_[tile].push_back(p);
    audit(f, s2p_[tile].size(), "s2p", tile, cycle);
}

WordProv
RuntimeChecker::take_s2p(int tile, const Fifo &f, int64_t cycle)
{
    WordProv p = take(s2p_[tile], "s2p", tile, cycle);
    audit(f, s2p_[tile].size(), "s2p", tile, cycle);
    return p;
}

void
RuntimeChecker::put_link(int tile, int dir, WordProv p, const Fifo &f,
                         int64_t cycle)
{
    links_[tile][dir].push_back(p);
    audit(f, links_[tile][dir].size(), "link", tile, cycle);
}

WordProv
RuntimeChecker::take_link(int tile, int dir, const Fifo &f,
                          int64_t cycle)
{
    WordProv p = take(links_[tile][dir], "link", tile, cycle);
    audit(f, links_[tile][dir].size(), "link", tile, cycle);
    return p;
}

void
RuntimeChecker::consume(std::unordered_map<int64_t, Point> &points,
                        const char *unit, int tile, int64_t pc,
                        int64_t key, WordProv origin, uint32_t value,
                        int64_t cycle)
{
    if (!cfg_.provenance)
        return;
    Point &pt = points[key];
    if (!pt.bound) {
        pt.bound = true;
        pt.first = origin;
    } else if (!(pt.first == origin)) {
        std::ostringstream os;
        os << unit << " consumption #" << pt.count
           << " came from tile" << origin.tile << "@pc" << origin.pc
           << ", statically bound to tile" << pt.first.tile << "@pc"
           << pt.first.pc << " (static-ordering violation)";
        fail("provenance", tile, pc, cycle, os.str());
    }
    pt.hash = fnv_mix(
        fnv_mix(fnv_mix(pt.hash,
                        static_cast<uint64_t>(origin.tile) + 1),
                static_cast<uint64_t>(origin.pc) + 1),
        value);
    pt.count++;
}

void
RuntimeChecker::consume_proc(int tile, int64_t pc, int slot,
                             WordProv origin, uint32_t value,
                             int64_t cycle)
{
    consume(proc_points_[tile], "proc", tile, pc, pc * 2 + slot,
            origin, value, cycle);
}

void
RuntimeChecker::consume_switch(int tile, int64_t pc, int pair,
                               WordProv origin, uint32_t value,
                               int64_t cycle)
{
    consume(switch_points_[tile], "switch", tile, pc, pc * 64 + pair,
            origin, value, cycle);
}

uint64_t
RuntimeChecker::provenance_hash() const
{
    uint64_t acc = 0;
    auto fold = [&](const std::vector<std::unordered_map<int64_t,
                                                         Point>> &maps,
                    uint64_t salt) {
        for (size_t t = 0; t < maps.size(); t++)
            for (const auto &kv : maps[t]) {
                uint64_t h = fnv_mix(salt, t * 2654435761ULL +
                                               static_cast<uint64_t>(
                                                   kv.first));
                h = fnv_mix(h, kv.second.hash);
                h = fnv_mix(h,
                            static_cast<uint64_t>(kv.second.count));
                acc ^= h;
            }
    };
    fold(proc_points_, 0x70726F63ULL);   // "proc"
    fold(switch_points_, 0x73776368ULL); // "swch"
    return acc;
}

std::vector<CheckFailure>
RuntimeChecker::take_failures()
{
    return std::move(failures_);
}

} // namespace raw
