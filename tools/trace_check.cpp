/**
 * @file
 * trace_check — validate a Chrome trace-event JSON file produced by
 * `rawcc --trace-out` (and by write_chrome_trace() generally).
 *
 * Checks, exiting nonzero with a message on the first violation:
 *   - the file parses as JSON and the top level is an array;
 *   - every event is an object with a string "name", a "ph" of "X"
 *     (complete event) or "M" (metadata), and integer "pid"/"tid";
 *   - every "X" event has ts >= 0 and dur >= 1;
 *   - timestamps are monotonically non-decreasing per (pid, tid)
 *     track, and spans on one track do not overlap;
 *   - every (pid, tid) track with events has a thread_name metadata
 *     record.
 *
 * Usage: trace_check <trace.json> [more.json ...]
 *
 * The parser below is a deliberately small recursive-descent JSON
 * reader (objects, arrays, strings, numbers, literals) — enough to
 * validate our own emitter without an external dependency.
 */

#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "harness/cli.hpp"

namespace {

struct JsonValue
{
    enum class K { kNull, kBool, kNumber, kString, kArray, kObject };
    K k = K::kNull;
    bool b = false;
    double num = 0;
    std::string str;
    std::vector<JsonValue> arr;
    std::map<std::string, JsonValue> obj;
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : s_(text) {}

    JsonValue
    parse()
    {
        JsonValue v = value();
        skip_ws();
        if (pos_ != s_.size())
            fail("trailing characters after JSON document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &msg)
    {
        throw std::runtime_error("JSON error at byte " +
                                 std::to_string(pos_) + ": " + msg);
    }

    void
    skip_ws()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            pos_++;
    }

    char
    peek()
    {
        if (pos_ >= s_.size())
            fail("unexpected end of input");
        return s_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        pos_++;
    }

    JsonValue
    value()
    {
        skip_ws();
        switch (peek()) {
          case '{': return object();
          case '[': return array();
          case '"': return string_value();
          case 't': case 'f': return boolean();
          case 'n': return null_value();
          default: return number();
        }
    }

    JsonValue
    object()
    {
        JsonValue v;
        v.k = JsonValue::K::kObject;
        expect('{');
        skip_ws();
        if (peek() == '}') {
            pos_++;
            return v;
        }
        for (;;) {
            skip_ws();
            JsonValue key = string_value();
            skip_ws();
            expect(':');
            v.obj[key.str] = value();
            skip_ws();
            if (peek() == ',') {
                pos_++;
                continue;
            }
            expect('}');
            return v;
        }
    }

    JsonValue
    array()
    {
        JsonValue v;
        v.k = JsonValue::K::kArray;
        expect('[');
        skip_ws();
        if (peek() == ']') {
            pos_++;
            return v;
        }
        for (;;) {
            v.arr.push_back(value());
            skip_ws();
            if (peek() == ',') {
                pos_++;
                continue;
            }
            expect(']');
            return v;
        }
    }

    JsonValue
    string_value()
    {
        JsonValue v;
        v.k = JsonValue::K::kString;
        expect('"');
        while (peek() != '"') {
            char c = s_[pos_++];
            if (c == '\\') {
                char e = peek();
                pos_++;
                switch (e) {
                  case '"': v.str += '"'; break;
                  case '\\': v.str += '\\'; break;
                  case '/': v.str += '/'; break;
                  case 'n': v.str += '\n'; break;
                  case 't': v.str += '\t'; break;
                  case 'r': v.str += '\r'; break;
                  case 'b': case 'f': break;
                  case 'u':
                    // Our emitter never writes \u escapes; accept
                    // and skip the four hex digits.
                    for (int i = 0; i < 4 && pos_ < s_.size(); i++)
                        pos_++;
                    break;
                  default: fail("bad escape");
                }
            } else {
                v.str += c;
            }
        }
        pos_++;
        return v;
    }

    JsonValue
    number()
    {
        size_t start = pos_;
        if (peek() == '-')
            pos_++;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' ||
                s_[pos_] == 'E' || s_[pos_] == '+' ||
                s_[pos_] == '-'))
            pos_++;
        if (pos_ == start)
            fail("expected a number");
        JsonValue v;
        v.k = JsonValue::K::kNumber;
        v.num = std::stod(s_.substr(start, pos_ - start));
        return v;
    }

    JsonValue
    boolean()
    {
        JsonValue v;
        v.k = JsonValue::K::kBool;
        if (s_.compare(pos_, 4, "true") == 0) {
            v.b = true;
            pos_ += 4;
        } else if (s_.compare(pos_, 5, "false") == 0) {
            v.b = false;
            pos_ += 5;
        } else {
            fail("expected true/false");
        }
        return v;
    }

    JsonValue
    null_value()
    {
        if (s_.compare(pos_, 4, "null") != 0)
            fail("expected null");
        pos_ += 4;
        return JsonValue{};
    }

    const std::string &s_;
    size_t pos_ = 0;
};

int
check_file(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "trace_check: cannot open %s\n",
                     path.c_str());
        return 1;
    }
    std::ostringstream os;
    os << in.rdbuf();

    JsonValue doc;
    try {
        doc = JsonParser(os.str()).parse();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "trace_check: %s: %s\n", path.c_str(),
                     e.what());
        return 1;
    }

    auto bad = [&](size_t idx, const char *msg) {
        std::fprintf(stderr, "trace_check: %s: event %zu: %s\n",
                     path.c_str(), idx, msg);
        return 1;
    };

    if (doc.k != JsonValue::K::kArray) {
        std::fprintf(stderr,
                     "trace_check: %s: top level is not an array\n",
                     path.c_str());
        return 1;
    }

    // Per-track last span end, for monotonicity / overlap checks.
    std::map<std::pair<double, double>, double> track_end;
    std::map<std::pair<double, double>, bool> track_named;
    size_t n_events = 0, n_meta = 0;
    for (size_t i = 0; i < doc.arr.size(); i++) {
        const JsonValue &ev = doc.arr[i];
        if (ev.k != JsonValue::K::kObject)
            return bad(i, "not an object");
        auto field = [&](const char *name) -> const JsonValue * {
            auto it = ev.obj.find(name);
            return it == ev.obj.end() ? nullptr : &it->second;
        };
        const JsonValue *name = field("name");
        const JsonValue *ph = field("ph");
        const JsonValue *pid = field("pid");
        const JsonValue *tid = field("tid");
        if (!name || name->k != JsonValue::K::kString)
            return bad(i, "missing string \"name\"");
        if (!ph || ph->k != JsonValue::K::kString)
            return bad(i, "missing string \"ph\"");
        if (!pid || pid->k != JsonValue::K::kNumber)
            return bad(i, "missing numeric \"pid\"");
        if (!tid || tid->k != JsonValue::K::kNumber)
            return bad(i, "missing numeric \"tid\"");
        std::pair<double, double> track{pid->num, tid->num};

        if (ph->str == "M") {
            if (name->str == "thread_name")
                track_named[track] = true;
            n_meta++;
            continue;
        }
        if (ph->str != "X")
            return bad(i, "\"ph\" is neither \"X\" nor \"M\"");
        const JsonValue *ts = field("ts");
        const JsonValue *dur = field("dur");
        if (!ts || ts->k != JsonValue::K::kNumber || ts->num < 0)
            return bad(i, "\"X\" event lacks non-negative \"ts\"");
        if (!dur || dur->k != JsonValue::K::kNumber || dur->num < 1)
            return bad(i, "\"X\" event lacks positive \"dur\"");
        auto it = track_end.find(track);
        if (it != track_end.end() && ts->num < it->second)
            return bad(i, "timestamps not monotone on track "
                          "(span overlaps previous)");
        track_end[track] = ts->num + dur->num;
        if (!track_named.count(track))
            return bad(i, "track has no thread_name metadata");
        n_events++;
    }

    std::printf("trace_check: %s ok (%zu events, %zu metadata, %zu "
                "tracks)\n",
                path.c_str(), n_events, n_meta, track_end.size());
    return 0;
}

constexpr const char *kUsage =
    "usage: trace_check <trace.json> [more.json ...]\n"
    "  validate Chrome trace-event files written by rawcc --trace-out\n";

} // namespace

int
main(int argc, char **argv)
{
    std::vector<const char *> files;
    raw::cli::Args args("trace_check", kUsage, argc, argv);
    while (args.next()) {
        if (args.flag()[0] == '-')
            args.unknown();
        files.push_back(args.flag());
    }
    if (files.empty()) {
        std::fprintf(stderr, "trace_check: missing <trace.json>\n%s",
                     kUsage);
        return 2;
    }
    int rc = 0;
    for (const char *f : files)
        rc |= check_file(f);
    return rc;
}
