/**
 * @file
 * Table 2 reproduction: benchmark characteristics — source, language,
 * lines of code, array size, sequential run time (cycles under the
 * baseline compiler on one tile).
 *
 * Our programs are rawc rewrites of the originals, with iteration
 * counts scaled for simulation (EXPERIMENTS.md documents the paper's
 * values side by side).
 */

#include <cstdio>
#include <sstream>

#include "harness/cli.hpp"
#include "harness/harness.hpp"

namespace {

int
count_lines(const std::string &src)
{
    int n = 0;
    std::istringstream is(src);
    std::string line;
    while (std::getline(is, line)) {
        // Count non-empty, non-comment lines, as a compiler writer
        // would count kernel size.
        size_t k = line.find_first_not_of(" \t");
        if (k == std::string::npos)
            continue;
        if (line[k] == '/' && k + 1 < line.size() && line[k + 1] == '/')
            continue;
        n++;
    }
    return n;
}

const char *
array_size(const std::string &name)
{
    if (name == "life" || name == "jacobi" || name == "tomcatv")
        return "32x32";
    if (name == "vpenta")
        return "32x32 (x5)";
    if (name == "cholesky")
        return "3x15x16";
    if (name == "mxm")
        return "32x64, 64x8";
    return "-";
}

} // namespace

int
main(int argc, char **argv)
{
    raw::cli::Args args(
        "bench_table2_characteristics",
        "usage: bench_table2_characteristics\n"
        "  prints Table 2 (benchmark characteristics); takes no flags\n",
        argc, argv);
    while (args.next())
        args.unknown();
    std::printf("Table 2: Benchmark characteristics\n");
    std::printf("%-14s %-8s %-12s %-12s %-22s\n", "Benchmark", "Lines",
                "Array size", "Seq. RT", "Description");
    for (const raw::BenchmarkProgram &p : raw::benchmark_suite()) {
        raw::RunResult base =
            raw::run_baseline(p.source, p.check_array);
        std::printf("%-14s %-8d %-12s %-12lld %-22s\n",
                    p.name.c_str(), count_lines(p.source),
                    array_size(p.name),
                    static_cast<long long>(base.cycles),
                    p.description.c_str());
    }
    std::printf("\nPaper values (Table 2): life 118 lines / 1.08M, "
                "vpenta 157 / 2.56M, cholesky 126 / 1.79M,\n"
                "tomcatv 254 / 214M, fpppp-kernel 735 / 8.98K, "
                "mxm 64 / 5.98M, jacobi 59 / 0.17M.\n"
                "Iteration counts here are scaled for simulation; see "
                "EXPERIMENTS.md.\n");
    return 0;
}
