/**
 * @file
 * The Longnail benchmark driver program.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --workdir DIR --longnail PATH --outdir DIR
 *             --benchmark BENCHMARK.json
 *
 * With --trace 0 it runs one workload (catalog-cold, serve-mix or
 * sim-isax) untraced and reports the end-to-end metrics. With --trace 1
 * it runs the traced suite instead, which covers the layers of all
 * three workloads, so every per-layer metric is reported whatever the
 * workload. Either way the last line of standard output is the JSON
 * result, holding the metrics BENCHMARK.json lists for the mode; the
 * exit code is non-zero when an output was wrong or a metric is
 * missing.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common.hh"
#include "support/json.hh"

using namespace perfbench;

namespace {

/** Names of the metrics listed under @p key in BENCHMARK.json. */
std::vector<std::string>
metricNames(const std::string &path, const char *key)
{
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    std::vector<std::string> names;
    std::optional<longnail::json::Value> spec =
        longnail::json::parse(text.str());
    const longnail::json::Value *list = spec ? spec->find(key) : nullptr;
    if (list)
        for (const longnail::json::Value &metric : list->items())
            names.push_back(metric.getString("name"));
    return names;
}

void
merge(Result &into, const Result &from)
{
    into.metrics.insert(into.metrics.end(), from.metrics.begin(),
                        from.metrics.end());
    into.attempted += from.attempted;
    into.failed += from.failed;
    into.problems.insert(into.problems.end(), from.problems.begin(),
                         from.problems.end());
}

Result
runTraced(const Args &args)
{
    Tracer tracer;
    Result result = runCatalogReplay(args, tracer);
    Args part = args;
    part.seconds = std::max(2.0, args.seconds * 0.3);
    merge(result, runServeMix(part, &tracer));
    part.seconds = std::max(1.0, args.seconds * 0.2);
    merge(result, runSimIsax(part, &tracer));

    std::printf("self time per span (ms)\n%-20s %12s %8s\n", "span",
                "self_ms", "count");
    for (const auto &[name, row] : tracer.selfTimes())
        std::printf("%-20s %12.3f %8zu\n", name.c_str(), row.first,
                    row.second);
    const Metric *overhead = result.find("trace.overhead_ms");
    const Metric *untraced = result.find("driver.compile_ms");
    if (overhead && untraced)
        std::printf("tracing overhead: %.3f ms over %.3f ms untraced "
                    "(%.2f%%)\n\n",
                    overhead->value, untraced->value,
                    100.0 * overhead->value / untraced->value);
    std::string path = args.outdir + "/trace-" + args.workload + "-" +
                       std::to_string(args.seed) + ".json";
    if (!tracer.write(path))
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return result;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload catalog-cold|serve-mix|"
                 "sim-isax --seed N --seconds S --trace 0|1\n"
                 "                 --workdir DIR --longnail PATH "
                 "--outdir DIR --benchmark FILE\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    std::string spec;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string flag = argv[i], value = argv[i + 1];
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--seed")
            args.seed = std::stoull(value);
        else if (flag == "--seconds")
            args.seconds = std::stod(value);
        else if (flag == "--trace")
            args.trace = value == "1";
        else if (flag == "--workdir")
            args.workdir = value;
        else if (flag == "--longnail")
            args.longnail = value;
        else if (flag == "--outdir")
            args.outdir = value;
        else if (flag == "--benchmark")
            spec = value;
        else
            return usage();
    }
    if (args.workdir.empty() || args.outdir.empty() ||
        args.longnail.empty() || args.seconds <= 0.0)
        return usage();
    std::vector<std::string> names =
        metricNames(spec, args.trace ? "per_layer" : "end_to_end");
    if (names.empty()) {
        std::fprintf(stderr, "perfbench: no metrics listed in '%s'\n",
                     spec.c_str());
        return 2;
    }
    if (args.workload != "catalog-cold" && args.workload != "serve-mix" &&
        args.workload != "sim-isax")
        return usage();
    std::filesystem::create_directories(args.workdir);
    std::filesystem::create_directories(args.outdir);

    std::printf("perfbench: workload %s, seed %llu, %.0f s, trace %d\n\n",
                args.workload.c_str(), (unsigned long long)args.seed,
                args.seconds, int(args.trace));
    Result result;
    if (args.trace)
        result = runTraced(args);
    else if (args.workload == "catalog-cold")
        result = runCatalogCold(args);
    else if (args.workload == "serve-mix")
        result = runServeMix(args, nullptr);
    else
        result = runSimIsax(args, nullptr);

    bool complete = printResult(result, names);
    return complete && result.failed == 0 && result.attempted > 0 ? 0 : 1;
}
