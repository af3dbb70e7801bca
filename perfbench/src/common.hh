/**
 * @file
 * Shared pieces of the Longnail benchmark: command-line arguments, the
 * seeded generator, sample statistics, the host-speed probe, the
 * in-memory span recorder and the result printer (a human-readable
 * table followed by one JSON line).
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "driver/cache.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point start);
double secondsSince(Clock::time_point start);

/** Parsed command line. */
struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Scratch directory for sockets and cache entries. */
    std::string workdir;
    /** The `longnail` CLI binary (serve-mix starts it as a daemon). */
    std::string longnail;
    /** Where the traced run writes its span file. */
    std::string outdir;
};

/** splitmix64: the benchmark's only source of randomness. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : state_(seed) {}
    uint64_t next();
    /** Uniform in [0, n). */
    uint64_t below(uint64_t n) { return next() % n; }
    template <typename T>
    void
    shuffle(std::vector<T> &items)
    {
        for (size_t i = items.size(); i > 1; --i)
            std::swap(items[i - 1], items[below(i)]);
    }

  private:
    uint64_t state_;
};

/** A timing series; quantiles are nearest-rank. */
struct Samples
{
    std::vector<double> values;

    void add(double v) { values.push_back(v); }
    size_t size() const { return values.size(); }
    double quantile(double q) const;
    double median() const { return quantile(0.5); }
    double sum() const;
};

/**
 * How fast the host runs during a run. The host is shared, and its
 * speed drifts by a factor of up to 2 over minutes with the load of
 * other tenants, far more than the bounds the benchmark sets. So each
 * workload runs this probe every few hundred ms between its
 * operations and reports its timings scaled to a reference host:
 * a time is multiplied by scale(), a rate divided by it.
 *
 * The probe is a fixed chain of dependent multiply-adds over a 256 KiB
 * table (20 passes, about 1 ms), after an untimed pass that brings the
 * table back into cache, so it uses no Longnail code, allocates
 * nothing and does not depend on what the workload left in the caches.
 */
class HostProbe
{
  public:
    /** The probe's median time on the reference host, in ms: a
     * 4-vCPU Xeon VM at 2.1 GHz with little load from other tenants. */
    static constexpr double kReferenceMs = 1.0;
    /** At most one probe run per this many ms (under 1% of a run). */
    static constexpr double kEveryMs = 250.0;

    HostProbe();
    /** Run once if kEveryMs have passed since the last run. */
    void maybeRun();
    /** kReferenceMs over the probe's median time in this run. */
    double scale() const { return kReferenceMs / ms_.median(); }
    const Samples &ms() const { return ms_; }

  private:
    uint64_t pass(unsigned times);

    std::vector<uint32_t> table_;
    Samples ms_;
    Clock::time_point last_{};
    uint64_t sink_ = 0;
};

/** Geometric mean of positive values (0 when empty). */
double geomean(const std::vector<double> &values);

/** Peak resident set of process @p pid ("self" by default), in MiB. */
double peakRssMb(const std::string &pid = "self");

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    /** Samples behind the value (1 for a count or an exact sum). */
    size_t samples = 1;
};

/** What a workload (or the traced run) hands back to main(). */
struct Result
{
    std::vector<Metric> metrics;
    /** Operations attempted / failed or wrong. */
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Why operations failed (first few, for stderr). */
    std::vector<std::string> problems;

    void add(const std::string &name, double value,
             const std::string &unit, size_t samples = 1);
    void fail(const std::string &why);
    const Metric *find(const std::string &name) const;
};

/**
 * Print every metric as a table (name, value, unit, samples), then the
 * JSON result line holding exactly the metrics named in @p json_names.
 * @return false when one of them is missing.
 */
bool printResult(const Result &result,
                 const std::vector<std::string> &json_names);

/** Canonical text of a compile summary, for byte-identity checks. */
std::string canonical(const longnail::driver::CompileSummary &summary);

/**
 * In-memory span recorder for the traced run. A span has a name, start
 * and end, the span open when it started, and a unit or request id.
 * Spans are written out only at the end of the run.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        std::string id;
        int64_t startNs = 0;
        int64_t endNs = 0;
        int parent = -1;
    };

    /** RAII span; a no-op when constructed with a null tracer. */
    class Scope
    {
      public:
        Scope(Tracer *tracer, const char *name, const std::string &id);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        /** End the span before the scope does. */
        void close();

      private:
        Tracer *tracer_;
        int index_ = -1;
    };

    /** Record a finished top-level span; safe from any thread. */
    void record(const char *name, const std::string &id,
                Clock::time_point start, Clock::time_point end);

    /** Total duration of spans named @p name, in ms. */
    double totalMs(const std::string &name) const;
    /** Total duration of spans named @p name carrying id @p id. */
    double totalMs(const std::string &name, const std::string &id) const;
    /** Self time per span name: duration minus time covered by child
     * spans, in ms, with the span count. */
    std::map<std::string, std::pair<double, size_t>> selfTimes() const;
    /** Chrome trace-event JSON. */
    bool write(const std::string &path) const;

  private:
    int open(const char *name, const std::string &id);
    void close(int index);

    std::mutex mutex_;
    std::vector<Span> spans_;
    /** Open Scope spans; scopes are used from one thread only. */
    std::vector<int> stack_;
    Clock::time_point epoch_ = Clock::now();
};

// Workloads, one file each. With a null tracer a workload measures its
// end-to-end metrics; with a tracer it records spans and reports the
// per-layer metrics of its layers instead.
Result runCatalogCold(const Args &args);
/** Layer-by-layer replay of every catalog-cold unit (traced run). */
Result runCatalogReplay(const Args &args, Tracer &tracer);
Result runServeMix(const Args &args, Tracer *tracer);
Result runSimIsax(const Args &args, Tracer *tracer);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
