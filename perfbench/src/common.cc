#include "common.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "serve/protocol.hh"

namespace perfbench {

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

double
secondsSince(Clock::time_point start)
{
    return msSince(start) / 1000.0;
}

uint64_t
Rng::next()
{
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
Samples::quantile(double q) const
{
    if (values.empty())
        return 0.0;
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    size_t rank = size_t(std::ceil(q * double(sorted.size())));
    return sorted[std::clamp<size_t>(rank, 1, sorted.size()) - 1];
}

double
Samples::sum() const
{
    double total = 0.0;
    for (double v : values)
        total += v;
    return total;
}

HostProbe::HostProbe() : table_(1u << 16)
{
    for (uint32_t i = 0; i < table_.size(); ++i)
        table_[i] = i * 2654435761u;
}

uint64_t
HostProbe::pass(unsigned times)
{
    const size_t mask = table_.size() - 1;
    uint64_t h = sink_;
    for (unsigned pass = 0; pass < times; ++pass)
        for (size_t i = 0; i < table_.size(); ++i)
            h = h * 31 + table_[(i * 7) & mask];
    return h;
}

void
HostProbe::maybeRun()
{
    if (ms_.size() && msSince(last_) < kEveryMs)
        return;
    sink_ = pass(1);
    auto t0 = Clock::now();
    sink_ = pass(20);
    last_ = Clock::now();
    ms_.add(std::chrono::duration<double, std::milli>(last_ - t0).count());
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / double(values.size()));
}

double
peakRssMb(const std::string &pid)
{
    std::ifstream status("/proc/" + pid + "/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

void
Result::add(const std::string &name, double value,
            const std::string &unit, size_t samples)
{
    metrics.push_back({name, value, unit, samples});
}

void
Result::fail(const std::string &why)
{
    ++failed;
    if (problems.size() < 8)
        problems.push_back(why);
}

const Metric *
Result::find(const std::string &name) const
{
    for (const Metric &m : metrics)
        if (m.name == name)
            return &m;
    return nullptr;
}

bool
printResult(const Result &result,
            const std::vector<std::string> &json_names)
{
    std::printf("%-34s %16s  %-8s %8s\n", "metric", "value", "unit",
                "samples");
    for (const Metric &m : result.metrics)
        std::printf("%-34s %16.6g  %-8s %8zu\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.samples);
    std::printf("%-34s %16.6g  %-8s %8llu\n", "failed_ratio",
                result.attempted
                    ? double(result.failed) / double(result.attempted)
                    : 1.0,
                "ratio", (unsigned long long)result.attempted);
    for (const std::string &problem : result.problems)
        std::fprintf(stderr, "perfbench: FAILED: %s\n", problem.c_str());

    std::ostringstream json;
    json.precision(17);
    bool complete = true;
    json << "{\"correct\": "
         << (result.failed == 0 && result.attempted > 0 ? "true" : "false")
         << ", \"attempted\": " << result.attempted
         << ", \"failed\": " << result.failed << ", \"metrics\": {";
    const char *separator = "";
    for (const std::string &name : json_names) {
        const Metric *m = result.find(name);
        if (!m) {
            std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                         name.c_str());
            complete = false;
            continue;
        }
        json << separator << '"' << m->name
             << "\": {\"value\": " << m->value << ", \"unit\": \""
             << m->unit << "\"}";
        separator = ", ";
    }
    json << "}}";
    std::printf("%s\n", json.str().c_str());
    std::fflush(stdout);
    return complete;
}

std::string
canonical(const longnail::driver::CompileSummary &summary)
{
    return longnail::serve::emitResultReply(summary, "", "");
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

Tracer::Scope::Scope(Tracer *tracer, const char *name,
                     const std::string &id)
    : tracer_(tracer)
{
    if (tracer_)
        index_ = tracer_->open(name, id);
}

Tracer::Scope::~Scope() { close(); }

void
Tracer::Scope::close()
{
    if (tracer_ && index_ >= 0 && tracer_->spans_[index_].endNs == 0)
        tracer_->close(index_);
}

int
Tracer::open(const char *name, const std::string &id)
{
    int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - epoch_)
                      .count();
    std::lock_guard<std::mutex> lock(mutex_);
    Span span;
    span.name = name;
    span.id = id;
    span.startNs = now;
    span.parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(std::move(span));
    stack_.push_back(int(spans_.size()) - 1);
    return stack_.back();
}

void
Tracer::close(int index)
{
    int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - epoch_)
                      .count();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[index].endNs = std::max<int64_t>(now, spans_[index].startNs + 1);
    if (!stack_.empty() && stack_.back() == index)
        stack_.pop_back();
}

void
Tracer::record(const char *name, const std::string &id,
               Clock::time_point start, Clock::time_point end)
{
    auto ns = [&](Clock::time_point t) {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   t - epoch_)
            .count();
    };
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, id, ns(start), ns(end), -1});
}

double
Tracer::totalMs(const std::string &name) const
{
    double total = 0.0;
    for (const Span &span : spans_)
        if (span.name == name)
            total += double(span.endNs - span.startNs) / 1e6;
    return total;
}

double
Tracer::totalMs(const std::string &name, const std::string &id) const
{
    double total = 0.0;
    for (const Span &span : spans_)
        if (span.name == name && span.id == id)
            total += double(span.endNs - span.startNs) / 1e6;
    return total;
}

std::map<std::string, std::pair<double, size_t>>
Tracer::selfTimes() const
{
    // Children of one span never overlap (scopes nest on one thread),
    // so the covered part is the sum of the children's durations.
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span &span : spans_)
        if (span.parent >= 0)
            child_ns[span.parent] += span.endNs - span.startNs;
    std::map<std::string, std::pair<double, size_t>> table;
    for (size_t i = 0; i < spans_.size(); ++i) {
        auto &row = table[spans_[i].name];
        row.first +=
            double(spans_[i].endNs - spans_[i].startNs - child_ns[i]) / 1e6;
        ++row.second;
    }
    return table;
}

bool
Tracer::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                      "\"dur\":%.3f",
                      double(span.startNs) / 1e3,
                      double(span.endNs - span.startNs) / 1e3);
        out << (i ? ",\n" : "\n") << "{\"name\":\"" << span.name << "\","
            << buf << ",\"args\":{\"id\":\"" << span.id
            << "\",\"span\":" << i << ",\"parent\":" << span.parent
            << "}}";
    }
    out << "\n]}\n";
    return bool(out);
}

} // namespace perfbench
