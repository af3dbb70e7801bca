#include "driver/cache.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "support/failpoint.hh"
#include "support/hash.hh"

namespace longnail {
namespace driver {

namespace fs = std::filesystem;

namespace {

constexpr const char *entryMagic = "LNCACHE 1";
constexpr const char *entrySuffix = ".lnc";

std::string
formatDouble(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

// --- entry serialization ---------------------------------------------------
//
// Line-oriented tags with length-prefixed byte blobs for free-form
// strings: `tag <len>\n<len bytes>\n`. Field order is fixed; any
// deviation while reading classifies the entry as corrupt.

void
putNum(std::ostream &os, const char *tag, uint64_t v)
{
    os << tag << ' ' << v << '\n';
}

void
putInt(std::ostream &os, const char *tag, int64_t v)
{
    os << tag << ' ' << v << '\n';
}

void
putBlob(std::ostream &os, const char *tag, const std::string &s)
{
    os << tag << ' ' << s.size() << '\n';
    os.write(s.data(), std::streamsize(s.size()));
    os << '\n';
}

/** Strict sequential reader over one entry's bytes. */
class EntryReader
{
  public:
    explicit EntryReader(std::string bytes) : bytes_(std::move(bytes)) {}

    bool failed() const { return failed_; }

    /** Consume one "<tag> <value>\n" line; empty string on mismatch. */
    std::string
    line(const char *tag)
    {
        if (failed_)
            return "";
        size_t eol = bytes_.find('\n', pos_);
        if (eol == std::string::npos)
            return fail();
        std::string text = bytes_.substr(pos_, eol - pos_);
        std::string prefix = std::string(tag) + " ";
        if (text.rfind(prefix, 0) != 0)
            return fail();
        pos_ = eol + 1;
        return text.substr(prefix.size());
    }

    uint64_t
    num(const char *tag)
    {
        std::string v = line(tag);
        if (failed_)
            return 0;
        char *end = nullptr;
        uint64_t value = std::strtoull(v.c_str(), &end, 10);
        if (end == v.c_str() || *end != '\0') {
            fail();
            return 0;
        }
        return value;
    }

    int64_t
    integer(const char *tag)
    {
        std::string v = line(tag);
        if (failed_)
            return 0;
        char *end = nullptr;
        int64_t value = std::strtoll(v.c_str(), &end, 10);
        if (end == v.c_str() || *end != '\0') {
            fail();
            return 0;
        }
        return value;
    }

    double
    real(const char *tag)
    {
        std::string v = line(tag);
        if (failed_)
            return 0.0;
        char *end = nullptr;
        double value = std::strtod(v.c_str(), &end);
        if (end == v.c_str() || *end != '\0') {
            fail();
            return 0.0;
        }
        return value;
    }

    std::string
    blob(const char *tag)
    {
        uint64_t len = num(tag);
        if (failed_)
            return "";
        // len comes from the (possibly corrupt) entry, so the naive
        // check `pos_ + len + 1 > size` can wrap around; compare
        // against the remaining bytes instead.
        if (pos_ >= bytes_.size() || len > bytes_.size() - pos_ - 1)
            return fail();
        std::string data = bytes_.substr(pos_, size_t(len));
        pos_ += size_t(len);
        if (bytes_[pos_] != '\n')
            return fail();
        ++pos_;
        return data;
    }

    /** Consume a bare "<text>\n" line (the magic header / END). */
    bool
    expect(const char *text)
    {
        if (failed_)
            return false;
        std::string want = std::string(text) + "\n";
        if (bytes_.compare(pos_, want.size(), want) != 0) {
            fail();
            return false;
        }
        pos_ += want.size();
        return true;
    }

    bool
    atEnd() const
    {
        return pos_ == bytes_.size();
    }

  private:
    std::string
    fail()
    {
        failed_ = true;
        return "";
    }

    std::string bytes_;
    size_t pos_ = 0;
    bool failed_ = false;
};

std::string
serializeSummary(const CompileSummary &summary)
{
    std::ostringstream os;
    os << entryMagic << '\n';
    putBlob(os, "isax", summary.isaxName);
    putBlob(os, "core", summary.coreName);
    putNum(os, "ok", summary.ok ? 1 : 0);
    putBlob(os, "errors", summary.errorsText);
    putBlob(os, "scheduler", summary.chosenScheduler);
    putNum(os, "lp_work", summary.lpWorkUnits);
    putNum(os, "fallback_events", summary.fallbackEvents);
    putNum(os, "ndiags", summary.diags.size());
    for (const auto &d : summary.diags) {
        putNum(os, "dsev", uint64_t(d.severity));
        putBlob(os, "dcode", d.code);
        putBlob(os, "dtext", d.rendered);
    }
    putNum(os, "nunits", summary.units.size());
    for (const auto &u : summary.units) {
        putBlob(os, "uname", u.name);
        putNum(os, "ualways", u.isAlways ? 1 : 0);
        putInt(os, "umakespan", u.makespan);
        putBlob(os, "uobjective", formatDouble(u.objective));
        putBlob(os, "uquality", u.quality);
        putBlob(os, "ufallback", u.fallbackReason);
        putNum(os, "ulpwork", u.lpWorkUnits);
        putInt(os, "ufirst", u.firstStage);
        putInt(os, "ulast", u.lastStage);
        putNum(os, "uregs", u.numRegisters);
        putBlob(os, "usv", u.systemVerilog);
    }
    putBlob(os, "config", summary.configYaml);
    os << "END\n";
    return os.str();
}

bool
deserializeSummary(std::string bytes, CompileSummary &out)
{
    EntryReader r(std::move(bytes));
    if (!r.expect(entryMagic))
        return false;
    out = CompileSummary();
    out.isaxName = r.blob("isax");
    out.coreName = r.blob("core");
    out.ok = r.num("ok") != 0;
    out.errorsText = r.blob("errors");
    out.chosenScheduler = r.blob("scheduler");
    out.lpWorkUnits = r.num("lp_work");
    out.fallbackEvents = unsigned(r.num("fallback_events"));
    uint64_t ndiags = r.num("ndiags");
    if (r.failed() || ndiags > 1'000'000)
        return false;
    out.diags.reserve(size_t(ndiags));
    for (uint64_t i = 0; i < ndiags && !r.failed(); ++i) {
        CompileSummary::DiagLine d;
        uint64_t sev = r.num("dsev");
        if (sev > uint64_t(Severity::Error))
            return false;
        d.severity = Severity(sev);
        d.code = r.blob("dcode");
        d.rendered = r.blob("dtext");
        out.diags.push_back(std::move(d));
    }
    uint64_t nunits = r.num("nunits");
    if (r.failed() || nunits > 1'000'000)
        return false;
    out.units.reserve(size_t(nunits));
    for (uint64_t i = 0; i < nunits && !r.failed(); ++i) {
        CompileSummary::UnitSummary u;
        u.name = r.blob("uname");
        u.isAlways = r.num("ualways") != 0;
        u.makespan = int(r.integer("umakespan"));
        {
            std::string text = r.blob("uobjective");
            char *end = nullptr;
            u.objective = std::strtod(text.c_str(), &end);
            if (!r.failed() && (end == text.c_str() || *end != '\0'))
                return false;
        }
        u.quality = r.blob("uquality");
        u.fallbackReason = r.blob("ufallback");
        u.lpWorkUnits = r.num("ulpwork");
        u.firstStage = int(r.integer("ufirst"));
        u.lastStage = int(r.integer("ulast"));
        u.numRegisters = unsigned(r.num("uregs"));
        u.systemVerilog = r.blob("usv");
        out.units.push_back(std::move(u));
    }
    out.configYaml = r.blob("config");
    if (!r.expect("END"))
        return false;
    return !r.failed() && r.atEnd();
}

fs::path
entryPath(const std::string &dir, const std::string &key)
{
    return fs::path(dir) / (key + entrySuffix);
}

/**
 * True when any failpoint other than the cache harness's own "cache"
 * site is armed. Such compiles may succeed fail-soft with degraded
 * artifacts (e.g. a fallback schedule), which must neither be stored
 * nor replayed: a later clean run would silently get the degraded
 * SystemVerilog (and vice versa), breaking the byte-identical-artifacts
 * guarantee (docs/batch-compilation.md).
 */
bool
faultInjectionActive()
{
    for (const std::string &name : failpoint::armedNames())
        if (name != "cache")
            return true;
    return false;
}

/** Remove least-recently-used entries until at most @p max remain. */
void
evictLRU(const std::string &dir, size_t max)
{
    if (max == 0)
        return;
    std::vector<std::pair<fs::file_time_type, fs::path>> entries;
    std::error_code ec;
    for (const auto &de : fs::directory_iterator(dir, ec)) {
        if (!de.is_regular_file(ec))
            continue;
        if (de.path().extension() != entrySuffix)
            continue;
        entries.emplace_back(de.last_write_time(ec), de.path());
    }
    if (entries.size() <= max)
        return;
    // Oldest first; ties broken by path for determinism.
    std::sort(entries.begin(), entries.end());
    for (size_t i = 0; i + max < entries.size(); ++i)
        fs::remove(entries[i].second, ec);
}

} // namespace

CompileSummary
summarize(const CompiledIsax &compiled)
{
    CompileSummary summary;
    summary.isaxName = compiled.name;
    summary.coreName = compiled.coreName;
    summary.ok = compiled.ok();
    summary.errorsText = compiled.errors;
    for (const auto &d : compiled.diags.all())
        summary.diags.push_back({d.severity, d.code, d.str()});
    summary.chosenScheduler = compiled.report.chosenScheduler;
    summary.lpWorkUnits = compiled.report.lpWorkUnits;
    summary.fallbackEvents = compiled.report.fallbackEvents;
    for (const auto &unit : compiled.units) {
        CompileSummary::UnitSummary u;
        u.name = unit.name;
        u.isAlways = unit.isAlways;
        u.makespan = unit.makespan;
        u.objective = unit.objective;
        u.quality = sched::scheduleQualityName(unit.quality);
        u.fallbackReason = unit.fallbackReason;
        u.lpWorkUnits = unit.lpWorkUnits;
        u.firstStage = unit.module.firstStage;
        u.lastStage = unit.module.lastStage;
        u.numRegisters = unit.module.module.numRegisters();
        u.systemVerilog = unit.systemVerilog;
        summary.units.push_back(std::move(u));
    }
    if (summary.ok)
        summary.configYaml = compiled.config.emit();
    return summary;
}

std::string
compilerVersion()
{
    // Bump on every change that can alter artifacts for unchanged
    // inputs (scheduler tweaks, codegen changes, diagnostics wording).
    return "longnail-8";
}

std::string
cacheKey(const std::string &source, const std::string &target,
         const CompileOptions &options)
{
    hash::Sha256 h;
    h.updateField(compilerVersion());
    h.updateField(source);
    h.updateField(target);
    h.updateField(options.coreName);
    // Resolve the datasheet exactly like compile() does; an unknown
    // core hashes an empty sheet (the compile fails and is not cached).
    const scaiev::Datasheet *sheet = options.datasheet;
    if (!sheet)
        sheet = scaiev::Datasheet::findCore(options.coreName);
    h.updateField(sheet ? sheet->toYaml().emit() : std::string());
    h.updateField(options.timingMode == sched::TimingMode::Library
                      ? "library"
                      : "uniform");
    h.updateField(formatDouble(options.cycleTimeNs));
    h.updateField(options.baseSetName);
    h.updateField(std::to_string(options.maxErrors));
    h.updateField(std::to_string(options.schedBudget.lpWorkLimit));
    std::string flags;
    flags += options.lintOnly ? '1' : '0';
    flags += options.verifyIr ? '1' : '0';
    flags += options.validate ? '1' : '0';
    flags += options.warningsAsErrors ? '1' : '0';
    h.updateField(flags);
    // -O0 and -O1 produce different artifacts for the same source
    // (dumpAnalysisFile deliberately stays out: a debug dump must not
    // fragment the cache).
    h.updateField(std::to_string(options.optLevel));
    auto sorted = [](std::vector<std::string> v) {
        std::sort(v.begin(), v.end());
        return v;
    };
    for (const auto &code : sorted(options.warningsAsErrorCodes))
        h.updateField("werror=" + code);
    for (const auto &code : sorted(options.suppressedWarningCodes))
        h.updateField("nowarn=" + code);
    return h.hexDigest();
}

CacheLookup
cacheLoad(const std::string &dir, const std::string &key,
          CompileSummary &out)
{
    if (dir.empty() || faultInjectionActive())
        return CacheLookup::Miss;
    if (failpoint::fire("cache") != failpoint::Mode::Off)
        return CacheLookup::Injected;

    fs::path path = entryPath(dir, key);
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return CacheLookup::Miss;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (!in.good() && !in.eof())
        return CacheLookup::Corrupt;
    if (!deserializeSummary(buffer.str(), out))
        return CacheLookup::Corrupt;

    // Refresh the eviction clock; best-effort.
    std::error_code ec;
    fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
    return CacheLookup::Hit;
}

bool
cacheStore(const std::string &dir, const std::string &key,
           const CompileSummary &summary, size_t max_entries)
{
    if (dir.empty() || faultInjectionActive())
        return false;
    std::error_code ec;
    fs::create_directories(dir, ec);

    // Unique tmp name per store so concurrent workers writing the same
    // key cannot interleave; the final rename is atomic.
    static std::atomic<uint64_t> storeCounter{0};
    uint64_t serial = storeCounter.fetch_add(1);
    fs::path tmp = fs::path(dir) /
                   (key + ".tmp" + std::to_string(serial));
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return false;
        std::string bytes = serializeSummary(summary);
        out.write(bytes.data(), std::streamsize(bytes.size()));
        if (!out.good()) {
            out.close();
            fs::remove(tmp, ec);
            return false;
        }
    }
    fs::rename(tmp, entryPath(dir, key), ec);
    if (ec) {
        fs::remove(tmp, ec);
        return false;
    }
    evictLRU(dir, max_entries);
    return true;
}

size_t
cacheCleanupTmp(const std::string &dir)
{
    size_t removed = 0;
    std::error_code ec;
    for (const auto &de : fs::directory_iterator(dir, ec)) {
        if (!de.is_regular_file(ec))
            continue;
        // Store temps are named "<key>.tmp<serial>" (see cacheStore).
        if (de.path().filename().string().find(".tmp") ==
            std::string::npos)
            continue;
        if (fs::remove(de.path(), ec))
            ++removed;
    }
    return removed;
}

size_t
cacheEntryCount(const std::string &dir)
{
    size_t count = 0;
    std::error_code ec;
    for (const auto &de : fs::directory_iterator(dir, ec))
        if (de.is_regular_file(ec) && de.path().extension() == entrySuffix)
            ++count;
    return count;
}

} // namespace driver
} // namespace longnail
