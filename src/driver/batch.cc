#include "driver/batch.hh"

#include <algorithm>
#include <chrono>
#include <thread>

#include "driver/isax_catalog.hh"
#include "obs/log.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "support/threadpool.hh"

namespace longnail {
namespace driver {

namespace {

/** Render a cache-event advisory in the standard diagnostic format
 * (a scratch engine keeps the formatting in one place). Cache events
 * are environment-dependent, so they bypass the unit's --Werror
 * policy: a flaky disk must never fail a --Werror build. */
CompileSummary::DiagLine
cacheEventWarning(const std::string &code, const std::string &message)
{
    DiagnosticEngine engine;
    DiagnosticEngine::ContextScope scope(engine, Phase::Driver, code);
    engine.warning({}, code, message);
    return {Severity::Warning, code, engine.all().front().str()};
}

} // namespace

bool
BatchResult::allOk() const
{
    return okCount() == units.size();
}

size_t
BatchResult::okCount() const
{
    size_t n = 0;
    for (const auto &unit : units)
        if (unit.ok)
            ++n;
    return n;
}

std::shared_ptr<const scaiev::Datasheet>
SharedInputs::datasheetFor(const std::string &core)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = sheets_.find(core);
    if (it != sheets_.end())
        return it->second;
    // The built-in registry owns the sheet; the shared_ptr only shares
    // the lookup, not ownership.
    const scaiev::Datasheet *sheet = scaiev::Datasheet::findCore(core);
    auto shared = std::shared_ptr<const scaiev::Datasheet>(
        sheet, [](const scaiev::Datasheet *) {});
    if (!sheet)
        shared = nullptr;
    sheets_.emplace(core, shared);
    return shared;
}

std::shared_ptr<const sched::TechLibrary>
SharedInputs::techlibFor(sched::TimingMode mode)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = techs_.find(int(mode));
    if (it != techs_.end())
        return it->second;
    auto tech = std::make_shared<const sched::TechLibrary>(mode);
    techs_.emplace(int(mode), tech);
    return tech;
}

CompileSession::CompileSession(std::string cache_dir,
                               size_t cache_max_entries)
    : cacheDir_(std::move(cache_dir)),
      cacheMaxEntries_(cache_max_entries)
{
}

bool
CompileSession::lookup(const std::string &key, BatchUnitOutcome &out)
{
    if (cacheDir_.empty())
        return false;
    CompileSummary cached;
    switch (cacheLoad(cacheDir_, key, cached)) {
    case CacheLookup::Hit:
        out.summary = std::move(cached);
        out.ok = out.summary.ok;
        out.fromCache = true;
        return true;
    case CacheLookup::Miss:
        break;
    case CacheLookup::Corrupt:
        out.cacheCorrupt = true;
        break;
    case CacheLookup::Injected:
        out.cacheInjected = true;
        break;
    }
    return false;
}

void
CompileSession::compile(const BatchRequest &req, const std::string &key,
                        BatchUnitOutcome &out)
{
    // Shared read-only inputs, parsed/constructed once per session.
    CompileOptions opts = req.options;
    auto tech = shared_.techlibFor(opts.timingMode);
    opts.techlib = tech.get();
    std::shared_ptr<const scaiev::Datasheet> sheet;
    if (!opts.datasheet) {
        sheet = shared_.datasheetFor(opts.coreName);
        if (sheet)
            opts.datasheet = sheet.get();
    }

    auto full = std::make_shared<CompiledIsax>(
        compileWithRetry(req.source, req.target, opts));
    out.summary = summarize(*full);
    out.ok = full->ok();
    out.full = std::move(full);

    if (out.ok && !cacheDir_.empty())
        out.cacheStored =
            cacheStore(cacheDir_, key, out.summary, cacheMaxEntries_);

    // Fail-soft cache events surface as LN-coded advisories at the
    // front of the unit's diagnostics (they happened first).
    if (out.cacheCorrupt)
        out.summary.diags.insert(
            out.summary.diags.begin(),
            cacheEventWarning("LN3010", "corrupted cache entry for '" +
                                            req.unitName +
                                            "': recompiled"));
    if (out.cacheInjected)
        out.summary.diags.insert(
            out.summary.diags.begin(),
            cacheEventWarning("LN3903",
                              "injected fault at failpoint 'cache': "
                              "treated as a miss for '" +
                                  req.unitName + "'"));
}

CompileSummary
CompileSession::replayable(const BatchUnitOutcome &out)
{
    CompileSummary summary = out.summary;
    // compile() put at most one advisory at the front.
    if (out.cacheCorrupt || out.cacheInjected)
        summary.diags.erase(summary.diags.begin());
    return summary;
}

const std::vector<std::string> &
builtinCores()
{
    static const std::vector<std::string> cores = {
        "ORCA", "Piccolo", "PicoRV32", "VexRiscv"};
    return cores;
}

std::vector<BatchRequest>
catalogBatchRequests(const std::vector<std::string> &cores,
                     const CompileOptions &base)
{
    std::vector<BatchRequest> requests;
    for (const auto &isax : catalog::allIsaxes()) {
        for (const auto &core : cores) {
            BatchRequest req;
            req.unitName = isax.name + "@" + core;
            req.source = isax.source;
            req.target = isax.target;
            req.options = base;
            req.options.coreName = core;
            requests.push_back(std::move(req));
        }
    }
    return requests;
}

BatchResult
compileBatch(std::vector<BatchRequest> requests,
             const BatchOptions &options)
{
    auto batch_start = std::chrono::steady_clock::now();
    obs::TraceSpan batch_span("batch");

    // Deterministic processing and result order: sort by unit name up
    // front (stable, so duplicate names keep their submission order).
    // Every worker writes only its own pre-sized slot; the final
    // vector is identical for any jobs value.
    std::stable_sort(requests.begin(), requests.end(),
                     [](const BatchRequest &a, const BatchRequest &b) {
                         return a.unitName < b.unitName;
                     });

    // In-flight compiles stop at their next phase boundary on the
    // batch's token unless a request brings its own.
    if (options.cancel)
        for (BatchRequest &req : requests)
            if (!req.options.cancel)
                req.options.cancel = options.cancel;

    BatchResult result;
    result.units.resize(requests.size());
    CompileSession session(options.cacheDir, options.cacheMaxEntries);

    auto compile_one = [&](size_t i) {
        const BatchRequest &req = requests[i];
        BatchUnitOutcome &out = result.units[i];
        out.unitName = req.unitName;

        // Request id per sorted slot: "r1" is the first unit in name
        // order no matter which worker runs it or how many jobs there
        // are, so log records correlate deterministically across runs.
        obs::RequestScope rid_scope("r" + std::to_string(i + 1));
        obs::logEvent(obs::LogLevel::Info, "batch.unit",
                      {{"name", req.unitName}});
        struct DoneLog
        {
            const BatchUnitOutcome &out;
            ~DoneLog()
            {
                if (!obs::EventLog::instance().active())
                    return;
                obs::logEvent(
                    obs::LogLevel::Info, "batch.unit.done",
                    {{"name", out.unitName},
                     {"outcome", out.ok ? "ok" : "compile-error"},
                     {"fromCache", out.fromCache ? "yes" : "no"}});
            }
        } done_log{out};

        // Cancellation (Ctrl-C / drain): units that have not started
        // yet are settled with a deterministic LN3011 outcome instead
        // of compiling -- every unit still gets exactly one outcome.
        if (options.cancel && options.cancel->stopRequested()) {
            DiagnosticEngine engine;
            DiagnosticEngine::ContextScope scope(engine, Phase::Driver,
                                                 "LN3011");
            engine.error({}, "LN3011",
                         std::string("batch unit ") +
                             options.cancel->reason() +
                             " before compilation started");
            out.summary.isaxName = req.unitName;
            out.summary.ok = false;
            for (const auto &d : engine.all())
                out.summary.diags.push_back(
                    {d.severity, d.code, d.str()});
            out.summary.errorsText = engine.str();
            return;
        }

        std::string key;
        if (!options.cacheDir.empty())
            key = cacheKey(req.source, req.target, req.options);
        if (!session.lookup(key, out))
            session.compile(req, key, out);
    };

    unsigned jobs = options.jobs;
    if (jobs == 0) {
        jobs = std::thread::hardware_concurrency();
        if (jobs == 0)
            jobs = 1;
    }
    jobs = unsigned(std::min<size_t>(jobs, std::max<size_t>(
                                               requests.size(), 1)));

    if (jobs <= 1) {
        for (size_t i = 0; i < requests.size(); ++i)
            compile_one(i);
    } else {
        ThreadPool pool(jobs);
        for (size_t i = 0; i < requests.size(); ++i)
            pool.submit([&compile_one, i] { compile_one(i); });
        pool.wait();
    }

    // Deterministic stats, aggregated from the outcomes after the
    // join (no racy increments during the run).
    for (const auto &unit : result.units) {
        if (unit.fromCache) {
            ++result.stats.cacheHits;
        } else if (!options.cacheDir.empty()) {
            ++result.stats.cacheMisses;
            if (unit.cacheCorrupt)
                ++result.stats.cacheCorrupt;
        }
        if (unit.cacheStored)
            ++result.stats.cacheStores;
    }
    result.stats.wallMs =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - batch_start)
            .count();

    if (obs::enabled()) {
        obs::count("batch.units", result.units.size());
        obs::gauge("batch.jobs", double(jobs));
        obs::count("cache.hits", result.stats.cacheHits);
        obs::count("cache.misses", result.stats.cacheMisses);
        obs::count("cache.stores", result.stats.cacheStores);
        obs::count("cache.corrupt", result.stats.cacheCorrupt);
    }
    batch_span.arg("units", std::to_string(result.units.size()));
    batch_span.arg("jobs", std::to_string(jobs));
    return result;
}

} // namespace driver
} // namespace longnail
