/**
 * @file
 * catalog-cold: every catalog ISAX for every built-in core (44 units)
 * through driver::compile at -O1 with translation validation, one unit
 * at a time, no cache, in a seeded order per round. The traced variant
 * replays each unit layer by layer through the public calls the driver
 * makes, in the driver's order, and checks that the replay produces
 * the driver's artifacts byte for byte.
 */

#include <cstdio>
#include <map>
#include <memory>
#include <optional>

#include "analysis/lint.hh"
#include "analysis/tv/tv.hh"
#include "analysis/verifier.hh"
#include "asic/flow.hh"
#include "common.hh"
#include "driver/batch.hh"
#include "driver/isax_catalog.hh"
#include "hir/transforms.hh"
#include "passes/passes.hh"
#include "rtl/verilog.hh"

namespace perfbench {

using namespace longnail;
using driver::CompiledIsax;
using driver::CompileOptions;

namespace {

/** A unit faster than this is compiled again within a round... */
constexpr double kShortUnitMs = 25.0;
/** ...but at most this many times. */
constexpr unsigned kMaxRepeats = 8;

struct Unit
{
    std::string id; ///< "<isax>@<core>"
    const catalog::IsaxEntry *entry = nullptr;
    CompileOptions options;
};

std::vector<Unit>
catalogUnits()
{
    std::vector<Unit> units;
    for (const catalog::IsaxEntry &entry : catalog::allIsaxes()) {
        for (const std::string &core : driver::builtinCores()) {
            Unit unit;
            unit.id = entry.name + "@" + core;
            unit.entry = &entry;
            unit.options.coreName = core;
            unit.options.optLevel = 1;
            unit.options.validate = true;
            units.push_back(std::move(unit));
        }
    }
    return units;
}

/** Why a compiled unit is not a correct catalog result ("" if it is). */
std::string
checkCompiled(const CompiledIsax &compiled)
{
    if (!compiled.ok())
        return "compile failed: " + compiled.errors;
    const driver::PhaseReport &r = compiled.report;
    if (r.tvUnitsChecked == 0 || r.tvProved != r.tvUnitsChecked)
        return "translation validation proved " +
               std::to_string(r.tvProved) + " of " +
               std::to_string(r.tvUnitsChecked) + " units";
    return "";
}

/** Summed area and makespan of the modules of one compile. */
std::pair<double, double>
qorOf(const CompiledIsax &compiled)
{
    asic::AsicFlow flow(scaiev::Datasheet::forCore(compiled.coreName));
    double area = 0.0, makespan = 0.0;
    for (const driver::CompiledUnit &unit : compiled.units) {
        area += flow.moduleAreaUm2(unit.module);
        makespan += unit.makespan;
    }
    return {area, makespan};
}

const char *
worstQualityName(const std::string &a, sched::ScheduleQuality b)
{
    auto rank = [](const std::string &name) {
        return name == "fallback-relaxed" ? 2 : name == "fallback" ? 1 : 0;
    };
    const char *name = sched::scheduleQualityName(b);
    return a.empty() || rank(name) > rank(a) ? name : nullptr;
}

size_t
topLevelOps(const lil::LilModule &mod)
{
    size_t ops = 0;
    for (const auto &graph : mod.graphs)
        ops += graph->graph.ops().size();
    return ops;
}

/** Layer counts summed over the replayed units. */
struct ReplayCounts
{
    uint64_t rewrites = 0;
    unsigned passProved = 0;
    unsigned passCosim = 0;
    size_t lilNodes = 0;
    size_t lilNodesOpt = 0;
    unsigned schedUnits = 0;
    unsigned schedOptimal = 0;
    uint64_t lpWorkUnits = 0;
    unsigned tvChecked = 0;
    unsigned tvProved = 0;
};

/**
 * The driver's compile of one unit, rebuilt from the public layer
 * calls in the order driver::compile makes them, with a span around
 * each call. Failpoints, cancellation and the debug dump are left out:
 * the benchmark arms none of them.
 */
CompiledIsax
replayUnit(const Unit &unit, Tracer &tracer, ReplayCounts &counts)
{
    const CompileOptions &options = unit.options;
    const std::string &id = unit.id;
    CompiledIsax result;
    result.coreName = options.coreName;
    DiagnosticEngine diags;
    Tracer::Scope unit_span(&tracer, "unit", id);
    const scaiev::Datasheet &sheet =
        scaiev::Datasheet::forCore(options.coreName);

    auto finish = [&]() {
        if (diags.hasErrors())
            result.errors = diags.str();
        result.diags = std::move(diags);
        return std::move(result);
    };

    {
        Tracer::Scope span(&tracer, "coredsl.sema", id);
        coredsl::SemaOptions sema_options;
        sema_options.baseSetName = options.baseSetName;
        coredsl::Sema sema(diags, coredsl::builtinSourceProvider(),
                           sema_options);
        result.isa = sema.analyze(unit.entry->source, unit.entry->target);
    }
    if (!result.isa)
        return finish();
    result.name = result.isa->name;
    {
        Tracer::Scope span(&tracer, "hir.lower", id);
        result.hirModule = hir::lowerToHir(*result.isa, diags);
    }
    if (!result.hirModule)
        return finish();
    {
        Tracer::Scope span(&tracer, "analysis.check", id);
        DiagnosticEngine::ContextScope scope(diags, Phase::Analysis,
                                             "LN4001");
        analysis::verifyHirModule(*result.hirModule, diags);
        analysis::checkHirModule(*result.hirModule, diags);
    }
    if (diags.hasErrors())
        return finish();
    {
        Tracer::Scope span(&tracer, "hir.canonicalize", id);
        for (auto &instr : result.hirModule->instructions)
            hir::canonicalize(instr->body);
        for (auto &blk : result.hirModule->alwaysBlocks)
            hir::canonicalize(blk->body);
    }
    {
        Tracer::Scope span(&tracer, "lil.lower", id);
        result.lilModule = lil::lowerToLil(*result.hirModule, diags);
    }
    if (!result.lilModule)
        return finish();
    counts.lilNodes += topLevelOps(*result.lilModule);
    {
        Tracer::Scope span(&tracer, "analysis.check", id);
        DiagnosticEngine::ContextScope scope(diags, Phase::Analysis,
                                             "LN4001");
        analysis::verifyLilModule(*result.lilModule, diags);
        if (!diags.hasErrors())
            analysis::checkLilModule(*result.lilModule, sheet, diags);
    }
    if (diags.hasErrors())
        return finish();
    if (options.optLevel >= 1) {
        Tracer::Scope span(&tracer, "passes.run", id);
        DiagnosticEngine::ContextScope scope(diags, Phase::Validate,
                                             "LN4501");
        passes::PipelineOptions popts;
        popts.validate = options.validate;
        passes::PipelineResult pres =
            passes::runPipeline(*result.lilModule, popts, diags);
        counts.rewrites += pres.totalRewrites;
        counts.passProved += pres.proved;
        counts.passCosim += pres.cosimAgreed;
        if (pres.refuted || diags.hasErrors())
            return finish();
    }
    counts.lilNodesOpt += topLevelOps(*result.lilModule);

    std::optional<sched::TechLibrary> tech_storage;
    {
        Tracer::Scope span(&tracer, "sched.techlib", id);
        tech_storage.emplace(options.timingMode);
    }
    const sched::TechLibrary &tech = *tech_storage;
    result.config.isaxName = result.name;
    result.config.coreName = options.coreName;

    for (const auto &graph : result.lilModule->graphs) {
        DiagnosticEngine::ContextScope sched_scope(diags, Phase::Sched,
                                                   "LN2001");
        sched::BuiltProblem built;
        sched::ScheduleOutcome outcome;
        {
            Tracer::Scope span(&tracer, "sched.build", id);
            built = sched::buildProblem(*graph, sheet, tech,
                                        options.cycleTimeNs);
            sched::computeChainBreakers(built.problem);
        }
        {
            Tracer::Scope span(&tracer, "sched.solve", id);
            outcome = sched::scheduleWithFallback(built.problem,
                                                  options.schedBudget);
        }
        result.report.lpWorkUnits += outcome.lpWorkUnits;
        counts.lpWorkUnits += outcome.lpWorkUnits;
        ++counts.schedUnits;
        if (!outcome.ok()) {
            diags.error({}, "LN2002", graph->name + ": " + outcome.error);
            return finish();
        }
        if (outcome.quality == sched::ScheduleQuality::Optimal)
            ++counts.schedOptimal;
        else {
            ++result.report.fallbackEvents;
            diags.warning({}, "LN2001",
                          graph->name +
                              ": optimal scheduler unavailable (" +
                              outcome.fallbackReason + "); using " +
                              sched::scheduleQualityName(outcome.quality) +
                              " schedule");
        }
        if (const char *worse = worstQualityName(
                result.report.chosenScheduler, outcome.quality))
            result.report.chosenScheduler = worse;
        {
            Tracer::Scope span(&tracer, "sched.sink", id);
            sched::sinkZeroDelayOps(built.problem);
        }

        driver::CompiledUnit out;
        out.name = graph->name;
        out.isAlways = graph->isAlways;
        out.lilGraph = graph.get();
        out.makespan = built.problem.makespan();
        out.objective = built.problem.objectiveValue();
        out.quality = outcome.quality;
        out.fallbackReason = outcome.fallbackReason;
        out.lpWorkUnits = outcome.lpWorkUnits;

        DiagnosticEngine::ContextScope hwgen_scope(diags, Phase::HwGen,
                                                   "LN3001");
        {
            Tracer::Scope span(&tracer, "hwgen.generate", id);
            out.module =
                hwgen::generateModule(*graph, built, sheet, *result.isa);
        }
        {
            Tracer::Scope span(&tracer, "rtl.emit", id);
            out.systemVerilog = rtl::emitVerilog(out.module.module);
        }
        DiagnosticEngine::ContextScope cfg_scope(diags, Phase::Scaiev,
                                                 "LN3002");
        {
            Tracer::Scope span(&tracer, "scaiev.config", id);
            scaiev::ConfigFunctionality fn;
            fn.name = graph->name;
            fn.isAlways = graph->isAlways;
            fn.mask = graph->maskString;
            fn.schedule = hwgen::scheduleEntries(out.module);
            result.config.functionality.push_back(std::move(fn));
        }
        if (options.validate) {
            DiagnosticEngine::ContextScope tv_scope(diags, Phase::Validate,
                                                    "LN4501");
            Tracer::Scope span(&tracer, "tv.validate", id);
            analysis::tv::UnitResult tv = analysis::tv::validateUnit(
                *graph, built, out.module, sheet, tech, outcome.quality,
                *result.isa, diags);
            ++counts.tvChecked;
            if (tv.proved())
                ++counts.tvProved;
            if (diags.hasErrors())
                return finish();
        }
        result.units.push_back(std::move(out));
    }
    for (const auto &state : result.isa->state) {
        if (state.isCoreState || state.isConst ||
            state.kind != coredsl::StateInfo::Kind::Register)
            continue;
        result.config.registers.push_back(
            {state.name, state.elementType.width, state.numElements});
    }
    return finish();
}

/** Layer spans and the PhaseReport phase each one corresponds to. */
struct LayerRow
{
    const char *column;
    std::vector<const char *> spans;
    std::vector<const char *> phases;
};

const std::vector<LayerRow> &
layerRows()
{
    static const std::vector<LayerRow> rows = {
        {"sema", {"coredsl.sema"}, {"sema"}},
        {"hir", {"hir.lower"}, {"astlower"}},
        {"analysis", {"analysis.check"}, {"analysis"}},
        {"canon", {"hir.canonicalize"}, {"canonicalize"}},
        {"lil", {"lil.lower"}, {"lil"}},
        {"passes", {"passes.run"}, {"passes"}},
        {"sched", {"sched.build", "sched.solve"}, {"sched"}},
        {"hwgen", {"hwgen.generate", "rtl.emit"}, {"hwgen"}},
        {"config", {"scaiev.config"}, {"scaiev-config"}},
        {"tv", {"tv.validate"}, {"validate"}},
    };
    return rows;
}

} // namespace

Result
runCatalogCold(const Args &args)
{
    Result result;
    Samples setup_s;
    std::vector<Unit> units;
    Rng rng(args.seed);
    // Set-up: the unit list (sources, options) and one warm-up compile
    // so lazily built tables are not billed to the first timed unit.
    // Done three times before the rounds and once after each, so its
    // median spans the whole run.
    auto set_up = [&] {
        auto start = Clock::now();
        units = catalogUnits();
        CompiledIsax warm = driver::compile(units.front().entry->source,
                                            units.front().entry->target,
                                            units.front().options);
        if (!warm.ok())
            result.fail("warm-up compile of " + units.front().id + ": " +
                        warm.errors);
        setup_s.add(secondsSince(start));
    };
    for (int rep = 0; rep < 3; ++rep)
        set_up();

    Samples unit_ms;
    std::vector<Samples> per_unit(units.size());
    std::map<std::string, std::string> artifacts;
    std::vector<std::pair<double, double>> qor(units.size());
    unsigned rounds = 0;
    Samples round_s;
    HostProbe probe;
    auto start = Clock::now();
    while (rounds == 0 || secondsSince(start) < args.seconds) {
        auto round_start = Clock::now();
        std::vector<size_t> order(units.size());
        for (size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        rng.shuffle(order);
        for (size_t index : order) {
            const Unit &unit = units[index];
            // A short unit is compiled again, back to back, until it
            // has taken kShortUnitMs in this round (at most
            // kMaxRepeats times), so its median rests on more samples
            // than the rounds alone give.
            double unit_round_ms = 0.0;
            for (unsigned rep = 0;
                 rep == 0 ||
                 (rep < kMaxRepeats && unit_round_ms < kShortUnitMs);
                 ++rep) {
                probe.maybeRun();
                auto t0 = Clock::now();
                CompiledIsax compiled = driver::compile(
                    unit.entry->source, unit.entry->target, unit.options);
                double ms = msSince(t0);
                unit_round_ms += ms;
                unit_ms.add(ms);
                per_unit[index].add(ms);
                ++result.attempted;
                std::string why = checkCompiled(compiled);
                if (!why.empty()) {
                    result.fail(unit.id + ": " + why);
                    continue;
                }
                std::string text = canonical(driver::summarize(compiled));
                auto [it, first] = artifacts.emplace(unit.id, text);
                if (first)
                    qor[index] = qorOf(compiled);
                else if (it->second != text)
                    result.fail(unit.id + ": artifacts differ from round 1");
            }
        }
        ++rounds;
        round_s.add(secondsSince(round_start));
        set_up();
    }

    // The JSON timings are scaled to the reference host (see
    // HostProbe); the issue's names below give them as measured.
    double host = probe.scale();
    result.add("setup_s", setup_s.median() * host, "s", setup_s.size());
    // Throughput of one catalog pass made of each unit's median time,
    // so a burst of host load in one round does not decide it.
    double pass_ms = 0.0;
    Samples unit_medians;
    for (const Samples &s : per_unit) {
        pass_ms += s.median();
        unit_medians.add(s.median());
    }
    double units_per_s = 1000.0 * double(units.size()) / pass_ms;
    result.add("ops_per_s", units_per_s / host, "1/s", unit_ms.size());
    result.add("op_ms_p50", unit_medians.median() * host, "ms",
               unit_ms.size());
    // The slowest unit, a sqrt ISAX (the two take about 90% of a pass).
    result.add("op_ms_max", unit_medians.quantile(1.0) * host, "ms",
               unit_ms.size());
    result.add("peak_rss_mb", peakRssMb(), "MB");
    // Summed in catalog order, so the value does not depend on the seed.
    double area = 0.0, makespan = 0.0;
    for (const auto &[unit_area, unit_makespan] : qor) {
        area += unit_area;
        makespan += unit_makespan;
    }
    result.add("qor_area_um2", area, "um2", artifacts.size());
    result.add("qor_makespan_stages", makespan, "stages",
               artifacts.size());
    result.add("units_per_s", units_per_s, "1/s", unit_ms.size());
    result.add("unit_ms_p50", unit_medians.median(), "ms", unit_ms.size());
    result.add("unit_ms_p95", unit_ms.quantile(0.95), "ms",
               unit_ms.size());
    result.add("round_s_min", round_s.quantile(0.0), "s", rounds);
    result.add("round_s_max", round_s.quantile(1.0), "s", rounds);
    result.add("host_probe_ms", probe.ms().median(), "ms",
               probe.ms().size());
    return result;
}

Result
runCatalogReplay(const Args &args, Tracer &tracer)
{
    Result result;
    std::vector<Unit> units = catalogUnits();
    // Warm-up, as in the untraced run.
    (void)driver::compile(units.front().entry->source,
                          units.front().entry->target,
                          units.front().options);
    Rng rng(args.seed);
    rng.shuffle(units);

    ReplayCounts counts;
    Samples compile_ms, replay_ms;
    const auto &rows = layerRows();
    std::printf("per-unit layer time, traced replay / driver PhaseReport "
                "(ms)\n%-24s %9s %9s %8s %9s",
                "unit", "compile", "phases", "gap", "replay");
    for (const LayerRow &row : rows)
        std::printf(" %15s", row.column);
    std::printf("\n");
    std::vector<std::vector<double>> geo(4 + 2 * rows.size());

    for (const Unit &unit : units) {
        auto t0 = Clock::now();
        CompiledIsax ref = driver::compile(unit.entry->source,
                                           unit.entry->target, unit.options);
        double ref_ms = msSince(t0);
        ++result.attempted;
        std::string why = checkCompiled(ref);
        if (!why.empty()) {
            result.fail(unit.id + ": " + why);
            continue;
        }
        t0 = Clock::now();
        CompiledIsax rep = replayUnit(unit, tracer, counts);
        double rep_ms = msSince(t0);
        if (canonical(driver::summarize(rep)) !=
            canonical(driver::summarize(ref))) {
            result.fail(unit.id + ": replay artifacts differ from "
                                  "driver::compile");
            continue;
        }
        compile_ms.add(ref_ms);
        replay_ms.add(rep_ms);

        double phases = ref.report.totalWallMs();
        std::vector<double> row_values = {ref_ms, phases, ref_ms - phases,
                                          rep_ms};
        std::printf("%-24s %9.3f %9.3f %8.3f %9.3f", unit.id.c_str(),
                    ref_ms, phases, ref_ms - phases, rep_ms);
        for (const LayerRow &row : rows) {
            double layer = 0.0, phase = 0.0;
            for (const char *span : row.spans)
                layer += tracer.totalMs(span, unit.id);
            for (const char *name : row.phases)
                if (const auto *entry = ref.report.findPhase(name))
                    phase += entry->wallMs;
            std::printf(" %7.3f/%7.3f", layer, phase);
            row_values.push_back(layer);
            row_values.push_back(phase);
        }
        std::printf("\n");
        for (size_t i = 0; i < row_values.size(); ++i)
            if (row_values[i] > 0.0)
                geo[i].push_back(row_values[i]);
    }
    std::printf("%-24s", "geomean");
    for (size_t i = 0; i < geo.size(); ++i) {
        double g = geomean(geo[i]);
        if (i < 4)
            std::printf(" %*.3f", i == 2 ? 8 : 9, g);
        else
            std::printf(i % 2 == 0 ? " %7.3f" : "/%7.3f", g);
    }
    std::printf("\n(gap geomean over units with a positive gap)\n\n");

    size_t n = compile_ms.size();
    result.add("coredsl.sema_ms", tracer.totalMs("coredsl.sema"), "ms", n);
    result.add("hir.lower_ms", tracer.totalMs("hir.lower"), "ms", n);
    result.add("hir.canonicalize_ms", tracer.totalMs("hir.canonicalize"),
               "ms", n);
    result.add("lil.lower_ms", tracer.totalMs("lil.lower"), "ms", n);
    result.add("analysis.check_ms", tracer.totalMs("analysis.check"), "ms",
               n);
    result.add("passes.run_ms", tracer.totalMs("passes.run"), "ms", n);
    result.add("passes.rewrites", double(counts.rewrites), "count");
    result.add("passes.proved_ratio",
               double(counts.passProved) /
                   double(std::max(1u, counts.passProved + counts.passCosim)),
               "ratio", counts.passProved + counts.passCosim);
    result.add("lil.nodes", double(counts.lilNodes), "count");
    result.add("lil.nodes_opt", double(counts.lilNodesOpt), "count");
    result.add("sched.build_ms", tracer.totalMs("sched.build"), "ms",
               counts.schedUnits);
    result.add("sched.solve_ms", tracer.totalMs("sched.solve"), "ms",
               counts.schedUnits);
    result.add("sched.lp_work_units", double(counts.lpWorkUnits), "count");
    result.add("sched.optimal_ratio",
               double(counts.schedOptimal) /
                   double(std::max(1u, counts.schedUnits)),
               "ratio", counts.schedUnits);
    result.add("hwgen.generate_ms", tracer.totalMs("hwgen.generate"), "ms",
               counts.schedUnits);
    result.add("rtl.emit_ms", tracer.totalMs("rtl.emit"), "ms",
               counts.schedUnits);
    result.add("tv.validate_ms", tracer.totalMs("tv.validate"), "ms",
               counts.tvChecked);
    result.add("tv.proved_ratio",
               double(counts.tvProved) /
                   double(std::max(1u, counts.tvChecked)),
               "ratio", counts.tvChecked);
    result.add("driver.compile_ms", compile_ms.sum(), "ms", n);
    result.add("trace.overhead_ms", replay_ms.sum() - compile_ms.sum(), "ms",
               n);
    return result;
}

} // namespace perfbench
