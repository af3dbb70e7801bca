/**
 * @file
 * The pass manager: runs simplify -> cse -> narrow -> dce over every
 * LIL graph until a full sweep applies no rewrite (bounded by
 * PipelineOptions::maxIterations). Spawn graphs participate only when
 * the effect summaries (analysis/effects.hh) prove the decoupled
 * partition cannot interfere with the in-order partition; otherwise
 * they compile as lowered. Each pass application gets a
 * `pass.<name>.run` trace span (the pass plus its LONGNAIL_VERIFY_IR
 * re-verification) and a passes.<name>.rewrites counter. Under
 * --validate the graph is captured once (`pass.capture`), before the
 * fixpoint loop; every application that rewrites is re-proved against
 * that baseline in a `pass.<name>.prove` span, and an accepted
 * application's signature becomes the next baseline
 * (docs/pass-pipeline.md §2). Applications with zero rewrites do no
 * validation work.
 */

#include <memory>
#include <optional>

#include "analysis/effects.hh"
#include "analysis/verifier.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "passes/passes.hh"
#include "passes/sigcheck.hh"

namespace longnail {
namespace passes {

namespace {

struct PassEntry
{
    const char *name;
    unsigned (*run)(lil::LilGraph &);
    /** Span and counter names, spelled out once. */
    const char *runSpan;
    const char *proveSpan;
    const char *rewritesCounter;
};

#define LN_PASS(name, fn)                                               \
    {name, fn, "pass." name ".run", "pass." name ".prove",              \
     "passes." name ".rewrites"}

constexpr PassEntry pipelineOrder[] = {
    LN_PASS("simplify", runSimplify),
    LN_PASS("cse", runCse),
    LN_PASS("narrow", runNarrow),
    LN_PASS("dce", runDce),
};

#undef LN_PASS

} // namespace

PipelineResult
runPipeline(lil::LilModule &mod, const PipelineOptions &options,
            DiagnosticEngine &diags)
{
    PipelineResult res;
    std::unique_ptr<SignatureChecker> checker;
    if (options.validate)
        checker = std::make_unique<SignatureChecker>(
            mod.isa, options.cosimTrials);

    for (auto &graph_ptr : mod.graphs) {
        lil::LilGraph &graph = *graph_ptr;
        bool spawn_graph = graph.hasSpawnOps();
        if (spawn_graph) {
            // Spawn semantics decouple from the parent instruction —
            // a timing split the interpreter-backed signature does
            // not model. When the effect summaries prove the
            // decoupled partition cannot interfere with the in-order
            // partition (MUST-not-interfere, analysis/effects.hh),
            // the untimed signature is faithful again and the passes
            // may run; otherwise the graph compiles as lowered.
            analysis::GraphEffects fx =
                analysis::summarizeGraph(graph.graph);
            if (!analysis::spawnIsolated(fx)) {
                obs::count("passes.skipped_spawn");
                ++res.spawnSkipped;
                continue;
            }
            obs::count("passes.spawn_optimized");
            ++res.spawnOptimized;
        }
        uint64_t graph_rewrites = 0;

        // The one capture of this graph: accepted applications carry
        // their signature forward, and every later application is
        // compared against the pre-pipeline co-simulation battery.
        std::optional<GraphCapture> baseline;
        if (checker) {
            obs::TraceSpan span("pass.capture");
            span.arg("graph", graph.name);
            baseline = checker->capture(graph);
            obs::count("passes.captures");
        }

        for (unsigned iter = 0; iter < options.maxIterations; ++iter) {
            unsigned sweep_rewrites = 0;
            for (const PassEntry &pass : pipelineOrder) {
                unsigned n = 0;
                {
                    obs::TraceSpan span(pass.runSpan);
                    span.arg("graph", graph.name);
                    n = pass.run(graph);
                    analysis::verifyAfterTransform(graph.graph,
                                                   pass.runSpan);
                }
                if (n)
                    obs::count(pass.rewritesCounter, n);
                sweep_rewrites += n;
                if (!n || !checker)
                    continue;

                obs::TraceSpan span(pass.proveSpan);
                span.arg("graph", graph.name);
                std::string detail;
                switch (checker->check(graph, *baseline, detail)) {
                  case SignatureChecker::Outcome::Proved:
                    ++res.proved;
                    break;
                  case SignatureChecker::Outcome::CosimAgreed:
                    // Deliberately silent (no LN4502 here): the
                    // end-to-end netlist proof still covers the
                    // optimized graph, and the catalog compiles with
                    // --Werror.
                    ++res.cosimAgreed;
                    obs::count("passes.cosim_agreed");
                    break;
                  case SignatureChecker::Outcome::Refuted:
                    diags.error(
                        SourceLoc{}, "LN4501",
                        "'" + graph.name + "': pass '" + pass.name +
                            "' changed observable behavior; " + detail);
                    res.refuted = true;
                    res.totalRewrites += sweep_rewrites;
                    return res;
                }
            }
            res.totalRewrites += sweep_rewrites;
            graph_rewrites += sweep_rewrites;
            if (!sweep_rewrites)
                break;
        }
        if (spawn_graph)
            res.spawnGraphRewrites.emplace_back(graph.name,
                                                graph_rewrites);
    }
    return res;
}

} // namespace passes
} // namespace longnail
