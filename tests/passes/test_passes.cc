/**
 * @file
 * Tests for the -O1 pass pipeline (docs/pass-pipeline.md): individual
 * rewrite correctness on hand-built graphs, per-pass idempotence over
 * the whole benchmark catalog, the catalog proving symbolically at -O1
 * under --validate with stable verdict tallies, the signature
 * checker's carried-forward baseline, and the seeded-miscompile
 * failpoint being refuted by the signature checker (LN4501).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "analysis/dataflow.hh"
#include "analysis/effects.hh"
#include "driver/isax_catalog.hh"
#include "driver/longnail.hh"
#include "ir/ir.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "passes/passes.hh"
#include "passes/sigcheck.hh"
#include "scaiev/datasheet.hh"
#include "support/failpoint.hh"

using namespace longnail;
using namespace longnail::ir;

namespace {

Operation *
combConstant(Graph &g, unsigned width, uint64_t value)
{
    Operation *c = g.append(OpKind::CombConstant, {}, {WireType(width)});
    c->setAttr("value", ApInt(width, value));
    return c;
}

/** A 32-bit unknown input (reads rs1). */
Operation *
input(Graph &g)
{
    return g.append(OpKind::LilReadRs1, {}, {WireType(32)});
}

/** Guarded rd write keeping @p v alive with an always-true predicate. */
void
writeRd(Graph &g, Value *v)
{
    Value *one = combConstant(g, 1, 1)->result();
    g.append(OpKind::LilWriteRd, {v, one}, {});
}

size_t
countKind(const Graph &g, OpKind kind)
{
    size_t n = 0;
    for (const auto &op : g.ops())
        n += op->kind() == kind;
    return n;
}

driver::CompileOptions
lintOptions()
{
    driver::CompileOptions options;
    options.lintOnly = true;
    return options;
}

// --- simplify --------------------------------------------------------------

TEST(Simplify, FoldsAddZeroAndConstants)
{
    lil::LilGraph lg;
    Graph &g = lg.graph;
    Value *x = input(g)->result();
    Value *zero = combConstant(g, 32, 0)->result();
    Value *sum =
        g.append(OpKind::CombAdd, {x, zero}, {WireType(32)})->result();
    writeRd(g, sum);

    EXPECT_GT(passes::runSimplify(lg), 0u);
    // The write's data operand now bypasses the add.
    for (const auto &op : g.ops()) {
        if (op->kind() == OpKind::LilWriteRd) {
            EXPECT_EQ(op->operand(0), x);
        }
    }
}

TEST(Simplify, StrengthReducesMulByPowerOfTwo)
{
    lil::LilGraph lg;
    Graph &g = lg.graph;
    Value *x = input(g)->result();
    Value *eight = combConstant(g, 32, 8)->result();
    Value *prod =
        g.append(OpKind::CombMul, {x, eight}, {WireType(32)})->result();
    writeRd(g, prod);

    EXPECT_GT(passes::runSimplify(lg), 0u);
    EXPECT_EQ(countKind(g, OpKind::CombMul), 0u);
    EXPECT_EQ(countKind(g, OpKind::CombShl), 1u);
    (void)prod;
}

TEST(Simplify, XorSelfBecomesZero)
{
    lil::LilGraph lg;
    Graph &g = lg.graph;
    Value *x = input(g)->result();
    Operation *x0 = g.append(OpKind::CombXor, {x, x}, {WireType(32)});
    writeRd(g, x0->result());

    EXPECT_GT(passes::runSimplify(lg), 0u);
    EXPECT_EQ(x0->kind(), OpKind::CombConstant);
    EXPECT_TRUE(x0->apAttr("value").isZero());
}

// --- cse -------------------------------------------------------------------

TEST(Cse, MergesDuplicateAndCommutedOps)
{
    lil::LilGraph lg;
    Graph &g = lg.graph;
    Value *a = input(g)->result();
    Value *b = g.append(OpKind::LilReadRs2, {}, {WireType(32)})->result();
    Value *s1 = g.append(OpKind::CombAdd, {a, b}, {WireType(32)})->result();
    Value *s2 = g.append(OpKind::CombAdd, {b, a}, {WireType(32)})->result();
    Value *both =
        g.append(OpKind::CombXor, {s1, s2}, {WireType(32)})->result();
    writeRd(g, both);

    EXPECT_EQ(passes::runCse(lg), 1u);
    // xor(s, s) is now simplify's x^x = 0.
    EXPECT_GT(passes::runSimplify(lg), 0u);
}

// --- narrow ----------------------------------------------------------------

TEST(Narrow, NarrowsAddBelowDemandedMask)
{
    lil::LilGraph lg;
    Graph &g = lg.graph;
    Value *a = input(g)->result();
    Value *b = g.append(OpKind::LilReadRs2, {}, {WireType(32)})->result();
    Operation *add = g.append(OpKind::CombAdd, {a, b}, {WireType(32)});
    // Only the low byte is demanded downstream.
    Operation *low =
        g.append(OpKind::CombExtract, {add->result()}, {WireType(8)});
    low->setAttr("lo", int64_t(0));
    Value *pad = combConstant(g, 24, 0)->result();
    Value *wide = g.append(OpKind::CombConcat, {pad, low->result()},
                           {WireType(32)})
                      ->result();
    writeRd(g, wide);

    EXPECT_GT(passes::runNarrow(lg), 0u);
    EXPECT_EQ(add->kind(), OpKind::CombConcat); // morphed in place
    bool has_8bit_add = false;
    for (const auto &op : g.ops())
        if (op->kind() == OpKind::CombAdd &&
            op->result()->type.width == 8)
            has_8bit_add = true;
    EXPECT_TRUE(has_8bit_add);
}

// --- dce -------------------------------------------------------------------

TEST(Dce, RemovesDisabledWriteAndDeadCode)
{
    lil::LilGraph lg;
    Graph &g = lg.graph;
    Value *x = input(g)->result();
    Value *never = combConstant(g, 1, 0)->result();
    g.append(OpKind::LilWriteRd, {x, never}, {});
    // Dead pure chain.
    Value *two = combConstant(g, 32, 2)->result();
    g.append(OpKind::CombMul, {x, two}, {WireType(32)});

    EXPECT_GT(passes::runDce(lg), 0u);
    EXPECT_EQ(countKind(g, OpKind::LilWriteRd), 0u);
    EXPECT_EQ(countKind(g, OpKind::CombMul), 0u);
    // Nothing observable is left, so the input read went too.
    EXPECT_EQ(countKind(g, OpKind::LilReadRs1), 0u);
}

TEST(Dce, KeepsLiveMemReadAndFoldsDisabledOne)
{
    lil::LilGraph lg;
    Graph &g = lg.graph;
    Value *addr = input(g)->result();
    Value *yes = combConstant(g, 1, 1)->result();
    Value *no = combConstant(g, 1, 0)->result();
    Operation *live =
        g.append(OpKind::LilReadMem, {addr, yes}, {WireType(32)});
    Operation *dead =
        g.append(OpKind::LilReadMem, {addr, no}, {WireType(32)});
    Value *sum = g.append(OpKind::CombAdd,
                          {live->result(), dead->result()},
                          {WireType(32)})
                     ->result();
    writeRd(g, sum);

    EXPECT_GT(passes::runDce(lg), 0u);
    EXPECT_EQ(countKind(g, OpKind::LilReadMem), 1u);
    EXPECT_EQ(dead->kind(), OpKind::CombConstant);
}

// --- idempotence over the catalog ------------------------------------------

using PassFn = unsigned (*)(lil::LilGraph &);

struct NamedPass
{
    const char *name;
    PassFn run;
};

const NamedPass kPasses[] = {
    {"simplify", passes::runSimplify},
    {"cse", passes::runCse},
    {"narrow", passes::runNarrow},
    {"dce", passes::runDce},
};

TEST(Idempotence, SecondRunOfEachPassIsANoOpOnTheCatalog)
{
    for (const auto &entry : catalog::allIsaxes()) {
        for (const NamedPass &pass : kPasses) {
            driver::CompiledIsax compiled = driver::compile(
                entry.source, entry.target, lintOptions());
            ASSERT_TRUE(compiled.ok()) << entry.name << ": "
                                       << compiled.errors;
            ASSERT_NE(compiled.lilModule, nullptr);
            for (auto &graph : compiled.lilModule->graphs) {
                // Mirror the manager's gating: spawn graphs join the
                // pipeline only when isolation is proved
                // (analysis/effects.hh).
                if (graph->hasSpawnOps() &&
                    !analysis::spawnIsolated(
                        analysis::summarizeGraph(graph->graph)))
                    continue;
                pass.run(*graph);
                std::string after_first = graph->print();
                unsigned second = pass.run(*graph);
                EXPECT_EQ(second, 0u)
                    << entry.name << "/" << graph->name << ": pass '"
                    << pass.name << "' rewrote again on a second run";
                EXPECT_EQ(graph->print(), after_first)
                    << entry.name << "/" << graph->name << ": pass '"
                    << pass.name << "' is not idempotent";
            }
        }
    }
}

TEST(Idempotence, FullPipelineReachesAFixpointOnTheCatalog)
{
    for (const auto &entry : catalog::allIsaxes()) {
        driver::CompiledIsax compiled =
            driver::compile(entry.source, entry.target, lintOptions());
        ASSERT_TRUE(compiled.ok()) << entry.name;
        DiagnosticEngine diags;
        passes::PipelineOptions popts;
        passes::PipelineResult first =
            passes::runPipeline(*compiled.lilModule, popts, diags);
        EXPECT_FALSE(first.refuted);
        passes::PipelineResult second =
            passes::runPipeline(*compiled.lilModule, popts, diags);
        EXPECT_EQ(second.totalRewrites, 0u)
            << entry.name << ": pipeline not at fixpoint after one run";
    }
}

// --- -O1 + --validate over the catalog -------------------------------------

TEST(Verified, CatalogCompilesAtO1WithEveryPassReproved)
{
    uint64_t total_rewrites = 0;
    unsigned proved = 0, cosim_agreed = 0;
    unsigned refusals = 0;
    for (const auto &entry : catalog::allIsaxes()) {
        for (const std::string &core : scaiev::Datasheet::knownCores()) {
            driver::CompileOptions options;
            options.coreName = core;
            options.optLevel = 1;
            options.validate = true;
            driver::CompiledIsax compiled =
                driver::compile(entry.source, entry.target, options);
            EXPECT_TRUE(compiled.ok())
                << entry.name << "@" << core << ": " << compiled.errors;
            refusals += compiled.report.tvRefuted;
            total_rewrites += compiled.report.passRewrites;
            proved += compiled.report.passProved;
            cosim_agreed += compiled.report.passCosimAgreed;
            // Every checked pass application was accounted for (proved
            // or co-sim agreed; a refutation would have failed ok()
            // above).
            EXPECT_EQ(compiled.report.passCosimAgreed +
                              compiled.report.passProved >
                          0,
                      compiled.report.passRewrites > 0)
                << entry.name << "@" << core;
        }
    }
    EXPECT_EQ(refusals, 0u);
    // The verdicts of the 44 catalog units. The rewrite count pins the
    // pipeline; the proved/co-simulated split pins how the signature
    // checker decides (one capture per graph, baseline carried
    // forward) against the figures of per-application capture.
    EXPECT_EQ(total_rewrites, 13916u);
    EXPECT_EQ(proved, 352u);
    EXPECT_EQ(cosim_agreed, 12u);
}

TEST(Verified, O1ShrinksTheCatalogLilModules)
{
    size_t before = 0, after = 0;
    for (const auto &entry : catalog::allIsaxes()) {
        driver::CompileOptions options;
        options.optLevel = 1;
        driver::CompiledIsax compiled =
            driver::compile(entry.source, entry.target, options);
        ASSERT_TRUE(compiled.ok()) << entry.name;
        before += compiled.report.lilOps;
        after += compiled.report.lilOpsOptimized;
    }
    EXPECT_LT(after, before);
}

// --- carried-forward signature baseline ------------------------------------

TEST(Baseline, ProvedRewriteThenALaterMiscompileIsRefuted)
{
    // The first catalog graph (in catalog order) that cse rewrites as
    // lowered.
    for (const auto &entry : catalog::allIsaxes()) {
        driver::CompiledIsax compiled =
            driver::compile(entry.source, entry.target, lintOptions());
        ASSERT_TRUE(compiled.ok()) << entry.name << ": " << compiled.errors;
        for (auto &graph : compiled.lilModule->graphs) {
            if (graph->hasSpawnOps())
                continue;
            passes::SignatureChecker checker(
                compiled.lilModule->isa,
                passes::PipelineOptions{}.cosimTrials);
            passes::GraphCapture baseline = checker.capture(*graph);
            if (!passes::runCse(*graph))
                continue;
            std::string detail;
            EXPECT_EQ(checker.check(*graph, baseline, detail),
                      passes::SignatureChecker::Outcome::Proved)
                << entry.name << "/" << graph->name << ": " << detail;

            // The "passes" failpoint's miscompile (the first interface
            // write's value XOR 1), injected after the accepted
            // rewrite: the carried-forward baseline must refute it.
            {
                failpoint::Scoped guard("passes", failpoint::Mode::Fail);
                ASSERT_GT(passes::runSimplify(*graph), 0u);
            }
            EXPECT_EQ(checker.check(*graph, baseline, detail),
                      passes::SignatureChecker::Outcome::Refuted)
                << entry.name << "/" << graph->name;
            EXPECT_NE(detail.find("counterexample"), std::string::npos)
                << detail;
            return;
        }
    }
    FAIL() << "cse rewrote no catalog graph as lowered";
}

TEST(Baseline, AGraphThePassesLeaveAloneCostsOneCapture)
{
    const catalog::IsaxEntry *entry = catalog::findIsax("dotp");
    ASSERT_NE(entry, nullptr);
    driver::CompiledIsax compiled =
        driver::compile(entry->source, entry->target, lintOptions());
    ASSERT_TRUE(compiled.ok()) << compiled.errors;
    lil::LilModule &mod = *compiled.lilModule;
    ASSERT_EQ(mod.graphs.size(), 1u);

    // Reach the fixpoint unvalidated, then validate a rerun that has
    // nothing left to rewrite.
    DiagnosticEngine diags;
    passes::PipelineOptions popts;
    passes::runPipeline(mod, popts, diags);
    popts.validate = true;

    obs::ScopedEnable on;
    obs::ScopedCounterDelta delta;
    passes::PipelineResult res = passes::runPipeline(mod, popts, diags);
    EXPECT_EQ(res.totalRewrites, 0u);
    EXPECT_EQ(res.proved + res.cosimAgreed, 0u);
    auto counter = [&](const char *name) -> uint64_t {
        auto it = delta.deltas().find(name);
        return it != delta.deltas().end() ? it->second : 0;
    };
    EXPECT_EQ(counter("passes.captures"), 1u);
    EXPECT_EQ(counter("interp.graphs_executed"), popts.cosimTrials);
}

// --- seeded miscompile -----------------------------------------------------

TEST(SeededBug, SignatureCheckRefutesTheInjectedMiscompile)
{
    failpoint::Scoped guard("passes", failpoint::Mode::Fail);
    const catalog::IsaxEntry *entry = catalog::findIsax("zol");
    ASSERT_NE(entry, nullptr);
    driver::CompileOptions options;
    options.optLevel = 1;
    options.validate = true;
    driver::CompiledIsax compiled =
        driver::compile(entry->source, entry->target, options);
    EXPECT_FALSE(compiled.ok());
    EXPECT_NE(compiled.errors.find("LN4501"), std::string::npos)
        << compiled.errors;
}

TEST(SeededBug, WithoutValidationTheMiscompileSlipsThrough)
{
    // Control experiment documenting WHY the per-pass check exists:
    // the same seeded bug compiles "successfully" without --validate.
    failpoint::Scoped guard("passes", failpoint::Mode::Fail);
    const catalog::IsaxEntry *entry = catalog::findIsax("zol");
    ASSERT_NE(entry, nullptr);
    driver::CompileOptions options;
    options.optLevel = 1;
    driver::CompiledIsax compiled =
        driver::compile(entry->source, entry->target, options);
    EXPECT_TRUE(compiled.ok()) << compiled.errors;
}

// --- analysis dump ---------------------------------------------------------

TEST(Dump, IsStableAndWellFormed)
{
    const catalog::IsaxEntry *entry = catalog::findIsax("dotp");
    ASSERT_NE(entry, nullptr);
    driver::CompiledIsax compiled =
        driver::compile(entry->source, entry->target, lintOptions());
    ASSERT_TRUE(compiled.ok());

    std::ostringstream a, b;
    passes::writeAnalysisDump(*compiled.lilModule, a);
    passes::writeAnalysisDump(*compiled.lilModule, b);
    EXPECT_EQ(a.str(), b.str());
    EXPECT_NE(a.str().find("analysis:"), std::string::npos);
    EXPECT_NE(a.str().find("demanded:"), std::string::npos);
    EXPECT_NE(a.str().find("range:"), std::string::npos);
}

} // namespace
