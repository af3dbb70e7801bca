/**
 * @file
 * The -O1 optimization pipeline over LIL graphs
 * (docs/pass-pipeline.md): analysis-driven rewrites in which every
 * pass application is re-proved against the graph it transformed.
 *
 * Four passes run in order, iterated to a fixpoint:
 *
 *   simplify   constant folding via the range lattice, identity
 *              rewrites and power-of-two strength reduction
 *   cse        common-subexpression elimination keyed by the same
 *              structural discipline as the hash-consed term DAG
 *   narrow     bitwidth narrowing where range ∧ demanded-bits proves
 *              the high bits are dead
 *   dce        deletion of interface ops with constant-false
 *              predicates (the LN4104 findings) and of unused pure
 *              computations
 *
 * When validation is enabled, the pass manager captures each graph's
 * observable signature — the guarded rd/pc/mem/custom-register
 * effects, mirroring lil::interpret() — as canonical terms, plus a
 * deterministic interpreter battery, once before the first pass. Each
 * application that rewrites is compared against it: term-equal
 * signatures are a symbolic proof; otherwise the golden interpreter
 * re-runs the battery on the new graph, and any divergence refutes
 * the pass (LN4501) and aborts the compile. An accepted application's
 * signature is carried forward as the next baseline
 * (passes/sigcheck.hh).
 */

#ifndef LONGNAIL_PASSES_PASSES_HH
#define LONGNAIL_PASSES_PASSES_HH

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "lil/lil.hh"
#include "support/diagnostics.hh"

namespace longnail {
namespace passes {

/** Pipeline configuration. */
struct PipelineOptions
{
    /** Re-prove every pass application (set from --validate). */
    bool validate = false;
    /** Fixpoint cap: full pass-order sweeps per graph. */
    unsigned maxIterations = 4;
    /** Golden-interpreter trials when a symbolic proof falls through. */
    unsigned cosimTrials = 6;
};

/** Aggregate outcome of one pipeline run over a module. */
struct PipelineResult
{
    uint64_t totalRewrites = 0;
    /** Pass applications proved equal by the term checker. */
    unsigned proved = 0;
    /** Pass applications accepted by co-simulation agreement only. */
    unsigned cosimAgreed = 0;
    /** A pass application changed observable behavior (LN4501). */
    bool refuted = false;
    /** Spawn graphs optimized under the MUST-not-interfere verdict
     * (analysis/effects.hh: spawnIsolated()). */
    unsigned spawnOptimized = 0;
    /** Spawn graphs skipped because isolation could not be proved. */
    unsigned spawnSkipped = 0;
    /** Per-graph rewrite counts of the optimized spawn graphs, in
     * module order (PhaseReport/--report surface these). */
    std::vector<std::pair<std::string, uint64_t>> spawnGraphRewrites;
};

/**
 * Run the -O1 pipeline over every LIL graph of @p mod. Spawn graphs
 * participate only when their effect summaries prove the decoupled
 * partition cannot interfere with the in-order partition
 * (analysis/effects.hh); otherwise they compile as lowered. Diagnostics
 * (the LN4501 refutation) go to @p diags; on refutation the pipeline
 * stops immediately, leaving the module in its last-verified state
 * only up to the offending pass.
 */
PipelineResult runPipeline(lil::LilModule &mod,
                           const PipelineOptions &options,
                           DiagnosticEngine &diags);

// Individual passes, exposed for the idempotence tests. Each returns
// the number of rewrites applied.
unsigned runSimplify(lil::LilGraph &graph);
unsigned runCse(lil::LilGraph &graph);
unsigned runNarrow(lil::LilGraph &graph);
unsigned runDce(lil::LilGraph &graph);

/**
 * Write a YAML dump of the per-value range and demanded-bits states
 * of every graph in @p mod (CLI: --dump-analysis=FILE). Ordering is
 * stable: graphs in module order, values by ascending id.
 */
void writeAnalysisDump(const lil::LilModule &mod, std::ostream &os);

} // namespace passes
} // namespace longnail

#endif // LONGNAIL_PASSES_PASSES_HH
