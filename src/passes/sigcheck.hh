/**
 * @file
 * Per-pass translation validation for the -O1 pipeline
 * (docs/pass-pipeline.md).
 *
 * A LIL graph's *observable signature* is the set of guarded
 * architectural effects lil::interpret() produces — rd/pc/mem writes
 * with their last-enabled-wins mux chains, the memory-read address
 * strobe and the per-register custom-state writes — captured as
 * canonical terms in a shared tv::TermBuilder. The pass manager
 * captures a graph once, before its first pass: the signature plus a
 * battery of concrete interpreter runs. After each pass application
 * that rewrote something, check() rebuilds the signature and decides:
 *
 *   Proved       every signature component reduced to the same term
 *   CosimAgreed  terms differ, but the interpreter battery agrees on
 *                every trial (symbolic gap, no behavioral evidence)
 *   Refuted      some trial diverges: the pass changed architecture-
 *                visible behavior (reported as LN4501)
 *
 * An accepted application (Proved or CosimAgreed) hands its freshly
 * built signature to the capture as the next baseline, so a graph
 * costs one capture however many passes run. The battery stays the
 * pre-pipeline graph's: its stimuli depend only on the instruction
 * encoding, which no pass touches, and every accepted application
 * agreed with it, so comparing later applications against the
 * original runs is the same check, and a stricter one should a term
 * proof ever be unsound.
 */

#ifndef LONGNAIL_PASSES_SIGCHECK_HH
#define LONGNAIL_PASSES_SIGCHECK_HH

#include <map>
#include <string>
#include <vector>

#include "analysis/tv/terms.hh"
#include "coredsl/sema.hh"
#include "lil/interp.hh"
#include "lil/lil.hh"

namespace longnail {
namespace passes {

/** One predicated effect chain: or-of-preds valid + muxed payloads. */
struct EffectSig
{
    analysis::tv::TermId valid = analysis::tv::invalidTerm;
    std::vector<analysis::tv::TermId> payload;
};

/** The full observable signature of one LIL graph. */
struct Signature
{
    EffectSig rd;      ///< payload: value
    EffectSig pc;      ///< payload: value
    EffectSig mem;     ///< payload: addr, value
    EffectSig memRead; ///< payload: addr (valid = mem_read_used)
    /** Per custom register; payload: value, index (widened). */
    std::map<std::string, EffectSig> cust;
};

/** The baseline a pass application is checked against. */
struct GraphCapture
{
    /** Signature of the last accepted graph state. */
    Signature sig;
    /** Co-simulation battery of the graph as captured. */
    std::vector<lil::InterpInput> inputs;
    std::vector<lil::InterpResult> results;
};

class SignatureChecker
{
  public:
    enum class Outcome
    {
        Proved,
        CosimAgreed,
        Refuted,
    };

    /** @p isa may be null (no custom-register state is populated). */
    SignatureChecker(const coredsl::ElaboratedIsa *isa, unsigned trials);

    /** Build the signature of @p graph and run the battery on it. */
    GraphCapture capture(const lil::LilGraph &graph);

    /**
     * Compare @p graph (post-pass) against @p baseline. On Proved or
     * CosimAgreed, @p graph's signature becomes the baseline's; on
     * Refuted, @p detail describes the first divergence for the
     * LN4501 text and @p baseline is left as it was.
     */
    Outcome check(const lil::LilGraph &graph, GraphCapture &baseline,
                  std::string &detail);

  private:
    Signature buildSignature(const lil::LilGraph &graph);
    bool signaturesEqual(const Signature &a, const Signature &b) const;

    const coredsl::ElaboratedIsa *isa_;
    unsigned trials_;
    /** Shared across before/after so equal semantics intern to equal
     * ids (tv hash-consing discipline). */
    analysis::tv::TermBuilder builder_;
};

} // namespace passes
} // namespace longnail

#endif // LONGNAIL_PASSES_SIGCHECK_HH
