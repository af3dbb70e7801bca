/**
 * @file
 * The co-simulation harness shared by the two places that compare
 * architectural effects on concrete inputs: the per-pass signature
 * checker (passes/sigcheck.cc, LIL before vs. after a pass) and the
 * netlist equivalence checker (analysis/tv/equiv.cc, LIL golden model
 * vs. the generated RTL). Both draw their trials from cosimInput(),
 * read memory through hashMemWord() and report the first divergence
 * with diffEffects() in their LN4501 text.
 */

#ifndef LONGNAIL_LIL_COSIM_HH
#define LONGNAIL_LIL_COSIM_HH

#include <random>
#include <string>

#include "coredsl/module.hh"
#include "lil/interp.hh"
#include "lil/lil.hh"

namespace longnail {
namespace lil {

/** Seed of the trial generator ("LNTV"): every run draws the same
 * trials. */
constexpr uint32_t cosimSeed = 0x4c4e5456u;

/** Deterministic memory contents: a pure hash of the address. */
ApInt hashMemWord(const ApInt &addr);

/**
 * Stimulus for co-simulation trial @p trial of @p graph: trial 0 sets
 * every input to zeros, trial 1 to ones, later trials draw from
 * @p rng. The instruction word keeps the graph's fixed encoding bits.
 * Custom registers of @p isa (may be null) get contents the same way.
 */
InterpInput cosimInput(const LilGraph &graph,
                       const coredsl::ElaboratedIsa *isa, unsigned trial,
                       std::mt19937 &rng);

/** "instr_word=0x.. rs1=0x.. rs2=0x.. pc=0x.." for a counterexample. */
std::string describeInput(const InterpInput &input);

/**
 * First difference between two runs' effects, naming the sides
 * @p want_label and @p got_label ("before"/"after", "golden"/"rtl");
 * empty when they agree.
 */
std::string diffEffects(const InterpResult &want, const InterpResult &got,
                        const char *want_label, const char *got_label);

} // namespace lil
} // namespace longnail

#endif // LONGNAIL_LIL_COSIM_HH
