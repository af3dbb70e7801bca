/**
 * @file
 * Synthetic ASIC synthesis + place-and-route flow model (substitute for
 * the paper's commercial 22nm reference flow, Sec. 5.3).
 *
 * Area: cell-level accounting over the generated netlists using the
 * same 22nm-class cost model as the scheduler (sched::combCellCost), plus
 * models of the SCAIE-V integration logic (decoder matches, write-port
 * muxing, stall/flush glue, custom register files, and the scoreboard
 * for decoupled hazard handling).
 *
 * Timing: static longest-path analysis over each module's per-stage
 * combinational logic with the library's physical delays, combined with
 * the core-interaction effects the paper discusses in Sec. 5.4:
 * ISAX operations scheduled into the last stage of a core that forwards
 * from that stage (ORCA) join the forwarding path and stretch the
 * critical path; always-blocks add to the PC-update path.
 *
 * The paper notes frequency variations below 10% due to the inherent
 * randomness of synthesis heuristics; we model this with a small,
 * deterministic pseudo-variation seeded by the configuration name, and
 * model the timing-pressure area inflation ("the synthesis tool also
 * tries to reach better timing results by duplicating logic").
 */

#ifndef LONGNAIL_ASIC_FLOW_HH
#define LONGNAIL_ASIC_FLOW_HH

#include <string>
#include <vector>

#include "hwgen/hwgen.hh"
#include "scaiev/datasheet.hh"
#include "sched/techlib.hh"

namespace longnail {
namespace asic {

/** Result of one synthesis + P&R run. */
struct SynthesisResult
{
    double areaUm2 = 0.0;          ///< total core area (excl. caches)
    double fmaxMhz = 0.0;
    double criticalPathNs = 0.0;

    // Breakdown.
    double baseAreaUm2 = 0.0;
    double isaxLogicAreaUm2 = 0.0;
    double isaxRegisterAreaUm2 = 0.0;
    double integrationAreaUm2 = 0.0; ///< SCAIE-V glue + custom regs

    /** Percentage overheads relative to a base run. */
    double areaOverheadPercent(const SynthesisResult &base) const;
    double freqDeltaPercent(const SynthesisResult &base) const;
};

/** Options for the extended-core run. */
struct FlowOptions
{
    /** Include the automatic data-hazard handling (scoreboard) area
     * for decoupled ISAXes (Table 4's "without data-hazard handling"
     * row disables this). */
    bool hazardHandling = true;
};

class AsicFlow
{
  public:
    explicit AsicFlow(const scaiev::Datasheet &core);

    /** Synthesize the unmodified base core. */
    SynthesisResult synthesizeBase() const;

    /**
     * Synthesize the core extended with the given generated modules
     * (all modules of one or more ISAXes).
     */
    SynthesisResult
    synthesizeExtended(const std::string &config_name,
                       const std::vector<const hwgen::GeneratedModule *>
                           &modules,
                       const FlowOptions &options = {}) const;

    /** Cell area of one generated module (logic + pipeline regs). */
    double moduleAreaUm2(const hwgen::GeneratedModule &module) const;

    /**
     * Longest combinational path within any single cycle of the
     * module, using physical delays.
     */
    double moduleCriticalPathNs(const hwgen::GeneratedModule &module)
        const;

  private:
    double integrationAreaUm2(
        const std::vector<const hwgen::GeneratedModule *> &modules,
        const FlowOptions &options) const;

    const scaiev::Datasheet &core_;
};

/** Deterministic pseudo-noise in [-amplitude, +amplitude]. */
double synthesisNoise(const std::string &seed, double amplitude);

} // namespace asic
} // namespace longnail

#endif // LONGNAIL_ASIC_FLOW_HH
