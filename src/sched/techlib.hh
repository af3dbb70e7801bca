/**
 * @file
 * Timing/area characterization of operations for scheduling and the
 * ASIC flow model.
 *
 * The paper's Longnail "currently assume[s] uniform delays and area for
 * logic and non-combinational sub-interface operations" (Sec. 4.2) and
 * names a real technology library as future work. We provide both:
 *
 *  - TimingMode::Uniform reproduces the paper's behavior (and thus the
 *    frequency regressions of Sec. 5.4, which stem from the scheduler
 *    underestimating late-stage logic);
 *  - TimingMode::Library uses 22nm-class per-operation delays, the
 *    "better-informed scheduler" the paper plans (ablation bench).
 *
 * The area model is always the 22nm-class library; it feeds the
 * synthetic ASIC flow (src/asic).
 */

#ifndef LONGNAIL_SCHED_TECHLIB_HH
#define LONGNAIL_SCHED_TECHLIB_HH

#include <cstddef>

#include "ir/comb.hh"
#include "ir/ir.hh"

namespace longnail {
namespace sched {

enum class TimingMode
{
    Uniform, ///< paper default: every logic level costs the same delay
    Library, ///< per-operation 22nm-class delays
};

/** Timing of one operation as seen by the scheduler. */
struct OpTiming
{
    double delayNs = 0.0; ///< combinational propagation delay
    unsigned latency = 0; ///< cycles until the result is available
};

/** Propagation delay and cell area of one operator instance. */
struct CellCost
{
    double delayNs = 0.0;
    double areaUm2 = 0.0;
};

/**
 * The 22nm-class cost of comb op @p op: the one cost model behind both
 * TechLibrary (LIL operations) and asic::AsicFlow (netlist nodes).
 * @p width is the result width, @p lhs_width and @p rhs_width those of
 * operands 0 and 1 (the multiplier array and the compared width),
 * @p shift_by_constant marks a shift whose amount is a constant (pure
 * wiring) and @p rom_entries is the ROM table size.
 */
CellCost combCellCost(ir::CombOp op, unsigned width, unsigned lhs_width,
                      unsigned rhs_width, bool shift_by_constant,
                      size_t rom_entries);

class TechLibrary
{
  public:
    explicit TechLibrary(TimingMode mode = TimingMode::Uniform)
        : mode_(mode)
    {}

    TimingMode mode() const { return mode_; }

    /** Scheduler-visible timing of @p op. */
    OpTiming timing(const ir::Operation &op) const;

    /**
     * True physical delay of @p op (used by the ASIC timing analysis
     * regardless of the scheduling mode).
     */
    double physicalDelayNs(const ir::Operation &op) const;

    /** Cell area of @p op in um^2 (22nm-class). */
    double areaUm2(const ir::Operation &op) const;

    /** Area of one pipeline-register bit. */
    double registerBitAreaUm2() const { return 0.8; }

    /** Uniform logic delay used in TimingMode::Uniform. */
    double uniformDelayNs() const { return 0.15; }

  private:
    TimingMode mode_;
};

} // namespace sched
} // namespace longnail

#endif // LONGNAIL_SCHED_TECHLIB_HH
