/**
 * @file
 * Problem construction and the Longnail schedulers (Secs. 4.2-4.4).
 *
 * buildProblem() turns a LIL graph plus a core's virtual datasheet and
 * a technology characterization into a LongnailProblem; the interface
 * windows come from the datasheet, with latest = infinity for WrRD,
 * RdMem and WrMem to unlock the tightly-coupled/decoupled variants
 * (Sec. 4.2). computeChainBreakers() distributes long combinational
 * chains over multiple time steps. scheduleOptimal() solves the ILP of
 * Fig. 7 exactly; scheduleAsap() is the greedy baseline.
 */

#ifndef LONGNAIL_SCHED_SCHEDULER_HH
#define LONGNAIL_SCHED_SCHEDULER_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "lil/lil.hh"
#include "scaiev/datasheet.hh"
#include "sched/problem.hh"
#include "sched/techlib.hh"

namespace longnail {
namespace sched {

/** A LongnailProblem plus the mapping back to LIL operations. */
struct BuiltProblem
{
    LongnailProblem problem;
    /** IR op per problem operation (index-aligned); may be null. */
    std::vector<const ir::Operation *> irOps;
    std::map<const ir::Operation *, unsigned> indexOf;

    /** Scheduled start time of an IR op; ops are scheduled after
     * solving. */
    int startTimeOf(const ir::Operation *op) const;
};

/**
 * Construct the scheduling problem for @p graph targeting @p core.
 * @p cycle_time_ns limits combinational chains; pass 0 to use the
 * core's native cycle time.
 */
BuiltProblem buildProblem(const lil::LilGraph &graph,
                          const scaiev::Datasheet &core,
                          const TechLibrary &tech,
                          double cycle_time_ns = 0.0);

/**
 * Compute chain-breaking dependences so that no combinational chain
 * exceeds the problem's cycle time (C5 of Fig. 7). Chains through
 * operations whose single delay already exceeds the cycle time cannot
 * be broken; these remain and surface as reduced fmax in the ASIC
 * timing analysis.
 */
void computeChainBreakers(ChainingProblem &problem);

/**
 * Pure form of computeChainBreakers(): derive the chain-breaking edges
 * without mutating @p problem. computeChainBreakers() is implemented on
 * top of this; the translation-validation schedule checker
 * (src/analysis/tv/schedcheck.cc) re-derives the edges through the same
 * algorithm to audit schedules independently of the solver.
 */
std::vector<Dependence> deriveChainBreakers(const ChainingProblem &problem);

/**
 * Solve the ILP of Fig. 7 exactly (objective: sum of start times plus
 * lifetimes, constraints C1-C5). @p lp_work_limit bounds the LP
 * solver's deterministic work counter (0 = unlimited); exhausting it
 * reports a distinct "budget exhausted" error rather than blocking.
 * @p work_units_out, when non-null, receives the LP work actually
 * spent (even on failure), for budget observability.
 * @return empty string on success, else the infeasibility reason.
 */
std::string scheduleOptimal(LongnailProblem &problem,
                            uint64_t lp_work_limit = 0,
                            uint64_t *work_units_out = nullptr);

/**
 * ASAP list-scheduling baseline: every operation starts as early as
 * its window and operands allow. With @p honor_chain_breakers false
 * the C5 chain-breaking edges are ignored -- the schedule stays
 * architecturally correct (all dependences and interface windows hold)
 * but combinational chains may exceed the cycle time, reducing fmax.
 * @return empty string on success, else the infeasibility reason.
 */
std::string scheduleAsap(LongnailProblem &problem,
                         bool honor_chain_breakers = true);

/** How a schedule was obtained (fail-soft fallback chain). */
enum class ScheduleQuality
{
    /** Exact Fig. 7 ILP optimum. */
    Optimal,
    /** Heuristic ASAP schedule honoring all constraints. */
    Fallback,
    /** ASAP schedule with chain breakers (C5) relaxed; correct but
     * combinational chains may exceed the cycle time. */
    FallbackRelaxed,
};

const char *scheduleQualityName(ScheduleQuality quality);

/** Resource budget for the optimal scheduler. */
struct ScheduleBudget
{
    /** Deterministic LP work-unit limit; 0 = unlimited. */
    uint64_t lpWorkLimit = 0;
};

/** Result of the scheduler fallback chain. */
struct ScheduleOutcome
{
    ScheduleQuality quality = ScheduleQuality::Optimal;
    /** Non-empty iff every scheduler in the chain failed. */
    std::string error;
    /** Why the optimal scheduler was abandoned (when quality is not
     * Optimal). */
    std::string fallbackReason;
    /** Deterministic LP work units the optimal attempt consumed (its
     * budget consumption, whether or not it succeeded). */
    uint64_t lpWorkUnits = 0;

    bool ok() const { return error.empty(); }
};

/**
 * Fail-soft scheduling: try scheduleOptimal() under @p budget; on
 * infeasibility or budget exhaustion fall back to scheduleAsap(), and
 * as a last resort retry ASAP with chain breakers relaxed (correctness
 * preserved, fmax possibly reduced). Only when every step fails does
 * the outcome carry an error.
 */
ScheduleOutcome scheduleWithFallback(LongnailProblem &problem,
                                     const ScheduleBudget &budget = {});

/**
 * Post-scheduling cleanup: sink zero-delay, zero-latency operations
 * (wiring: extracts, concats, constant shifts) to their earliest
 * consumer's time step. The Fig. 7 objective is bitwidth-blind and its
 * start-time term can favor placing free operations early, which would
 * make hardware generation pipeline their results over many stages;
 * sinking lets shared operand values be piped once instead. Operations
 * participating in chain-breaker edges keep their start times.
 * @return number of operations moved.
 */
unsigned sinkZeroDelayOps(LongnailProblem &problem);

} // namespace sched
} // namespace longnail

#endif // LONGNAIL_SCHED_SCHEDULER_HH
