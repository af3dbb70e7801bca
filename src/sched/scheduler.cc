#include "sched/scheduler.hh"

#include <algorithm>
#include <set>

#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "scaiev/interface.hh"
#include "sched/lpsolver.hh"
#include "support/failpoint.hh"
#include "support/logging.hh"

namespace longnail {
namespace sched {

using ir::OpKind;
using scaiev::SubInterface;

int
BuiltProblem::startTimeOf(const ir::Operation *op) const
{
    auto it = indexOf.find(op);
    if (it == indexOf.end())
        LN_PANIC("operation not part of the scheduling problem");
    return problem.operation(it->second).startTime.value_or(-1);
}

BuiltProblem
buildProblem(const lil::LilGraph &graph, const scaiev::Datasheet &core,
             const TechLibrary &tech, double cycle_time_ns)
{
    BuiltProblem built;
    LongnailProblem &problem = built.problem;
    problem.setCycleTime(cycle_time_ns > 0.0 ? cycle_time_ns
                                             : core.cycleTimeNs());

    for (const auto &op : graph.graph.ops()) {
        OperatorType type;
        type.name = op->name();
        OpTiming timing = tech.timing(*op);
        type.latency = timing.latency;
        type.outgoingDelay = timing.delayNs;

        if (auto iface = scaiev::subInterfaceFor(op->kind())) {
            const scaiev::InterfaceTiming &t = core.timing(*iface);
            if (graph.isAlways) {
                // Sec. 4.4: all interface constraints are at stage 0;
                // solving merely checks single-cycle feasibility.
                type.earliest = 0;
                type.latest = 0;
            } else {
                type.earliest = t.earliest;
                type.latest = t.latest;
                // Sec. 4.2: allow late scheduling for the interfaces
                // with tightly-coupled/decoupled variants.
                if (scaiev::supportsLateVariants(*iface))
                    type.latest = noUpperBound;
            }
            type.latency = std::max(type.latency, t.latency);
        }

        unsigned type_id = problem.addOperatorType(type);
        sched::Operation sop;
        sop.name = std::string(op->name()) + "#" +
                   std::to_string(problem.numOperations());
        sop.linkedOperatorType = type_id;
        unsigned index = problem.addOperation(sop);
        built.irOps.push_back(op.get());
        built.indexOf[op.get()] = index;
    }

    // Dependences (deduplicated per (from, to) pair).
    std::set<std::pair<unsigned, unsigned>> seen;
    for (const auto &op : graph.graph.ops()) {
        unsigned to = built.indexOf.at(op.get());
        for (unsigned i = 0; i < op->numOperands(); ++i) {
            const ir::Operation *def = op->operand(i)->owner;
            auto it = built.indexOf.find(def);
            if (it == built.indexOf.end())
                LN_PANIC("operand defined outside the graph");
            if (seen.emplace(it->second, to).second)
                problem.addDependence(it->second, to);
        }
    }
    return built;
}

std::vector<Dependence>
deriveChainBreakers(const ChainingProblem &problem)
{
    std::vector<Dependence> breakers;
    double cycle = problem.cycleTime();
    if (cycle <= 0.0)
        return breakers;

    size_t n = problem.numOperations();
    std::vector<std::vector<unsigned>> preds(n);
    for (const auto &dep : problem.dependences())
        preds[dep.to].push_back(dep.from);

    // Accumulated combinational depth at each operation's output,
    // assuming greedy same-cycle placement (operations are in
    // topological order).
    std::vector<double> acc(n, 0.0);
    for (unsigned i = 0; i < n; ++i) {
        const OperatorType &type =
            problem.operatorTypeOf(problem.operation(i));
        double d = type.outgoingDelay;
        double max_contrib = 0.0;
        std::vector<std::pair<unsigned, double>> contribs;
        for (unsigned p : preds[i]) {
            const OperatorType &ptype =
                problem.operatorTypeOf(problem.operation(p));
            double contrib = ptype.latency == 0 ? acc[p]
                                                : ptype.outgoingDelay;
            contribs.emplace_back(p, contrib);
            max_contrib = std::max(max_contrib, contrib);
        }
        if (max_contrib + d > cycle) {
            // Break the critical incoming chains; registered inputs
            // (latency > 0) cannot be broken further.
            double remaining = 0.0;
            for (auto &[p, contrib] : contribs) {
                const OperatorType &ptype =
                    problem.operatorTypeOf(problem.operation(p));
                if (contrib + d > cycle && ptype.latency == 0 &&
                    contrib > 0.0) {
                    breakers.push_back({p, i});
                } else {
                    remaining = std::max(remaining, contrib);
                }
            }
            acc[i] = remaining + d;
        } else {
            acc[i] = max_contrib + d;
        }
    }
    return breakers;
}

void
computeChainBreakers(ChainingProblem &problem)
{
    for (const Dependence &b : deriveChainBreakers(problem))
        problem.addChainBreaker(b.from, b.to);
}

namespace {

/** Objective weights of Fig. 7 after lifetime substitution. */
std::vector<int64_t>
objectiveWeights(const LongnailProblem &problem)
{
    // sum_i t_i + sum_(i->j) (t_j - t_i)
    //   = sum_i (1 + indeg(i) - outdeg(i)) * t_i.
    std::vector<int64_t> w(problem.numOperations(), 1);
    for (const auto &dep : problem.dependences()) {
        ++w[dep.to];
        --w[dep.from];
    }
    return w;
}

/**
 * LP constraints of Fig. 7: bounds (C3/C4), dependences (C1) and the
 * chain breakers (C5). Objective weights are left at zero for the
 * caller to fill in.
 */
DifferenceLP
buildScheduleLP(const LongnailProblem &problem)
{
    DifferenceLP lp(problem.numOperations());
    for (unsigned i = 0; i < problem.numOperations(); ++i) {
        const OperatorType &type =
            problem.operatorTypeOf(problem.operation(i));
        lp.lower[i] = std::max(0, type.earliest); // C3, C4
        lp.upper[i] = type.latest == noUpperBound
                          ? DifferenceLP::unbounded
                          : type.latest;
    }
    for (const auto &dep : problem.dependences()) { // C1
        const OperatorType &type =
            problem.operatorTypeOf(problem.operation(dep.from));
        lp.addConstraint(dep.from, dep.to, int(type.latency));
    }
    for (const auto &dep : problem.chainBreakers()) { // C5
        const OperatorType &type =
            problem.operatorTypeOf(problem.operation(dep.from));
        lp.addConstraint(dep.from, dep.to, int(type.latency) + 1);
    }
    return lp;
}

/** Count one LP solve's deterministic work into the obs registry. */
void
countLPSolve(const LPResult &result)
{
    // LP "iterations" are the solver's deterministic work units (heap
    // pops / admissible-arc scans); see src/sched/lpsolver.hh.
    obs::count("sched.lp_solves");
    obs::count("sched.lp_iterations", result.workUnits);
    obs::count("sched.lp_phases", result.phases);
    obs::count("sched.lp_augmentations", result.augmentations);
    obs::observe("sched.lp_iterations_per_solve",
                 double(result.workUnits));
}

} // namespace

std::string
scheduleOptimal(LongnailProblem &problem, uint64_t lp_work_limit,
                uint64_t *work_units_out)
{
    if (work_units_out)
        *work_units_out = 0;
    std::string input_error = problem.checkInput();
    if (!input_error.empty())
        return input_error;

    if (failpoint::fire("sched-optimal") != failpoint::Mode::Off)
        return "injected fault at failpoint 'sched-optimal'";

    DifferenceLP lp = buildScheduleLP(problem);
    lp.weights = objectiveWeights(problem);
    // Secondary objective: among the (often many) optima of Fig. 7's
    // objective, prefer *later* start times -- values are then produced
    // closer to their consumers, which saves pipeline registers (and
    // matches the paper's Fig. 5d, where the operand reads happen in
    // stage 2 rather than the earliest possible stage). The primary
    // objective is scaled so it always dominates.
    constexpr int64_t primaryScale = 1024;
    for (auto &w : lp.weights)
        w = w * primaryScale - 1;

    LPResult result = solveDifferenceLP(lp, lp_work_limit);
    if (work_units_out)
        *work_units_out = result.workUnits;
    countLPSolve(result);
    if (result.status == LPResult::Status::Infeasible)
        return "no feasible schedule: the interface windows and "
               "dependences are contradictory";
    if (result.status == LPResult::Status::Unbounded)
        return "scheduling LP is unbounded (internal error)";
    if (result.status == LPResult::Status::BudgetExhausted)
        return "scheduling budget exhausted after " +
               std::to_string(result.workUnits) + " LP work units";

    for (unsigned i = 0; i < problem.numOperations(); ++i)
        problem.operation(i).startTime = result.values[i];
    problem.computeStartTimesInCycle();
    return "";
}

std::string
scheduleAsap(LongnailProblem &problem, bool honor_chain_breakers)
{
    std::string input_error = problem.checkInput();
    if (!input_error.empty())
        return input_error;

    size_t n = problem.numOperations();
    std::vector<int> start(n, 0);
    for (unsigned i = 0; i < n; ++i) {
        const OperatorType &type =
            problem.operatorTypeOf(problem.operation(i));
        start[i] = std::max(0, type.earliest);
    }
    // Operations are topologically ordered; one forward pass suffices.
    auto relax = [&](const Dependence &dep, int extra) {
        const OperatorType &type =
            problem.operatorTypeOf(problem.operation(dep.from));
        start[dep.to] = std::max(start[dep.to],
                                 start[dep.from] +
                                     int(type.latency) + extra);
    };
    // Dependences and chain breakers may interleave; iterate to a
    // fixpoint (bounded by n rounds).
    for (unsigned round = 0; round < n + 1; ++round) {
        bool changed = false;
        std::vector<int> before = start;
        for (const auto &dep : problem.dependences())
            relax(dep, 0);
        if (honor_chain_breakers)
            for (const auto &dep : problem.chainBreakers())
                relax(dep, 1);
        changed = before != start;
        if (!changed)
            break;
    }
    for (unsigned i = 0; i < n; ++i) {
        const OperatorType &type =
            problem.operatorTypeOf(problem.operation(i));
        if (type.latest != noUpperBound && start[i] > type.latest)
            return "operation '" + problem.operation(i).name +
                   "' cannot meet its latest stage " +
                   std::to_string(type.latest);
        problem.operation(i).startTime = start[i];
    }
    problem.computeStartTimesInCycle();
    return "";
}

const char *
scheduleQualityName(ScheduleQuality quality)
{
    switch (quality) {
    case ScheduleQuality::Optimal: return "optimal";
    case ScheduleQuality::Fallback: return "fallback";
    case ScheduleQuality::FallbackRelaxed: return "fallback-relaxed";
    }
    return "?";
}

ScheduleOutcome
scheduleWithFallback(LongnailProblem &problem,
                     const ScheduleBudget &budget)
{
    ScheduleOutcome outcome;
    // Register the fallback counter even when no fallback fires so a
    // --stats dump always reports it (zero is a result, not absence).
    obs::count("sched.fallback_events", 0);
    std::string optimal_error;
    {
        obs::TraceSpan span("sched.optimal");
        optimal_error = scheduleOptimal(problem, budget.lpWorkLimit,
                                        &outcome.lpWorkUnits);
        span.arg("status", optimal_error.empty() ? "ok"
                                                 : optimal_error);
    }
    obs::count("sched.budget_consumed", outcome.lpWorkUnits);
    if (optimal_error.empty()) {
        obs::count("sched.quality.optimal");
        return outcome;
    }

    // The fallback chain fires: make each step observable so the chain
    // never degrades silently.
    obs::count("sched.fallback_events");
    outcome.fallbackReason = optimal_error;
    outcome.quality = ScheduleQuality::Fallback;
    std::string asap_error;
    {
        obs::TraceSpan span("sched.fallback.asap");
        asap_error = scheduleAsap(problem);
        span.arg("status", asap_error.empty() ? "ok" : asap_error);
    }
    if (asap_error.empty()) {
        obs::count("sched.quality.fallback");
        return outcome;
    }

    // Last resort: drop the C5 chain breakers. Dependences and
    // interface windows still hold, so the schedule is architecturally
    // correct; only the combinational chain length (fmax) may suffer.
    obs::count("sched.fallback_events");
    outcome.quality = ScheduleQuality::FallbackRelaxed;
    std::string relaxed_error;
    {
        obs::TraceSpan span("sched.fallback.asap-relaxed");
        relaxed_error =
            scheduleAsap(problem, /*honor_chain_breakers=*/false);
        span.arg("status",
                 relaxed_error.empty() ? "ok" : relaxed_error);
    }
    if (relaxed_error.empty()) {
        obs::count("sched.quality.fallback-relaxed");
        return outcome;
    }

    obs::count("sched.chain_exhausted");
    outcome.error = "no scheduler in the fallback chain succeeded: "
                    "optimal: " + optimal_error +
                    "; asap: " + asap_error +
                    "; asap-relaxed: " + relaxed_error;
    return outcome;
}

} // namespace sched
} // namespace longnail

namespace longnail {
namespace sched {

unsigned
sinkZeroDelayOps(LongnailProblem &problem)
{
    size_t n = problem.numOperations();
    std::vector<std::vector<unsigned>> succs(n);
    for (const auto &dep : problem.dependences())
        succs[dep.from].push_back(dep.to);
    std::vector<bool> pinned(n, false);
    for (const auto &dep : problem.chainBreakers()) {
        pinned[dep.from] = true;
        pinned[dep.to] = true;
    }
    unsigned moved = 0;
    // Reverse order: consumers first, so chains of wiring sink as a
    // whole.
    for (size_t i = n; i-- > 0;) {
        Operation &op = problem.operation(unsigned(i));
        const OperatorType &type = problem.operatorTypeOf(op);
        if (pinned[i] || type.latency != 0 || type.outgoingDelay != 0.0)
            continue;
        if (succs[i].empty() || !op.startTime)
            continue;
        int target = std::numeric_limits<int>::max();
        for (unsigned j : succs[i])
            target = std::min(target,
                              problem.operation(j).startTime.value_or(
                                  *op.startTime));
        if (type.latest != noUpperBound)
            target = std::min(target, type.latest);
        if (target > *op.startTime) {
            op.startTime = target;
            ++moved;
        }
    }
    if (moved)
        problem.computeStartTimesInCycle();
    return moved;
}

} // namespace sched
} // namespace longnail
