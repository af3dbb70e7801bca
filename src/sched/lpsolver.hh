/**
 * @file
 * Exact solver for linear programs over difference constraints:
 *
 *   minimize   sum_i w_i * t_i
 *   subject to t_j - t_i >= c_e          (constraint edges)
 *              lo_i <= t_i <= hi_i
 *
 * This is the class the Fig. 7 ILP reduces to once the lifetime
 * variables are substituted (l_ij = t_j - t_i at any optimum, because
 * latencies are non-negative). The constraint matrix is totally
 * unimodular, so the LP optimum is integral: the solver returns the
 * same optima CBC would for the ILP (see DESIGN.md).
 *
 * Implementation: LP duality turns the problem into an uncapacitated
 * min-cost flow with node supplies, solved primal-dual. The potentials
 * start at the Bellman-Ford feasibility point; each phase runs one
 * Dijkstra on reduced costs and then Dinic blocking flows over the
 * zero-reduced-cost residual subgraph. The optimal primal values are
 * recovered from the potentials of the final residual network.
 */

#ifndef LONGNAIL_SCHED_LPSOLVER_HH
#define LONGNAIL_SCHED_LPSOLVER_HH

#include <cstdint>
#include <limits>
#include <vector>

namespace longnail {
namespace sched {

/** A difference-constraint LP instance. */
struct DifferenceLP
{
    static constexpr int unbounded = std::numeric_limits<int>::max();

    /** t[j] - t[i] >= c */
    struct Constraint
    {
        unsigned i = 0;
        unsigned j = 0;
        int c = 0;
    };

    explicit DifferenceLP(unsigned num_vars = 0)
        : weights(num_vars, 0), lower(num_vars, 0),
          upper(num_vars, unbounded)
    {}

    unsigned numVars() const { return weights.size(); }
    void
    addConstraint(unsigned i, unsigned j, int c)
    {
        constraints.push_back({i, j, c});
    }

    std::vector<int64_t> weights;
    std::vector<int> lower;
    std::vector<int> upper;
    std::vector<Constraint> constraints;
};

/** Solver outcome. */
struct LPResult
{
    enum class Status { Optimal, Infeasible, Unbounded, BudgetExhausted };

    Status status = Status::Infeasible;
    std::vector<int> values;
    int64_t objective = 0;
    /**
     * Deterministic work units spent: one per Bellman-Ford feasibility
     * round, per Dijkstra heap pop and per admissible-arc scan of the
     * blocking flows.
     */
    uint64_t workUnits = 0;
    /** Primal-dual phases run (one Dijkstra each). */
    uint64_t phases = 0;
    /** Augmenting paths routed by the blocking flows. */
    uint64_t augmentations = 0;
};

/**
 * Solve @p lp exactly. @p work_limit bounds the solver's deterministic
 * work counter (0 = unlimited); when the limit is hit the result status
 * is BudgetExhausted and no values are produced, letting callers fall
 * back to a heuristic scheduler instead of waiting on a pathological
 * instance. The limit is polled after the feasibility check, after
 * every Dijkstra and after every blocking flow, so a solve overruns it
 * by at most one such step; the final primal-recovery Dijkstra is
 * counted but not polled.
 */
LPResult solveDifferenceLP(const DifferenceLP &lp,
                           uint64_t work_limit = 0);

} // namespace sched
} // namespace longnail

#endif // LONGNAIL_SCHED_LPSOLVER_HH
