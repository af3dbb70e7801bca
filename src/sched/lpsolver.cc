#include "sched/lpsolver.hh"

#include <algorithm>
#include <functional>
#include <tuple>
#include <utility>

namespace longnail {
namespace sched {

namespace {

constexpr int64_t infCapacity = int64_t(1) << 50;
constexpr int64_t infDistance = int64_t(1) << 60;

/**
 * Detect primal infeasibility: contradictory difference constraints
 * form a negative cycle in the shortest-path formulation. When the
 * check converges (no cycle), @p dist holds shortest distances from a
 * virtual root over nodes 0..n (n = the reference node); t_i =
 * dist[i] - dist[n] is then a feasible point.
 */
bool
hasNegativeCycle(const DifferenceLP &lp, uint64_t &work,
                 std::vector<int64_t> &dist)
{
    unsigned n = lp.numVars();
    unsigned ref = n;
    // Edges (u -> v, weight) meaning d_v <= d_u + weight.
    std::vector<std::tuple<unsigned, unsigned, int64_t>> edges;
    edges.reserve(lp.constraints.size() + 2 * n);
    for (const auto &c : lp.constraints)
        edges.emplace_back(c.j, c.i, -int64_t(c.c));
    for (unsigned i = 0; i < n; ++i) {
        edges.emplace_back(i, ref, -int64_t(lp.lower[i]));
        if (lp.upper[i] != DifferenceLP::unbounded)
            edges.emplace_back(ref, i, int64_t(lp.upper[i]));
    }
    dist.assign(n + 1, 0); // virtual source to all
    for (unsigned iter = 0; iter <= n + 1; ++iter) {
        bool changed = false;
        ++work;
        // Constraints usually arrive in topological order and their
        // edges point against it, so a reverse sweep settles the
        // constraint edges of a DAG in one round.
        for (auto it = edges.rbegin(); it != edges.rend(); ++it) {
            const auto &[u, v, w] = *it;
            if (dist[u] + w < dist[v]) {
                dist[v] = dist[u] + w;
                changed = true;
            }
        }
        if (!changed)
            return false;
    }
    return true;
}

/**
 * Primal-dual min-cost flow over a residual network in compressed
 * adjacency form. Edge e and e ^ 1 are an arc and its reverse. Every
 * buffer is sized once per solve and reused across phases.
 */
class PrimalDual
{
  public:
    PrimalDual(unsigned num_nodes, size_t num_arcs, uint64_t &work)
        : pot_(num_nodes, 0), first_(num_nodes + 1, 0), work_(work)
    {
        head_.reserve(2 * num_arcs);
        res_.reserve(2 * num_arcs);
        cost_.reserve(2 * num_arcs);
    }

    void
    addArc(unsigned from, unsigned to, int64_t capacity, int64_t cost)
    {
        head_.push_back(to);
        res_.push_back(capacity);
        cost_.push_back(cost);
        head_.push_back(from);
        res_.push_back(0);
        cost_.push_back(-cost);
    }

    /** Build the adjacency index and size the per-phase buffers. */
    void
    finalize()
    {
        unsigned num_nodes = pot_.size();
        for (unsigned e = 0; e < head_.size(); ++e)
            ++first_[tail(e) + 1];
        for (unsigned v = 0; v < num_nodes; ++v)
            first_[v + 1] += first_[v];
        adj_.resize(head_.size());
        std::vector<unsigned> fill(first_.begin(), first_.end() - 1);
        for (unsigned e = 0; e < head_.size(); ++e)
            adj_[fill[tail(e)]++] = e;
        dist_.resize(num_nodes);
        level_.resize(num_nodes);
        cur_.resize(num_nodes);
        heap_.reserve(num_nodes);
        queue_.reserve(num_nodes);
    }

    std::vector<int64_t> &potentials() { return pot_; }

    /**
     * One Dijkstra from @p source on reduced costs; raises every
     * potential by its distance capped at the sink's, which keeps all
     * residual reduced costs non-negative and makes the shortest
     * source-sink paths zero-reduced-cost.
     * @return false if @p sink is unreachable.
     */
    bool
    dijkstra(unsigned source, unsigned sink)
    {
        std::fill(dist_.begin(), dist_.end(), infDistance);
        heap_.clear();
        dist_[source] = 0;
        heap_.emplace_back(0, source);
        settle(dist_, head_.size());
        int64_t cap = dist_[sink];
        if (cap >= infDistance)
            return false;
        for (unsigned v = 0; v < pot_.size(); ++v)
            pot_[v] += std::min(dist_[v], cap);
        return true;
    }

    /**
     * BFS levels from @p source over the admissible (residual,
     * zero-reduced-cost) arcs.
     * @return true if @p sink is reachable.
     */
    bool
    buildLevels(unsigned source, unsigned sink)
    {
        std::fill(level_.begin(), level_.end(), -1);
        queue_.clear();
        level_[source] = 0;
        queue_.push_back(source);
        for (size_t q = 0; q < queue_.size(); ++q) {
            unsigned u = queue_[q];
            // Arcs out of the sink's level cannot lie on a shortest
            // augmenting path.
            if (level_[sink] >= 0 && level_[u] >= level_[sink])
                break;
            for (unsigned s = first_[u]; s < first_[u + 1]; ++s) {
                unsigned e = adj_[s];
                if (!admissible(u, e))
                    continue;
                ++work_;
                unsigned v = head_[e];
                if (level_[v] < 0) {
                    level_[v] = level_[u] + 1;
                    queue_.push_back(v);
                }
            }
        }
        return level_[sink] >= 0;
    }

    /**
     * Dinic blocking flow over the level graph: iterative DFS with
     * current-arc pointers, so the depth is not bounded by the stack.
     * @return the amount routed; @p augmentations counts the paths.
     */
    int64_t
    blockingFlow(unsigned source, unsigned sink, uint64_t &augmentations)
    {
        std::copy(first_.begin(), first_.end() - 1, cur_.begin());
        path_.clear();
        int64_t routed = 0;
        unsigned u = source;
        for (;;) {
            if (u == sink) {
                int64_t bottleneck = infDistance;
                for (unsigned e : path_)
                    bottleneck = std::min(bottleneck, res_[e]);
                for (unsigned e : path_) {
                    res_[e] -= bottleneck;
                    res_[e ^ 1] += bottleneck;
                }
                routed += bottleneck;
                ++augmentations;
                // Retreat to the tail of the first saturated arc.
                size_t k = 0;
                while (res_[path_[k]] > 0)
                    ++k;
                u = tail(path_[k]);
                path_.resize(k);
                continue;
            }
            bool advanced = false;
            for (; cur_[u] < first_[u + 1]; ++cur_[u]) {
                unsigned e = adj_[cur_[u]];
                if (!admissible(u, e))
                    continue;
                ++work_;
                if (level_[head_[e]] != level_[u] + 1)
                    continue;
                path_.push_back(e);
                u = head_[e];
                advanced = true;
                break;
            }
            if (advanced)
                continue;
            // Dead end: prune u from the level graph and back off.
            level_[u] = -1;
            if (path_.empty())
                break;
            u = tail(path_.back());
            path_.pop_back();
            ++cur_[u];
        }
        return routed;
    }

    /**
     * Shortest distances from a virtual root (zero-cost arcs to every
     * node below @p num_nodes) over the residual arcs with ids below
     * @p num_arc_ids, by multi-source Dijkstra on reduced costs.
     */
    std::vector<int64_t>
    rootDistances(unsigned num_nodes, unsigned num_arc_ids)
    {
        // key[v] = D[v] - pot[v]; the root arcs seed key[v] = -pot[v].
        std::vector<int64_t> key(num_nodes);
        heap_.clear();
        for (unsigned v = 0; v < num_nodes; ++v) {
            key[v] = -pot_[v];
            heap_.emplace_back(key[v], v);
        }
        std::make_heap(heap_.begin(), heap_.end(), std::greater<>());
        settle(key, num_arc_ids);
        for (unsigned v = 0; v < num_nodes; ++v)
            key[v] += pot_[v];
        return key;
    }

  private:
    /**
     * Dijkstra on reduced costs from the labels in @p dist and the
     * entries already on the heap, over residual arcs with ids below
     * @p num_arc_ids.
     */
    void
    settle(std::vector<int64_t> &dist, unsigned num_arc_ids)
    {
        while (!heap_.empty()) {
            std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
            auto [d, u] = heap_.back();
            heap_.pop_back();
            ++work_;
            if (d > dist[u])
                continue;
            for (unsigned s = first_[u]; s < first_[u + 1]; ++s) {
                unsigned e = adj_[s];
                if (e >= num_arc_ids || res_[e] <= 0)
                    continue;
                unsigned v = head_[e];
                int64_t nd = d + reducedCost(u, e);
                if (nd < dist[v]) {
                    dist[v] = nd;
                    heap_.emplace_back(nd, v);
                    std::push_heap(heap_.begin(), heap_.end(),
                                   std::greater<>());
                }
            }
        }
    }

    unsigned tail(unsigned e) const { return head_[e ^ 1]; }
    int64_t
    reducedCost(unsigned u, unsigned e) const
    {
        return cost_[e] + pot_[u] - pot_[head_[e]];
    }
    bool
    admissible(unsigned u, unsigned e) const
    {
        return res_[e] > 0 && reducedCost(u, e) == 0;
    }

    std::vector<unsigned> head_;
    std::vector<int64_t> res_;
    std::vector<int64_t> cost_;
    std::vector<int64_t> pot_;
    std::vector<unsigned> first_;
    std::vector<unsigned> adj_;

    std::vector<int64_t> dist_;
    std::vector<std::pair<int64_t, unsigned>> heap_;
    std::vector<int> level_;
    std::vector<unsigned> queue_;
    std::vector<unsigned> cur_;
    std::vector<unsigned> path_;
    uint64_t &work_;
};

} // namespace

LPResult
solveDifferenceLP(const DifferenceLP &lp, uint64_t work_limit)
{
    LPResult result;
    auto over_budget = [&]() {
        return work_limit != 0 && result.workUnits > work_limit;
    };
    std::vector<int64_t> feasible;
    if (hasNegativeCycle(lp, result.workUnits, feasible)) {
        result.status = LPResult::Status::Infeasible;
        return result;
    }
    if (over_budget()) {
        result.status = LPResult::Status::BudgetExhausted;
        return result;
    }

    unsigned n = lp.numVars();
    unsigned ref = n;
    unsigned source = n + 1;
    unsigned sink = n + 2;
    PrimalDual net(n + 3, lp.constraints.size() + 3 * size_t(n) + 1,
                   result.workUnits);

    // Dual flow arcs. A primal constraint t_j - t_i >= c becomes a
    // flow arc i -> j with cost -c (we maximize sum c*y).
    unsigned num_structural = 0;
    for (const auto &c : lp.constraints) {
        net.addArc(c.i, c.j, infCapacity, -int64_t(c.c));
        ++num_structural;
    }
    for (unsigned i = 0; i < n; ++i) {
        net.addArc(ref, i, infCapacity, -int64_t(lp.lower[i]));
        ++num_structural;
        if (lp.upper[i] != DifferenceLP::unbounded) {
            net.addArc(i, ref, infCapacity, int64_t(lp.upper[i]));
            ++num_structural;
        }
    }

    // Node balances: inflow - outflow must equal the objective weight.
    int64_t ref_weight = 0;
    for (unsigned i = 0; i < n; ++i)
        ref_weight -= lp.weights[i];
    int64_t total_supply = 0;
    auto add_balance = [&](unsigned node, int64_t w) {
        if (w > 0) {
            net.addArc(node, sink, w, 0);
        } else if (w < 0) {
            net.addArc(source, node, -w, 0);
            total_supply += -w;
        }
    };
    for (unsigned i = 0; i < n; ++i)
        add_balance(i, lp.weights[i]);
    add_balance(ref, ref_weight);
    net.finalize();

    // Initial potentials p = -t at the feasibility point: every
    // structural arc then has a non-negative reduced cost. The source
    // sits above and the sink below every other node.
    std::vector<int64_t> &pot = net.potentials();
    int64_t hi = 0;
    int64_t lo = 0;
    for (unsigned v = 0; v <= n; ++v) {
        pot[v] = feasible[ref] - feasible[v];
        hi = std::max(hi, pot[v]);
        lo = std::min(lo, pot[v]);
    }
    pot[source] = hi;
    pot[sink] = lo;

    int64_t routed = 0;
    while (routed < total_supply) {
        ++result.phases;
        if (!net.dijkstra(source, sink)) {
            result.status = LPResult::Status::Unbounded;
            return result;
        }
        if (over_budget()) {
            result.status = LPResult::Status::BudgetExhausted;
            return result;
        }
        while (net.buildLevels(source, sink)) {
            routed += net.blockingFlow(source, sink, result.augmentations);
            if (over_budget()) {
                result.status = LPResult::Status::BudgetExhausted;
                return result;
            }
        }
    }

    // Recover the primal solution: shortest distances from a virtual
    // root over the residual structural arcs. The final potentials make
    // their reduced costs non-negative, so Dijkstra suffices. The set of
    // optimal duals does not depend on which optimal flow was found, so
    // neither does this point.
    std::vector<int64_t> dist = net.rootDistances(n + 1,
                                                  2 * num_structural);
    result.status = LPResult::Status::Optimal;
    result.values.resize(n);
    result.objective = 0;
    for (unsigned i = 0; i < n; ++i) {
        // Costs on arc i->j are -c; distances satisfy d_j <= d_i - c,
        // i.e. t = -d meets t_j - t_i >= c.
        result.values[i] = int(dist[ref] - dist[i]);
        result.objective += lp.weights[i] * result.values[i];
    }
    return result;
}

} // namespace sched
} // namespace longnail
