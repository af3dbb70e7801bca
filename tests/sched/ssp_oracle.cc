/**
 * @file
 * Test-only reference solver: the successive-shortest-paths
 * min-cost-flow dual that sched::solveDifferenceLP() used before its
 * primal-dual rewrite -- one SPFA per augmentation, one path per
 * augmentation, Bellman-Ford primal recovery. Kept as a differential
 * oracle: both solvers must return the same status and the identical
 * point on every instance.
 */

#include "ssp_oracle.hh"

#include <deque>
#include <queue>
#include <tuple>

#include "support/logging.hh"

namespace longnail {
namespace sched {
namespace oracle {

namespace {

constexpr int64_t infCapacity = int64_t(1) << 50;
constexpr int64_t infDistance = int64_t(1) << 60;

/** Min-cost-flow network with explicit reverse edges. */
class FlowNetwork
{
  public:
    explicit FlowNetwork(unsigned num_nodes) : adj_(num_nodes) {}

    struct Edge
    {
        unsigned to;
        int64_t capacity;
        int64_t cost;
        int64_t flow = 0;
    };

    unsigned
    addEdge(unsigned from, unsigned to, int64_t capacity, int64_t cost)
    {
        unsigned id = edges_.size();
        edges_.push_back({to, capacity, cost});
        edges_.push_back({from, 0, -cost});
        adj_[from].push_back(id);
        adj_[to].push_back(id + 1);
        return id;
    }

    int64_t residual(unsigned e) const
    {
        return edges_[e].capacity - edges_[e].flow;
    }

    void
    push(unsigned e, int64_t amount)
    {
        edges_[e].flow += amount;
        edges_[e ^ 1].flow -= amount;
    }

    const Edge &edge(unsigned e) const { return edges_[e]; }
    const std::vector<unsigned> &outEdges(unsigned node) const
    {
        return adj_[node];
    }
    unsigned numNodes() const { return adj_.size(); }

    /**
     * SPFA shortest path from @p source by cost over residual edges.
     * Adds one unit per queue pop to @p work.
     * @return true if @p sink is reachable; fills @p prev_edge.
     */
    bool
    shortestPath(unsigned source, unsigned sink,
                 std::vector<unsigned> &prev_edge, uint64_t &work)
    {
        std::vector<int64_t> dist(numNodes(), infDistance);
        std::vector<bool> in_queue(numNodes(), false);
        prev_edge.assign(numNodes(), ~0u);
        std::deque<unsigned> queue;
        dist[source] = 0;
        queue.push_back(source);
        in_queue[source] = true;
        while (!queue.empty()) {
            unsigned u = queue.front();
            queue.pop_front();
            in_queue[u] = false;
            ++work;
            for (unsigned e : adj_[u]) {
                if (residual(e) <= 0)
                    continue;
                unsigned v = edges_[e].to;
                int64_t nd = dist[u] + edges_[e].cost;
                if (nd < dist[v]) {
                    dist[v] = nd;
                    prev_edge[v] = e;
                    if (!in_queue[v]) {
                        queue.push_back(v);
                        in_queue[v] = true;
                    }
                }
            }
        }
        return dist[sink] < infDistance;
    }

  private:
    std::vector<Edge> edges_;
    std::vector<std::vector<unsigned>> adj_;
};

/**
 * Detect primal infeasibility: contradictory difference constraints
 * form a negative cycle in the shortest-path formulation.
 */
bool
hasNegativeCycle(const DifferenceLP &lp, uint64_t &work)
{
    unsigned n = lp.numVars();
    unsigned ref = n;
    // Edges (u -> v, weight) meaning d_v <= d_u + weight.
    std::vector<std::tuple<unsigned, unsigned, int64_t>> edges;
    for (const auto &c : lp.constraints)
        edges.emplace_back(c.j, c.i, -int64_t(c.c));
    for (unsigned i = 0; i < n; ++i) {
        edges.emplace_back(i, ref, -int64_t(lp.lower[i]));
        if (lp.upper[i] != DifferenceLP::unbounded)
            edges.emplace_back(ref, i, int64_t(lp.upper[i]));
    }
    std::vector<int64_t> dist(n + 1, 0); // virtual source to all
    for (unsigned iter = 0; iter <= n + 1; ++iter) {
        bool changed = false;
        ++work;
        for (const auto &[u, v, w] : edges) {
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

} // namespace

LPResult
solveDifferenceLPBySsp(const DifferenceLP &lp, uint64_t work_limit)
{
    LPResult result;
    auto over_budget = [&]() {
        return work_limit != 0 && result.workUnits > work_limit;
    };
    if (hasNegativeCycle(lp, result.workUnits)) {
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
    FlowNetwork net(n + 3);

    // Dual flow edges. A primal constraint t_j - t_i >= c becomes a
    // flow edge i -> j with cost -c (we maximize sum c*y).
    unsigned num_structural = 0;
    for (const auto &c : lp.constraints) {
        net.addEdge(c.i, c.j, infCapacity, -int64_t(c.c));
        ++num_structural;
    }
    for (unsigned i = 0; i < n; ++i) {
        net.addEdge(ref, i, infCapacity, -int64_t(lp.lower[i]));
        ++num_structural;
        if (lp.upper[i] != DifferenceLP::unbounded) {
            net.addEdge(i, ref, infCapacity, int64_t(lp.upper[i]));
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
            net.addEdge(node, sink, w, 0);
        } else if (w < 0) {
            net.addEdge(source, node, -w, 0);
            total_supply += -w;
        }
    };
    for (unsigned i = 0; i < n; ++i)
        add_balance(i, lp.weights[i]);
    add_balance(ref, ref_weight);

    // Successive shortest paths.
    int64_t routed = 0;
    std::vector<unsigned> prev_edge;
    while (routed < total_supply) {
        if (!net.shortestPath(source, sink, prev_edge,
                              result.workUnits)) {
            result.status = LPResult::Status::Unbounded;
            return result;
        }
        if (over_budget()) {
            result.status = LPResult::Status::BudgetExhausted;
            return result;
        }
        // Bottleneck along the path.
        int64_t bottleneck = total_supply - routed;
        for (unsigned v = sink; v != source;
             v = net.edge(prev_edge[v] ^ 1).to)
            bottleneck = std::min(bottleneck,
                                  net.residual(prev_edge[v]));
        for (unsigned v = sink; v != source;
             v = net.edge(prev_edge[v] ^ 1).to)
            net.push(prev_edge[v], bottleneck);
        routed += bottleneck;
    }

    // Recover the primal solution from residual-network potentials:
    // Bellman-Ford over the residual structural edges (virtual root).
    std::vector<int64_t> dist(n + 1, 0);
    for (unsigned iter = 0; iter <= n + 1; ++iter) {
        bool changed = false;
        for (unsigned e = 0; e < num_structural * 2; ++e) {
            if (net.residual(e) <= 0)
                continue;
            unsigned u = net.edge(e ^ 1).to;
            unsigned v = net.edge(e).to;
            if (u > n || v > n)
                continue;
            if (dist[u] + net.edge(e).cost < dist[v]) {
                dist[v] = dist[u] + net.edge(e).cost;
                changed = true;
            }
        }
        if (!changed)
            break;
        if (iter == n + 1)
            LN_PANIC("negative cycle in optimal residual network");
    }

    result.status = LPResult::Status::Optimal;
    result.values.resize(n);
    result.objective = 0;
    for (unsigned i = 0; i < n; ++i) {
        // Costs on edge i->j are -c; potentials satisfy
        // d_j <= d_i - c, i.e. t = -d meets t_j - t_i >= c.
        result.values[i] = int(dist[ref] - dist[i]);
        result.objective += lp.weights[i] * result.values[i];
    }
    return result;
}

} // namespace oracle
} // namespace sched
} // namespace longnail
