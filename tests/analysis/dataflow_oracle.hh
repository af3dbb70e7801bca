/**
 * @file
 * Reference dataflow engine for the differential tests: the original
 * pointer-keyed implementation of analysis::SparseDataflow, with
 * std::map states and user/def lists and a std::set worklist (lowest
 * index first going forward, highest first going backward). The dense
 * engine in analysis/dataflow.hh must produce identical states on
 * every graph.
 */

#ifndef LONGNAIL_TESTS_ANALYSIS_DATAFLOW_ORACLE_HH
#define LONGNAIL_TESTS_ANALYSIS_DATAFLOW_ORACLE_HH

#include <iterator>
#include <map>
#include <set>
#include <vector>

#include "analysis/dataflow.hh"

namespace longnail {
namespace analysis {
namespace oracle {

template <typename State>
class MapDataflow
{
  public:
    MapDataflow(const Lattice<State> &lattice, Direction direction)
        : lattice_(lattice), direction_(direction)
    {}

    std::map<const ir::Value *, State>
    run(const ir::Graph &graph)
    {
        ops_.clear();
        collect(graph);
        return direction_ == Direction::Forward ? runForward()
                                                : runBackward();
    }

  private:
    State
    stateOf(const std::map<const ir::Value *, State> &states,
            const ir::Value *v) const
    {
        auto it = states.find(v);
        return it != states.end() ? it->second : lattice_.top(*v);
    }

    std::map<const ir::Value *, State>
    runForward()
    {
        std::map<const ir::Value *, std::vector<size_t>> users;
        for (size_t i = 0; i < ops_.size(); ++i)
            for (const ir::Value *v : ops_[i]->operands())
                users[v].push_back(i);

        std::map<const ir::Value *, State> states;
        std::set<size_t> worklist;
        for (size_t i = 0; i < ops_.size(); ++i)
            worklist.insert(i);

        while (!worklist.empty()) {
            size_t idx = *worklist.begin();
            worklist.erase(worklist.begin());
            const ir::Operation &op = *ops_[idx];

            std::vector<State> operand_states;
            for (const ir::Value *v : op.operands())
                operand_states.push_back(stateOf(states, v));

            std::vector<State> results =
                lattice_.transfer(op, operand_states);
            for (unsigned r = 0;
                 r < op.numResults() && r < results.size(); ++r) {
                const ir::Value *v = op.result(r);
                State merged = results[r];
                auto it = states.find(v);
                if (it != states.end()) {
                    merged = lattice_.join(it->second, merged);
                    if (lattice_.equal(it->second, merged))
                        continue;
                    it->second = merged;
                } else {
                    states.emplace(v, merged);
                }
                for (size_t user : users[v])
                    worklist.insert(user);
            }
        }
        return states;
    }

    std::map<const ir::Value *, State>
    runBackward()
    {
        std::map<const ir::Value *, size_t> def;
        for (size_t i = 0; i < ops_.size(); ++i)
            for (unsigned r = 0; r < ops_[i]->numResults(); ++r)
                def[ops_[i]->result(r)] = i;

        std::map<const ir::Value *, State> states;
        std::set<size_t> worklist;
        for (size_t i = 0; i < ops_.size(); ++i)
            worklist.insert(i);

        while (!worklist.empty()) {
            auto last = std::prev(worklist.end());
            size_t idx = *last;
            worklist.erase(last);
            const ir::Operation &op = *ops_[idx];

            std::vector<State> result_states;
            for (unsigned r = 0; r < op.numResults(); ++r)
                result_states.push_back(stateOf(states, op.result(r)));

            std::vector<State> demands =
                lattice_.transferBackward(op, result_states);
            for (unsigned i = 0;
                 i < op.numOperands() && i < demands.size(); ++i) {
                const ir::Value *v = op.operand(i);
                State merged = demands[i];
                auto it = states.find(v);
                if (it != states.end()) {
                    merged = lattice_.join(it->second, merged);
                    if (lattice_.equal(it->second, merged))
                        continue;
                    it->second = merged;
                } else {
                    if (lattice_.equal(merged, lattice_.top(*v)))
                        continue;
                    states.emplace(v, merged);
                }
                auto d = def.find(v);
                if (d != def.end())
                    worklist.insert(d->second);
            }
        }
        return states;
    }

    void
    collect(const ir::Graph &graph)
    {
        for (const auto &op : graph.ops()) {
            ops_.push_back(op.get());
            if (op->subgraph())
                collect(*op->subgraph());
        }
    }

    const Lattice<State> &lattice_;
    Direction direction_;
    std::vector<const ir::Operation *> ops_;
};

} // namespace oracle
} // namespace analysis
} // namespace longnail

#endif // LONGNAIL_TESTS_ANALYSIS_DATAFLOW_ORACLE_HH
