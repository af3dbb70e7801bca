/**
 * @file
 * A small bidirectional sparse dataflow engine over behavior graphs,
 * plus the lattices the lint checks and optimization passes are built
 * on (docs/static-analysis.md, docs/pass-pipeline.md).
 *
 * Behaviors are straight-line SSA, so "dataflow" here is a sparse
 * fixpoint over the SSA value graph. A forward analysis drains a
 * worklist of operations front-to-back: each op's transfer function
 * maps operand states to result states and users of changed values are
 * re-queued. A backward analysis drains the worklist back-to-front
 * over use-def edges: each op's backward transfer maps the states of
 * its results to the demand it places on its operands, and the
 * *defining* op of a changed operand is re-queued. Ops without results
 * (interface writes, terminators) are the roots of a backward
 * analysis: they are transferred with an empty result-state vector and
 * seed the fixpoint. Spawn subgraphs are analyzed together with their
 * enclosing graph (their operands may reference outer values).
 *
 * A lattice plugs in through the Lattice<State> interface: top(),
 * join(), equal() and the per-op transfer() / transferBackward().
 * States must form a finite-height semilattice under join for
 * termination.
 */

#ifndef LONGNAIL_ANALYSIS_DATAFLOW_HH
#define LONGNAIL_ANALYSIS_DATAFLOW_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "ir/ir.hh"
#include "support/apint.hh"

namespace longnail {
namespace analysis {

/** Propagation direction of a sparse dataflow run. */
enum class Direction
{
    Forward,  ///< def-use edges: operand states -> result states
    Backward, ///< use-def edges: result states -> operand demands
};

/** The abstract-domain interface of the dataflow engine. */
template <typename State>
class Lattice
{
  public:
    virtual ~Lattice() = default;

    /** The initial (most optimistic reachable) state for @p value. */
    virtual State top(const ir::Value &value) const = 0;

    /** Least upper bound of two states. */
    virtual State join(const State &a, const State &b) const = 0;

    virtual bool equal(const State &a, const State &b) const = 0;

    /**
     * Abstractly execute @p op on @p operand_states (one entry per
     * operand, in order). Must return one state per result. Only
     * called for Direction::Forward runs; the default keeps every
     * result at top so backward-only lattices need not override it.
     */
    virtual std::vector<State>
    transfer(const ir::Operation &op,
             const std::vector<State> & /*operand_states*/) const
    {
        std::vector<State> out;
        out.reserve(op.numResults());
        for (unsigned r = 0; r < op.numResults(); ++r)
            out.push_back(top(*op.result(r)));
        return out;
    }

    /**
     * Abstract reverse execution of @p op: given the joined states of
     * its results (one entry per result; empty for result-less ops,
     * which root the analysis), return the contribution @p op makes to
     * each operand's state (one entry per operand). Contributions are
     * *joined* into the operand states across all users. Only called
     * for Direction::Backward runs; the default contributes nothing
     * (an empty vector leaves every operand untouched).
     */
    virtual std::vector<State>
    transferBackward(const ir::Operation &op,
                     const std::vector<State> &result_states) const
    {
        (void)op;
        (void)result_states;
        return {};
    }
};

/**
 * The final per-value states of a dataflow run, sorted by value
 * address and looked up with a map-like find(). A value without an
 * entry is at top: forward runs record every transferred result,
 * backward runs only demands that left top.
 */
template <typename State>
class ValueStates
{
  public:
    using Entry = std::pair<const ir::Value *, State>;
    using const_iterator = typename std::vector<Entry>::const_iterator;

    explicit ValueStates(std::vector<Entry> entries)
        : entries_(std::move(entries))
    {}

    const_iterator begin() const { return entries_.begin(); }
    const_iterator end() const { return entries_.end(); }
    size_t size() const { return entries_.size(); }

    const_iterator
    find(const ir::Value *v) const
    {
        auto it = std::lower_bound(
            entries_.begin(), entries_.end(), v,
            [](const Entry &e, const ir::Value *key) {
                return std::less<const ir::Value *>()(e.first, key);
            });
        return it != entries_.end() && it->first == v ? it
                                                      : entries_.end();
    }

  private:
    std::vector<Entry> entries_;
};

/**
 * Runs a lattice to fixpoint over one graph (including spawn
 * subgraphs) and returns the final per-value states.
 *
 * Each run numbers its ops (graph order, a spawn subgraph right after
 * its op) and the values they define or read (slots, in address
 * order), so operand/result slots, user and def lists and the states
 * themselves live in flat vectors. The worklist is a heap of op
 * indices plus queued flags that pops the lowest index going forward
 * and the highest going backward.
 */
template <typename State>
class SparseDataflow
{
  public:
    SparseDataflow(const Lattice<State> &lattice, Direction direction)
        : lattice_(lattice), direction_(direction)
    {}

    ValueStates<State>
    run(const ir::Graph &graph)
    {
        number(graph);
        if (direction_ == Direction::Forward)
            runForward();
        else
            runBackward();

        std::vector<typename ValueStates<State>::Entry> entries;
        for (size_t s = 0; s < values_.size(); ++s)
            if (states_[s])
                entries.emplace_back(values_[s], std::move(*states_[s]));
        return ValueStates<State>(std::move(entries));
    }

  private:
    static constexpr uint32_t noDef = UINT32_MAX;

    /** Pending op indices; Before orders the heap (std::greater pops
     * the lowest index, std::less the highest). */
    template <typename Before>
    class Worklist
    {
      public:
        /** Queue every op. */
        explicit Worklist(size_t num_ops) : queued_(num_ops, 1)
        {
            heap_.resize(num_ops);
            for (size_t i = 0; i < num_ops; ++i)
                heap_[i] = uint32_t(i);
            std::make_heap(heap_.begin(), heap_.end(), Before());
        }

        bool empty() const { return heap_.empty(); }

        void
        push(uint32_t idx)
        {
            if (queued_[idx])
                return;
            queued_[idx] = 1;
            heap_.push_back(idx);
            std::push_heap(heap_.begin(), heap_.end(), Before());
        }

        uint32_t
        pop()
        {
            std::pop_heap(heap_.begin(), heap_.end(), Before());
            uint32_t idx = heap_.back();
            heap_.pop_back();
            queued_[idx] = 0;
            return idx;
        }

      private:
        std::vector<uint32_t> heap_;
        std::vector<char> queued_;
    };

    void
    number(const ir::Graph &graph)
    {
        ops_.clear();
        collect(graph);

        values_.clear();
        for (const ir::Operation *op : ops_) {
            for (unsigned r = 0; r < op->numResults(); ++r)
                values_.push_back(op->result(r));
            for (const ir::Value *v : op->operands())
                values_.push_back(v);
        }
        std::less<const ir::Value *> before;
        std::sort(values_.begin(), values_.end(), before);
        values_.erase(std::unique(values_.begin(), values_.end()),
                      values_.end());
        auto slotOf = [&](const ir::Value *v) {
            return uint32_t(std::lower_bound(values_.begin(),
                                             values_.end(), v, before) -
                            values_.begin());
        };

        operandBegin_.assign(1, 0);
        operandSlots_.clear();
        resultBegin_.assign(1, 0);
        resultSlots_.clear();
        def_.assign(values_.size(), noDef);
        for (size_t i = 0; i < ops_.size(); ++i) {
            for (const ir::Value *v : ops_[i]->operands())
                operandSlots_.push_back(slotOf(v));
            for (unsigned r = 0; r < ops_[i]->numResults(); ++r) {
                uint32_t slot = slotOf(ops_[i]->result(r));
                resultSlots_.push_back(slot);
                def_[slot] = uint32_t(i);
            }
            operandBegin_.push_back(uint32_t(operandSlots_.size()));
            resultBegin_.push_back(uint32_t(resultSlots_.size()));
        }
        states_.assign(values_.size(), std::nullopt);
    }

    State
    stateOf(uint32_t slot) const
    {
        return states_[slot] ? *states_[slot]
                             : lattice_.top(*values_[slot]);
    }

    /**
     * Monotone update of @p slot with @p incoming: join into a present
     * state (never moving back up the lattice). A first state is
     * recorded as is, except that backward runs leave a demand equal
     * to top unrecorded. Returns whether the state changed.
     */
    bool
    update(uint32_t slot, State incoming)
    {
        std::optional<State> &cur = states_[slot];
        if (cur) {
            State merged = lattice_.join(*cur, incoming);
            if (lattice_.equal(*cur, merged))
                return false;
            *cur = std::move(merged);
            return true;
        }
        if (direction_ == Direction::Backward &&
            lattice_.equal(incoming, lattice_.top(*values_[slot])))
            return false;
        cur = std::move(incoming);
        return true;
    }

    void
    runForward()
    {
        // Users of each slot (CSR), so only affected transfers re-run
        // after a state change.
        std::vector<uint32_t> user_begin(values_.size() + 1, 0);
        for (uint32_t slot : operandSlots_)
            ++user_begin[slot + 1];
        for (size_t s = 0; s < values_.size(); ++s)
            user_begin[s + 1] += user_begin[s];
        std::vector<uint32_t> users(operandSlots_.size());
        std::vector<uint32_t> fill(user_begin.begin(),
                                   user_begin.end() - 1);
        for (size_t i = 0; i < ops_.size(); ++i)
            for (uint32_t k = operandBegin_[i]; k < operandBegin_[i + 1];
                 ++k)
                users[fill[operandSlots_[k]]++] = uint32_t(i);

        // Lowest index first: seeded in graph order, the first sweep
        // sees operand states already computed (def-before-use).
        Worklist<std::greater<uint32_t>> work(ops_.size());
        std::vector<State> operand_states;
        while (!work.empty()) {
            uint32_t idx = work.pop();
            const ir::Operation &op = *ops_[idx];

            operand_states.clear();
            for (uint32_t k = operandBegin_[idx];
                 k < operandBegin_[idx + 1]; ++k)
                operand_states.push_back(stateOf(operandSlots_[k]));

            std::vector<State> results =
                lattice_.transfer(op, operand_states);
            for (unsigned r = 0;
                 r < op.numResults() && r < results.size(); ++r) {
                uint32_t slot = resultSlots_[resultBegin_[idx] + r];
                if (!update(slot, std::move(results[r])))
                    continue;
                for (uint32_t u = user_begin[slot];
                     u < user_begin[slot + 1]; ++u)
                    work.push(users[u]);
            }
        }
    }

    void
    runBackward()
    {
        // Highest index first: uses are visited before defs, so the
        // first sweep already sees each result's full demand. A changed
        // operand demand re-queues exactly its defining op.
        Worklist<std::less<uint32_t>> work(ops_.size());
        std::vector<State> result_states;
        while (!work.empty()) {
            uint32_t idx = work.pop();
            const ir::Operation &op = *ops_[idx];

            result_states.clear();
            for (uint32_t k = resultBegin_[idx]; k < resultBegin_[idx + 1];
                 ++k)
                result_states.push_back(stateOf(resultSlots_[k]));

            std::vector<State> demands =
                lattice_.transferBackward(op, result_states);
            for (unsigned i = 0;
                 i < op.numOperands() && i < demands.size(); ++i) {
                uint32_t slot = operandSlots_[operandBegin_[idx] + i];
                if (update(slot, std::move(demands[i])) &&
                    def_[slot] != noDef)
                    work.push(def_[slot]);
            }
        }
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
    /** Slot -> value, in address order. */
    std::vector<const ir::Value *> values_;
    /** Per op i: operand slots [operandBegin_[i], operandBegin_[i+1])
     * of operandSlots_, result slots likewise. */
    std::vector<uint32_t> operandBegin_, operandSlots_;
    std::vector<uint32_t> resultBegin_, resultSlots_;
    /** Slot -> defining op index (noDef for values defined outside). */
    std::vector<uint32_t> def_;
    std::vector<std::optional<State>> states_;
};

/** The classic forward engine, now a thin wrapper over SparseDataflow. */
template <typename State>
class ForwardDataflow : public SparseDataflow<State>
{
  public:
    explicit ForwardDataflow(const Lattice<State> &lattice)
        : SparseDataflow<State>(lattice, Direction::Forward)
    {}
};

/** Backward counterpart, propagating demands over use-def edges. */
template <typename State>
class BackwardDataflow : public SparseDataflow<State>
{
  public:
    explicit BackwardDataflow(const Lattice<State> &lattice)
        : SparseDataflow<State>(lattice, Direction::Backward)
    {}
};

// --------------------------------------------------------------------
// Constant/range lattice
// --------------------------------------------------------------------

/**
 * Abstract value of the constant/range analysis: an optional exact
 * constant plus unsigned bounds on the raw bits. Bounds are exact for
 * widths up to 64 and saturate to [0, UINT64_MAX] beyond that.
 */
struct ValueRange
{
    std::optional<ApInt> constant;
    uint64_t umin = 0;
    uint64_t umax = UINT64_MAX;

    /** Saturated maximum raw value of a @p width-bit wire. */
    static uint64_t maxFor(unsigned width);
    static ValueRange full(unsigned width);
    static ValueRange exact(const ApInt &value);

    bool isConstZero() const
    {
        return constant && constant->isZero();
    }
    bool operator==(const ValueRange &rhs) const;
};

/** Constant propagation + unsigned range tracking over both levels. */
class RangeLattice : public Lattice<ValueRange>
{
  public:
    ValueRange top(const ir::Value &value) const override;
    ValueRange join(const ValueRange &a,
                    const ValueRange &b) const override;
    bool equal(const ValueRange &a, const ValueRange &b) const override;
    std::vector<ValueRange>
    transfer(const ir::Operation &op,
             const std::vector<ValueRange> &operands) const override;
};

/** Convenience: solve the range lattice over @p graph. */
ValueStates<ValueRange>
computeRanges(const ir::Graph &graph);

/**
 * Decide an icmp given operand ranges: returns the comparison outcome
 * when the ranges prove it, nullopt otherwise. Signed predicates are
 * only decided for exact constants.
 */
std::optional<bool> icmpOutcome(ir::ICmpPred pred, const ValueRange &lhs,
                                const ValueRange &rhs);

// --------------------------------------------------------------------
// Demanded-bits lattice (backward)
// --------------------------------------------------------------------

/**
 * Abstract value of the demanded-bits analysis: a mask as wide as the
 * value with a 1 wherever some observable behavior (an interface
 * write, a memory access, ...) may depend on that bit. Top is the
 * all-zero mask — nothing demanded — and join is bitwise OR, so the
 * analysis starts optimistic and only bits with a concrete use-chain
 * to an observable end up set. A value whose mask has k < width active
 * bits can be narrowed to k bits without changing any observable.
 */
struct DemandedBits
{
    ApInt mask = ApInt(1, 0);

    static DemandedBits none(unsigned width)
    {
        return DemandedBits{ApInt(width, 0)};
    }
    static DemandedBits all(unsigned width)
    {
        return DemandedBits{ApInt::allOnes(width)};
    }

    bool anyDemanded() const { return !mask.isZero(); }
    bool operator==(const DemandedBits &rhs) const = default;
};

/**
 * Backward lattice computing which bits of each value can influence
 * an observable effect. Conservative for operations without a precise
 * rule (they demand every bit of every operand).
 */
class DemandedBitsLattice : public Lattice<DemandedBits>
{
  public:
    DemandedBits top(const ir::Value &value) const override;
    DemandedBits join(const DemandedBits &a,
                      const DemandedBits &b) const override;
    bool equal(const DemandedBits &a,
               const DemandedBits &b) const override;
    std::vector<DemandedBits>
    transferBackward(const ir::Operation &op,
                     const std::vector<DemandedBits> &results)
        const override;
};

/** Convenience: solve the demanded-bits lattice over @p graph. */
ValueStates<DemandedBits>
computeDemandedBits(const ir::Graph &graph);

// --------------------------------------------------------------------
// Definite-initialization lattice
// --------------------------------------------------------------------

/**
 * Tracks whether a value may depend on an uninitialized source (e.g.
 * the read of a never-written custom register). Two-point lattice:
 * initialized (top) / maybe-uninitialized.
 */
struct InitState
{
    bool maybeUninit = false;

    bool operator==(const InitState &rhs) const = default;
};

class InitLattice : public Lattice<InitState>
{
  public:
    /** @p uninit_sources: ops whose results are uninitialized reads. */
    explicit InitLattice(std::set<const ir::Operation *> uninit_sources)
        : uninitSources_(std::move(uninit_sources))
    {}

    InitState top(const ir::Value &value) const override;
    InitState join(const InitState &a, const InitState &b) const override;
    bool equal(const InitState &a, const InitState &b) const override;
    std::vector<InitState>
    transfer(const ir::Operation &op,
             const std::vector<InitState> &operands) const override;

  private:
    std::set<const ir::Operation *> uninitSources_;
};

} // namespace analysis
} // namespace longnail

#endif // LONGNAIL_ANALYSIS_DATAFLOW_HH
