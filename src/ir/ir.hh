/**
 * @file
 * Lightweight SSA IR infrastructure standing in for MLIR/CIRCT in the
 * Longnail flow (Sec. 4.1 of the paper).
 *
 * Longnail's behaviors are straight-line after if-conversion, loop
 * unrolling and inlining, so the IR is a *graph*: an ordered list of
 * operations producing SSA values. Operation kinds are grouped into
 * dialect-style namespaces:
 *
 *  - "coredsl.*"  high-level ops close to the input language (Fig. 5b)
 *  - "hwarith.*"  bitwidth-aware arithmetic on signed/unsigned values
 *  - "lil.*"      SCAIE-V sub-interface operations made explicit
 *                 (Fig. 5c)
 *  - "comb.*"     plain combinational logic of fixed, signless widths
 *
 * A spawn block is an operation carrying a nested graph.
 */

#ifndef LONGNAIL_IR_IR_HH
#define LONGNAIL_IR_IR_HH

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "support/apint.hh"
#include "support/diagnostics.hh"

namespace longnail {
namespace ir {

/** The type of an SSA value: a bit width plus hwarith signedness. */
struct WireType
{
    unsigned width = 0;
    /** Only meaningful at the hwarith level; comb values are signless. */
    bool isSigned = false;

    WireType() = default;
    WireType(unsigned w, bool s = false) : width(w), isSigned(s) {}

    bool operator==(const WireType &rhs) const = default;
    /** "ui32" / "si12" / "i32" rendering (comb values print signless). */
    std::string str() const;
};

/** All operation kinds across the four dialects. */
enum class OpKind
{
    // --- coredsl dialect (high-level, Fig. 5b) ---
    CoredslField,    ///< encoding field value; strAttr=name
    CoredslGet,      ///< read state; strAttr=state; operands: [index]
    CoredslSet,      ///< write state; operands: [index,] value [, pred]
    CoredslGetMem,   ///< read address space; operands: addr [, pred]
    CoredslSetMem,   ///< write; operands: addr, value [, pred]
    CoredslCast,     ///< resize/re-sign to the result type
    CoredslConcat,   ///< lhs(high) :: rhs(low); result unsigned
    CoredslExtract,  ///< static bit range; intAttr("lo")
    CoredslRom,      ///< constant-register lookup; operands: index
    CoredslSpawn,    ///< decoupled block; carries a nested graph
    CoredslEnd,      ///< behavior terminator

    // --- hwarith dialect (bitwidth-aware) ---
    HwConstant, ///< apAttr("value"); result type carries signedness
    HwAdd,
    HwSub,
    HwMul,
    HwDiv,
    HwRem,
    HwShl,      ///< result keeps lhs type
    HwShr,      ///< arithmetic/logical chosen by lhs signedness
    HwAnd,
    HwOr,
    HwXor,
    HwNot,      ///< bitwise complement, same type
    HwICmp,     ///< intAttr("pred") = ICmpPred; signedness from operands
    HwMux,      ///< operands: cond(i1), true, false

    // --- lil dialect (SCAIE-V sub-interfaces, Fig. 5c / Table 1) ---
    LilInstrWord,       ///< i32 instruction word
    LilReadRs1,         ///< i32
    LilReadRs2,         ///< i32
    LilReadPC,          ///< i32
    LilReadMem,         ///< operands: addr [, pred] -> i32
    LilWriteRd,         ///< operands: value [, pred]
    LilWritePC,         ///< operands: value [, pred]
    LilWriteMem,        ///< operands: addr, value [, pred]
    LilReadCustReg,     ///< strAttr=reg; operands: [index] -> iDW
    LilWriteCustRegAddr,///< strAttr=reg; operands: [index]
    LilWriteCustRegData,///< strAttr=reg; operands: value [, pred]
    LilSink,            ///< graph terminator

    // --- comb dialect (signless combinational logic, Fig. 5c/5d) ---
    CombConstant, ///< apAttr("value")
    // CombAdd .. CombRom, one per ir/combops.def row (ir/comb.hh).
    // Attributes: CombICmp intAttr("pred"), CombExtract intAttr("lo")
    // (the result width selects the count), CombRom romAttr("values").
#define LN_COMB_OP(name, lil, term, arity) Comb##name,
#include "ir/combops.def"
};

/** Comparison predicates shared by hwarith.icmp and comb.icmp. */
enum class ICmpPred { Eq, Ne, Ult, Ule, Ugt, Uge, Slt, Sle, Sgt, Sge };

const char *opKindName(OpKind kind);
const char *icmpPredName(ICmpPred pred);

/** True for lil.* operations that touch a SCAIE-V sub-interface. */
bool isInterfaceOp(OpKind kind);
/** True for interface ops that update architectural state. */
bool isStateUpdateOp(OpKind kind);

class Operation;
class Graph;

/** An SSA value: the result of an operation. */
struct Value
{
    Operation *owner = nullptr;
    unsigned resultIndex = 0;
    WireType type;
    /** Printer/debugging id, assigned on creation. */
    unsigned id = 0;
};

/** Attribute payload. */
using Attr = std::variant<int64_t, std::string, ApInt, std::vector<ApInt>>;

class Operation
{
  public:
    Operation(OpKind kind, std::vector<Value *> operands)
        : kind_(kind), operands_(std::move(operands))
    {}

    OpKind kind() const { return kind_; }
    const char *name() const { return opKindName(kind_); }

    const std::vector<Value *> &operands() const { return operands_; }
    Value *operand(unsigned i) const { return operands_.at(i); }
    unsigned numOperands() const { return operands_.size(); }
    void setOperand(unsigned i, Value *v) { operands_.at(i) = v; }
    void
    replaceUsesOf(Value *from, Value *to)
    {
        for (auto &op : operands_)
            if (op == from)
                op = to;
    }

    unsigned numResults() const { return results_.size(); }
    Value *result(unsigned i = 0) const { return results_.at(i).get(); }

    // Attributes.
    bool hasAttr(const std::string &key) const { return attrs_.count(key); }
    void setAttr(const std::string &key, Attr value);
    int64_t intAttr(const std::string &key) const;
    const std::string &strAttr(const std::string &key) const;
    const ApInt &apAttr(const std::string &key) const;
    const std::vector<ApInt> &romAttr(const std::string &key) const;
    const std::map<std::string, Attr> &attrs() const { return attrs_; }

    /** Nested graph (only for coredsl.spawn). */
    Graph *subgraph() const { return subgraph_.get(); }

    /**
     * CoreDSL source position of the construct this operation was
     * lowered from; invalid when synthesized without one. Lowerers
     * stamp it via Graph::setDefaultLoc so analyses can point findings
     * back at the input.
     */
    SourceLoc loc() const { return loc_; }
    void setLoc(SourceLoc loc) { loc_ = loc; }

    /**
     * Rewrite this operation in place into a constant producing
     * @p value; result Value pointers stay valid, so users are
     * unaffected. @p comb_level selects comb.constant vs.
     * hwarith.constant.
     */
    void morphToConstant(const ApInt &value, bool comb_level);

    /**
     * Rewrite this operation in place to @p kind over @p operands,
     * keeping its results (Value pointers stay valid, so users are
     * unaffected). Attributes and any subgraph are dropped; the caller
     * re-sets whatever the new kind requires. The optimization passes
     * use this to swap an op's implementation without re-linking users.
     */
    void morph(OpKind kind, std::vector<Value *> operands);

  private:
    friend class Graph;

    OpKind kind_;
    std::vector<Value *> operands_;
    std::vector<std::unique_ptr<Value>> results_;
    std::map<std::string, Attr> attrs_;
    std::unique_ptr<Graph> subgraph_;
    SourceLoc loc_;
};

/**
 * An ordered, owning list of operations. Operands must be results of
 * operations that appear earlier in this graph or an enclosing graph
 * (def-before-use).
 */
class Graph
{
  public:
    Graph() = default;
    Graph(const Graph &) = delete;
    Graph &operator=(const Graph &) = delete;

    /** Append a new operation with @p result_types results. */
    Operation *append(OpKind kind, std::vector<Value *> operands,
                      std::vector<WireType> result_types);

    /** Append a spawn-style op owning a fresh nested graph. */
    Operation *appendWithSubgraph(OpKind kind);

    /**
     * Insert a new operation immediately before @p anchor, which must
     * be a top-level operation of this graph. Operations are
     * heap-allocated, so existing Value* / Operation* pointers stay
     * valid across the deque insertion. The new op inherits @p anchor's
     * source location (it computes on behalf of the anchored op).
     */
    Operation *insertBefore(const Operation *anchor, OpKind kind,
                            std::vector<Value *> operands,
                            std::vector<WireType> result_types);

    /**
     * Source location stamped onto subsequently appended operations.
     * Lowerers update it as they walk the AST (or the source IR) so
     * every new op inherits the position of the construct being
     * lowered.
     */
    void setDefaultLoc(SourceLoc loc) { defaultLoc_ = loc; }
    SourceLoc defaultLoc() const { return defaultLoc_; }

    const std::deque<std::unique_ptr<Operation>> &ops() const
    {
        return ops_;
    }
    size_t size() const { return ops_.size(); }
    bool empty() const { return ops_.empty(); }

    /** Remove operations not satisfying @p keep (no use checking). */
    template <typename Pred>
    void
    removeIf(Pred keep_removing)
    {
        std::erase_if(ops_, [&](const std::unique_ptr<Operation> &op) {
            return keep_removing(*op);
        });
    }

    /**
     * Verify def-before-use and per-op structural invariants.
     * @return an empty string when valid, else a description.
     */
    std::string verify() const;

    /** Multi-line textual form, similar to Fig. 5c of the paper. */
    std::string print() const;

  private:
    void printInto(std::string &out, int indent) const;
    std::string verifyInner(const Graph *outer) const;

    std::deque<std::unique_ptr<Operation>> ops_;
    SourceLoc defaultLoc_;
    // Per-graph so concurrent compiles never share mutable state; ids are
    // debugging labels only (print/verify/panic messages), never artifacts.
    unsigned nextValueId_ = 0;
};

} // namespace ir
} // namespace longnail

#endif // LONGNAIL_IR_IR_HH
