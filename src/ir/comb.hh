/**
 * @file
 * The comb dialect's operations and their ApInt semantics, defined
 * once.
 *
 * ir/combops.def lists the computational comb ops; CombOp is its
 * enum, and the LIL (OpKind), netlist (rtl::NodeKind) and term
 * (analysis::tv::TermKind) views convert to and from it. evalComb()
 * is the only definition of what those ops compute on ApInts; every
 * ApInt path calls it: ir::evaluate() (constant folding and the LIL
 * interpreter), the netlist interpreter rtl::Simulator, the compiled
 * simulator's wide-net fallback and tv::TermBuilder constant folding.
 * Only the compiled simulator's packed u64/u128 lanes re-implement the
 * rules, and tests/rtl/test_sim_diff.cc holds them to this evaluator.
 */

#ifndef LONGNAIL_IR_COMB_HH
#define LONGNAIL_IR_COMB_HH

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>

#include "ir/ir.hh"
#include "support/apint.hh"
#include "support/logging.hh"

namespace longnail {
namespace ir {

/** One computational comb op (a combops.def row). */
enum class CombOp
{
#define LN_COMB_OP(name, lil, term, arity) name,
#include "ir/combops.def"
};

constexpr unsigned numCombOps = 0
#define LN_COMB_OP(name, lil, term, arity) +1
#include "ir/combops.def"
    ;

/** Netlist/term spelling of @p op ("divs"). */
constexpr const char *
combOpName(CombOp op)
{
    switch (op) {
#define LN_COMB_OP(name, lil, term, arity) case CombOp::name: return term;
#include "ir/combops.def"
    }
    return "?";
}

/** Operand count of @p op; 0 for the variadic concat. */
constexpr unsigned
combOpArity(CombOp op)
{
    switch (op) {
#define LN_COMB_OP(name, lil, term, arity) case CombOp::name: return arity;
#include "ir/combops.def"
    }
    return 0;
}

/** The comb op @p kind is; nullopt for comb.constant and the other
 * dialects. */
constexpr std::optional<CombOp>
combOpOf(OpKind kind)
{
    switch (kind) {
#define LN_COMB_OP(name, lil, term, arity)                                   \
      case OpKind::Comb##name: return CombOp::name;
#include "ir/combops.def"
      default:
        return std::nullopt;
    }
}

constexpr OpKind
opKindOf(CombOp op)
{
    switch (op) {
#define LN_COMB_OP(name, lil, term, arity)                                   \
      case CombOp::name: return OpKind::Comb##name;
#include "ir/combops.def"
    }
    return OpKind::CombConstant;
}

/** True for every comb.* kind, comb.constant included. */
constexpr bool
isCombKind(OpKind kind)
{
    return kind == OpKind::CombConstant || combOpOf(kind).has_value();
}

/** Apply an ICmp predicate to two equally-typed raw values. */
inline bool
applyICmp(ICmpPred pred, const ApInt &lhs, const ApInt &rhs)
{
    switch (pred) {
      case ICmpPred::Eq: return lhs == rhs;
      case ICmpPred::Ne: return lhs != rhs;
      case ICmpPred::Ult: return lhs.ult(rhs);
      case ICmpPred::Ule: return lhs.ule(rhs);
      case ICmpPred::Ugt: return lhs.ugt(rhs);
      case ICmpPred::Uge: return lhs.uge(rhs);
      case ICmpPred::Slt: return lhs.slt(rhs);
      case ICmpPred::Sle: return lhs.sle(rhs);
      case ICmpPred::Sgt: return lhs.sgt(rhs);
      case ICmpPred::Sge: return lhs.sge(rhs);
    }
    LN_PANIC("invalid icmp predicate");
}

/**
 * Effective amount of a shift of a @p value_width-bit value by
 * @p amount: an amount with more than 32 active bits saturates to the
 * value width, and the result never exceeds the value width.
 */
inline unsigned
clampShiftAmount(const ApInt &amount, unsigned value_width)
{
    uint64_t raw =
        amount.activeBits() > 32 ? value_width : amount.toUint64();
    return unsigned(std::min<uint64_t>(raw, value_width));
}

/** The per-instance attributes evalComb() reads. */
struct CombAttrs
{
    unsigned numOperands = 0;
    ICmpPred pred = ICmpPred::Eq; ///< ICmp
    unsigned lo = 0;              ///< Extract: first bit
    std::span<const ApInt> rom{}; ///< Rom: the table
};

/**
 * Value of comb op @p op with result width @p width; @p in(i) yields
 * operand i (by value or by reference). The rules:
 *
 *  - operands of the arithmetic, logic and compare ops share one
 *    width, and arithmetic wraps;
 *  - division and remainder by zero give 0;
 *  - divs/mods work on magnitudes (quotient rounds toward zero, the
 *    remainder takes the dividend's sign); INT_MIN / -1 wraps;
 *  - shift amounts clamp (clampShiftAmount); shrs fills with the sign;
 *  - mux operands are sel, then, else;
 *  - concat takes two or more operands, the first is the high part;
 *  - replicate copies a one-bit operand to every result bit;
 *  - rom reads its table at the operand (index 0 without one), and an
 *    index past the table (or with more than 63 active bits) gives 0.
 */
template <typename In>
ApInt
evalComb(CombOp op, unsigned width, const CombAttrs &attrs, In &&in)
{
    switch (op) {
      case CombOp::Add: return in(0) + in(1);
      case CombOp::Sub: return in(0) - in(1);
      case CombOp::Mul: return in(0) * in(1);
      case CombOp::DivU:
      case CombOp::DivS:
      case CombOp::ModU:
      case CombOp::ModS: {
        const ApInt &lhs = in(0);
        const ApInt &rhs = in(1);
        if (rhs.isZero())
            return ApInt(width, 0);
        if (op == CombOp::DivU)
            return lhs.udiv(rhs);
        if (op == CombOp::DivS)
            return lhs.sdiv(rhs);
        if (op == CombOp::ModU)
            return lhs.urem(rhs);
        return lhs.srem(rhs);
      }
      case CombOp::And: return in(0) & in(1);
      case CombOp::Or: return in(0) | in(1);
      case CombOp::Xor: return in(0) ^ in(1);
      case CombOp::Shl:
      case CombOp::ShrU:
      case CombOp::ShrS: {
        const ApInt &value = in(0);
        unsigned amount = clampShiftAmount(in(1), value.width());
        if (op == CombOp::Shl)
            return value.shl(amount);
        if (op == CombOp::ShrU)
            return value.lshr(amount);
        return value.ashr(amount);
      }
      case CombOp::ICmp:
        return ApInt(1, applyICmp(attrs.pred, in(0), in(1)));
      case CombOp::Mux:
        return in(0).isZero() ? in(2) : in(1);
      case CombOp::Extract:
        return in(0).extract(attrs.lo, width);
      case CombOp::Concat: {
        ApInt acc = in(attrs.numOperands - 1);
        for (unsigned i = attrs.numOperands - 1; i-- > 0;)
            acc = in(i).concat(acc);
        return acc;
      }
      case CombOp::Replicate:
        return in(0).isZero() ? ApInt(width, 0) : ApInt::allOnes(width);
      case CombOp::Rom: {
        uint64_t index = 0;
        if (attrs.numOperands) {
            const ApInt &at = in(0);
            index = at.activeBits() > 63 ? attrs.rom.size()
                                         : at.toUint64();
        }
        if (index >= attrs.rom.size())
            return ApInt(width, 0);
        return attrs.rom[index].zextOrTrunc(width);
      }
    }
    LN_PANIC("invalid comb op");
}

} // namespace ir
} // namespace longnail

#endif // LONGNAIL_IR_COMB_HH
