#include "ir/eval.hh"

#include <algorithm>

#include "support/logging.hh"

namespace longnail {
namespace ir {

bool
isPureComputation(OpKind kind)
{
    switch (kind) {
      case OpKind::HwConstant:
      case OpKind::HwAdd:
      case OpKind::HwSub:
      case OpKind::HwMul:
      case OpKind::HwDiv:
      case OpKind::HwRem:
      case OpKind::HwShl:
      case OpKind::HwShr:
      case OpKind::HwAnd:
      case OpKind::HwOr:
      case OpKind::HwXor:
      case OpKind::HwNot:
      case OpKind::HwICmp:
      case OpKind::HwMux:
      case OpKind::CoredslCast:
      case OpKind::CoredslConcat:
      case OpKind::CoredslExtract:
      case OpKind::CoredslRom:
        return true;
      default:
        return isCombKind(kind);
    }
}

CombAttrs
combAttrsOf(const Operation &op)
{
    CombAttrs attrs;
    attrs.numOperands = op.numOperands();
    switch (op.kind()) {
      case OpKind::CombICmp:
        attrs.pred = static_cast<ICmpPred>(op.intAttr("pred"));
        break;
      case OpKind::CoredslExtract:
      case OpKind::CombExtract:
        attrs.lo = unsigned(op.intAttr("lo"));
        break;
      case OpKind::CoredslRom:
      case OpKind::CombRom:
        attrs.rom = op.romAttr("values");
        break;
      default:
        break;
    }
    return attrs;
}

namespace {

/** The comb op computing @p kind: comb kinds map to their own row, and
 * the coredsl concat, extract and rom share the comb semantics. */
std::optional<CombOp>
combSemanticsOf(OpKind kind)
{
    switch (kind) {
      case OpKind::CoredslConcat: return CombOp::Concat;
      case OpKind::CoredslExtract: return CombOp::Extract;
      case OpKind::CoredslRom: return CombOp::Rom;
      default: return combOpOf(kind);
    }
}

/** Extend @p v (typed @p type) to @p width following its signedness. */
ApInt
extendTo(const ApInt &v, WireType type, unsigned width)
{
    return type.isSigned ? v.sextOrTrunc(width) : v.zextOrTrunc(width);
}

/** Fit a result computed at working width back to the result width. */
ApInt
fitResult(const ApInt &v, unsigned width)
{
    return v.zextOrTrunc(width);
}

} // namespace

std::optional<ApInt>
evaluate(const Operation &op, const std::vector<ApInt> &operands)
{
    if (!isPureComputation(op.kind()))
        return std::nullopt;
    if (operands.size() != op.numOperands())
        LN_PANIC("operand count mismatch evaluating ", op.name());

    const unsigned rw =
        op.numResults() ? op.result()->type.width : 0;
    auto otype = [&](unsigned i) { return op.operand(i)->type; };

    if (auto comb = combSemanticsOf(op.kind())) {
        switch (*comb) {
          case CombOp::DivU:
          case CombOp::DivS:
          case CombOp::ModU:
          case CombOp::ModS:
            // Folding leaves a division by zero in place.
            if (operands[1].isZero())
                return std::nullopt;
            break;
          default:
            break;
        }
        return evalComb(*comb, rw, combAttrsOf(op),
                        [&](unsigned i) -> const ApInt & {
                            return operands[i];
                        });
    }

    switch (op.kind()) {
      case OpKind::HwConstant:
      case OpKind::CombConstant:
        return op.apAttr("value");

      case OpKind::HwAdd:
      case OpKind::HwSub:
      case OpKind::HwMul:
      case OpKind::HwDiv:
      case OpKind::HwRem: {
        // Work at a width that can hold any intermediate value.
        unsigned cw = std::max({rw, otype(0).width + 1,
                                otype(1).width + 1});
        if (op.kind() == OpKind::HwMul)
            cw = std::max(cw, otype(0).width + otype(1).width);
        ApInt a = extendTo(operands[0], otype(0), cw);
        ApInt b = extendTo(operands[1], otype(1), cw);
        bool any_signed = otype(0).isSigned || otype(1).isSigned;
        switch (op.kind()) {
          case OpKind::HwAdd: return fitResult(a + b, rw);
          case OpKind::HwSub: return fitResult(a - b, rw);
          case OpKind::HwMul: return fitResult(a * b, rw);
          case OpKind::HwDiv:
            if (b.isZero())
                return std::nullopt;
            return fitResult(any_signed ? a.sdiv(b) : a.udiv(b), rw);
          case OpKind::HwRem:
            if (b.isZero())
                return std::nullopt;
            return fitResult(any_signed ? a.srem(b) : a.urem(b), rw);
          default: break;
        }
        LN_PANIC("unreachable");
      }

      case OpKind::HwShl:
      case OpKind::HwShr: {
        const ApInt &v = operands[0];
        unsigned amount = clampShiftAmount(operands[1], v.width());
        if (op.kind() == OpKind::HwShl)
            return fitResult(v.shl(amount), rw);
        return fitResult(otype(0).isSigned ? v.ashr(amount)
                                           : v.lshr(amount), rw);
      }

      case OpKind::HwAnd:
      case OpKind::HwOr:
      case OpKind::HwXor: {
        ApInt a = extendTo(operands[0], otype(0), rw);
        ApInt b = extendTo(operands[1], otype(1), rw);
        if (op.kind() == OpKind::HwAnd)
            return a & b;
        if (op.kind() == OpKind::HwOr)
            return a | b;
        return a ^ b;
      }

      case OpKind::HwNot:
        return ~operands[0];

      case OpKind::HwICmp: {
        unsigned cw = std::max(otype(0).width, otype(1).width) + 1;
        ApInt a = extendTo(operands[0], otype(0), cw);
        ApInt b = extendTo(operands[1], otype(1), cw);
        auto pred = static_cast<ICmpPred>(op.intAttr("pred"));
        return ApInt(1, applyICmp(pred, a, b));
      }

      case OpKind::HwMux:
        return operands[0].isZero() ? operands[2] : operands[1];

      case OpKind::CoredslCast:
        return extendTo(operands[0], otype(0), rw);

      default:
        return std::nullopt;
    }
}

} // namespace ir
} // namespace longnail
