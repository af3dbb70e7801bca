#include "analysis/dataflow.hh"

#include "ir/eval.hh"

namespace longnail {
namespace analysis {

using ir::ICmpPred;
using ir::OpKind;
using ir::Operation;
using ir::Value;

// --------------------------------------------------------------------
// ValueRange
// --------------------------------------------------------------------

uint64_t
ValueRange::maxFor(unsigned width)
{
    // Saturated: for 64+ bit wires UINT64_MAX means "unbounded above".
    return width >= 64 ? UINT64_MAX : ((uint64_t(1) << width) - 1);
}

ValueRange
ValueRange::full(unsigned width)
{
    ValueRange r;
    r.umin = 0;
    r.umax = maxFor(width);
    return r;
}

namespace {

/** True if the raw value fits a uint64 (allowing wide, small values). */
bool
fitsUint64(const ApInt &value)
{
    for (unsigned bit = 64; bit < value.width(); ++bit)
        if (value.getBit(bit))
            return false;
    return true;
}

/** a + b, saturating at UINT64_MAX. */
uint64_t
satAdd(uint64_t a, uint64_t b)
{
    return a > UINT64_MAX - b ? UINT64_MAX : a + b;
}

/** An upper bound is only a real bound when it did not saturate. */
bool
bounded(uint64_t umax)
{
    return umax != UINT64_MAX;
}

} // namespace

ValueRange
ValueRange::exact(const ApInt &value)
{
    ValueRange r;
    r.constant = value;
    if (fitsUint64(value)) {
        r.umin = r.umax = value.zextOrTrunc(64).toUint64();
    } else {
        r.umin = 0;
        r.umax = UINT64_MAX;
    }
    return r;
}

bool
ValueRange::operator==(const ValueRange &rhs) const
{
    if (constant.has_value() != rhs.constant.has_value())
        return false;
    if (constant &&
        (constant->width() != rhs.constant->width() ||
         *constant != *rhs.constant))
        return false;
    return umin == rhs.umin && umax == rhs.umax;
}

// --------------------------------------------------------------------
// RangeLattice
// --------------------------------------------------------------------

ValueRange
RangeLattice::top(const Value &value) const
{
    return ValueRange::full(value.type.width);
}

ValueRange
RangeLattice::join(const ValueRange &a, const ValueRange &b) const
{
    if (a.constant && b.constant &&
        a.constant->width() == b.constant->width() &&
        *a.constant == *b.constant)
        return a;
    ValueRange r;
    r.umin = std::min(a.umin, b.umin);
    r.umax = std::max(a.umax, b.umax);
    return r;
}

bool
RangeLattice::equal(const ValueRange &a, const ValueRange &b) const
{
    return a == b;
}

std::optional<bool>
icmpOutcome(ICmpPred pred, const ValueRange &lhs, const ValueRange &rhs)
{
    if (lhs.constant && rhs.constant &&
        lhs.constant->width() == rhs.constant->width())
        return ir::applyICmp(pred, *lhs.constant, *rhs.constant);

    // Range reasoning works on unsigned bounds only; saturated upper
    // bounds (see bounded()) never decide anything.
    bool disjoint =
        (bounded(lhs.umax) && lhs.umax < rhs.umin) ||
        (bounded(rhs.umax) && rhs.umax < lhs.umin);
    switch (pred) {
      case ICmpPred::Eq:
        if (disjoint)
            return false;
        return std::nullopt;
      case ICmpPred::Ne:
        if (disjoint)
            return true;
        return std::nullopt;
      case ICmpPred::Ult:
        if (bounded(lhs.umax) && lhs.umax < rhs.umin)
            return true;
        if (bounded(rhs.umax) && lhs.umin >= rhs.umax)
            return false;
        return std::nullopt;
      case ICmpPred::Ule:
        if (bounded(lhs.umax) && lhs.umax <= rhs.umin)
            return true;
        if (bounded(rhs.umax) && lhs.umin > rhs.umax)
            return false;
        return std::nullopt;
      case ICmpPred::Ugt:
        if (bounded(rhs.umax) && lhs.umin > rhs.umax)
            return true;
        if (bounded(lhs.umax) && lhs.umax <= rhs.umin)
            return false;
        return std::nullopt;
      case ICmpPred::Uge:
        if (bounded(rhs.umax) && lhs.umin >= rhs.umax)
            return true;
        if (bounded(lhs.umax) && lhs.umax < rhs.umin)
            return false;
        return std::nullopt;
      default:
        // Signed predicates are only decided for exact constants.
        return std::nullopt;
    }
}

std::vector<ValueRange>
RangeLattice::transfer(const Operation &op,
                       const std::vector<ValueRange> &operands) const
{
    if (op.numResults() != 1)
        return {};
    unsigned rw = op.result()->type.width;

    if (op.kind() == OpKind::HwConstant ||
        op.kind() == OpKind::CombConstant)
        return {ValueRange::exact(op.apAttr("value"))};

    // All-constant pure computations fold through the shared evaluator.
    if (ir::isPureComputation(op.kind()) && op.numOperands() > 0) {
        bool all_const = true;
        std::vector<ApInt> values;
        for (const auto &state : operands) {
            if (!state.constant) {
                all_const = false;
                break;
            }
            values.push_back(*state.constant);
        }
        if (all_const)
            if (auto result = ir::evaluate(op, values))
                return {ValueRange::exact(*result)};
    }

    ValueRange out = ValueRange::full(rw);
    auto widthOf = [&](unsigned i) { return op.operand(i)->type.width; };

    switch (op.kind()) {
      case OpKind::HwAdd:
      case OpKind::CombAdd: {
        if (op.numOperands() != 2)
            break;
        if (op.kind() == OpKind::HwAdd &&
            (op.operand(0)->type.isSigned ||
             op.operand(1)->type.isSigned || op.result()->type.isSigned))
            break; // sign extension invalidates raw-bit bounds
        const ValueRange &a = operands[0], &b = operands[1];
        if (bounded(a.umax) && bounded(b.umax)) {
            uint64_t smax = satAdd(a.umax, b.umax);
            // No wrap: the concrete sum always fits the result width.
            if (bounded(smax) && smax <= ValueRange::maxFor(rw)) {
                out.umin = satAdd(a.umin, b.umin);
                out.umax = smax;
            }
        }
        break;
      }
      case OpKind::HwMux:
      case OpKind::CombMux: {
        if (op.numOperands() != 3)
            break;
        const ValueRange &cond = operands[0];
        if (cond.constant)
            out = cond.constant->isZero() ? operands[2] : operands[1];
        else
            out = join(operands[1], operands[2]);
        break;
      }
      case OpKind::CoredslExtract:
      case OpKind::CombExtract: {
        if (op.numOperands() != 1 || !op.hasAttr("lo"))
            break;
        const ValueRange &a = operands[0];
        // Keeping the low bits loses nothing when the value fits.
        if (op.intAttr("lo") == 0 && bounded(a.umax) &&
            a.umax <= ValueRange::maxFor(rw)) {
            out.umin = a.umin;
            out.umax = a.umax;
        }
        break;
      }
      case OpKind::CoredslCast: {
        if (op.numOperands() != 1)
            break;
        const ValueRange &a = operands[0];
        bool widens = rw >= widthOf(0);
        if (op.operand(0)->type.isSigned && widens)
            break; // sign extension
        if (widens || (bounded(a.umax) &&
                       a.umax <= ValueRange::maxFor(rw))) {
            out.umin = a.umin;
            out.umax = a.umax;
        }
        break;
      }
      case OpKind::CoredslConcat:
      case OpKind::CombConcat: {
        if (op.numOperands() != 2 || rw > 64)
            break;
        const ValueRange &hi = operands[0], &lo = operands[1];
        unsigned lo_width = widthOf(1);
        out.umin = (hi.umin << lo_width) + lo.umin;
        out.umax = (hi.umax << lo_width) + lo.umax;
        break;
      }
      case OpKind::HwAnd:
      case OpKind::CombAnd: {
        if (op.numOperands() != 2)
            break;
        const ValueRange &a = operands[0], &b = operands[1];
        if (a.isConstZero() || b.isConstZero()) {
            out = ValueRange::exact(ApInt(rw, 0));
        } else {
            out.umin = 0;
            out.umax = std::min(a.umax, b.umax);
        }
        break;
      }
      case OpKind::HwOr:
      case OpKind::CombOr:
      case OpKind::HwXor:
      case OpKind::CombXor: {
        if (op.numOperands() != 2)
            break;
        const ValueRange &a = operands[0], &b = operands[1];
        bool is_or =
            op.kind() == OpKind::HwOr || op.kind() == OpKind::CombOr;
        out.umin = is_or ? std::max(a.umin, b.umin) : 0;
        if (bounded(a.umax) && bounded(b.umax))
            out.umax = std::min(ValueRange::maxFor(rw),
                                satAdd(a.umax, b.umax));
        break;
      }
      case OpKind::HwICmp:
      case OpKind::CombICmp: {
        if (op.numOperands() != 2 || !op.hasAttr("pred"))
            break;
        auto pred = ICmpPred(op.intAttr("pred"));
        if (auto outcome = icmpOutcome(pred, operands[0], operands[1]))
            out = ValueRange::exact(ApInt(1, *outcome ? 1 : 0));
        else
            out = ValueRange::full(1);
        break;
      }
      case OpKind::CombSub: {
        if (op.numOperands() != 2)
            break;
        const ValueRange &a = operands[0], &b = operands[1];
        // No borrow: the subtrahend never exceeds the minuend, so the
        // modular subtraction coincides with the integer one.
        if (bounded(b.umax) && a.umin >= b.umax) {
            out.umin = a.umin - b.umax;
            if (bounded(a.umax))
                out.umax = a.umax - b.umin;
        }
        break;
      }
      case OpKind::CombMul: {
        if (op.numOperands() != 2)
            break;
        const ValueRange &a = operands[0], &b = operands[1];
        uint64_t limit = ValueRange::maxFor(rw);
        if (bounded(a.umax) && bounded(b.umax) && bounded(limit)) {
            unsigned __int128 p = (unsigned __int128)a.umax * b.umax;
            // No wrap: the largest product fits the result width.
            if (p <= limit) {
                out.umin = a.umin * b.umin;
                out.umax = uint64_t(p);
            }
        }
        break;
      }
      case OpKind::CombShl: {
        if (op.numOperands() != 2)
            break;
        const ValueRange &a = operands[0], &amt = operands[1];
        if (amt.umin >= rw) {
            // Overshift: every data bit is discarded (amounts clamp
            // to the width, and shl by the width yields zero).
            out = ValueRange::exact(ApInt(rw, 0));
        } else if (amt.constant && bounded(a.umax)) {
            uint64_t c = amt.umin;
            uint64_t limit = ValueRange::maxFor(rw);
            if (c < 64 && bounded(limit)) {
                unsigned __int128 hi = (unsigned __int128)a.umax << c;
                if (hi <= limit) {
                    out.umin = a.umin << c;
                    out.umax = uint64_t(hi);
                }
            }
        }
        break;
      }
      case OpKind::CombShrU: {
        if (op.numOperands() != 2)
            break;
        const ValueRange &a = operands[0], &amt = operands[1];
        if (amt.umin >= rw) {
            out = ValueRange::exact(ApInt(rw, 0));
            break;
        }
        uint64_t shift = std::min<uint64_t>(amt.umin, 63);
        uint64_t amax =
            bounded(a.umax) ? a.umax : ValueRange::maxFor(rw);
        if (bounded(amax))
            out.umax = amax >> shift;
        break;
      }
      case OpKind::CombDivU: {
        if (op.numOperands() != 2)
            break;
        const ValueRange &a = operands[0], &b = operands[1];
        // Only when the divisor is provably nonzero (division by zero
        // is left unspecified by the evaluator).
        if (b.umin >= 1) {
            uint64_t amax =
                bounded(a.umax) ? a.umax : ValueRange::maxFor(rw);
            if (bounded(amax))
                out.umax = amax / b.umin;
            if (bounded(b.umax))
                out.umin = a.umin / b.umax;
        }
        break;
      }
      case OpKind::CombModU: {
        if (op.numOperands() != 2)
            break;
        const ValueRange &a = operands[0], &b = operands[1];
        if (b.umin >= 1 && bounded(b.umax)) {
            out.umax = b.umax - 1;
            if (bounded(a.umax))
                out.umax = std::min(out.umax, a.umax);
        }
        break;
      }
      case OpKind::CombReplicate: {
        if (op.numOperands() != 1)
            break;
        const ValueRange &a = operands[0];
        if (a.umax == 0)
            out = ValueRange::exact(ApInt(rw, 0));
        else if (a.umin >= 1)
            out = ValueRange::exact(ApInt::allOnes(rw));
        break;
      }
      case OpKind::CoredslRom:
      case OpKind::CombRom: {
        if (!op.hasAttr("values"))
            break;
        const auto &values = op.romAttr("values");
        if (values.empty())
            break;
        if (op.numOperands() == 0) {
            out = ValueRange::exact(values[0].zextOrTrunc(rw));
            break;
        }
        uint64_t lo = UINT64_MAX, hi = 0;
        bool all_fit = true;
        for (const auto &v : values) {
            if (!fitsUint64(v)) {
                all_fit = false;
                break;
            }
            uint64_t u = v.zextOrTrunc(64).toUint64();
            lo = std::min(lo, u);
            hi = std::max(hi, u);
        }
        if (!all_fit)
            break;
        // Out-of-range indices read as zero, so zero joins the table
        // unless the index is provably within it.
        const ValueRange &idx = operands[0];
        bool in_range = bounded(idx.umax) && idx.umax < values.size();
        out.umin = in_range ? lo : 0;
        out.umax = hi;
        break;
      }
      default:
        break;
    }
    return {out};
}

std::map<const Value *, ValueRange>
computeRanges(const ir::Graph &graph)
{
    RangeLattice lattice;
    return ForwardDataflow<ValueRange>(lattice).run(graph);
}

// --------------------------------------------------------------------
// DemandedBitsLattice
// --------------------------------------------------------------------

namespace {

/** Mask with the low @p k bits of a @p width-bit value set. */
ApInt
lowMask(unsigned width, unsigned k)
{
    if (k >= width)
        return ApInt::allOnes(width);
    if (k == 0)
        return ApInt(width, 0);
    return ApInt::allOnes(k).zext(width);
}

/** The constant an operand is defined by, if any. */
const ApInt *
constantOf(const Value *v)
{
    const Operation *def = v->owner;
    if (def && (def->kind() == OpKind::CombConstant ||
                def->kind() == OpKind::HwConstant) &&
        def->hasAttr("value"))
        return &def->apAttr("value");
    return nullptr;
}

} // namespace

DemandedBits
DemandedBitsLattice::top(const Value &value) const
{
    return DemandedBits::none(value.type.width);
}

DemandedBits
DemandedBitsLattice::join(const DemandedBits &a,
                          const DemandedBits &b) const
{
    if (a.mask.width() != b.mask.width())
        return DemandedBits::all(std::max(a.mask.width(),
                                          b.mask.width()));
    return DemandedBits{a.mask | b.mask};
}

bool
DemandedBitsLattice::equal(const DemandedBits &a,
                           const DemandedBits &b) const
{
    return a.mask.width() == b.mask.width() && a.mask == b.mask;
}

std::vector<DemandedBits>
DemandedBitsLattice::transferBackward(
    const Operation &op, const std::vector<DemandedBits> &results) const
{
    if (op.numOperands() == 0)
        return {};

    auto widthOf = [&](unsigned i) {
        return op.operand(i)->type.width;
    };
    auto demandAll = [&] {
        std::vector<DemandedBits> out;
        out.reserve(op.numOperands());
        for (unsigned i = 0; i < op.numOperands(); ++i)
            out.push_back(DemandedBits::all(widthOf(i)));
        return out;
    };
    auto demandNone = [&] {
        std::vector<DemandedBits> out;
        out.reserve(op.numOperands());
        for (unsigned i = 0; i < op.numOperands(); ++i)
            out.push_back(DemandedBits::none(widthOf(i)));
        return out;
    };

    // Result-less ops (interface writes, terminators) root the
    // analysis: everything they consume feeds an observable.
    if (op.numResults() == 0)
        return demandAll();
    if (op.numResults() != 1)
        return demandAll();

    // A memory read is architecturally observable through its address
    // and enable even when the loaded data is dead; a custom-register
    // read is not (reading has no side effect).
    if (op.kind() == OpKind::LilReadMem)
        return demandAll();

    const ApInt &R = results[0].mask;
    if (R.isZero())
        return demandNone();
    unsigned k = R.activeBits();

    switch (op.kind()) {
      case OpKind::CombAdd:
      case OpKind::CombSub:
      case OpKind::CombMul: {
        if (op.numOperands() != 2)
            return demandAll();
        // Carries ripple upward only: result bit i depends on operand
        // bits [0, i], so only the low activeBits(R) matter.
        DemandedBits d{lowMask(widthOf(0), k)};
        return {d, DemandedBits{lowMask(widthOf(1), k)}};
      }
      case OpKind::CombAnd: {
        if (op.numOperands() != 2)
            return demandAll();
        const ApInt *c0 = constantOf(op.operand(0));
        const ApInt *c1 = constantOf(op.operand(1));
        // Bits masked off by a constant zero are never demanded.
        ApInt d0 = c1 ? (R & *c1) : R;
        ApInt d1 = c0 ? (R & *c0) : R;
        return {DemandedBits{d0}, DemandedBits{d1}};
      }
      case OpKind::CombOr: {
        if (op.numOperands() != 2)
            return demandAll();
        const ApInt *c0 = constantOf(op.operand(0));
        const ApInt *c1 = constantOf(op.operand(1));
        // Bits forced to one by a constant hide the other operand.
        ApInt d0 = c1 ? (R & ~*c1) : R;
        ApInt d1 = c0 ? (R & ~*c0) : R;
        return {DemandedBits{d0}, DemandedBits{d1}};
      }
      case OpKind::CombXor: {
        if (op.numOperands() != 2)
            return demandAll();
        return {DemandedBits{R}, DemandedBits{R}};
      }
      case OpKind::CombShl: {
        if (op.numOperands() != 2)
            return demandAll();
        unsigned w0 = widthOf(0);
        DemandedBits amount = DemandedBits::all(widthOf(1));
        if (const ApInt *c = constantOf(op.operand(1))) {
            // Amounts clamp to the width; an overshift discards all.
            unsigned amt = ir::clampShiftAmount(*c, w0);
            if (amt >= w0)
                return {DemandedBits::none(w0), amount};
            return {DemandedBits{R.lshr(amt)}, amount};
        }
        // Unknown amount only moves bits up, so source bits at or
        // above the highest demanded result bit stay dead.
        return {DemandedBits{lowMask(w0, k)}, amount};
      }
      case OpKind::CombShrU: {
        if (op.numOperands() != 2)
            return demandAll();
        unsigned w0 = widthOf(0);
        DemandedBits amount = DemandedBits::all(widthOf(1));
        if (const ApInt *c = constantOf(op.operand(1))) {
            unsigned amt = ir::clampShiftAmount(*c, w0);
            if (amt >= w0)
                return {DemandedBits::none(w0), amount};
            return {DemandedBits{R.shl(amt)}, amount};
        }
        return {DemandedBits::all(w0), amount};
      }
      case OpKind::CombMux: {
        if (op.numOperands() != 3)
            return demandAll();
        return {DemandedBits::all(widthOf(0)), DemandedBits{R},
                DemandedBits{R}};
      }
      case OpKind::CombExtract: {
        if (op.numOperands() != 1 || !op.hasAttr("lo"))
            return demandAll();
        unsigned lo = unsigned(op.intAttr("lo"));
        unsigned w0 = widthOf(0);
        return {DemandedBits{R.zextOrTrunc(w0).shl(lo)}};
      }
      case OpKind::CombConcat: {
        if (op.numOperands() != 2)
            return demandAll();
        // Operand 0 is the high part.
        unsigned w0 = widthOf(0), w1 = widthOf(1);
        return {DemandedBits{R.extract(w1, w0)},
                DemandedBits{R.extract(0, w1)}};
      }
      case OpKind::CombReplicate: {
        if (op.numOperands() != 1)
            return demandAll();
        return {DemandedBits::all(widthOf(0))};
      }
      default:
        // Shift-right-signed (the sign bit splats everywhere),
        // division/remainder, comparisons, ROM indexing and every
        // coredsl/hwarith kind: conservatively demand everything.
        return demandAll();
    }
}

std::map<const Value *, DemandedBits>
computeDemandedBits(const ir::Graph &graph)
{
    DemandedBitsLattice lattice;
    return BackwardDataflow<DemandedBits>(lattice).run(graph);
}

// --------------------------------------------------------------------
// InitLattice
// --------------------------------------------------------------------

InitState
InitLattice::top(const Value &) const
{
    return {false};
}

InitState
InitLattice::join(const InitState &a, const InitState &b) const
{
    return {a.maybeUninit || b.maybeUninit};
}

bool
InitLattice::equal(const InitState &a, const InitState &b) const
{
    return a == b;
}

std::vector<InitState>
InitLattice::transfer(const Operation &op,
                      const std::vector<InitState> &operands) const
{
    std::vector<InitState> results(op.numResults(), InitState{false});
    if (results.empty())
        return results;
    if (uninitSources_.count(&op)) {
        for (auto &r : results)
            r.maybeUninit = true;
        return results;
    }
    // Taint propagates through every data dependence.
    bool any = false;
    for (const auto &state : operands)
        any = any || state.maybeUninit;
    for (auto &r : results)
        r.maybeUninit = any;
    return results;
}

} // namespace analysis
} // namespace longnail
