#include "sched/techlib.hh"

#include <algorithm>
#include <cmath>

namespace longnail {
namespace sched {

using ir::Operation;
using ir::OpKind;

namespace {

double
log2ceil(unsigned w)
{
    return std::ceil(std::log2(std::max(2u, w)));
}

/** True if operand @p i of @p op is a constant (free in hardware). */
bool
operandIsConstant(const Operation &op, unsigned i)
{
    if (i >= op.numOperands())
        return false;
    OpKind k = op.operand(i)->owner->kind();
    return k == OpKind::CombConstant || k == OpKind::HwConstant;
}

unsigned
resultWidth(const Operation &op)
{
    return op.numResults() ? op.result()->type.width : 1;
}

} // namespace

CellCost
combCellCost(ir::CombOp op, unsigned w, unsigned lhs_width,
             unsigned rhs_width, bool shift_by_constant,
             size_t rom_entries)
{
    using ir::CombOp;
    switch (op) {
      case CombOp::Add:
      case CombOp::Sub:
        // Carry-lookahead-style: logarithmic in the width.
        return {0.06 + 0.025 * log2ceil(w), 0.30 * w};
      case CombOp::Mul:
        return {0.25 + 0.060 * log2ceil(w), 0.20 * lhs_width * rhs_width};
      case CombOp::DivU:
      case CombOp::DivS:
      case CombOp::ModU:
      case CombOp::ModS:
        // Combinational divider: linear in the width.
        return {0.5 + 0.09 * w, 2.4 * w * w / 8.0};
      case CombOp::ICmp:
        return {0.05 + 0.020 * log2ceil(lhs_width), 0.25 * lhs_width};
      case CombOp::And:
      case CombOp::Or:
      case CombOp::Xor:
        return {0.035, 0.15 * w};
      case CombOp::Mux:
        return {0.05, 0.25 * w};
      case CombOp::Shl:
      case CombOp::ShrU:
      case CombOp::ShrS:
        // Constant shift amounts are wiring; dynamic ones are barrel
        // shifters with log2(w) mux levels.
        if (shift_by_constant)
            return {};
        return {0.05 * log2ceil(w), 0.25 * w * log2ceil(w)};
      case CombOp::Rom:
        // LUT-style mapping: ~area per stored bit.
        return {0.12 + 0.025 * log2ceil(unsigned(rom_entries)),
                0.05 * double(rom_entries) * w};
      case CombOp::Extract:
      case CombOp::Concat:
      case CombOp::Replicate:
        return {}; // wiring only
    }
    return {};
}

namespace {

/** Cost of comb op @p op at the LIL level. */
CellCost
combCost(const Operation &op, ir::CombOp comb)
{
    unsigned w = resultWidth(op);
    auto width = [&](unsigned i) {
        return i < op.numOperands() ? op.operand(i)->type.width : w;
    };
    return combCellCost(comb, w, width(0), width(1),
                        operandIsConstant(op, 1),
                        comb == ir::CombOp::Rom
                            ? op.romAttr("values").size()
                            : 0);
}

} // namespace

double
TechLibrary::physicalDelayNs(const Operation &op) const
{
    if (auto comb = ir::combOpOf(op.kind()))
        return combCost(op, *comb).delayNs;
    switch (op.kind()) {
      case OpKind::CombConstant:
        return 0.0; // wiring only
      // Sub-interface operations: port arrival/setup margins.
      case OpKind::LilInstrWord:
      case OpKind::LilReadRs1:
      case OpKind::LilReadRs2:
      case OpKind::LilReadPC:
      case OpKind::LilReadCustReg:
        return 0.20;
      case OpKind::LilReadMem:
        return 0.25;
      case OpKind::LilWriteRd:
      case OpKind::LilWritePC:
      case OpKind::LilWriteMem:
      case OpKind::LilWriteCustRegAddr:
      case OpKind::LilWriteCustRegData:
        return 0.10;
      default:
        return 0.1;
    }
}

OpTiming
TechLibrary::timing(const Operation &op) const
{
    OpTiming t;
    // Memory reads deliver their data one cycle after the request.
    if (op.kind() == OpKind::LilReadMem)
        t.latency = 1;

    t.delayNs = physicalDelayNs(op);
    // Uniform mode (paper Sec. 4.2): every logic operation costs one
    // uniform delay unit; pure wiring (zero physical delay: constants,
    // extracts, concats, replicates and shifts by constants) is free.
    if (mode_ == TimingMode::Uniform && t.delayNs != 0.0)
        t.delayNs = uniformDelayNs();
    return t;
}

double
TechLibrary::areaUm2(const Operation &op) const
{
    if (auto comb = ir::combOpOf(op.kind()))
        return combCost(op, *comb).areaUm2;
    if (op.kind() == OpKind::CombConstant)
        return 0.0;
    // Interface ops: handshake/driver logic.
    return 3.0;
}

} // namespace sched
} // namespace longnail
