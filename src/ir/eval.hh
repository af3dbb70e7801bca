/**
 * @file
 * Pure-operation evaluator shared by constant folding, the LIL
 * interpreter (the golden model for generated datapaths), and tests.
 * The comb ops evaluate through ir::evalComb() (ir/comb.hh); the
 * hwarith and coredsl ops keep their own width and sign rules here.
 */

#ifndef LONGNAIL_IR_EVAL_HH
#define LONGNAIL_IR_EVAL_HH

#include <optional>
#include <vector>

#include "ir/comb.hh"
#include "ir/ir.hh"
#include "support/apint.hh"

namespace longnail {
namespace ir {

/**
 * Evaluate a side-effect-free operation given its operand values.
 *
 * Operand value widths must match the corresponding operand types.
 * @return the result value, or nullopt if the operation is not a pure
 *         computation (interface ops, state accesses, terminators) or
 *         hits undefined behavior (division by zero, which folding
 *         leaves in place; lil::interpret() then reads it as 0, the
 *         value evalComb() defines).
 */
std::optional<ApInt> evaluate(const Operation &op,
                              const std::vector<ApInt> &operands);

/** True if @p kind is evaluatable by evaluate() (pure computation). */
bool isPureComputation(OpKind kind);

/** The evalComb() attributes of comb op @p op (operand count, pred,
 * lo, rom table; the table stays owned by @p op). */
CombAttrs combAttrsOf(const Operation &op);

} // namespace ir
} // namespace longnail

#endif // LONGNAIL_IR_EVAL_HH
