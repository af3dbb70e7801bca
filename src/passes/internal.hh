/**
 * @file
 * Helpers shared by the pass implementations (not part of the public
 * passes.hh surface).
 */

#ifndef LONGNAIL_PASSES_INTERNAL_HH
#define LONGNAIL_PASSES_INTERNAL_HH

#include <optional>
#include <set>

#include "ir/ir.hh"
#include "support/apint.hh"

namespace longnail {
namespace passes {
namespace detail {

/** Rewrite every use of @p from (including in subgraphs) to @p to. */
void replaceAllUses(ir::Graph &graph, ir::Value *from, ir::Value *to);

/** Every value appearing as an operand somewhere in @p graph. */
std::set<const ir::Value *> usedValues(const ir::Graph &graph);

/** The constant @p v is defined by, if its defining op is one. */
const ApInt *definingConstant(const ir::Value *v);

/** log2 of a power-of-two constant, nullopt otherwise. */
std::optional<unsigned> log2OfPowerOfTwo(const ApInt &value);

} // namespace detail
} // namespace passes
} // namespace longnail

#endif // LONGNAIL_PASSES_INTERNAL_HH
