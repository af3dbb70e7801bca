/**
 * @file
 * cse: common-subexpression elimination over the pure comb ops of one
 * LIL graph. The structural key follows the same discipline as the
 * hash-consed term DAG (src/analysis/tv/terms.cc): kind, attributes,
 * operand identity — with the operands of commutative kinds sorted —
 * and the result width. A single in-order sweep with immediate
 * replacement reaches the value-numbering fixpoint on the straight-line
 * graphs LIL produces, so the pass is idempotent by construction.
 */

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "ir/eval.hh"
#include "passes/internal.hh"
#include "passes/passes.hh"

namespace longnail {
namespace passes {

using ir::OpKind;

namespace {

bool
isCommutative(OpKind kind)
{
    switch (kind) {
      case OpKind::CombAdd:
      case OpKind::CombMul:
      case OpKind::CombAnd:
      case OpKind::CombOr:
      case OpKind::CombXor:
        return true;
      default:
        return false;
    }
}

void
appendAttr(std::ostringstream &os, const std::string &key,
           const ir::Attr &attr)
{
    os << '|' << key << '=';
    if (const auto *i = std::get_if<int64_t>(&attr)) {
        os << 'i' << *i;
    } else if (const auto *s = std::get_if<std::string>(&attr)) {
        os << 's' << *s;
    } else if (const auto *a = std::get_if<ApInt>(&attr)) {
        os << 'a' << a->width() << ':' << a->toStringUnsigned(16);
    } else if (const auto *v = std::get_if<std::vector<ApInt>>(&attr)) {
        os << 'v';
        for (const ApInt &e : *v)
            os << e.width() << ':' << e.toStringUnsigned(16) << ',';
    }
}

std::string
structuralKey(const ir::Operation &op)
{
    std::ostringstream os;
    os << op.name() << '#' << op.result()->type.width;
    for (const auto &[key, attr] : op.attrs())
        appendAttr(os, key, attr);
    std::vector<unsigned> ids;
    ids.reserve(op.numOperands());
    for (const ir::Value *v : op.operands())
        ids.push_back(v->id);
    if (isCommutative(op.kind()))
        std::sort(ids.begin(), ids.end());
    os << '@';
    for (unsigned id : ids)
        os << id << ',';
    return os.str();
}

} // namespace

unsigned
runCse(lil::LilGraph &graph)
{
    unsigned rewrites = 0;
    std::map<std::string, ir::Value *> leaders;
    auto used = detail::usedValues(graph.graph);

    for (const auto &op : graph.graph.ops()) {
        if (op->numResults() != 1 || op->subgraph() ||
            !ir::isCombKind(op->kind()) ||
            !ir::isPureComputation(op->kind()))
            continue;
        // Replaced duplicates linger as dead ops until DCE runs; the
        // use-gate keeps a second CSE run from re-counting them
        // (idempotence). Uses only shrink during the sweep, so the
        // snapshot taken above stays conservative.
        if (!used.count(op->result()))
            continue;
        std::string key = structuralKey(*op);
        auto [it, inserted] = leaders.emplace(key, op->result());
        if (inserted)
            continue;
        // Immediate replacement: later ops keying on this result see
        // the leader's id, so chains collapse in one sweep.
        detail::replaceAllUses(graph.graph, op->result(), it->second);
        ++rewrites;
    }
    return rewrites;
}

} // namespace passes
} // namespace longnail
