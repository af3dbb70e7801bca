#include "analysis/tv/terms.hh"

#include <algorithm>

#include "support/logging.hh"

namespace longnail {
namespace analysis {
namespace tv {

const char *
termKindName(TermKind kind)
{
    switch (kind) {
      case TermKind::Var: return "var";
      case TermKind::Const: return "const";
#define LN_COMB_OP(name, lil, term, arity) case TermKind::name: return term;
#include "ir/combops.def"
    }
    return "?";
}

namespace {

bool
isCommutative(TermKind kind)
{
    switch (kind) {
      case TermKind::Add:
      case TermKind::Mul:
      case TermKind::And:
      case TermKind::Or:
      case TermKind::Xor:
        return true;
      default:
        return false;
    }
}

/** Mask with the low @p k bits of a @p width-bit value set. */
ApInt
maskLow(unsigned width, unsigned k)
{
    if (k >= width)
        return ApInt::allOnes(width);
    if (k == 0)
        return ApInt(width, 0);
    return ApInt::allOnes(k).zext(width);
}

} // namespace

bool
TermBuilder::Key::operator<(const Key &rhs) const
{
    if (kind != rhs.kind)
        return kind < rhs.kind;
    if (width != rhs.width)
        return width < rhs.width;
    if (operands != rhs.operands)
        return operands < rhs.operands;
    return payload < rhs.payload;
}

TermId
TermBuilder::intern(Term term)
{
    Key key;
    key.kind = term.kind;
    key.width = term.width;
    key.operands = term.operands;
    switch (term.kind) {
      case TermKind::Const:
        key.payload = term.cval.toStringUnsigned(16);
        break;
      case TermKind::Var:
        key.payload = term.var;
        break;
      case TermKind::ICmp:
        key.payload = ir::icmpPredName(term.pred);
        break;
      case TermKind::Extract:
        key.payload = std::to_string(term.lo);
        break;
      case TermKind::Rom:
        for (const ApInt &v : term.romValues)
            key.payload += v.toStringUnsigned(16) + ",";
        break;
      default:
        break;
    }
    auto [it, inserted] =
        interned_.emplace(std::move(key), TermId(terms_.size()));
    if (inserted)
        terms_.push_back(std::move(term));
    return it->second;
}

TermId
TermBuilder::var(const std::string &name, unsigned width)
{
    Term t;
    t.kind = TermKind::Var;
    t.width = width;
    t.var = name;
    return intern(std::move(t));
}

TermId
TermBuilder::opaque(unsigned width)
{
    // A variable with a name no port mapping can produce, unique per
    // call: structurally incomparable to everything else.
    return var("!opaque#" + std::to_string(nextOpaque_++), width);
}

TermId
TermBuilder::constant(const ApInt &value)
{
    Term t;
    t.kind = TermKind::Const;
    t.width = value.width();
    t.cval = value;
    return intern(std::move(t));
}

TermId
TermBuilder::icmp(ir::ICmpPred pred, TermId lhs, TermId rhs)
{
    // Fold and rewrite here; intern carries the predicate payload.
    if (isConst(lhs) && isConst(rhs))
        return constant(
            ApInt(1, ir::applyICmp(pred, constOf(lhs), constOf(rhs))));
    if (lhs == rhs) {
        switch (pred) {
          case ir::ICmpPred::Eq:
          case ir::ICmpPred::Ule:
          case ir::ICmpPred::Uge:
          case ir::ICmpPred::Sle:
          case ir::ICmpPred::Sge:
            return constant(ApInt(1, 1));
          case ir::ICmpPred::Ne:
          case ir::ICmpPred::Ult:
          case ir::ICmpPred::Ugt:
          case ir::ICmpPred::Slt:
          case ir::ICmpPred::Sgt:
            return constant(ApInt(1, 0));
        }
    }
    // Range reasoning: comparisons the graph-side RangeLattice can
    // decide also fold here, so range-driven dead-code elimination
    // proves symbolically rather than falling back to co-simulation.
    if (auto outcome = icmpOutcome(pred, rangeOf(lhs), rangeOf(rhs)))
        return constant(ApInt(1, *outcome ? 1 : 0));
    // Eq/Ne are symmetric: order the operands.
    if ((pred == ir::ICmpPred::Eq || pred == ir::ICmpPred::Ne) &&
        rhs < lhs)
        std::swap(lhs, rhs);
    Term t;
    t.kind = TermKind::ICmp;
    t.width = 1;
    t.operands = {lhs, rhs};
    t.pred = pred;
    return intern(std::move(t));
}

TermId
TermBuilder::extract(TermId value, unsigned lo, unsigned count)
{
    // Memoize up front: the structural rewrites below recurse into
    // both operands of shared subterms, and on a DAG the same slice
    // request repeats once per path to the subterm.
    auto memo_key = std::make_tuple(value, lo, count);
    auto memo = extractMemo_.find(memo_key);
    if (memo != extractMemo_.end())
        return memo->second;
    TermId out = extractImpl(value, lo, count);
    extractMemo_.emplace(memo_key, out);
    return out;
}

TermId
TermBuilder::extractImpl(TermId value, unsigned lo, unsigned count)
{
    // Copy: the recursive rewrites below may grow terms_ and
    // invalidate references into it.
    const TermKind vkind = terms_.at(value).kind;
    const unsigned vwidth = terms_.at(value).width;
    const unsigned vlo = terms_.at(value).lo;
    const std::vector<TermId> vops = terms_.at(value).operands;

    if (vkind == TermKind::Const)
        return constant(constOf(value).extract(lo, count));
    if (lo == 0 && count == vwidth)
        return value;

    // Slices fold through slices, concatenations and bit-parallel or
    // carry-rippling operators, so a computation narrowed by the pass
    // pipeline (docs/pass-pipeline.md) reduces to the same term as
    // the wide original it replaced.
    switch (vkind) {
      case TermKind::Extract:
        return extract(vops[0], vlo + lo, count);
      case TermKind::Concat: {
        unsigned w1 = terms_.at(vops[1]).width;
        if (lo + count <= w1)
            return extract(vops[1], lo, count);
        if (lo >= w1)
            return extract(vops[0], lo - w1, count);
        TermId hi = extract(vops[0], 0, lo + count - w1);
        TermId low = extract(vops[1], lo, w1 - lo);
        return make(TermKind::Concat, count, {hi, low});
      }
      case TermKind::And:
      case TermKind::Or:
      case TermKind::Xor:
        return make(vkind, count,
                    {extract(vops[0], lo, count),
                     extract(vops[1], lo, count)});
      case TermKind::Mux:
        return make(TermKind::Mux, count,
                    {vops[0], extract(vops[1], lo, count),
                     extract(vops[2], lo, count)});
      case TermKind::Replicate:
        return make(TermKind::Replicate, count, {vops[0]});
      case TermKind::Add:
      case TermKind::Sub:
      case TermKind::Mul:
      case TermKind::Shl:
        // Low bits depend only on low operand bits (carries ripple
        // upward). The shift case holds at any width because amounts
        // clamp to the value width on both sides: an amount >= count
        // zeroes the low `count` bits of the wide shift too.
        if (lo == 0) {
            TermId a = extract(vops[0], 0, count);
            TermId b = vkind == TermKind::Shl
                           ? vops[1]
                           : extract(vops[1], 0, count);
            return make(vkind, count, {a, b});
        }
        break;
      default:
        break;
    }

    Term t;
    t.kind = TermKind::Extract;
    t.width = count;
    t.operands = {value};
    t.lo = lo;
    return intern(std::move(t));
}

TermId
TermBuilder::rom(std::vector<ApInt> values, unsigned width, TermId index)
{
    if (isConst(index))
        return constant(ir::evalComb(
            ir::CombOp::Rom, width, {1, ir::ICmpPred::Eq, 0, values},
            [&](unsigned) -> const ApInt & { return constOf(index); }));
    Term t;
    t.kind = TermKind::Rom;
    t.width = width;
    t.operands = {index};
    t.romValues = std::move(values);
    return intern(std::move(t));
}

TermId
TermBuilder::comb(ir::CombOp op, unsigned width,
                  std::vector<TermId> operands,
                  const ir::CombAttrs &attrs)
{
    switch (op) {
      case ir::CombOp::ICmp:
        return icmp(attrs.pred, operands.at(0), operands.at(1));
      case ir::CombOp::Extract:
        return extract(operands.at(0), attrs.lo, width);
      case ir::CombOp::Rom:
        return rom({attrs.rom.begin(), attrs.rom.end()}, width,
                   operands.at(0));
      default:
        return make(termKindOf(op), width, std::move(operands));
    }
}

TermId
TermBuilder::make(TermKind kind, unsigned width,
                  std::vector<TermId> operands)
{
    switch (kind) {
      case TermKind::Var:
      case TermKind::Const:
      case TermKind::ICmp:
      case TermKind::Extract:
      case TermKind::Rom:
        LN_PANIC("use the dedicated TermBuilder entry point for ",
                 termKindName(kind));
      default:
        break;
    }

    bool all_const = true;
    for (TermId op : operands)
        all_const &= isConst(op);

    // Constant folding. A folded mux interns to its selected operand.
    if (all_const && !operands.empty())
        return constant(ir::evalComb(
            *combOpOf(kind), width, {unsigned(operands.size())},
            [&](unsigned i) -> const ApInt & {
                return constOf(operands[i]);
            }));

    // Local identity rewrites (x op neutral-element, idempotence).
    auto zero = [&](TermId id) {
        return isConst(id) && constOf(id).isZero();
    };
    auto one = [&](TermId id) {
        return isConst(id) && constOf(id) == ApInt(constOf(id).width(), 1);
    };
    auto ones = [&](TermId id) {
        return isConst(id) && constOf(id).isAllOnes();
    };
    switch (kind) {
      case TermKind::Add:
        if (zero(operands[0])) return operands[1];
        if (zero(operands[1])) return operands[0];
        break;
      case TermKind::Sub:
        if (zero(operands[1])) return operands[0];
        if (operands[0] == operands[1])
            return constant(ApInt(width, 0));
        break;
      case TermKind::Mul:
        if (zero(operands[0]) || zero(operands[1]))
            return constant(ApInt(width, 0));
        if (one(operands[0])) return operands[1];
        if (one(operands[1])) return operands[0];
        break;
      case TermKind::And:
        if (zero(operands[0]) || zero(operands[1]))
            return constant(ApInt(width, 0));
        if (ones(operands[0])) return operands[1];
        if (ones(operands[1])) return operands[0];
        if (operands[0] == operands[1]) return operands[0];
        break;
      case TermKind::Or:
        if (zero(operands[0])) return operands[1];
        if (zero(operands[1])) return operands[0];
        if (ones(operands[0]) || ones(operands[1]))
            return constant(ApInt::allOnes(width));
        if (operands[0] == operands[1]) return operands[0];
        break;
      case TermKind::Xor:
        if (zero(operands[0])) return operands[1];
        if (zero(operands[1])) return operands[0];
        if (operands[0] == operands[1])
            return constant(ApInt(width, 0));
        break;
      case TermKind::Shl:
      case TermKind::ShrU:
      case TermKind::ShrS:
        if (zero(operands[1])) return operands[0];
        break;
      case TermKind::Mux:
        if (isConst(operands[0]))
            return constOf(operands[0]).isZero() ? operands[2]
                                                 : operands[1];
        if (operands[1] == operands[2]) return operands[1];
        break;
      case TermKind::Replicate:
        if (width == 1) return operands[0];
        break;
      default:
        break;
    }

    // Strength/shape canonicalizations: power-of-two multiplicative
    // operators become shifts/masks and constant masks narrow the
    // computation they guard, so the graph-side strength reduction and
    // bitwidth narrowing rewrites (src/passes/) reduce to the same
    // canonical term as the code they replaced.
    auto powerOfTwo = [&](TermId id) -> std::optional<unsigned> {
        if (!isConst(id))
            return std::nullopt;
        const ApInt &c = constOf(id);
        unsigned k = c.activeBits();
        if (k == 0 || c != ApInt::oneBit(c.width(), k - 1))
            return std::nullopt;
        return k - 1;
    };
    switch (kind) {
      case TermKind::Mul:
        for (unsigned i = 0; i < 2; ++i)
            if (auto s = powerOfTwo(operands[i]))
                return make(TermKind::Shl, width,
                            {operands[1 - i],
                             constant(ApInt(width, *s))});
        break;
      case TermKind::DivU:
        if (auto s = powerOfTwo(operands[1]))
            return make(TermKind::ShrU, width,
                        {operands[0], constant(ApInt(width, *s))});
        break;
      case TermKind::ModU:
        if (auto s = powerOfTwo(operands[1])) {
            if (*s == 0)
                return constant(ApInt(width, 0));
            return make(TermKind::And, width,
                        {operands[0], constant(maskLow(width, *s))});
        }
        break;
      case TermKind::And:
        for (unsigned i = 0; i < 2; ++i) {
            if (!isConst(operands[i]) || isConst(operands[1 - i]))
                continue;
            ApInt c = constOf(operands[i]);
            unsigned k = c.activeBits();
            // High bits of the mask are zero: only the low k bits of
            // the other operand can reach the result.
            if (k == 0 || k >= width)
                continue;
            TermId low = make(TermKind::And, k,
                              {extract(operands[1 - i], 0, k),
                               constant(c.extract(0, k))});
            return make(TermKind::Concat, width,
                        {constant(ApInt(width - k, 0)), low});
        }
        break;
      case TermKind::Shl:
      case TermKind::ShrU:
        // Overshift: amounts clamp to the width and every data bit is
        // discarded (shrs keeps the sign fill and stays symbolic).
        if (isConst(operands[1]) &&
            ir::clampShiftAmount(constOf(operands[1]), width) >= width)
            return constant(ApInt(width, 0));
        break;
      default:
        break;
    }

    if (isCommutative(kind) && operands.size() == 2 &&
        operands[1] < operands[0])
        std::swap(operands[0], operands[1]);

    Term t;
    t.kind = kind;
    t.width = width;
    t.operands = std::move(operands);
    return intern(std::move(t));
}

ValueRange
TermBuilder::rangeOf(TermId id)
{
    auto hit = ranges_.find(id);
    if (hit != ranges_.end())
        return hit->second;

    auto boundedMax = [](uint64_t umax) { return umax != UINT64_MAX; };
    auto satAdd = [](uint64_t a, uint64_t b) {
        return a > UINT64_MAX - b ? UINT64_MAX : a + b;
    };

    // Copy the node: recursive rangeOf calls do not grow terms_, but
    // keeping a value avoids any aliasing surprise.
    const Term t = terms_.at(id);
    const unsigned w = t.width;
    ValueRange out = ValueRange::full(w);

    switch (t.kind) {
      case TermKind::Const:
        out = ValueRange::exact(t.cval);
        break;
      case TermKind::Add: {
        ValueRange a = rangeOf(t.operands[0]);
        ValueRange b = rangeOf(t.operands[1]);
        if (boundedMax(a.umax) && boundedMax(b.umax)) {
            uint64_t smax = satAdd(a.umax, b.umax);
            if (boundedMax(smax) && smax <= ValueRange::maxFor(w)) {
                out.umin = satAdd(a.umin, b.umin);
                out.umax = smax;
            }
        }
        break;
      }
      case TermKind::Sub: {
        ValueRange a = rangeOf(t.operands[0]);
        ValueRange b = rangeOf(t.operands[1]);
        if (boundedMax(b.umax) && a.umin >= b.umax) {
            out.umin = a.umin - b.umax;
            if (boundedMax(a.umax))
                out.umax = a.umax - b.umin;
        }
        break;
      }
      case TermKind::Mul: {
        ValueRange a = rangeOf(t.operands[0]);
        ValueRange b = rangeOf(t.operands[1]);
        uint64_t limit = ValueRange::maxFor(w);
        if (boundedMax(a.umax) && boundedMax(b.umax) &&
            boundedMax(limit)) {
            unsigned __int128 p = (unsigned __int128)a.umax * b.umax;
            if (p <= limit) {
                out.umin = a.umin * b.umin;
                out.umax = uint64_t(p);
            }
        }
        break;
      }
      case TermKind::And: {
        ValueRange a = rangeOf(t.operands[0]);
        ValueRange b = rangeOf(t.operands[1]);
        out.umin = 0;
        out.umax = std::min(a.umax, b.umax);
        break;
      }
      case TermKind::Or:
      case TermKind::Xor: {
        ValueRange a = rangeOf(t.operands[0]);
        ValueRange b = rangeOf(t.operands[1]);
        out.umin = t.kind == TermKind::Or ? std::max(a.umin, b.umin)
                                          : 0;
        if (boundedMax(a.umax) && boundedMax(b.umax))
            out.umax = std::min(ValueRange::maxFor(w),
                                satAdd(a.umax, b.umax));
        break;
      }
      case TermKind::ShrU: {
        ValueRange a = rangeOf(t.operands[0]);
        ValueRange amt = rangeOf(t.operands[1]);
        uint64_t shift = std::min<uint64_t>(amt.umin, 63);
        uint64_t amax =
            boundedMax(a.umax) ? a.umax : ValueRange::maxFor(w);
        if (boundedMax(amax))
            out.umax = amax >> shift;
        break;
      }
      case TermKind::Shl: {
        ValueRange a = rangeOf(t.operands[0]);
        ValueRange amt = rangeOf(t.operands[1]);
        uint64_t limit = ValueRange::maxFor(w);
        if (amt.constant && boundedMax(a.umax) && amt.umin < 64 &&
            boundedMax(limit)) {
            unsigned __int128 hi = (unsigned __int128)a.umax
                                   << amt.umin;
            if (hi <= limit) {
                out.umin = a.umin << amt.umin;
                out.umax = uint64_t(hi);
            }
        }
        break;
      }
      case TermKind::DivU: {
        ValueRange a = rangeOf(t.operands[0]);
        ValueRange b = rangeOf(t.operands[1]);
        if (b.umin >= 1) {
            uint64_t amax =
                boundedMax(a.umax) ? a.umax : ValueRange::maxFor(w);
            if (boundedMax(amax))
                out.umax = amax / b.umin;
            if (boundedMax(b.umax))
                out.umin = a.umin / b.umax;
        }
        break;
      }
      case TermKind::ModU: {
        ValueRange a = rangeOf(t.operands[0]);
        ValueRange b = rangeOf(t.operands[1]);
        if (b.umin >= 1 && boundedMax(b.umax)) {
            out.umax = b.umax - 1;
            if (boundedMax(a.umax))
                out.umax = std::min(out.umax, a.umax);
        }
        break;
      }
      case TermKind::Mux: {
        ValueRange a = rangeOf(t.operands[1]);
        ValueRange b = rangeOf(t.operands[2]);
        out.umin = std::min(a.umin, b.umin);
        out.umax = std::max(a.umax, b.umax);
        break;
      }
      case TermKind::Extract: {
        ValueRange a = rangeOf(t.operands[0]);
        if (t.lo == 0 && boundedMax(a.umax) &&
            a.umax <= ValueRange::maxFor(w)) {
            out.umin = a.umin;
            out.umax = a.umax;
        }
        break;
      }
      case TermKind::Concat: {
        if (w > 64)
            break;
        ValueRange hi = rangeOf(t.operands[0]);
        ValueRange lo = rangeOf(t.operands[1]);
        unsigned lo_width = terms_.at(t.operands[1]).width;
        out.umin = (hi.umin << lo_width) + lo.umin;
        out.umax = (hi.umax << lo_width) + lo.umax;
        break;
      }
      case TermKind::Rom: {
        if (t.romValues.empty())
            break;
        uint64_t lo = UINT64_MAX, hi = 0;
        bool all_fit = true;
        for (const ApInt &v : t.romValues) {
            if (v.activeBits() > 64) {
                all_fit = false;
                break;
            }
            uint64_t u = v.zextOrTrunc(64).toUint64();
            lo = std::min(lo, u);
            hi = std::max(hi, u);
        }
        if (!all_fit)
            break;
        ValueRange idx = rangeOf(t.operands[0]);
        bool in_range =
            boundedMax(idx.umax) && idx.umax < t.romValues.size();
        out.umin = in_range ? lo : 0;
        out.umax = hi;
        break;
      }
      default:
        break;
    }

    ranges_[id] = out;
    return out;
}

std::string
TermBuilder::render(TermId id, unsigned max_depth) const
{
    const Term &t = terms_.at(id);
    switch (t.kind) {
      case TermKind::Var:
        return t.var;
      case TermKind::Const:
        return "0x" + t.cval.toStringUnsigned(16) + ":" +
               std::to_string(t.width);
      default:
        break;
    }
    if (max_depth == 0)
        return "...";
    std::string out = "(";
    out += termKindName(t.kind);
    if (t.kind == TermKind::ICmp)
        out += std::string(".") + ir::icmpPredName(t.pred);
    if (t.kind == TermKind::Extract)
        out += "[" + std::to_string(t.lo) + "+:" +
               std::to_string(t.width) + "]";
    for (TermId op : t.operands)
        out += " " + render(op, max_depth - 1);
    out += ")";
    return out;
}

} // namespace tv
} // namespace analysis
} // namespace longnail
