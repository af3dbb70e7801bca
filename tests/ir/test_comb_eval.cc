/**
 * @file
 * Property test of ir::evalComb(), the one definition of the comb ops'
 * ApInt semantics, against a plain uint64_t reference written here:
 * seeded random widths 1..64 plus the edge values (zero divisors,
 * INT_MIN / -1, shift amounts at or past the width and with more than
 * 32 active bits, ROM indices past the table or with more than 63
 * active bits, a three-operand concat). Also pins that ir::evaluate()
 * leaves a division by zero unfolded.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "ir/comb.hh"
#include "ir/eval.hh"
#include "ir/ir.hh"

using namespace longnail;
using ir::CombOp;
using ir::ICmpPred;

namespace {

uint64_t
maskOf(unsigned w)
{
    return w >= 64 ? ~uint64_t(0) : (uint64_t(1) << w) - 1;
}

/** @p v (a @p w-bit value) sign-extended to 64 bits. */
int64_t
sext(uint64_t v, unsigned w)
{
    if (w >= 64)
        return int64_t(v);
    uint64_t sign = uint64_t(1) << (w - 1);
    return int64_t((v ^ sign) - sign);
}

uint64_t
magnitude(int64_t v)
{
    return v < 0 ? uint64_t(0) - uint64_t(v) : uint64_t(v);
}

bool
refICmp(ICmpPred pred, uint64_t a, uint64_t b, unsigned w)
{
    int64_t sa = sext(a, w), sb = sext(b, w);
    switch (pred) {
      case ICmpPred::Eq: return a == b;
      case ICmpPred::Ne: return a != b;
      case ICmpPred::Ult: return a < b;
      case ICmpPred::Ule: return a <= b;
      case ICmpPred::Ugt: return a > b;
      case ICmpPred::Uge: return a >= b;
      case ICmpPred::Slt: return sa < sb;
      case ICmpPred::Sle: return sa <= sb;
      case ICmpPred::Sgt: return sa > sb;
      case ICmpPred::Sge: return sa >= sb;
    }
    return false;
}

/** Reference for the two-operand ops at width @p w. */
uint64_t
refBinary(CombOp op, unsigned w, uint64_t a, uint64_t b)
{
    const uint64_t m = maskOf(w);
    int64_t sa = sext(a, w), sb = sext(b, w);
    bool neg = (sa < 0) != (sb < 0);
    // Shift amounts saturate at the width.
    uint64_t amt = b < w ? b : w;
    switch (op) {
      case CombOp::Add: return (a + b) & m;
      case CombOp::Sub: return (a - b) & m;
      case CombOp::Mul: return (a * b) & m;
      case CombOp::DivU: return b == 0 ? 0 : a / b;
      case CombOp::ModU: return b == 0 ? 0 : a % b;
      case CombOp::DivS: {
        if (b == 0)
            return 0;
        uint64_t q = magnitude(sa) / magnitude(sb);
        return (neg ? uint64_t(0) - q : q) & m;
      }
      case CombOp::ModS: {
        if (b == 0)
            return 0;
        uint64_t r = magnitude(sa) % magnitude(sb);
        return (sa < 0 ? uint64_t(0) - r : r) & m;
      }
      case CombOp::And: return a & b;
      case CombOp::Or: return a | b;
      case CombOp::Xor: return a ^ b;
      case CombOp::Shl: return amt >= 64 ? 0 : (a << amt) & m;
      case CombOp::ShrU: return amt >= 64 ? 0 : a >> amt;
      case CombOp::ShrS:
        return uint64_t(sa >> (amt >= 64 ? 63 : amt)) & m;
      default:
        ADD_FAILURE() << "not a binary op";
        return 0;
    }
}

ApInt
evalOn(CombOp op, unsigned width, const ir::CombAttrs &attrs,
       const std::vector<ApInt> &in)
{
    return ir::evalComb(op, width, attrs,
                        [&](unsigned i) -> const ApInt & {
                            return in.at(i);
                        });
}

/** Edge values of a @p w-bit operand plus random ones. */
std::vector<uint64_t>
operandValues(unsigned w, std::mt19937_64 &rng)
{
    const uint64_t m = maskOf(w);
    std::vector<uint64_t> v = {0,
                               1,
                               m,
                               (uint64_t(1) << (w - 1)),     // INT_MIN
                               m >> 1,                        // INT_MAX
                               uint64_t(w),                   // amount == w
                               uint64_t(w - 1),
                               (uint64_t(1) << 32 | 1) & m,   // > 32 bits
                               rng() & m,
                               rng() & m};
    return v;
}

constexpr CombOp binaryOps[] = {
    CombOp::Add,  CombOp::Sub,  CombOp::Mul, CombOp::DivU,
    CombOp::DivS, CombOp::ModU, CombOp::ModS, CombOp::And,
    CombOp::Or,   CombOp::Xor,  CombOp::Shl, CombOp::ShrU,
    CombOp::ShrS,
};

} // namespace

TEST(CombEval, BinaryOpsMatchUint64Reference)
{
    std::mt19937_64 rng(0xC0DE5EED);
    std::vector<unsigned> widths = {1, 2, 7, 8, 16, 31, 32, 33, 63, 64};
    for (int i = 0; i < 20; ++i)
        widths.push_back(1 + unsigned(rng() % 64));
    for (unsigned w : widths) {
        std::vector<uint64_t> vals = operandValues(w, rng);
        for (CombOp op : binaryOps) {
            for (uint64_t a : vals) {
                for (uint64_t b : vals) {
                    ApInt got = evalOn(op, w, {2},
                                       {ApInt(w, a), ApInt(w, b)});
                    ASSERT_EQ(got.width(), w);
                    ASSERT_EQ(got.toUint64(), refBinary(op, w, a, b))
                        << ir::combOpName(op) << " w=" << w << " a=" << a
                        << " b=" << b;
                }
            }
        }
    }
}

TEST(CombEval, SignedDivisionEdgeCases)
{
    for (unsigned w : {8u, 32u, 64u}) {
        ApInt int_min = ApInt::oneBit(w, w - 1);
        ApInt minus_one = ApInt::allOnes(w);
        // INT_MIN / -1 wraps to INT_MIN; the remainder is 0.
        EXPECT_EQ(evalOn(CombOp::DivS, w, {2}, {int_min, minus_one}),
                  int_min);
        EXPECT_TRUE(
            evalOn(CombOp::ModS, w, {2}, {int_min, minus_one}).isZero());
        // Magnitudes: -7 / 2 = -3, -7 % 2 = -1, 7 % -2 = 1.
        EXPECT_EQ(evalOn(CombOp::DivS, w, {2},
                         {ApInt::fromInt64(w, -7), ApInt(w, 2)}),
                  ApInt::fromInt64(w, -3));
        EXPECT_EQ(evalOn(CombOp::ModS, w, {2},
                         {ApInt::fromInt64(w, -7), ApInt(w, 2)}),
                  ApInt::fromInt64(w, -1));
        EXPECT_EQ(evalOn(CombOp::ModS, w, {2},
                         {ApInt(w, 7), ApInt::fromInt64(w, -2)}),
                  ApInt(w, 1));
        for (CombOp op : {CombOp::DivU, CombOp::DivS, CombOp::ModU,
                          CombOp::ModS})
            EXPECT_TRUE(
                evalOn(op, w, {2}, {int_min, ApInt(w, 0)}).isZero())
                << ir::combOpName(op) << " by zero";
    }
}

TEST(CombEval, ShiftAmountsClamp)
{
    // 2^32 + 1 has 33 active bits: it saturates to the width instead
    // of shifting by its low word.
    ApInt value = ApInt::allOnes(64);
    ApInt wide_amount(64, (uint64_t(1) << 32) | 1);
    EXPECT_TRUE(evalOn(CombOp::Shl, 64, {2}, {value, wide_amount}).isZero());
    EXPECT_TRUE(
        evalOn(CombOp::ShrU, 64, {2}, {value, wide_amount}).isZero());
    EXPECT_TRUE(
        evalOn(CombOp::ShrS, 64, {2}, {value, wide_amount}).isAllOnes());
    // The amount operand may be narrower or wider than the value.
    EXPECT_EQ(evalOn(CombOp::Shl, 8, {2}, {ApInt(8, 1), ApInt(3, 7)}),
              ApInt(8, 0x80));
    EXPECT_TRUE(evalOn(CombOp::ShrU, 8, {2},
                       {ApInt(8, 0xff), ApInt(100, 8)})
                    .isZero());
    EXPECT_EQ(ir::clampShiftAmount(wide_amount, 64), 64u);
    EXPECT_EQ(ir::clampShiftAmount(ApInt(64, 5), 64), 5u);
    EXPECT_EQ(ir::clampShiftAmount(ApInt(64, 100), 64), 64u);
}

TEST(CombEval, ICmpMatchesReference)
{
    std::mt19937_64 rng(0x1C3B);
    for (unsigned w : {1u, 5u, 32u, 64u}) {
        std::vector<uint64_t> vals = operandValues(w, rng);
        for (int p = 0; p <= int(ICmpPred::Sge); ++p) {
            auto pred = ICmpPred(p);
            for (uint64_t a : vals) {
                for (uint64_t b : vals) {
                    ApInt got = evalOn(CombOp::ICmp, 1, {2, pred},
                                       {ApInt(w, a), ApInt(w, b)});
                    ASSERT_EQ(got.width(), 1u);
                    ASSERT_EQ(got.toUint64(),
                              uint64_t(refICmp(pred, a, b, w)))
                        << ir::icmpPredName(pred) << " w=" << w;
                }
            }
        }
    }
}

TEST(CombEval, MuxExtractConcatReplicate)
{
    std::mt19937_64 rng(0x5EED);
    for (int trial = 0; trial < 200; ++trial) {
        unsigned w = 1 + unsigned(rng() % 64);
        uint64_t a = rng() & maskOf(w), b = rng() & maskOf(w);
        for (uint64_t sel : {0ull, 1ull})
            ASSERT_EQ(evalOn(CombOp::Mux, w, {3},
                             {ApInt(1, sel), ApInt(w, a), ApInt(w, b)})
                          .toUint64(),
                      sel ? a : b);

        unsigned lo = unsigned(rng() % w);
        unsigned count = 1 + unsigned(rng() % (w - lo));
        ir::CombAttrs ex{1};
        ex.lo = lo;
        ApInt slice = evalOn(CombOp::Extract, count, ex, {ApInt(w, a)});
        ASSERT_EQ(slice.width(), count);
        ASSERT_EQ(slice.toUint64(), (a >> lo) & maskOf(count));

        // Three operands, first one high.
        unsigned w0 = 1 + unsigned(rng() % 20);
        unsigned w1 = 1 + unsigned(rng() % 20);
        unsigned w2 = 1 + unsigned(rng() % 20);
        uint64_t x = rng() & maskOf(w0), y = rng() & maskOf(w1),
                 z = rng() & maskOf(w2);
        ApInt cat = evalOn(CombOp::Concat, w0 + w1 + w2, {3},
                           {ApInt(w0, x), ApInt(w1, y), ApInt(w2, z)});
        ASSERT_EQ(cat.width(), w0 + w1 + w2);
        ASSERT_EQ(cat.toUint64(), (x << (w1 + w2)) | (y << w2) | z);

        for (uint64_t bit : {0ull, 1ull})
            ASSERT_EQ(
                evalOn(CombOp::Replicate, w, {1}, {ApInt(1, bit)})
                    .toUint64(),
                bit ? maskOf(w) : 0);
    }
}

TEST(CombEval, RomReadsTableAndZeroOutOfRange)
{
    std::mt19937_64 rng(0x12034);
    for (unsigned w : {1u, 8u, 32u, 64u}) {
        std::vector<ApInt> table;
        std::vector<uint64_t> ref;
        for (int i = 0; i < 5; ++i) {
            ref.push_back(rng() & maskOf(w));
            table.push_back(ApInt(w, ref.back()));
        }
        ir::CombAttrs attrs{1};
        attrs.rom = table;
        for (uint64_t index = 0; index < 9; ++index)
            EXPECT_EQ(evalOn(CombOp::Rom, w, attrs, {ApInt(4, index)})
                          .toUint64(),
                      index < ref.size() ? ref[index] : 0);
        // More than 63 active bits: out of range even though the low
        // word reads 1.
        ApInt huge(70, 1);
        huge.setBit(65, true);
        EXPECT_TRUE(evalOn(CombOp::Rom, w, attrs, {huge}).isZero());
        EXPECT_TRUE(
            evalOn(CombOp::Rom, w, attrs, {ApInt::allOnes(64)}).isZero());
        // Without an index operand the rom reads entry 0.
        ir::CombAttrs scalar;
        scalar.rom = table;
        EXPECT_EQ(evalOn(CombOp::Rom, w, scalar, {}).toUint64(), ref[0]);
    }
}

TEST(CombEval, TableViewsRoundTrip)
{
    for (unsigned i = 0; i < ir::numCombOps; ++i) {
        auto op = CombOp(i);
        ir::OpKind kind = ir::opKindOf(op);
        EXPECT_EQ(ir::combOpOf(kind), op);
        EXPECT_TRUE(ir::isCombKind(kind));
        EXPECT_EQ(std::string(ir::opKindName(kind)),
                  std::string("comb.") + ir::combOpName(op));
    }
    EXPECT_FALSE(ir::combOpOf(ir::OpKind::CombConstant).has_value());
    EXPECT_TRUE(ir::isCombKind(ir::OpKind::CombConstant));
    EXPECT_FALSE(ir::isCombKind(ir::OpKind::HwAdd));
}

TEST(CombEval, EvaluateLeavesDivisionByZeroUnfolded)
{
    for (ir::OpKind kind : {ir::OpKind::CombDivU, ir::OpKind::CombDivS,
                            ir::OpKind::CombModU, ir::OpKind::CombModS}) {
        ir::Graph g;
        ir::Operation *a = g.append(ir::OpKind::CombConstant, {}, {32});
        a->setAttr("value", ApInt(32, 7));
        ir::Operation *b = g.append(ir::OpKind::CombConstant, {}, {32});
        b->setAttr("value", ApInt(32, 0));
        ir::Operation *op =
            g.append(kind, {a->result(), b->result()}, {32});
        EXPECT_FALSE(
            ir::evaluate(*op, {ApInt(32, 7), ApInt(32, 0)}).has_value())
            << ir::opKindName(kind);
        EXPECT_TRUE(
            ir::evaluate(*op, {ApInt(32, 7), ApInt(32, 2)}).has_value())
            << ir::opKindName(kind);
    }
}
