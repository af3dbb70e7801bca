/**
 * @file
 * Every row of ir/combops.def, seen through every view that computes
 * it, on edge inputs: a one-op netlist under the interpreter and the
 * compiled rtl::Simulator, tv::TermBuilder constant folding, and a
 * one-op LIL graph under ir::evaluate() and lil::interpret(). Each
 * must give ir::evalComb()'s value (which tests/ir/test_comb_eval.cc
 * holds to a plain-C++ reference), so a row added to the table but not
 * wired into one of the views fails here. Widths past 64 and 128 bits
 * drive the compiled engine's u128 lane and its ApInt fallback.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/tv/terms.hh"
#include "ir/comb.hh"
#include "ir/eval.hh"
#include "lil/interp.hh"
#include "lil/lil.hh"
#include "rtl/netlist.hh"
#include "rtl/sim.hh"

using namespace longnail;
using ir::CombOp;

namespace {

/** One evaluation of one op: its operands, attributes and width. */
struct Case
{
    CombOp op;
    unsigned width = 1;
    std::vector<ApInt> in;
    ir::ICmpPred pred = ir::ICmpPred::Eq;
    unsigned lo = 0;
    std::vector<ApInt> rom{};

    ir::CombAttrs
    attrs() const
    {
        return {unsigned(in.size()), pred, lo, rom};
    }

    std::string
    describe() const
    {
        std::string s = std::string(ir::combOpName(op)) + " w=" +
                        std::to_string(width);
        for (const ApInt &v : in)
            s += " 0x" + v.toStringUnsigned(16) + ":" +
                 std::to_string(v.width());
        return s;
    }
};

ApInt
expected(const Case &c)
{
    return ir::evalComb(c.op, c.width, c.attrs(),
                        [&](unsigned i) -> const ApInt & {
                            return c.in[i];
                        });
}

/** Edge values at width @p w. */
std::vector<ApInt>
edgeValues(unsigned w)
{
    std::vector<ApInt> v = {ApInt(w, 0), ApInt(w, 1), ApInt::allOnes(w)};
    if (w > 1) {
        v.push_back(ApInt::oneBit(w, w - 1));            // INT_MIN
        v.push_back(ApInt::allOnes(w).lshr(1));          // INT_MAX
        v.push_back(ApInt(w, w));                        // amount == w
    }
    if (w > 33)
        v.push_back(ApInt(w, (uint64_t(1) << 32) | 1)); // > 32 bits
    return v;
}

std::vector<Case>
casesFor(CombOp op)
{
    std::vector<Case> cases;
    const unsigned widths[] = {1, 8, 33, 64, 100, 200};
    switch (op) {
      case CombOp::ICmp:
        for (unsigned w : widths)
            for (const ApInt &a : edgeValues(w))
                for (const ApInt &b : edgeValues(w))
                    for (int p = 0; p <= int(ir::ICmpPred::Sge); ++p)
                        cases.push_back(
                            {op, 1, {a, b}, ir::ICmpPred(p)});
        break;
      case CombOp::Mux:
        for (unsigned w : widths)
            for (const ApInt &a : edgeValues(w))
                for (uint64_t sel : {0, 1})
                    cases.push_back(
                        {op, w, {ApInt(1, sel), a, ApInt::allOnes(w)}});
        break;
      case CombOp::Extract:
        for (unsigned w : widths) {
            for (const ApInt &a : edgeValues(w)) {
                for (unsigned lo : {0u, w / 2}) {
                    for (unsigned count : {1u, w - lo}) {
                        Case c{op, count, {a}};
                        c.lo = lo;
                        cases.push_back(c);
                    }
                }
            }
        }
        break;
      case CombOp::Concat:
        for (unsigned w : widths) {
            for (const ApInt &a : edgeValues(w)) {
                cases.push_back({op, 2 * w, {a, ApInt(w, 1)}});
                cases.push_back({op, w + 9,
                                 {ApInt(1, 1), a, ApInt::allOnes(8)}});
            }
        }
        break;
      case CombOp::Replicate:
        for (unsigned w : widths)
            for (uint64_t bit : {0, 1})
                cases.push_back({op, w, {ApInt(1, bit)}});
        break;
      case CombOp::Rom:
        for (unsigned w : widths) {
            std::vector<ApInt> table = edgeValues(w);
            for (unsigned iw : {3u, 8u, 70u}) {
                for (uint64_t index = 0; index < 8; ++index) {
                    Case c{op, w, {ApInt(iw, index)}};
                    c.rom = table;
                    cases.push_back(c);
                }
            }
            // More than 63 active bits, low word in range.
            ApInt huge(70, 1);
            huge.setBit(66, true);
            Case c{op, w, {huge}};
            c.rom = table;
            cases.push_back(c);
        }
        break;
      default: // the two-operand ops
        for (unsigned w : widths)
            for (const ApInt &a : edgeValues(w))
                for (const ApInt &b : edgeValues(w))
                    cases.push_back({op, w, {a, b}});
        break;
    }
    return cases;
}

/** The case as a one-op netlist over constants, output port "out". */
rtl::Module
netlistOf(const Case &c)
{
    rtl::Module m("one_op");
    std::vector<rtl::NetId> operands;
    for (const ApInt &v : c.in)
        operands.push_back(m.addConstant(v));
    rtl::NetId out = m.addNode(rtl::nodeKindOf(c.op), c.width, operands);
    rtl::Node &node = m.node(m.nodes().size() - 1);
    node.pred = c.pred;
    node.lo = c.lo;
    node.romValues = c.rom;
    m.addOutput("out", out);
    return m;
}

ApInt
simulate(const rtl::Module &m, rtl::SimEngine engine)
{
    rtl::Simulator sim(m, engine);
    sim.evalComb();
    return sim.output("out");
}

ApInt
fold(const Case &c)
{
    analysis::tv::TermBuilder b;
    std::vector<analysis::tv::TermId> operands;
    for (const ApInt &v : c.in)
        operands.push_back(b.constant(v));
    analysis::tv::TermId t = b.comb(c.op, c.width, operands, c.attrs());
    EXPECT_EQ(b.term(t).kind, analysis::tv::TermKind::Const)
        << c.describe();
    return b.term(t).cval;
}

/** The case as a one-op LIL graph over constants; the result leaves
 * through a custom-register write, which keeps every bit. */
void
buildLil(const Case &c, lil::LilGraph &g, ir::Operation *&op)
{
    g.name = "one_op";
    g.isAlways = true;
    std::vector<ir::Value *> operands;
    for (const ApInt &v : c.in) {
        ir::Operation *k =
            g.graph.append(ir::OpKind::CombConstant, {}, {v.width()});
        k->setAttr("value", v);
        operands.push_back(k->result());
    }
    op = g.graph.append(ir::opKindOf(c.op), operands, {c.width});
    if (c.op == CombOp::ICmp)
        op->setAttr("pred", int64_t(c.pred));
    if (c.op == CombOp::Extract)
        op->setAttr("lo", int64_t(c.lo));
    if (c.op == CombOp::Rom)
        op->setAttr("values", c.rom);
    ir::Operation *on = g.graph.append(ir::OpKind::CombConstant, {}, {1});
    on->setAttr("value", ApInt(1, 1));
    ir::Operation *write =
        g.graph.append(ir::OpKind::LilWriteCustRegData,
                       {op->result(), on->result()}, {});
    write->setAttr("reg", std::string("R"));
    g.graph.append(ir::OpKind::LilSink, {}, {});
}

bool
isDivRem(CombOp op)
{
    return op == CombOp::DivU || op == CombOp::DivS ||
           op == CombOp::ModU || op == CombOp::ModS;
}

} // namespace

TEST(CombAgree, EveryRowAgreesInEveryView)
{
    unsigned checked = 0;
    for (unsigned row = 0; row < ir::numCombOps; ++row) {
        auto op = CombOp(row);
        std::vector<Case> cases = casesFor(op);
        ASSERT_FALSE(cases.empty()) << ir::combOpName(op);
        for (const Case &c : cases) {
            unsigned arity = ir::combOpArity(op);
            if (arity)
                ASSERT_EQ(c.in.size(), arity) << c.describe();
            else
                ASSERT_GE(c.in.size(), 2u) << c.describe();
            ApInt want = expected(c);
            ASSERT_EQ(want.width(), c.width) << c.describe();

            rtl::Module m = netlistOf(c);
            ASSERT_EQ(m.verify(), "") << c.describe();
            EXPECT_EQ(simulate(m, rtl::SimEngine::Interp), want)
                << "interp " << c.describe();
            EXPECT_EQ(simulate(m, rtl::SimEngine::Compiled), want)
                << "compiled " << c.describe();

            EXPECT_EQ(fold(c), want) << "term fold " << c.describe();

            lil::LilGraph g;
            ir::Operation *lil_op = nullptr;
            buildLil(c, g, lil_op);
            auto folded = ir::evaluate(*lil_op, c.in);
            if (isDivRem(op) && c.in[1].isZero()) {
                // Constant folding leaves x/0 in place.
                EXPECT_FALSE(folded.has_value()) << c.describe();
            } else {
                ASSERT_TRUE(folded.has_value()) << c.describe();
                EXPECT_EQ(*folded, want) << "evaluate " << c.describe();
            }
            lil::InterpResult r = lil::interpret(g, lil::InterpInput{});
            ASSERT_TRUE(r.custWrites.count("R")) << c.describe();
            EXPECT_EQ(r.custWrites["R"].value, want)
                << "lil::interpret " << c.describe();
            ++checked;
        }
    }
    EXPECT_GT(checked, 1000u);
}

TEST(CombAgree, ViewsShareTheTableOrder)
{
    for (unsigned row = 0; row < ir::numCombOps; ++row) {
        auto op = CombOp(row);
        EXPECT_EQ(rtl::combOpOf(rtl::nodeKindOf(op)), op);
        EXPECT_EQ(analysis::tv::combOpOf(analysis::tv::termKindOf(op)),
                  op);
        EXPECT_STREQ(rtl::nodeKindName(rtl::nodeKindOf(op)),
                     ir::combOpName(op));
        EXPECT_STREQ(
            analysis::tv::termKindName(analysis::tv::termKindOf(op)),
            ir::combOpName(op));
    }
    EXPECT_FALSE(rtl::combOpOf(rtl::NodeKind::Register).has_value());
    EXPECT_FALSE(
        analysis::tv::combOpOf(analysis::tv::TermKind::Var).has_value());
}
