/**
 * @file
 * Differential tests of the dense dataflow engine (analysis/
 * dataflow.hh) against the pointer-keyed reference engine in
 * dataflow_oracle.hh: computeRanges(), computeDemandedBits() and the
 * init lattice must return identical per-value states on every
 * catalog graph (HIR, LIL as lowered and LIL after -O1), on the
 * analysis fixtures, and on random graphs whose ops are appended out
 * of dependence order, so the worklist has to revisit.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <random>
#include <sstream>

#include "analysis/dataflow.hh"
#include "dataflow_oracle.hh"
#include "driver/isax_catalog.hh"
#include "driver/longnail.hh"
#include "passes/passes.hh"

using namespace longnail;
using namespace longnail::analysis;
using ir::OpKind;

namespace {

template <typename State>
void
expectSameStates(const ValueStates<State> &got,
                 const std::map<const ir::Value *, State> &want,
                 const std::string &where)
{
    ASSERT_EQ(got.size(), want.size()) << where;
    auto it = got.begin();
    for (const auto &[value, state] : want) {
        ASSERT_EQ(it->first, value) << where << ": value %" << value->id;
        EXPECT_TRUE(it->second == state)
            << where << ": state of %" << value->id;
        ++it;
    }
}

/** Every lattice on @p graph, dense engine vs. reference. */
void
expectEnginesAgree(const ir::Graph &graph, const std::string &where)
{
    RangeLattice ranges;
    expectSameStates(
        computeRanges(graph),
        oracle::MapDataflow<ValueRange>(ranges, Direction::Forward)
            .run(graph),
        where + " (ranges)");

    DemandedBitsLattice demanded;
    expectSameStates(
        computeDemandedBits(graph),
        oracle::MapDataflow<DemandedBits>(demanded, Direction::Backward)
            .run(graph),
        where + " (demanded bits)");

    std::set<const ir::Operation *> uninit;
    for (const auto &op : graph.ops())
        if (op->kind() == OpKind::LilReadCustReg)
            uninit.insert(op.get());
    InitLattice init(uninit);
    expectSameStates(
        ForwardDataflow<InitState>(init).run(graph),
        oracle::MapDataflow<InitState>(init, Direction::Forward)
            .run(graph),
        where + " (init)");
}

void
expectEnginesAgree(const driver::CompiledIsax &compiled,
                   const std::string &unit)
{
    if (compiled.hirModule) {
        for (const auto &instr : compiled.hirModule->instructions)
            expectEnginesAgree(instr->body, unit + "/hir");
        for (const auto &blk : compiled.hirModule->alwaysBlocks)
            expectEnginesAgree(blk->body, unit + "/hir");
    }
    if (compiled.lilModule)
        for (const auto &graph : compiled.lilModule->graphs)
            expectEnginesAgree(graph->graph, unit + "/" + graph->name);
}

driver::CompileOptions
lintOptions()
{
    driver::CompileOptions options;
    options.lintOnly = true;
    return options;
}

std::string
readFixture(const std::string &name)
{
    std::string path = std::string(LN_ANALYSIS_FIXTURE_DIR) + "/" + name;
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open fixture " << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

} // namespace

TEST(DataflowDiff, CatalogAsLoweredAndAfterO1)
{
    for (const auto &entry : catalog::allIsaxes()) {
        driver::CompiledIsax compiled =
            driver::compile(entry.source, entry.target, lintOptions());
        ASSERT_TRUE(compiled.ok()) << entry.name << ": " << compiled.errors;
        ASSERT_NE(compiled.lilModule, nullptr);
        expectEnginesAgree(compiled, entry.name);

        DiagnosticEngine diags;
        passes::PipelineResult res = passes::runPipeline(
            *compiled.lilModule, passes::PipelineOptions{}, diags);
        ASSERT_FALSE(res.refuted) << entry.name;
        for (const auto &graph : compiled.lilModule->graphs)
            expectEnginesAgree(graph->graph,
                               entry.name + "/" + graph->name + " -O1");
    }
}

TEST(DataflowDiff, AnalysisFixtures)
{
    const char *fixtures[] = {"lint_bugs",    "spawn_ln4801",
                              "spawn_ln4802", "spawn_ln4803",
                              "spawn_ln4804", "spawn_ln4805"};
    for (const char *name : fixtures) {
        driver::CompiledIsax compiled = driver::compile(
            readFixture(std::string(name) + ".core_desc"), name,
            lintOptions());
        ASSERT_NE(compiled.lilModule, nullptr)
            << name << ": " << compiled.errors;
        expectEnginesAgree(compiled, name);
    }
}

TEST(DataflowDiff, RandomGraphsAppendedOutOfDependenceOrder)
{
    // A random DAG over 8-bit comb ops, appended in a shuffled order:
    // operands are wired up after creation, so uses may precede their
    // defs and a changed state re-queues ops on both sides of the one
    // being transferred.
    const OpKind binary[] = {OpKind::CombAdd, OpKind::CombAnd,
                             OpKind::CombOr,  OpKind::CombXor,
                             OpKind::CombSub, OpKind::CombMul};
    std::mt19937 rng(7);
    for (int round = 0; round < 200; ++round) {
        const unsigned n = 4 + rng() % 40;
        std::vector<unsigned> order(n);
        for (unsigned i = 0; i < n; ++i)
            order[i] = i;
        std::shuffle(order.begin(), order.end(), rng);

        ir::Graph g;
        // Node i may only read nodes < i (acyclic); 1 in 4 is a leaf.
        std::vector<ir::Operation *> node(n, nullptr);
        std::vector<std::pair<unsigned, unsigned>> args(n);
        for (unsigned i : order) {
            bool leaf = i < 2 || rng() % 4 == 0;
            if (leaf) {
                if (rng() % 2) {
                    node[i] = g.append(OpKind::CombConstant, {},
                                       {ir::WireType(8)});
                    node[i]->setAttr("value", ApInt(8, rng() % 256));
                } else {
                    ir::Operation *rs1 = g.append(OpKind::LilReadRs1, {},
                                                  {ir::WireType(32)});
                    node[i] = g.append(OpKind::CombExtract,
                                       {rs1->result()},
                                       {ir::WireType(8)});
                    node[i]->setAttr("lo", int64_t(rng() % 24));
                }
                continue;
            }
            args[i] = {unsigned(rng() % i), unsigned(rng() % i)};
            node[i] = g.append(binary[rng() % std::size(binary)],
                               {nullptr, nullptr}, {ir::WireType(8)});
        }
        for (unsigned i = 0; i < n; ++i) {
            if (node[i]->numOperands() != 2)
                continue;
            node[i]->setOperand(0, node[args[i].first]->result());
            node[i]->setOperand(1, node[args[i].second]->result());
        }
        // Observe a few nodes through rd writes and a memory address.
        ir::Operation *one = g.append(OpKind::CombConstant, {},
                                      {ir::WireType(1)});
        one->setAttr("value", ApInt(1, 1));
        g.append(OpKind::LilWriteRd,
                 {node[n - 1]->result(), one->result()}, {});
        ir::Operation *wide = g.append(
            OpKind::CombConcat,
            {node[rng() % n]->result(), node[rng() % n]->result(),
             node[rng() % n]->result(), node[rng() % n]->result()},
            {ir::WireType(32)});
        g.append(OpKind::LilReadMem, {wide->result(), one->result()},
                 {ir::WireType(32)});

        expectEnginesAgree(g, "round " + std::to_string(round));
        if (::testing::Test::HasFailure())
            return;
    }
}
