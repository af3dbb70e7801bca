/**
 * @file
 * Differential testing of the two simulation engines
 * (docs/simulation.md): the compiled bytecode engine must be
 * bit-identical to the node-by-node interpreter — every net and every
 * register, every cycle — over the full benchmark catalog under random
 * stimulus, plus targeted edge cases (wide nets, ROM out-of-bounds,
 * division by zero, oversized shifts, enable registers, fused
 * compare/mux chains, register chains). It also checks that reset()
 * turns a used simulator back into a fresh one on both engines.
 */

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "driver/isax_catalog.hh"
#include "driver/longnail.hh"
#include "rtl/netlist.hh"
#include "rtl/sim.hh"

using namespace longnail;
using namespace longnail::rtl;

namespace {

ApInt
randomValue(std::mt19937_64 &rng, unsigned width)
{
    if (width <= 64)
        return ApInt(width, rng());
    ApInt value(width);
    for (unsigned bit = 0; bit < width; ++bit)
        value.setBit(bit, (rng() & 1) != 0);
    return value;
}

/** Drive both engines with identical random stimulus and compare
 * every net after every evalComb(). */
void
runDifferential(const Module &module, unsigned cycles, uint64_t seed,
                const std::string &what)
{
    Simulator oracle(module, SimEngine::Interp);
    Simulator compiled(module, SimEngine::Compiled);
    ASSERT_EQ(oracle.engine(), SimEngine::Interp);
    ASSERT_EQ(compiled.engine(), SimEngine::Compiled);

    std::mt19937_64 rng(seed);
    for (unsigned cycle = 0; cycle < cycles; ++cycle) {
        for (const auto &[name, net] : module.inputs()) {
            ApInt value = randomValue(rng, module.widthOf(net));
            oracle.setInput(net, value);
            compiled.setInput(net, value);
        }
        oracle.evalComb();
        compiled.evalComb();
        for (NetId id = 0; id < NetId(module.numNets()); ++id) {
            const ApInt &a = oracle.net(id);
            const ApInt &b = compiled.net(id);
            ASSERT_EQ(a.width(), b.width())
                << what << ": net " << id << " cycle " << cycle;
            ASSERT_TRUE(a == b)
                << what << ": net " << id << " ("
                << module.netName(id) << ") diverges at cycle "
                << cycle << " width " << a.width();
            ASSERT_EQ(oracle.netU64(id), compiled.netU64(id))
                << what << ": netU64 " << id << " cycle " << cycle;
        }
        oracle.clockEdge();
        compiled.clockEdge();
    }
}

} // namespace

// ---------------------------------------------------------------------
// Catalog fuzz: every benchmark ISAX module, >= 1000 random cycles.

class SimDiffCatalogTest : public ::testing::TestWithParam<const char *>
{
};

TEST_P(SimDiffCatalogTest, CompiledMatchesInterpreterEverywhere)
{
    driver::CompileOptions options;
    driver::CompiledIsax isax =
        driver::compileCatalogIsax(GetParam(), options);
    ASSERT_TRUE(isax.ok()) << isax.errors;
    ASSERT_FALSE(isax.units.empty());
    for (const auto &unit : isax.units) {
        SCOPED_TRACE(unit.name);
        runDifferential(unit.module.module, 1000,
                        0x5EEDull ^ std::hash<std::string>{}(unit.name),
                        std::string(GetParam()) + "/" + unit.name);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, SimDiffCatalogTest,
    ::testing::Values("autoinc", "dotp", "ijmp", "sbox", "sparkle",
                      "sqrt_tightly", "sqrt_decoupled", "zol",
                      "autoinc_zol"),
    [](const ::testing::TestParamInfo<const char *> &info) {
        return std::string(info.param);
    });

// ---------------------------------------------------------------------
// Targeted edge cases on hand-built netlists.

TEST(SimDiffTest, WideArithmeticAndConcat)
{
    Module m("wide");
    NetId a = m.addInput("a", 96);
    NetId b = m.addInput("b", 96);
    NetId sum = m.addNode(NodeKind::Add, 96, {a, b});
    NetId prod = m.addNode(NodeKind::Mul, 96, {a, b});
    NetId hi = m.addExtract(prod, 64, 32);
    NetId cat = m.addNode(NodeKind::Concat, 192, {sum, prod});
    NetId narrow = m.addExtract(cat, 10, 16);
    m.addOutput("sum", sum);
    m.addOutput("hi", hi);
    m.addOutput("cat", cat);
    m.addOutput("narrow", narrow);
    runDifferential(m, 200, 1, "wide");
}

TEST(SimDiffTest, DivisionAndRemainderByZero)
{
    Module m("div0");
    NetId a = m.addInput("a", 32);
    NetId b = m.addInput("b", 4); // frequently zero under fuzz
    NetId bw = m.addNode(NodeKind::Concat, 32,
                         {m.addConstant(ApInt(28, 0)), b});
    m.addOutput("divu", m.addNode(NodeKind::DivU, 32, {a, bw}));
    m.addOutput("divs", m.addNode(NodeKind::DivS, 32, {a, bw}));
    m.addOutput("modu", m.addNode(NodeKind::ModU, 32, {a, bw}));
    m.addOutput("mods", m.addNode(NodeKind::ModS, 32, {a, bw}));
    // Guaranteed zero divisor.
    NetId zero = m.addConstant(ApInt(32, 0));
    m.addOutput("divu0", m.addNode(NodeKind::DivU, 32, {a, zero}));
    m.addOutput("mods0", m.addNode(NodeKind::ModS, 32, {a, zero}));
    runDifferential(m, 500, 2, "div0");
}

TEST(SimDiffTest, ShiftAmountClamping)
{
    Module m("shifts");
    NetId v = m.addInput("v", 32);
    NetId amt = m.addInput("amt", 8); // often >= 32
    m.addOutput("shl", m.addNode(NodeKind::Shl, 32, {v, amt}));
    m.addOutput("shru", m.addNode(NodeKind::ShrU, 32, {v, amt}));
    m.addOutput("shrs", m.addNode(NodeKind::ShrS, 32, {v, amt}));
    // Constant amounts: in range, at width, beyond width.
    for (uint64_t k : {1ull, 31ull, 32ull, 200ull}) {
        NetId c = m.addConstant(ApInt(8, k));
        m.addOutput("shl" + std::to_string(k),
                    m.addNode(NodeKind::Shl, 32, {v, c}));
        m.addOutput("shrs" + std::to_string(k),
                    m.addNode(NodeKind::ShrS, 32, {v, c}));
    }
    runDifferential(m, 500, 3, "shifts");
}

TEST(SimDiffTest, RomIndexOutOfBounds)
{
    Module m("rom");
    NetId idx = m.addInput("idx", 6); // table has 16 entries; 6-bit
                                      // index goes out of bounds
    std::vector<ApInt> table;
    for (unsigned i = 0; i < 16; ++i)
        table.push_back(ApInt(12, 0x9A0u + i * 37));
    m.addOutput("val", m.addRom(table, 12, idx));
    runDifferential(m, 300, 4, "rom");
}

TEST(SimDiffTest, EnableRegistersAndRegisterChains)
{
    Module m("regs");
    NetId d = m.addInput("d", 16);
    NetId en = m.addInput("en", 1);
    // Enabled register, then an always-on register fed by it: the
    // chain must capture pre-edge values (two-phase clock edge).
    NetId r1 = m.addRegister(d, en, ApInt(16, 0x1234));
    NetId r2 = m.addRegister(r1, invalidNet, ApInt(16, 0));
    NetId r3 = m.addRegister(r2, invalidNet, ApInt(16, 0xFFFF));
    m.addOutput("r1", r1);
    m.addOutput("r2", r2);
    m.addOutput("r3", r3);
    m.addOutput("sum", m.addNode(NodeKind::Add, 16, {r1, r3}));
    runDifferential(m, 500, 5, "regs");
}

TEST(SimDiffTest, FusedCompareMuxAndExportedCompare)
{
    Module m("cmpmux");
    NetId a = m.addInput("a", 32);
    NetId b = m.addInput("b", 32);
    // Compare used only as mux selects (fusion/elision candidate).
    NetId lt = m.addICmp(ir::ICmpPred::Slt, a, b);
    NetId min = m.addNode(NodeKind::Mux, 32, {lt, a, b});
    NetId max = m.addNode(NodeKind::Mux, 32, {lt, b, a});
    m.addOutput("min", min);
    m.addOutput("max", max);
    // Compare that is also an output (must not be elided).
    NetId eq = m.addICmp(ir::ICmpPred::Eq, a, b);
    m.addOutput("eq", eq);
    m.addOutput("pick", m.addNode(NodeKind::Mux, 32, {eq, min, max}));
    // Compare feeding non-mux logic.
    NetId uge = m.addICmp(ir::ICmpPred::Uge, a, b);
    m.addOutput("both", m.addNode(NodeKind::And, 1, {uge, eq}));
    runDifferential(m, 500, 6, "cmpmux");
}

TEST(SimDiffTest, ReplicateAndMultiConcat)
{
    Module m("bits");
    NetId s = m.addInput("s", 1);
    NetId v = m.addInput("v", 8);
    NetId rep = m.addNode(NodeKind::Replicate, 24, {s});
    NetId cat3 = m.addNode(NodeKind::Concat, 33, {rep, v, s});
    m.addOutput("sext", cat3);
    runDifferential(m, 300, 7, "bits");
}

// ---------------------------------------------------------------------
// API-level checks shared by both engines.

TEST(SimDiffTest, NameIndexLookupsWork)
{
    Module m("named");
    NetId a = m.addInput("a", 32);
    NetId b = m.addInput("b", 32);
    m.addOutput("sum", m.addNode(NodeKind::Add, 32, {a, b}));
    for (SimEngine engine : {SimEngine::Interp, SimEngine::Compiled}) {
        Simulator sim(m, engine);
        sim.setInput("a", uint64_t(40));
        sim.setInput("b", ApInt(32, 2));
        sim.evalComb();
        EXPECT_EQ(sim.outputU64("sum"), 42u);
        EXPECT_EQ(sim.output("sum").toUint64(), 42u);
    }
}

TEST(SimDiffTest, SharedProgramAcrossMachines)
{
    Module m("shared");
    NetId a = m.addInput("a", 32);
    NetId r = m.addRegister(a, invalidNet, ApInt(32, 7));
    m.addOutput("r", r);
    auto program = simjit::Program::compile(m);
    Simulator s1(m, program);
    Simulator s2(m, program);
    s1.setInput("a", uint64_t(11));
    s2.setInput("a", uint64_t(22));
    s1.tick();
    s2.tick();
    s1.evalComb();
    s2.evalComb();
    EXPECT_EQ(s1.outputU64("r"), 11u);
    EXPECT_EQ(s2.outputU64("r"), 22u);
}

TEST(SimDiffTest, EngineSelectionDefaults)
{
    EXPECT_EQ(parseSimEngine("interp"), SimEngine::Interp);
    EXPECT_EQ(parseSimEngine("compiled"), SimEngine::Compiled);
    EXPECT_FALSE(parseSimEngine("fast").has_value());
    EXPECT_STREQ(simEngineName(SimEngine::Interp), "interp");
    EXPECT_STREQ(simEngineName(SimEngine::Compiled), "compiled");

    Module m("def");
    NetId a = m.addInput("a", 8);
    m.addOutput("a2", m.addNode(NodeKind::Add, 8, {a, a}));
    SimEngine saved = defaultSimEngine();
    setDefaultSimEngine(SimEngine::Interp);
    EXPECT_EQ(Simulator(m).engine(), SimEngine::Interp);
    setDefaultSimEngine(SimEngine::Compiled);
    EXPECT_EQ(Simulator(m).engine(), SimEngine::Compiled);
    setDefaultSimEngine(saved);
}

// ---------------------------------------------------------------------
// Reset: the core models pool simulators across dynamic executions, so
// a reset simulator must be indistinguishable from a fresh one.

namespace {

std::unique_ptr<Simulator>
makeSimulator(const Module &module, SimEngine engine,
              const std::shared_ptr<const simjit::Program> &program)
{
    if (engine == SimEngine::Compiled)
        return std::make_unique<Simulator>(module, program);
    return std::make_unique<Simulator>(module, SimEngine::Interp);
}

/** Dirty a simulator with one seeded stimulus, reset it, then drive a
 * second stimulus into it and into a fresh simulator, comparing every
 * net after each evalComb(). The second stimulus leaves a random
 * subset of the inputs undriven each cycle (some never driven), so
 * the reset inputs must read as a fresh simulator's. */
void
checkResetEqualsFresh(const Module &module, SimEngine engine,
                      uint64_t seed, const std::string &what)
{
    auto program = simjit::Program::compile(module);
    std::mt19937_64 rng(seed);
    auto reused = makeSimulator(module, engine, program);
    for (unsigned cycle = 0; cycle < 40; ++cycle) {
        for (const auto &[name, net] : module.inputs())
            reused->setInput(net, randomValue(rng, module.widthOf(net)));
        reused->tick();
    }
    for (const auto &[name, net] : module.inputs())
        reused->setInput(net, randomValue(rng, module.widthOf(net)));
    reused->reset();

    auto fresh = makeSimulator(module, engine, program);
    for (unsigned cycle = 0; cycle < 60; ++cycle) {
        for (const auto &[name, net] : module.inputs()) {
            // Input 0 is never driven; the others half of the time.
            if (net == module.inputs().front().second || rng() % 2)
                continue;
            ApInt value = randomValue(rng, module.widthOf(net));
            reused->setInput(net, value);
            fresh->setInput(net, value);
        }
        reused->evalComb();
        fresh->evalComb();
        for (NetId id = 0; id < NetId(module.numNets()); ++id)
            ASSERT_TRUE(reused->net(id) == fresh->net(id))
                << what << ": net " << id << " (" << module.netName(id)
                << ") differs from a fresh simulator at cycle " << cycle;
        reused->clockEdge();
        fresh->clockEdge();
    }
}

std::vector<std::string>
catalogNames()
{
    std::vector<std::string> names;
    for (const auto &entry : catalog::allIsaxes())
        names.push_back(entry.name);
    return names;
}

} // namespace

class SimResetCatalogTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SimResetCatalogTest, ResetSimulatorEqualsFreshOne)
{
    driver::CompileOptions options;
    driver::CompiledIsax isax =
        driver::compileCatalogIsax(GetParam(), options);
    ASSERT_TRUE(isax.ok()) << isax.errors;
    ASSERT_FALSE(isax.units.empty());
    for (const auto &unit : isax.units) {
        if (unit.module.module.inputs().empty())
            continue;
        for (SimEngine engine : {SimEngine::Interp, SimEngine::Compiled}) {
            std::string what = GetParam() + "/" + unit.name + " (" +
                               simEngineName(engine) + ")";
            SCOPED_TRACE(what);
            checkResetEqualsFresh(
                unit.module.module, engine,
                0x2E5E7ull ^ std::hash<std::string>{}(unit.name), what);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, SimResetCatalogTest, ::testing::ValuesIn(catalogNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(SimResetTest, EveryLaneResetsToFresh)
{
    // Inputs and registers in all three lanes: narrow, u128, ApInt.
    Module m("lanes");
    NetId n = m.addInput("n", 32);
    NetId w2 = m.addInput("w2", 100);
    NetId w = m.addInput("w", 200);
    NetId en = m.addInput("en", 1);
    NetId rn = m.addRegister(m.addNode(NodeKind::Add, 32, {n, n}), en,
                             ApInt(32, 5));
    NetId rw2 = m.addRegister(w2, invalidNet, ApInt(100, 3));
    NetId rw = m.addRegister(w, en, ApInt(200, 9));
    m.addOutput("n_out", m.addNode(NodeKind::Xor, 32, {rn, n}));
    m.addOutput("w2_out", m.addNode(NodeKind::Add, 100, {rw2, w2}));
    m.addOutput("w_out", m.addNode(NodeKind::Or, 200, {rw, w}));
    for (SimEngine engine : {SimEngine::Interp, SimEngine::Compiled}) {
        SCOPED_TRACE(simEngineName(engine));
        for (uint64_t seed : {1u, 2u, 3u})
            checkResetEqualsFresh(m, engine, seed, "lanes");
    }
}
