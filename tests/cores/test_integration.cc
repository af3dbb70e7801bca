/**
 * @file
 * End-to-end verification (paper Sec. 5.3): compile each benchmark
 * ISAX, integrate the generated RTL modules into the cycle-level host
 * cores, run hand-written assembler programs, and compare the final
 * architectural state against the golden model (ISS + LIL
 * interpreter).
 */

#include <gtest/gtest.h>

#include "driver/longnail.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "rtl/sim.hh"

using namespace longnail;
using namespace longnail::driver;
using scaiev::Datasheet;

namespace {

struct TestBench
{
    CompiledIsax compiled;
    rvasm::Program program;

    cores::Core
    makeCore(cores::CoreTiming timing = {}) const
    {
        cores::Core core(Datasheet::forCore(compiled.coreName), timing);
        core.attachIsax(compiled.makeBundle());
        core.loadProgram(program.words, 0);
        return core;
    }

    GoldenModel
    makeGolden() const
    {
        GoldenModel golden(compiled);
        golden.loadProgram(program.words, 0);
        return golden;
    }
};

TestBench
prepare(const std::string &isax, const std::string &core,
        const std::string &source)
{
    CompileOptions options;
    options.coreName = core;
    TestBench bench{compileCatalogIsax(isax, options), {}};
    EXPECT_TRUE(bench.compiled.ok()) << bench.compiled.errors;
    rvasm::Assembler as;
    registerIsaxMnemonics(as, *bench.compiled.isa);
    bench.program = as.assemble(source, 0);
    EXPECT_TRUE(bench.program.ok) << bench.program.error;
    return bench;
}

void
expectSameRegs(const cores::Core &core, const GoldenModel &golden,
               const std::string &what)
{
    for (unsigned r = 0; r < 32; ++r)
        EXPECT_EQ(core.reg(r), golden.reg(r)) << what << " x" << r;
}

} // namespace

// ---------------------------------------------------------------------------
// dotp (Fig. 1)
// ---------------------------------------------------------------------------

class DotpIntegration : public ::testing::TestWithParam<const char *>
{
};

TEST_P(DotpIntegration, SimdDotProduct)
{
    TestBench bench = prepare("dotp", GetParam(), R"(
        li a0, 0x01020304
        li a1, 0x05f6fb08      # contains negative bytes
        dotp a2, a0, a1
        dotp a3, a1, a1        # back-to-back custom instructions
        add a4, a2, a3
        ecall
    )");
    cores::Core core = bench.makeCore();
    GoldenModel golden = bench.makeGolden();
    cores::RunStats stats = core.run();
    golden.run();
    ASSERT_TRUE(stats.halted) << GetParam();
    expectSameRegs(core, golden, GetParam());
    // Independent reference: 1*5 + 2*(-10) + 3*(-5) + 4*8 = 2.
    EXPECT_EQ(core.reg(12), 2u);
}

INSTANTIATE_TEST_SUITE_P(Cores, DotpIntegration,
                         ::testing::Values("ORCA", "Piccolo", "PicoRV32",
                                           "VexRiscv"));

// ---------------------------------------------------------------------------
// sbox / sparkle
// ---------------------------------------------------------------------------

TEST(Integration, SboxLookups)
{
    TestBench bench = prepare("sbox", "VexRiscv", R"(
        li a0, 0x53
        sbox_lookup a1, a0
        li a0, 0x100           # only the low byte indexes the table
        sbox_lookup a2, a0
        ecall
    )");
    cores::Core core = bench.makeCore();
    GoldenModel golden = bench.makeGolden();
    core.run();
    golden.run();
    expectSameRegs(core, golden, "sbox");
    EXPECT_EQ(core.reg(11), 0xedu); // AES S(0x53)
    EXPECT_EQ(core.reg(12), 0x63u); // AES S(0x00)
}

TEST(Integration, SparkleAlzette)
{
    TestBench bench = prepare("sparkle", "ORCA", R"(
        li a0, 0x12345678
        li a1, 0x9abcdef0
        alzette_x a2, a0, a1, 3
        alzette_y a3, a0, a1, 3
        alzette_x a4, a2, a3, 7   # chained ARX rounds
        ecall
    )");
    cores::Core core = bench.makeCore();
    GoldenModel golden = bench.makeGolden();
    core.run();
    golden.run();
    expectSameRegs(core, golden, "sparkle");
    EXPECT_NE(core.reg(12), 0u);
}

// ---------------------------------------------------------------------------
// autoinc: custom register + memory interfaces
// ---------------------------------------------------------------------------

class AutoincIntegration : public ::testing::TestWithParam<const char *>
{
};

TEST_P(AutoincIntegration, StreamingCopy)
{
    TestBench bench = prepare("autoinc", GetParam(), R"(
        li a0, 0x1000
        setup_autoinc a0
        lw_autoinc a1          # a1 = mem[0x1000], ADDR += 4
        lw_autoinc a2          # a2 = mem[0x1004]
        lw_autoinc a3
        add a4, a1, a2
        li a5, 0x2000
        setup_autoinc a5
        sw_autoinc a4          # mem[0x2000] = a4, ADDR += 4
        sw_autoinc a3
        ecall
    )");
    cores::Core core = bench.makeCore();
    GoldenModel golden = bench.makeGolden();
    for (uint32_t i = 0; i < 4; ++i) {
        core.memory().writeWord(0x1000 + i * 4, 0x1111 * (i + 1));
        golden.memory().writeWord(0x1000 + i * 4, 0x1111 * (i + 1));
    }
    cores::RunStats stats = core.run();
    golden.run();
    ASSERT_TRUE(stats.halted) << GetParam();
    expectSameRegs(core, golden, GetParam());
    EXPECT_EQ(core.memory().readWord(0x2000),
              golden.memory().readWord(0x2000));
    EXPECT_EQ(core.memory().readWord(0x2000), 0x1111u + 0x2222u);
    EXPECT_EQ(core.memory().readWord(0x2004), 0x3333u);
    // Final ADDR matches.
    EXPECT_EQ(core.customReg("ADDR").toUint64(),
              golden.customReg("ADDR").toUint64());
    EXPECT_EQ(core.customReg("ADDR").toUint64(), 0x2008u);
}

INSTANTIATE_TEST_SUITE_P(Cores, AutoincIntegration,
                         ::testing::Values("ORCA", "Piccolo", "PicoRV32",
                                           "VexRiscv"));

// ---------------------------------------------------------------------------
// ijmp: PC write from memory
// ---------------------------------------------------------------------------

TEST(Integration, IndirectJumpViaMemory)
{
    TestBench bench = prepare("ijmp", "VexRiscv", R"(
        li a0, 0x800
        li a1, target      # store the jump target in memory
        sw a1, 0(a0)
        ijmp a0            # PC = mem[a0]
        li a2, 111         # must be skipped
        ecall
    target:
        li a2, 222
        ecall
    )");
    cores::Core core = bench.makeCore();
    GoldenModel golden = bench.makeGolden();
    cores::RunStats stats = core.run();
    golden.run();
    ASSERT_TRUE(stats.halted);
    expectSameRegs(core, golden, "ijmp");
    EXPECT_EQ(core.reg(12), 222u);
}

// ---------------------------------------------------------------------------
// sqrt: tightly-coupled vs decoupled
// ---------------------------------------------------------------------------

class SqrtIntegration
    : public ::testing::TestWithParam<std::tuple<const char *,
                                                 const char *>>
{
};

TEST_P(SqrtIntegration, FixedPointRoot)
{
    auto [isax, core_name] = GetParam();
    TestBench bench = prepare(isax, core_name, R"(
        li a0, 144
        sqrt a1, a0
        li a2, 0x00100000   # 16.0 in Q16.16
        sqrt a3, a2
        add a4, a1, a3
        ecall
    )");
    cores::Core core = bench.makeCore();
    GoldenModel golden = bench.makeGolden();
    cores::RunStats stats = core.run();
    golden.run();
    ASSERT_TRUE(stats.halted) << isax << " on " << core_name;
    expectSameRegs(core, golden,
                   std::string(isax) + " on " + core_name);
    // sqrt(144) = 12.0 in Q16.16.
    EXPECT_EQ(core.reg(11), 12u << 16);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SqrtIntegration,
    ::testing::Combine(::testing::Values("sqrt_tightly",
                                         "sqrt_decoupled"),
                       ::testing::Values("ORCA", "Piccolo", "PicoRV32",
                                         "VexRiscv")));

TEST(Integration, DecoupledOverlapsIndependentWork)
{
    // The decoupled variant lets independent instructions overtake the
    // long-running computation (Sec. 2.5); the tightly-coupled variant
    // stalls the core. Same program, fewer cycles when decoupled.
    std::string program = "li a0, 10000\nsqrt a1, a0\n";
    // Enough independent work to make the overlap visible: in the
    // tightly-coupled variant these all wait for the stalled core.
    for (int i = 0; i < 24; ++i)
        program += "addi a2, a2, 1\n";
    program += "add a3, a1, a2     # dependent on the sqrt result\n";
    program += "ecall\n";
    TestBench tight = prepare("sqrt_tightly", "VexRiscv", program);
    TestBench dec = prepare("sqrt_decoupled", "VexRiscv", program);

    cores::Core tight_core = tight.makeCore();
    cores::Core dec_core = dec.makeCore();
    cores::RunStats tight_stats = tight_core.run();
    cores::RunStats dec_stats = dec_core.run();
    ASSERT_TRUE(tight_stats.halted);
    ASSERT_TRUE(dec_stats.halted);
    EXPECT_EQ(tight_core.reg(13), dec_core.reg(13));
    EXPECT_LT(dec_stats.cycles + 8, tight_stats.cycles);
}

TEST(Integration, DecoupledHazardStallsDependentReader)
{
    // A reader immediately after the decoupled sqrt must observe the
    // correct value (scoreboard stall), not a stale register.
    TestBench bench = prepare("sqrt_decoupled", "VexRiscv", R"(
        li a0, 625
        li a1, 7           # stale value in the destination
        sqrt a1, a0
        add a2, a1, x0     # immediate dependent use
        ecall
    )");
    cores::Core core = bench.makeCore();
    cores::RunStats stats = core.run();
    ASSERT_TRUE(stats.halted);
    EXPECT_EQ(core.reg(12), 25u << 16);
}

// ---------------------------------------------------------------------------
// zol: always-block with PC and custom register access
// ---------------------------------------------------------------------------

class ZolIntegration : public ::testing::TestWithParam<const char *>
{
};

TEST_P(ZolIntegration, ZeroOverheadLoopExecutes)
{
    // Loop body: 2 instructions; 10 iterations => a1 = 20.
    // setup_zol operands (alphabetical immediates): uimmL = count - 1,
    // uimmS = (end - setup) / 2.
    // A 4-instruction body keeps a safe distance between setup_zol's
    // custom-register writes (stage 3..4 on ORCA) and the first fetch
    // of END_PC -- the same constraint the real hardware has.
    TestBench bench = prepare("zol", GetParam(), R"(
        li a1, 0
        setup_zol 9, 8         # body: next 4 instrs; END = setup + 16
        addi a1, a1, 1
        addi a1, a1, 1
        addi a1, a1, 1
        addi a1, a1, 1         # loop end (END_PC)
        ecall
    )");
    cores::Core core = bench.makeCore();
    GoldenModel golden = bench.makeGolden();
    cores::RunStats stats = core.run();
    golden.run();
    ASSERT_TRUE(stats.halted) << GetParam();
    expectSameRegs(core, golden, GetParam());
    EXPECT_EQ(core.reg(11), 40u); // 10 iterations x 4 increments
    EXPECT_EQ(core.customReg("COUNT").toUint64(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Cores, ZolIntegration,
                         ::testing::Values("Piccolo", "PicoRV32",
                                           "VexRiscv", "ORCA"));

TEST(Integration, ZolIsZeroOverhead)
{
    // The hardware loop must not spend cycles on the back edge: the
    // cycle count approaches (body length * iterations).
    TestBench bench = prepare("zol", "VexRiscv", R"(
        li a1, 0
        setup_zol 24, 8
        addi a1, a1, 1
        addi a1, a1, 1
        addi a1, a1, 1
        addi a1, a1, 1
        ecall
    )");
    cores::Core core = bench.makeCore();
    cores::RunStats stats = core.run();
    ASSERT_TRUE(stats.halted);
    EXPECT_EQ(core.reg(11), 100u); // 25 iterations x 4
    // 100 body instructions + setup/fill/drain; a branch-based loop
    // would pay a multi-cycle redirect per iteration.
    EXPECT_LT(stats.cycles, 100u + 20u);
}

TEST(Integration, IdleAlwaysBlockWakesOnCustomRegisterWrite)
{
    // The core skips a register-less always-block while its inputs
    // stand still. With 10 fetch wait states, cycles 2..11 fetch
    // nothing, so the ZOL block sees PC 0xffffffff on each of them and
    // is skipped from cycle 3 on. A custom-register write must wake it:
    // with END_PC = 0xffffffff and COUNT != 0, the very next cycle
    // loops back to START_PC.
    TestBench bench = prepare("zol", "VexRiscv", R"(
        nop
        nop
        ecall
    )");
    cores::CoreTiming timing;
    timing.fetchWaitStates = 10;
    cores::Core core = bench.makeCore(timing);
    for (int cycle = 1; cycle <= 5; ++cycle)
        ASSERT_TRUE(core.stepCycle());
    core.setCustomReg("START_PC", 0, ApInt(32, 0x40));
    core.setCustomReg("END_PC", 0, ApInt(32, 0xffffffff));
    core.setCustomReg("COUNT", 0, ApInt(32, 3));
    ASSERT_TRUE(core.stepCycle());
    EXPECT_EQ(core.customReg("COUNT").toUint64(), 2u);
    EXPECT_EQ(core.pc(), 0x40u);
}

// ---------------------------------------------------------------------------
// autoinc + zol combined (the Sec. 5.5 kernel)
// ---------------------------------------------------------------------------

TEST(Integration, CombinedAutoincZolArraySum)
{
    TestBench bench = prepare("autoinc_zol", "VexRiscv", R"(
        li a0, 0x1000
        setup_autoinc a0
        li a1, 0
        setup_zol 7, 4     # 8 iterations, 2-instruction body
        lw_autoinc a2
        add a1, a1, a2
        ecall
    )");
    cores::Core core = bench.makeCore();
    GoldenModel golden = bench.makeGolden();
    uint32_t expected = 0;
    for (uint32_t i = 0; i < 8; ++i) {
        core.memory().writeWord(0x1000 + i * 4, (i + 1) * 3);
        golden.memory().writeWord(0x1000 + i * 4, (i + 1) * 3);
        expected += (i + 1) * 3;
    }
    cores::RunStats stats = core.run();
    golden.run();
    ASSERT_TRUE(stats.halted);
    expectSameRegs(core, golden, "autoinc_zol");
    EXPECT_EQ(core.reg(11), expected);
}

// ---------------------------------------------------------------------------
// Multiple ISAXes attached simultaneously (arbitration)
// ---------------------------------------------------------------------------

TEST(Integration, TwoIsaxesCoexist)
{
    CompileOptions options;
    options.coreName = "VexRiscv";
    CompiledIsax dotp = compileCatalogIsax("dotp", options);
    CompiledIsax sbox = compileCatalogIsax("sbox", options);
    ASSERT_TRUE(dotp.ok());
    ASSERT_TRUE(sbox.ok());

    rvasm::Assembler as;
    registerIsaxMnemonics(as, *dotp.isa);
    registerIsaxMnemonics(as, *sbox.isa);
    rvasm::Program p = as.assemble(R"(
        li a0, 0x01010101
        li a1, 0x02020202
        dotp a2, a0, a1        # 4 * (1*2) = 8
        sbox_lookup a3, a2     # S(0x08) = 0x30
        ecall
    )");
    ASSERT_TRUE(p.ok) << p.error;

    cores::Core core(Datasheet::forCore("VexRiscv"));
    core.attachIsax(dotp.makeBundle());
    core.attachIsax(sbox.makeBundle());
    core.loadProgram(p.words, 0);
    cores::RunStats stats = core.run();
    ASSERT_TRUE(stats.halted);
    EXPECT_EQ(core.reg(12), 8u);
    EXPECT_EQ(core.reg(13), 0x30u);
}

// ---------------------------------------------------------------------------
// bitmanip (catalog extension): switch-selected operations
// ---------------------------------------------------------------------------

TEST(Integration, BitmanipSwitchUnit)
{
    TestBench bench = prepare("bitmanip", "VexRiscv", R"(
        li a0, 0x00f00000
        bitop a1, a0, x0, 0     # clz(0x00f00000) = 8
        li a0, 0xf0f0f0f0
        bitop a2, a0, x0, 1     # popcount = 16
        li a0, 0x12345678
        bitop a3, a0, x0, 2     # bswap -> 0x78563412
        bitop a4, a0, x0, 3     # ~x
        ecall
    )");
    cores::Core core = bench.makeCore();
    GoldenModel golden = bench.makeGolden();
    cores::RunStats stats = core.run();
    golden.run();
    ASSERT_TRUE(stats.halted);
    expectSameRegs(core, golden, "bitmanip");
    EXPECT_EQ(core.reg(11), 8u);
    EXPECT_EQ(core.reg(12), 16u);
    EXPECT_EQ(core.reg(13), 0x78563412u);
    EXPECT_EQ(core.reg(14), ~0x12345678u);
}

// ---------------------------------------------------------------------------
// ringbuf (catalog extension): indexed custom register file
// ---------------------------------------------------------------------------

class RingbufIntegration : public ::testing::TestWithParam<const char *>
{
};

TEST_P(RingbufIntegration, IndexedCustomRegisterFile)
{
    TestBench bench = prepare("ringbuf", GetParam(), R"(
        li a0, 100
        ring_push a0         # RING[0] = 100
        li a0, 200
        ring_push a0         # RING[1] = 200
        li a0, 300
        ring_push a0         # RING[2] = 300
        li a1, 0
        ring_read a2, a1     # a2 = RING[0]
        li a1, 1
        ring_read a3, a1     # a3 = RING[1]
        li a1, 2
        ring_read a4, a1     # a4 = RING[2]
        ecall
    )");
    cores::Core core = bench.makeCore();
    GoldenModel golden = bench.makeGolden();
    cores::RunStats stats = core.run();
    golden.run();
    ASSERT_TRUE(stats.halted) << GetParam();
    expectSameRegs(core, golden, GetParam());
    EXPECT_EQ(core.reg(12), 100u);
    EXPECT_EQ(core.reg(13), 200u);
    EXPECT_EQ(core.reg(14), 300u);
    EXPECT_EQ(core.customReg("HEAD").toUint64(), 3u);
    EXPECT_EQ(core.customReg("RING", 1).toUint64(), 200u);
}

INSTANTIATE_TEST_SUITE_P(Cores, RingbufIntegration,
                         ::testing::Values("ORCA", "Piccolo", "PicoRV32",
                                           "VexRiscv"));

// ---------------------------------------------------------------------------
// Sec. 5.5 cycle models and sqrt loops, on both simulation engines
// ---------------------------------------------------------------------------

namespace {

constexpr uint32_t kDataBase = 0x4000;
constexpr uint32_t kOutBase = 0x8000;

/** The paper's uncached bus (EXPERIMENTS.md, Sec. 5.5): 2 fetch and 6
 * load wait states. */
cores::CoreTiming
paperTiming()
{
    cores::CoreTiming timing;
    timing.fetchWaitStates = 2;
    timing.bus.loadWaitStates = 6;
    return timing;
}

/** What a VexRiscv run leaves behind: none of it may depend on the
 * simulation engine the attached modules run on. */
struct EngineRun
{
    cores::RunStats stats;
    std::vector<uint32_t> regs;
    std::vector<uint32_t> data; ///< words at kDataBase
    std::vector<uint32_t> out;  ///< words at kOutBase
};

/** Run @p program with @p data at kDataBase on VexRiscv (paper
 * timing), every module of @p isax (if any) simulated on @p engine. */
EngineRun
runOnEngine(rtl::SimEngine engine, const CompiledIsax *isax,
            const rvasm::Program &program,
            const std::vector<uint32_t> &data, size_t out_words)
{
    // The core picks the engine when it makes a simulator, so the
    // default must hold for the whole run.
    struct EngineScope
    {
        rtl::SimEngine saved = rtl::defaultSimEngine();
        explicit EngineScope(rtl::SimEngine e)
        {
            rtl::setDefaultSimEngine(e);
        }
        ~EngineScope() { rtl::setDefaultSimEngine(saved); }
    } scope(engine);

    cores::Core core(Datasheet::forCore("VexRiscv"), paperTiming());
    if (isax)
        core.attachIsax(isax->makeBundle());
    core.loadProgram(program.words, 0);
    for (size_t i = 0; i < data.size(); ++i)
        core.memory().writeWord(kDataBase + 4 * uint32_t(i), data[i]);
    EngineRun run;
    run.stats = core.run(1'000'000);
    for (unsigned r = 0; r < 32; ++r)
        run.regs.push_back(core.reg(r));
    for (size_t i = 0; i < data.size(); ++i)
        run.data.push_back(
            core.memory().readWord(kDataBase + 4 * uint32_t(i)));
    for (size_t i = 0; i < out_words; ++i)
        run.out.push_back(
            core.memory().readWord(kOutBase + 4 * uint32_t(i)));
    return run;
}

/** Run on both engines, require identical outcomes, return one. */
EngineRun
runOnBothEngines(const CompiledIsax *isax, const std::string &source,
                 const std::vector<uint32_t> &data, size_t out_words = 0)
{
    rvasm::Assembler as;
    if (isax)
        registerIsaxMnemonics(as, *isax->isa);
    rvasm::Program program = as.assemble(source, 0);
    EXPECT_TRUE(program.ok) << program.error;
    EngineRun compiled = runOnEngine(rtl::SimEngine::Compiled, isax,
                                     program, data, out_words);
    EngineRun interp = runOnEngine(rtl::SimEngine::Interp, isax, program,
                                   data, out_words);
    EXPECT_TRUE(compiled.stats.halted);
    EXPECT_EQ(compiled.stats.halted, interp.stats.halted);
    EXPECT_EQ(compiled.stats.cycles, interp.stats.cycles);
    EXPECT_EQ(compiled.stats.instructions, interp.stats.instructions);
    EXPECT_EQ(compiled.stats.stallCycles, interp.stats.stallCycles);
    EXPECT_EQ(compiled.regs, interp.regs);
    EXPECT_EQ(compiled.data, interp.data);
    EXPECT_EQ(compiled.out, interp.out);
    return compiled;
}

CompiledIsax
compileForVexRiscv(const std::string &isax)
{
    CompileOptions options;
    options.coreName = "VexRiscv";
    CompiledIsax compiled = compileCatalogIsax(isax, options);
    EXPECT_TRUE(compiled.ok()) << compiled.errors;
    return compiled;
}

/** The Sec. 5.5 array, and its sum. */
std::vector<uint32_t>
sec55Array(unsigned n, uint32_t &sum)
{
    std::vector<uint32_t> data;
    sum = 0;
    for (unsigned i = 0; i < n; ++i) {
        data.push_back(i * 7 + 3);
        sum += data.back();
    }
    return data;
}

} // namespace

TEST(Sec55, BaselineSumTakes18nPlus17Cycles)
{
    for (unsigned n : {8u, 16u, 64u}) {
        SCOPED_TRACE("n = " + std::to_string(n));
        uint32_t sum = 0;
        std::vector<uint32_t> data = sec55Array(n, sum);
        EngineRun run = runOnBothEngines(
            nullptr,
            "    li a0, " + std::to_string(kDataBase) + "\n" +
                "    li t1, " + std::to_string(n) + "\n" + R"(
    li s0, 0
loop:
    lw t0, 0(a0)
    add s0, s0, t0
    addi a0, a0, 4
    addi t1, t1, -1
    bnez t1, loop
    ecall
)",
            data);
        EXPECT_EQ(run.regs[8], sum); // s0
        EXPECT_EQ(run.stats.cycles, 18u * n + 17u);
    }
}

TEST(Sec55, AutoincZolSumTakes11nPlus20Cycles)
{
    CompiledIsax isax = compileForVexRiscv("autoinc_zol");
    ASSERT_TRUE(isax.ok());
    for (unsigned n : {8u, 16u, 64u}) {
        SCOPED_TRACE("n = " + std::to_string(n));
        uint32_t sum = 0;
        std::vector<uint32_t> data = sec55Array(n, sum);
        // Loop body: lw_autoinc + add; the ZOL always-block runs it n
        // times with no branch.
        EngineRun run = runOnBothEngines(
            &isax,
            "    li a0, " + std::to_string(kDataBase) + "\n" +
                "    setup_autoinc a0\n    li s0, 0\n" +
                "    setup_zol " + std::to_string(n - 1) + ", 4\n" +
                "    lw_autoinc t0\n    add s0, s0, t0\n    ecall\n",
            data);
        EXPECT_EQ(run.regs[8], sum); // s0
        EXPECT_EQ(run.stats.cycles, 11u * n + 20u);
    }
}

TEST(Sec55, WorkCountersAreDeterministicOnBothEngines)
{
    // core.module_evals / core.sim_reuses / core.always_skipped explain
    // the co-simulation cost; they count work, not time, so they must
    // not depend on the engine.
    CompiledIsax isax = compileForVexRiscv("autoinc_zol");
    ASSERT_TRUE(isax.ok());
    uint32_t sum = 0;
    std::vector<uint32_t> data = sec55Array(16, sum);
    rvasm::Assembler as;
    registerIsaxMnemonics(as, *isax.isa);
    rvasm::Program program = as.assemble(
        "    li a0, " + std::to_string(kDataBase) + "\n" +
            "    setup_autoinc a0\n    li s0, 0\n    setup_zol 15, 4\n" +
            "    lw_autoinc t0\n    add s0, s0, t0\n    ecall\n",
        0);
    ASSERT_TRUE(program.ok) << program.error;
    const char *names[] = {"core.module_evals", "core.sim_reuses",
                           "core.always_skipped"};
    std::vector<std::vector<uint64_t>> counts;
    obs::setEnabled(true);
    for (rtl::SimEngine engine :
         {rtl::SimEngine::Compiled, rtl::SimEngine::Interp}) {
        obs::Registry::instance().clear();
        EngineRun run = runOnEngine(engine, &isax, program, data, 0);
        EXPECT_EQ(run.regs[8], sum);
        counts.emplace_back();
        for (const char *name : names)
            counts.back().push_back(
                obs::Registry::instance().counter(name));
    }
    obs::setEnabled(false);
    obs::Registry::instance().clear();
    EXPECT_EQ(counts[0], counts[1]);
    // The 16 lw_autoinc executions overlap in the pipeline, so they
    // need more than one simulator, but most reuse a pooled one; the
    // ZOL block idles on the cycles without a fetch.
    EXPECT_GT(counts[0][0], 0u);
    EXPECT_GE(counts[0][1], 8u);
    EXPECT_LT(counts[0][1], 15u);
    EXPECT_GT(counts[0][2], 0u);
}

class SqrtLoopBothEngines : public ::testing::TestWithParam<const char *>
{
};

TEST_P(SqrtLoopBothEngines, RootsMatchGoldenModel)
{
    CompiledIsax isax = compileForVexRiscv(GetParam());
    ASSERT_TRUE(isax.ok());
    std::vector<uint32_t> radicands = {0,          1,          144,
                                       0x00100000, 0x7fffffff, 0xffffffff};
    std::string source =
        "    li a0, " + std::to_string(kDataBase) + "\n" +
        "    li a1, " + std::to_string(kOutBase) + "\n" +
        "    li t2, " + std::to_string(radicands.size()) + "\n" + R"(
    li s0, 0
loop:
    lw t0, 0(a0)
    sqrt t1, t0
    sw t1, 0(a1)
    add s0, s0, t1
    addi a0, a0, 4
    addi a1, a1, 4
    addi t2, t2, -1
    bnez t2, loop
    ecall
)";
    EngineRun run =
        runOnBothEngines(&isax, source, radicands, radicands.size());

    rvasm::Assembler as;
    registerIsaxMnemonics(as, *isax.isa);
    GoldenModel golden(isax);
    golden.loadProgram(as.assemble(source, 0).words, 0);
    for (size_t i = 0; i < radicands.size(); ++i)
        golden.memory().writeWord(kDataBase + 4 * uint32_t(i),
                                  radicands[i]);
    golden.run();
    for (unsigned r = 1; r < 32; ++r)
        EXPECT_EQ(run.regs[r], golden.reg(r)) << "x" << r;
    for (size_t i = 0; i < radicands.size(); ++i)
        EXPECT_EQ(run.out[i],
                  golden.memory().readWord(kOutBase + 4 * uint32_t(i)))
            << "sqrt(" << radicands[i] << ")";
    EXPECT_EQ(run.out[2], 12u << 16); // sqrt(144) = 12.0 in Q16.16
}

INSTANTIATE_TEST_SUITE_P(Variants, SqrtLoopBothEngines,
                         ::testing::Values("sqrt_tightly",
                                           "sqrt_decoupled"));
