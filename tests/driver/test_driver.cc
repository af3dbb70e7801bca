/**
 * @file
 * Tests for the public driver API: compile(), the emitted artifacts
 * (SystemVerilog + SCAIE-V config), assembler mnemonic registration,
 * the golden model, and error reporting.
 */

#include <gtest/gtest.h>

#include "driver/isax_catalog.hh"
#include "driver/longnail.hh"

using namespace longnail;
using namespace longnail::driver;

TEST(Driver, CompileDotpProducesAllArtifacts)
{
    CompileOptions options;
    options.coreName = "VexRiscv";
    CompiledIsax compiled = compileCatalogIsax("dotp", options);
    ASSERT_TRUE(compiled.ok()) << compiled.errors;
    EXPECT_EQ(compiled.name, "X_DOTP");
    EXPECT_EQ(compiled.coreName, "VexRiscv");
    ASSERT_EQ(compiled.units.size(), 1u);
    EXPECT_EQ(compiled.units[0].name, "dotp");
    EXPECT_FALSE(compiled.units[0].isAlways);
    EXPECT_GT(compiled.units[0].makespan, 0);

    std::string verilog = compiled.emitAllVerilog();
    EXPECT_NE(verilog.find("module dotp("), std::string::npos);

    std::string config = compiled.config.emit();
    EXPECT_NE(config.find("instruction: dotp"), std::string::npos);
    EXPECT_NE(config.find("0000000----------000-----0001011"),
              std::string::npos);
    EXPECT_NE(config.find("interface: WrRD"), std::string::npos);
}

TEST(Driver, ConfigRoundTripsThroughYaml)
{
    CompileOptions options;
    options.coreName = "VexRiscv";
    CompiledIsax compiled = compileCatalogIsax("zol", options);
    ASSERT_TRUE(compiled.ok());
    scaiev::ScaievConfig back =
        scaiev::ScaievConfig::fromYaml(yaml::parse(compiled.config.emit()));
    ASSERT_EQ(back.registers.size(), 3u); // START_PC, END_PC, COUNT
    const auto *zol = back.find("zol");
    ASSERT_NE(zol, nullptr);
    EXPECT_TRUE(zol->isAlways);
    // Always-block updates carry the mandatory valid bit (Sec. 4.6).
    bool pc_write_has_valid = false;
    for (const auto &use : zol->schedule)
        if (use.iface == scaiev::SubInterface::WrPC)
            pc_write_has_valid = use.hasValid;
    EXPECT_TRUE(pc_write_has_valid);
}

TEST(Driver, CompileErrorsAreReported)
{
    CompiledIsax bad = compile("InstructionSet Broken {", "Broken");
    EXPECT_FALSE(bad.ok());
    EXPECT_FALSE(bad.errors.empty());

    CompiledIsax unknown = compileCatalogIsax("nonexistent");
    EXPECT_FALSE(unknown.ok());
}

TEST(Driver, TypeErrorSurfacesInErrors)
{
    const char *src = R"(
import "RV32I.core_desc"
InstructionSet T extends RV32I {
  instructions {
    t {
      encoding: 12'd0 :: rs1[4:0] :: 3'b000 :: rd[4:0] :: 7'b1111011;
      behavior: {
        unsigned<4> u4 = 0;
        u4 = X[rs1];   // forbidden implicit narrowing
      }
    }
  }
}
)";
    CompiledIsax bad = compile(src, "T");
    EXPECT_FALSE(bad.ok());
    EXPECT_NE(bad.errors.find("unsigned<4>"), std::string::npos);
}

TEST(Driver, MnemonicRegistration)
{
    CompileOptions options;
    CompiledIsax compiled = compileCatalogIsax("sparkle", options);
    ASSERT_TRUE(compiled.ok());
    rvasm::Assembler as;
    registerIsaxMnemonics(as, *compiled.isa);

    rvasm::Program p = as.assemble("alzette_x a2, a0, a1, 5");
    ASSERT_TRUE(p.ok) << p.error;
    const auto *info = compiled.isa->findInstruction("alzette_x");
    EXPECT_EQ(p.words[0] & info->mask, info->match);
    // rd=a2(12), rs1=a0(10), rs2=a1(11), rc=5 at bits 27:25.
    EXPECT_EQ((p.words[0] >> 7) & 0x1f, 12u);
    EXPECT_EQ((p.words[0] >> 15) & 0x1f, 10u);
    EXPECT_EQ((p.words[0] >> 20) & 0x1f, 11u);
    EXPECT_EQ((p.words[0] >> 25) & 0x7, 5u);

    // Wrong operand count is rejected.
    EXPECT_FALSE(as.assemble("alzette_x a2, a0").ok);
}

TEST(Driver, IsaxImmediatesMustFitTheirField)
{
    CompiledIsax compiled = compileCatalogIsax("zol");
    ASSERT_TRUE(compiled.ok()) << compiled.errors;
    rvasm::Assembler as;
    registerIsaxMnemonics(as, *compiled.isa);
    const auto *info = compiled.isa->findInstruction("setup_zol");
    ASSERT_NE(info, nullptr);
    // encoding: uimmL[11:0] :: uimmS[4:0] :: 3'b101 :: 5'b00000 :: opcode
    auto word = [&](uint32_t uimm_l, uint32_t uimm_s) {
        return info->match | (uimm_l & 0xfffu) << 20 | uimm_s << 15;
    };

    // Unsigned and negative values that fit 12 bits encode their low
    // bits: [-2^11, 2^12).
    for (auto [text, bits] : std::vector<std::pair<std::string, uint32_t>>{
             {"0", 0}, {"4095", 4095}, {"-1", 4095}, {"-2048", 2048}}) {
        rvasm::Program p = as.assemble("setup_zol " + text + ", 4");
        ASSERT_TRUE(p.ok) << text << ": " << p.error;
        EXPECT_EQ(p.words[0], word(bits, 4)) << text;
    }

    // Values outside the field are refused, naming the operand, instead
    // of being truncated (199999 used to encode as 3391).
    for (const char *text : {"199999", "4096", "-2049"}) {
        rvasm::Program p =
            as.assemble(std::string("setup_zol ") + text + ", 4");
        EXPECT_FALSE(p.ok) << text;
        EXPECT_NE(p.error.find("uimmL"), std::string::npos) << p.error;
    }
    rvasm::Program p = as.assemble("setup_zol 1, 32");
    EXPECT_FALSE(p.ok);
    EXPECT_NE(p.error.find("uimmS"), std::string::npos) << p.error;
}

TEST(Driver, GoldenModelRunsDotp)
{
    CompileOptions options;
    CompiledIsax compiled = compileCatalogIsax("dotp", options);
    ASSERT_TRUE(compiled.ok());
    rvasm::Assembler as;
    registerIsaxMnemonics(as, *compiled.isa);
    rvasm::Program p = as.assemble(R"(
        li a0, 0x01010101
        li a1, 0x04030201
        dotp a2, a0, a1
        ecall
    )");
    ASSERT_TRUE(p.ok);
    GoldenModel golden(compiled);
    golden.loadProgram(p.words, 0);
    golden.run();
    EXPECT_EQ(golden.reg(12), 10u); // 1+2+3+4
}

TEST(Driver, BundleExposesCustomRegisters)
{
    CompileOptions options;
    CompiledIsax compiled = compileCatalogIsax("autoinc_zol", options);
    ASSERT_TRUE(compiled.ok());
    auto bundle = compiled.makeBundle();
    // ADDR + START_PC + END_PC + COUNT.
    EXPECT_EQ(bundle->customRegs.size(), 4u);
    EXPECT_EQ(bundle->instructions.size(), 4u);
    EXPECT_EQ(bundle->alwaysBlocks.size(), 1u);
}

TEST(Driver, TimingModeLibraryCompiles)
{
    CompileOptions options;
    options.coreName = "ORCA";
    options.timingMode = sched::TimingMode::Library;
    CompiledIsax compiled = compileCatalogIsax("sqrt_tightly", options);
    ASSERT_TRUE(compiled.ok()) << compiled.errors;
    EXPECT_GT(compiled.units[0].makespan, 4);
}

TEST(Driver, CycleTimeOverrideShortensPipelines)
{
    CompileOptions fast, slow;
    fast.coreName = slow.coreName = "VexRiscv";
    slow.cycleTimeNs = 8.0; // very relaxed clock: fewer stages
    CompiledIsax tight = compileCatalogIsax("sqrt_tightly", fast);
    CompiledIsax relaxed = compileCatalogIsax("sqrt_tightly", slow);
    ASSERT_TRUE(tight.ok());
    ASSERT_TRUE(relaxed.ok());
    EXPECT_LT(relaxed.units[0].makespan, tight.units[0].makespan);
}

TEST(Driver, AllCatalogEntriesCompileOnAllCores)
{
    for (const auto &entry : catalog::allIsaxes()) {
        for (const std::string &core : scaiev::Datasheet::knownCores()) {
            CompileOptions options;
            options.coreName = core;
            CompiledIsax compiled =
                compileCatalogIsax(entry.name, options);
            EXPECT_TRUE(compiled.ok())
                << entry.name << " on " << core << ": "
                << compiled.errors;
        }
    }
}
