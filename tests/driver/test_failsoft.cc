/**
 * @file
 * Fail-soft pipeline tests: every armed failpoint must yield a clean
 * CompiledIsax with phase-tagged diagnostics (never a throw or crash),
 * the scheduler fallback chain must keep producing architecturally
 * correct RTL, and the metadata loaders must turn malformed input into
 * located diagnostics. See docs/failure-model.md.
 */

#include <gtest/gtest.h>

#include "driver/isax_catalog.hh"
#include "driver/longnail.hh"
#include "support/failpoint.hh"

using namespace longnail;
using namespace longnail::driver;
using failpoint::Mode;

namespace {

class FailsoftTest : public ::testing::Test
{
  protected:
    void SetUp() override { failpoint::reset(); }
    void TearDown() override { failpoint::reset(); }
};

/** Does any error diagnostic carry exactly this code and phase? */
bool
hasTaggedError(const DiagnosticEngine &diags, const std::string &code,
               Phase phase)
{
    for (const auto &d : diags.all())
        if (d.severity == Severity::Error && d.code == code &&
            d.phase == phase)
            return true;
    return false;
}

// ---------------------------------------------------------------------------
// One failpoint per phase boundary: clean failure, phase-tagged code.
// ---------------------------------------------------------------------------

struct PhaseFault
{
    const char *site;
    const char *code;
    Phase phase;
};

class PhaseFaultTest : public ::testing::TestWithParam<PhaseFault>
{
  protected:
    void SetUp() override { failpoint::reset(); }
    void TearDown() override { failpoint::reset(); }
};

TEST_P(PhaseFaultTest, ArmedFailpointYieldsCleanDiagnostic)
{
    const PhaseFault &fault = GetParam();
    failpoint::Scoped scoped(fault.site, Mode::Fail);
    CompiledIsax compiled = compileCatalogIsax("dotp");
    EXPECT_FALSE(compiled.ok());
    EXPECT_FALSE(compiled.errors.empty());
    EXPECT_TRUE(compiled.diags.hasErrorCode(fault.code))
        << fault.site << ": " << compiled.errors;
    EXPECT_TRUE(hasTaggedError(compiled.diags, fault.code, fault.phase))
        << fault.site << ": " << compiled.errors;
    // The rendered form carries "[CODE, phase]" for grep-ability.
    EXPECT_NE(compiled.errors.find(fault.code), std::string::npos);
    EXPECT_FALSE(compiled.retryable);
}

INSTANTIATE_TEST_SUITE_P(
    AllPhases, PhaseFaultTest,
    ::testing::Values(
        PhaseFault{"parse", "LN1901", Phase::Parse},
        PhaseFault{"sema", "LN1902", Phase::Sema},
        PhaseFault{"astlower", "LN1903", Phase::AstLower},
        PhaseFault{"analysis", "LN4901", Phase::Analysis},
        PhaseFault{"lil", "LN1904", Phase::Lil},
        PhaseFault{"sched", "LN2901", Phase::Sched},
        PhaseFault{"hwgen", "LN3901", Phase::HwGen},
        PhaseFault{"scaiev-config", "LN3902", Phase::Scaiev}),
    [](const auto &info) {
        std::string name = info.param.site;
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

// ---------------------------------------------------------------------------
// Scheduler fallback chain
// ---------------------------------------------------------------------------

TEST_F(FailsoftTest, OptimalSchedulerFaultFallsBackToAsap)
{
    failpoint::Scoped scoped("sched-optimal", Mode::Fail);
    CompiledIsax compiled = compileCatalogIsax("dotp");
    ASSERT_TRUE(compiled.ok()) << compiled.errors;
    ASSERT_EQ(compiled.units.size(), 1u);
    EXPECT_EQ(compiled.units[0].quality,
              sched::ScheduleQuality::Fallback);
    EXPECT_NE(compiled.units[0].fallbackReason.find("sched-optimal"),
              std::string::npos);
    // The fallback is advertised as an LN2001 warning, not an error.
    bool warned = false;
    for (const auto &d : compiled.diags.all())
        if (d.severity == Severity::Warning && d.code == "LN2001")
            warned = true;
    EXPECT_TRUE(warned);
}

TEST_F(FailsoftTest, LpBudgetExhaustionFallsBackToAsap)
{
    CompileOptions options;
    options.schedBudget.lpWorkLimit = 1; // exhausted immediately
    CompiledIsax compiled = compileCatalogIsax("dotp", options);
    ASSERT_TRUE(compiled.ok()) << compiled.errors;
    ASSERT_EQ(compiled.units.size(), 1u);
    EXPECT_EQ(compiled.units[0].quality,
              sched::ScheduleQuality::Fallback);
    EXPECT_NE(compiled.units[0].fallbackReason.find("budget"),
              std::string::npos);
}

/**
 * The acceptance test for fallback correctness: force the heuristic
 * scheduler, integrate the generated RTL into the cycle-level core,
 * and compare the final architectural state against the golden model.
 */
TEST_F(FailsoftTest, FallbackScheduleMatchesGoldenModel)
{
    failpoint::Scoped scoped("sched-optimal", Mode::Fail);
    CompileOptions options;
    options.coreName = "VexRiscv";
    CompiledIsax compiled = compileCatalogIsax("dotp", options);
    ASSERT_TRUE(compiled.ok()) << compiled.errors;
    ASSERT_EQ(compiled.units[0].quality,
              sched::ScheduleQuality::Fallback);

    rvasm::Assembler as;
    registerIsaxMnemonics(as, *compiled.isa);
    rvasm::Program program = as.assemble(R"(
        li a0, 0x01020304
        li a1, 0x05f6fb08      # contains negative bytes
        dotp a2, a0, a1
        dotp a3, a1, a1        # back-to-back custom instructions
        add a4, a2, a3
        ecall
    )");
    ASSERT_TRUE(program.ok) << program.error;

    cores::Core core(scaiev::Datasheet::forCore("VexRiscv"), {});
    core.attachIsax(compiled.makeBundle());
    core.loadProgram(program.words, 0);
    GoldenModel golden(compiled);
    golden.loadProgram(program.words, 0);

    cores::RunStats stats = core.run();
    golden.run();
    ASSERT_TRUE(stats.halted);
    for (unsigned r = 0; r < 32; ++r)
        EXPECT_EQ(core.reg(r), golden.reg(r)) << "x" << r;
    // Independent reference: 1*5 + 2*(-10) + 3*(-5) + 4*8 = 2.
    EXPECT_EQ(core.reg(12), 2u);
}

/**
 * A budget of half the unit's unlimited LP work runs out inside the
 * solver's phase loop, past the feasibility check; the fallback RTL
 * must still compute what the golden model does.
 */
TEST_F(FailsoftTest, HalfLpBudgetFallsBackMidSolve)
{
    CompileOptions options;
    options.coreName = "VexRiscv";
    CompiledIsax unlimited = compileCatalogIsax("sqrt_tightly", options);
    ASSERT_TRUE(unlimited.ok()) << unlimited.errors;
    ASSERT_EQ(unlimited.units.size(), 1u);
    ASSERT_EQ(unlimited.units[0].quality,
              sched::ScheduleQuality::Optimal);
    uint64_t full = unlimited.units[0].lpWorkUnits;

    options.schedBudget.lpWorkLimit = full / 2;
    CompiledIsax compiled = compileCatalogIsax("sqrt_tightly", options);
    ASSERT_TRUE(compiled.ok()) << compiled.errors;
    ASSERT_EQ(compiled.units.size(), 1u);
    EXPECT_EQ(compiled.units[0].quality,
              sched::ScheduleQuality::Fallback);
    EXPECT_NE(compiled.units[0].fallbackReason.find("budget"),
              std::string::npos);
    // Abandoned between the limit and the full solve's work.
    EXPECT_GT(compiled.units[0].lpWorkUnits, full / 2);
    EXPECT_LT(compiled.units[0].lpWorkUnits, full);

    rvasm::Assembler as;
    registerIsaxMnemonics(as, *compiled.isa);
    rvasm::Program program = as.assemble(R"(
        li a0, 144
        sqrt a1, a0
        li a2, 0x00100000   # 16.0 in Q16.16
        sqrt a3, a2
        add a4, a1, a3
        ecall
    )");
    ASSERT_TRUE(program.ok) << program.error;

    cores::Core core(scaiev::Datasheet::forCore("VexRiscv"), {});
    core.attachIsax(compiled.makeBundle());
    core.loadProgram(program.words, 0);
    GoldenModel golden(compiled);
    golden.loadProgram(program.words, 0);

    cores::RunStats stats = core.run();
    golden.run();
    ASSERT_TRUE(stats.halted);
    for (unsigned r = 0; r < 32; ++r)
        EXPECT_EQ(core.reg(r), golden.reg(r)) << "x" << r;
    // sqrt(144) = 12.0 in Q16.16.
    EXPECT_EQ(core.reg(11), 12u << 16);
}

// ---------------------------------------------------------------------------
// Transient faults and the retry wrapper
// ---------------------------------------------------------------------------

TEST_F(FailsoftTest, TransientFaultMarksResultRetryable)
{
    // A transient fault on every attempt: the policy gives up and the
    // result says the failure was transient.
    failpoint::Scoped scoped("sema", Mode::Transient, maxCompileAttempts);
    CompiledIsax compiled = compileWithRetry("InstructionSet E { }", "E");
    EXPECT_FALSE(compiled.ok());
    EXPECT_TRUE(compiled.retryable);
    EXPECT_EQ(compiled.attempts, maxCompileAttempts);
}

TEST_F(FailsoftTest, RetrySucceedsAfterTransientFault)
{
    failpoint::Scoped scoped("sema", Mode::Transient, 1);
    CompiledIsax compiled = compileCatalogIsax("dotp");
    EXPECT_FALSE(compiled.ok()); // single attempt hits the fault

    failpoint::reset();
    failpoint::arm("sema", Mode::Transient, 1);
    const catalog::IsaxEntry *entry = catalog::findIsax("dotp");
    ASSERT_NE(entry, nullptr);
    CompiledIsax retried = compileWithRetry(entry->source, entry->target);
    EXPECT_TRUE(retried.ok()) << retried.errors;
    EXPECT_EQ(retried.attempts, 2u);
}

TEST_F(FailsoftTest, PermanentFaultIsNotRetried)
{
    failpoint::Scoped scoped("sema", Mode::Fail);
    const catalog::IsaxEntry *entry = catalog::findIsax("dotp");
    ASSERT_NE(entry, nullptr);
    CompiledIsax compiled = compileWithRetry(entry->source, entry->target);
    EXPECT_FALSE(compiled.ok());
    EXPECT_FALSE(compiled.retryable);
    EXPECT_EQ(compiled.attempts, 1u);
    EXPECT_EQ(failpoint::hitCount("sema"), 1u);
}

TEST_F(FailsoftTest, RetryGivesUpOnPersistentTransientFault)
{
    failpoint::Scoped scoped("sema", Mode::Transient, 100);
    const catalog::IsaxEntry *entry = catalog::findIsax("dotp");
    ASSERT_NE(entry, nullptr);
    CompiledIsax compiled = compileWithRetry(entry->source, entry->target);
    EXPECT_FALSE(compiled.ok());
    EXPECT_TRUE(compiled.retryable);
    EXPECT_EQ(compiled.attempts, 3u);
    // Exactly three tries, with nothing in between them.
    EXPECT_EQ(failpoint::hitCount("sema"), 3u);
}

// ---------------------------------------------------------------------------
// Unknown names and malformed metadata become located diagnostics.
// ---------------------------------------------------------------------------

TEST_F(FailsoftTest, UnknownCoreIsACodedDiagnostic)
{
    CompileOptions options;
    options.coreName = "NoSuchCore";
    CompiledIsax compiled = compileCatalogIsax("dotp", options);
    EXPECT_FALSE(compiled.ok());
    EXPECT_TRUE(compiled.diags.hasErrorCode("LN3005"))
        << compiled.errors;
    EXPECT_NE(compiled.errors.find("NoSuchCore"), std::string::npos);
    EXPECT_NE(compiled.errors.find("VexRiscv"), std::string::npos);
}

TEST_F(FailsoftTest, UnknownCatalogIsaxIsACodedDiagnostic)
{
    CompiledIsax compiled = compileCatalogIsax("nonexistent-isax");
    EXPECT_FALSE(compiled.ok());
    EXPECT_TRUE(compiled.diags.hasErrorCode("LN3006"))
        << compiled.errors;
}

TEST_F(FailsoftTest, MalformedDatasheetYamlIsALocatedDiagnostic)
{
    const char *text = "core: X\n"
                       "stages: notanumber\n";
    DiagnosticEngine diags;
    auto sheet = scaiev::Datasheet::fromYaml(yaml::parse(text), diags);
    EXPECT_FALSE(sheet.has_value());
    EXPECT_TRUE(diags.hasErrorCode("LN3003")) << diags.str();
    EXPECT_NE(diags.str().find("at line 2"), std::string::npos)
        << diags.str();
}

TEST_F(FailsoftTest, DatasheetMissingKeyIsALocatedDiagnostic)
{
    const char *text = "core: X\n"; // everything else is missing
    DiagnosticEngine diags;
    auto sheet = scaiev::Datasheet::fromYaml(yaml::parse(text), diags);
    EXPECT_FALSE(sheet.has_value());
    EXPECT_TRUE(diags.hasErrorCode("LN3003"));
    EXPECT_NE(diags.str().find("missing key"), std::string::npos)
        << diags.str();
}

TEST_F(FailsoftTest, MalformedScaievConfigIsACodedDiagnostic)
{
    const char *text = "isax: X\n"; // missing core/state/functionality
    DiagnosticEngine diags;
    auto config =
        scaiev::ScaievConfig::fromYaml(yaml::parse(text), diags);
    EXPECT_FALSE(config.has_value());
    EXPECT_TRUE(diags.hasErrorCode("LN3004")) << diags.str();
}

// ---------------------------------------------------------------------------
// Multi-error compiles and the error limit
// ---------------------------------------------------------------------------

TEST_F(FailsoftTest, MultiErrorSourceReportsSeveralDiagnostics)
{
    const char *src = R"(
InstructionSet Broken {
  instructions {
    foo {
      encoding: 25'd0 :: 7'b0001011;
      behavior: {
        unsigned<32> a = ;
        unsigned<32> b = 1 +;
        unsigned<32> c = @;
      }
    }
  }
}
)";
    CompiledIsax compiled = compile(src, "Broken");
    EXPECT_FALSE(compiled.ok());
    EXPECT_GE(compiled.diags.errorCount(), 2u) << compiled.errors;
    EXPECT_TRUE(compiled.diags.hasErrorCodePrefix("LN1"));
}

TEST_F(FailsoftTest, MaxErrorsCapsTheReport)
{
    const char *src = R"(
InstructionSet Broken {
  instructions {
    foo {
      encoding: 25'd0 :: 7'b0001011;
      behavior: {
        unsigned<32> a = ;
        unsigned<32> b = ;
        unsigned<32> c = ;
        unsigned<32> d = ;
      }
    }
  }
}
)";
    CompileOptions options;
    options.maxErrors = 1;
    CompiledIsax compiled = compile(src, "Broken", options);
    EXPECT_FALSE(compiled.ok());
    EXPECT_EQ(compiled.diags.errorCount(), 1u) << compiled.errors;
}

} // namespace
