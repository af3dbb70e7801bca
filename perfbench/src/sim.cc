/**
 * @file
 * sim-isax: programs on the cycle-level VexRiscv model (cores::Core)
 * with the generated ISAX modules attached; the ISAX compiles and the
 * attach-time bytecode compiles of the modules happen in set-up, so the
 * timed part is simulation only.
 *
 *   sec55_base  Sec. 5.5 array sum, plain RV32I
 *   sec55_isax  the same sum with autoinc + zero-overhead loop
 *   sqrt        integer square roots with sqrt_tightly
 *
 * All run with the paper's bus timing (2 fetch and 6 load wait states).
 * Array contents are seeded. Results are checked against plain C++
 * references computed here, and once per program against the
 * architectural golden model (driver::GoldenModel).
 */

#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "asic/flow.hh"
#include "common.hh"
#include "driver/longnail.hh"
#include "rtl/simjit.hh"

namespace perfbench {

using namespace longnail;
using driver::CompiledIsax;

namespace {

constexpr uint32_t kArrayBase = 0x10000;
constexpr uint32_t kOutBase = 0x80000;
/** Elements summed by the Sec. 5.5 programs. */
constexpr unsigned kSumElements = 12000;
/** Square roots taken by the sqrt program. */
constexpr unsigned kSqrtValues = 600;

/**
 * An immediate operand for an ISAX mnemonic. The assembler integration
 * (driver::registerIsaxMnemonics) keeps only the low bits of a value
 * wider than its encoding field, so the generator refuses such values
 * itself instead of emitting them.
 */
std::string
immediate(uint64_t value, unsigned bits)
{
    if (value >> bits)
        throw std::runtime_error("immediate " + std::to_string(value) +
                                 " does not fit a " + std::to_string(bits) +
                                 "-bit field");
    return std::to_string(value);
}

std::string
baseSumProgram(unsigned n)
{
    return "    li a0, " + std::to_string(kArrayBase) + "\n" +
           "    li t1, " + std::to_string(n) + "\n" +
           R"(    li s0, 0
loop:
    lw t0, 0(a0)
    add s0, s0, t0
    addi a0, a0, 4
    addi t1, t1, -1
    bnez t1, loop
    ecall
)";
}

/** setup_zol's uimmL field is 12 bits wide: one loop covers at most
 * 4096 elements, so longer arrays are summed in chunks. */
std::string
isaxSumProgram(unsigned n)
{
    std::string src = "    li a0, " + std::to_string(kArrayBase) + "\n" +
                      "    setup_autoinc a0\n    li s0, 0\n";
    for (unsigned done = 0; done < n;) {
        unsigned chunk = std::min(n - done, 4096u);
        src += "    setup_zol " + immediate(chunk - 1, 12) + ", " +
               immediate(4, 5) + "\n" +
               "    lw_autoinc t0\n    add s0, s0, t0\n";
        done += chunk;
    }
    return src + "    ecall\n";
}

std::string
sqrtProgram(unsigned n)
{
    return "    li a0, " + std::to_string(kArrayBase) + "\n" +
           "    li a1, " + std::to_string(kOutBase) + "\n" +
           "    li t2, " + std::to_string(n) + "\n" +
           R"(    li s0, 0
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
}

/** floor(sqrt(x) * 2^16), the sqrt ISAX's Q16.16 result. */
uint32_t
referenceSqrt(uint32_t x)
{
    uint64_t v = uint64_t(x) << 32;
    uint64_t r = uint64_t(std::sqrt(double(v)));
    while (r * r > v)
        --r;
    while ((r + 1) * (r + 1) <= v)
        ++r;
    return uint32_t(r);
}

struct Program
{
    std::string name;
    const CompiledIsax *isax = nullptr; ///< null: plain RV32I
    std::vector<uint32_t> words;
    std::vector<uint32_t> data; ///< at kArrayBase
    uint32_t expectedSum = 0;
    std::vector<uint32_t> expectedOut; ///< at kOutBase (sqrt only)
};

cores::CoreTiming
paperTiming()
{
    cores::CoreTiming timing;
    timing.fetchWaitStates = 2;
    timing.bus.loadWaitStates = 6;
    return timing;
}

/** A core with the program's ISAX attached and its inputs loaded. */
std::unique_ptr<cores::Core>
makeCore(const Program &program)
{
    auto core = std::make_unique<cores::Core>(
        scaiev::Datasheet::forCore("VexRiscv"), paperTiming());
    if (program.isax)
        core->attachIsax(program.isax->makeBundle());
    core->loadProgram(program.words, 0);
    for (size_t i = 0; i < program.data.size(); ++i)
        core->memory().writeWord(kArrayBase + 4 * uint32_t(i),
                                 program.data[i]);
    return core;
}

/** ISAX compiles, seeded inputs, assembled programs and one core per
 * program, ready to run. */
struct Setup
{
    CompiledIsax autoincZol;
    CompiledIsax sqrt;
    std::vector<Program> programs;
    std::vector<std::unique_ptr<cores::Core>> cores;
    double simCompileMs = 0.0; ///< bytecode compiles at attach
    std::string error;
};

std::unique_ptr<Setup>
makeSetup(uint64_t seed)
{
    auto setup = std::make_unique<Setup>();
    driver::CompileOptions options;
    options.coreName = "VexRiscv";
    options.optLevel = 1;
    setup->autoincZol = driver::compileCatalogIsax("autoinc_zol", options);
    setup->sqrt = driver::compileCatalogIsax("sqrt_tightly", options);
    for (const CompiledIsax *c : {&setup->autoincZol, &setup->sqrt})
        if (!c->ok()) {
            setup->error = c->name + ": " + c->errors;
            return setup;
        }

    Rng rng(seed);
    std::vector<uint32_t> values(kSumElements);
    uint32_t sum = 0;
    for (uint32_t &v : values)
        sum += (v = uint32_t(rng.next()));
    std::vector<uint32_t> roots(kSqrtValues);
    std::vector<uint32_t> radicands(kSqrtValues);
    uint32_t root_sum = 0;
    for (unsigned i = 0; i < kSqrtValues; ++i) {
        radicands[i] = uint32_t(rng.next());
        root_sum += (roots[i] = referenceSqrt(radicands[i]));
    }

    auto assemble = [&](const std::string &src, const CompiledIsax *isax) {
        rvasm::Assembler as;
        if (isax)
            driver::registerIsaxMnemonics(as, *isax->isa);
        rvasm::Program program = as.assemble(src, 0);
        if (!program.ok)
            setup->error = "assembly failed: " + program.error;
        return program.words;
    };
    try {
        setup->programs.push_back({"sec55_base", nullptr,
                                   assemble(baseSumProgram(kSumElements),
                                            nullptr),
                                   values, sum, {}});
        setup->programs.push_back(
            {"sec55_isax", &setup->autoincZol,
             assemble(isaxSumProgram(kSumElements), &setup->autoincZol),
             values, sum, {}});
        setup->programs.push_back(
            {"sqrt", &setup->sqrt,
             assemble(sqrtProgram(kSqrtValues), &setup->sqrt), radicands,
             root_sum, roots});
    } catch (const std::exception &e) {
        setup->error = e.what();
        return setup;
    }
    // Attaching an ISAX compiles the bytecode program of every module.
    double before = rtl::simjit::tlsSimStats().compileMs;
    for (const Program &program : setup->programs)
        setup->cores.push_back(makeCore(program));
    setup->simCompileMs = rtl::simjit::tlsSimStats().compileMs - before;
    return setup;
}

/** Why a finished core disagrees with the plain C++ reference. */
std::string
checkCore(cores::Core &core, const cores::RunStats &stats,
          const Program &program)
{
    if (!stats.halted)
        return program.name + ": did not halt";
    if (core.reg(8) != program.expectedSum)
        return program.name + ": sum " + std::to_string(core.reg(8)) +
               ", expected " + std::to_string(program.expectedSum);
    for (size_t i = 0; i < program.expectedOut.size(); ++i)
        if (core.memory().readWord(kOutBase + 4 * uint32_t(i)) !=
            program.expectedOut[i])
            return program.name + ": result " + std::to_string(i) +
                   " differs from the reference";
    return "";
}

/** Final registers (and outputs) of the core vs. the golden model. */
std::string
checkGolden(cores::Core &core, const Program &program,
            const CompiledIsax &any_isax)
{
    driver::GoldenModel golden(program.isax ? *program.isax : any_isax);
    golden.loadProgram(program.words, 0);
    for (size_t i = 0; i < program.data.size(); ++i)
        golden.memory().writeWord(kArrayBase + 4 * uint32_t(i),
                                  program.data[i]);
    golden.run(100'000'000);
    for (unsigned r = 1; r < 32; ++r)
        if (golden.reg(r) != core.reg(r))
            return program.name + ": x" + std::to_string(r) +
                   " differs from the golden model";
    for (size_t i = 0; i < program.expectedOut.size(); ++i)
        if (golden.memory().readWord(kOutBase + 4 * uint32_t(i)) !=
            core.memory().readWord(kOutBase + 4 * uint32_t(i)))
            return program.name + ": output differs from the golden model";
    return "";
}

void
addQor(const CompiledIsax &compiled, double &area, double &makespan)
{
    asic::AsicFlow flow(scaiev::Datasheet::forCore(compiled.coreName));
    for (const driver::CompiledUnit &unit : compiled.units) {
        area += flow.moduleAreaUm2(unit.module);
        makespan += unit.makespan;
    }
}

/** Step every generated module standalone on the rtl::Simulator with
 * seeded inputs; @return simulated Mcycles per second. */
double
moduleMcyclesPerS(const std::vector<const CompiledIsax *> &isaxes,
                  uint64_t seed, Tracer *tracer)
{
    constexpr unsigned kTicks = 20000;
    Rng rng(seed ^ 0x5eed);
    uint64_t ticks = 0;
    double ms = 0.0;
    for (const CompiledIsax *isax : isaxes)
        for (const driver::CompiledUnit &unit : isax->units) {
            rtl::Simulator sim(unit.module.module);
            for (const auto &[name, net] : unit.module.module.inputs())
                sim.setInput(net, rng.next());
            Tracer::Scope span(tracer, "rtl.step", unit.name);
            auto t0 = Clock::now();
            for (unsigned i = 0; i < kTicks; ++i)
                sim.tick();
            ms += msSince(t0);
            ticks += kTicks;
        }
    return double(ticks) / (ms * 1000.0);
}

} // namespace

Result
runSimIsax(const Args &args, Tracer *tracer)
{
    Result result;
    // Set-up runs twice here and kLateSetups more times spread over the
    // timed runs, so its median spans the whole run.
    constexpr int kLateSetups = 5;
    Samples setup_s;
    std::unique_ptr<Setup> setup;
    auto set_up = [&] {
        auto start = Clock::now();
        std::unique_ptr<Setup> made = makeSetup(args.seed);
        setup_s.add(secondsSince(start));
        return made;
    };
    set_up();
    setup = set_up();
    if (!setup->error.empty()) {
        result.attempted = 1;
        result.fail(setup->error);
        return result;
    }

    // First run of each program, on the set-up's core: checked against
    // the golden model and fixes the exact cycle and instruction counts
    // later runs repeat.
    std::vector<uint64_t> cycles, instructions;
    std::vector<Samples> run_ms(setup->programs.size());
    for (size_t p = 0; p < setup->programs.size(); ++p) {
        const Program &program = setup->programs[p];
        cores::Core *core = setup->cores[p].get();
        Tracer::Scope span(tracer, "cores.first_run", program.name);
        cores::RunStats stats = core->run(100'000'000);
        span.close();
        ++result.attempted;
        std::string why = checkCore(*core, stats, program);
        if (why.empty())
            why = checkGolden(*core, program, setup->autoincZol);
        if (!why.empty())
            result.fail(why);
        cycles.push_back(stats.cycles);
        instructions.push_back(stats.instructions);
    }

    // Timed runs: a fresh core per run, as a core cannot be reset
    // (construction and attach are not timed), round-robin over the
    // programs.
    Samples all_ms;
    double budget_s = args.seconds;
    int late_setups = 0;
    HostProbe probe;
    auto start = Clock::now();
    while (all_ms.size() == 0 || secondsSince(start) < budget_s) {
        if (!tracer && late_setups < kLateSetups &&
            secondsSince(start) >=
                budget_s * (late_setups + 0.5) / kLateSetups) {
            if (!set_up()->error.empty())
                result.fail("set-up failed on a later repetition");
            ++late_setups;
        }
        for (size_t p = 0; p < setup->programs.size(); ++p) {
            const Program &program = setup->programs[p];
            auto core = makeCore(program);
            probe.maybeRun();
            Tracer::Scope span(tracer, "cores.run", program.name);
            auto t0 = Clock::now();
            cores::RunStats stats = core->run(100'000'000);
            double ms = msSince(t0);
            span.close();
            run_ms[p].add(ms);
            all_ms.add(ms);
            ++result.attempted;
            std::string why = checkCore(*core, stats, program);
            if (why.empty() && (stats.cycles != cycles[p] ||
                                stats.instructions != instructions[p]))
                why = program.name + ": cycle count changed between runs";
            if (!why.empty())
                result.fail(why);
        }
    }

    std::vector<double> mcps;
    uint64_t total_cycles = 0, total_instructions = 0;
    for (size_t p = 0; p < setup->programs.size(); ++p) {
        double rate =
            double(cycles[p]) / (run_ms[p].median() * 1000.0);
        mcps.push_back(rate);
        total_cycles += cycles[p];
        total_instructions += instructions[p];
        if (tracer)
            result.add("cores." + setup->programs[p].name +
                           ".mcycles_per_s",
                       rate, "Mcycle/s", run_ms[p].size());
    }
    if (tracer) {
        result.add("cores.instructions", double(total_instructions),
                   "count");
        result.add("cores.program_cycles", double(total_cycles), "count");
        result.add("rtl.module_mcycles_per_s",
                   moduleMcyclesPerS({&setup->autoincZol, &setup->sqrt},
                                     args.seed, tracer),
                   "Mcycle/s");
        result.add("rtl.sim_compile_ms", setup->simCompileMs, "ms",
                   setup->programs.size());
        return result;
    }
    double area = 0.0, makespan = 0.0;
    addQor(setup->autoincZol, area, makespan);
    addQor(setup->sqrt, area, makespan);
    // The JSON timings are scaled to the reference host (see
    // HostProbe); the table rows after them give them as measured.
    double host = probe.scale();
    result.add("setup_s", setup_s.median() * host, "s", setup_s.size());
    // Program runs per second over a round made of each program's
    // median run time.
    double round_ms = 0.0;
    Samples program_medians;
    for (const Samples &ms : run_ms) {
        round_ms += ms.median();
        program_medians.add(ms.median());
    }
    result.add("ops_per_s", 1000.0 * double(run_ms.size()) / round_ms / host,
               "1/s", all_ms.size());
    result.add("op_ms_p50", program_medians.median() * host, "ms",
               all_ms.size());
    // The slowest program, sqrt.
    result.add("op_ms_max", program_medians.quantile(1.0) * host, "ms",
               all_ms.size());
    result.add("peak_rss_mb", peakRssMb(), "MB");
    result.add("qor_area_um2", area, "um2",
               setup->autoincZol.units.size() + setup->sqrt.units.size());
    result.add("qor_makespan_stages", makespan, "stages",
               setup->autoincZol.units.size() + setup->sqrt.units.size());
    result.add("sim_mcycles_per_s", geomean(mcps), "Mcycle/s",
               all_ms.size());
    result.add("program_cycles", double(total_cycles), "count",
               setup->programs.size());
    for (size_t p = 0; p < setup->programs.size(); ++p)
        result.add(setup->programs[p].name + "_ms_p50", run_ms[p].median(),
                   "ms", run_ms[p].size());
    result.add("run_ms_p95", all_ms.quantile(0.95), "ms", all_ms.size());
    result.add("host_probe_ms", probe.ms().median(), "ms",
               probe.ms().size());
    return result;
}

} // namespace perfbench
