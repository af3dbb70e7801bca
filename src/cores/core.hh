/**
 * @file
 * Cycle-level models of the evaluation host cores (Sec. 5.2) with
 * SCAIE-V integration: ORCA and VexRiscv (5-stage pipelines), Piccolo
 * (3-stage), and PicoRV32 (non-pipelined FSM sequencing, modeled as a
 * no-overlap pipeline).
 *
 * The integration layer plays the role of the SCAIE-V-generated logic:
 * it decodes ISAX opcodes, drives the generated modules' stage-suffixed
 * ports in lock-step with the pipeline (the modules themselves run in
 * the RTL simulator), applies their state updates (WrRD/WrPC/WrMem/
 * custom registers), performs register data-hazard handling (stalls +
 * forwarding, including the scoreboard for decoupled ISAXes), hosts the
 * SCAIE-V-managed custom registers, evaluates always-blocks every
 * cycle, and arbitrates between multiple attached ISAXes
 * (first-attached wins, Sec. 3.3).
 */

#ifndef LONGNAIL_CORES_CORE_HH
#define LONGNAIL_CORES_CORE_HH

#include <array>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cores/memory.hh"
#include "cores/rv32i.hh"
#include "hwgen/hwgen.hh"
#include "rtl/sim.hh"
#include "scaiev/datasheet.hh"

namespace longnail {
namespace cores {

/** One ISAX instruction with its generated hardware module. */
struct IsaxInstrUnit
{
    std::string name;
    uint32_t mask = 0;
    uint32_t match = 0;
    hwgen::GeneratedModule module;
};

/** A compiled ISAX ready for integration. */
struct IsaxBundle
{
    std::string name;

    struct CustomReg
    {
        std::string name;
        unsigned width = 32;
        uint64_t elements = 1;
    };

    std::vector<IsaxInstrUnit> instructions;
    std::vector<hwgen::GeneratedModule> alwaysBlocks;
    std::vector<CustomReg> customRegs;
};

/** Per-run statistics. */
struct RunStats
{
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    /** Cycles (since core construction) in which the pipeline front
     * end was held back: a global tightly-coupled/commit stall, or a
     * fetch/decode stall from hazards and bus waits. */
    uint64_t stallCycles = 0;
    bool halted = false;

    double ipc() const
    {
        return cycles ? double(instructions) / double(cycles) : 0.0;
    }
};

/** Extra timing knobs beyond the datasheet. */
struct CoreTiming
{
    BusTiming bus;
    /** Extra cycles per instruction fetch (uncached iBus). */
    unsigned fetchWaitStates = 0;
};

class Core
{
  public:
    explicit Core(const scaiev::Datasheet &sheet, CoreTiming timing = {});

    /** Attach a compiled ISAX; attach order fixes arbitration
     * priority. */
    void attachIsax(std::shared_ptr<IsaxBundle> bundle);

    /** Copy a program into memory and point the PC at it. */
    void loadProgram(const std::vector<uint32_t> &words, uint32_t base);

    Memory &memory() { return memory_; }
    uint32_t reg(unsigned i) const { return state_.reg(i); }
    void setReg(unsigned i, uint32_t v) { state_.setReg(i, v); }
    uint32_t pc() const { return fetchPc_; }

    /** Architectural custom-register contents. */
    const ApInt &customReg(const std::string &name,
                           uint64_t index = 0) const;
    void setCustomReg(const std::string &name, uint64_t index,
                      const ApInt &value);

    /** Advance one clock cycle. @return false once halted. */
    bool stepCycle();

    /** Run until ECALL/EBREAK retires or @p max_cycles pass. */
    RunStats run(uint64_t max_cycles = 1'000'000);

    bool halted() const { return halted_; }

  private:
    // ------------------------------------------------------------------
    /** A custom register file and the number of writes to it. */
    struct CustomRegFile
    {
        std::vector<ApInt> values;
        uint64_t writes = 0;
    };

    /** How the RdCustReg ports of an evaluation get their data. The
     * order matters: merging two sets of ports takes the larger. */
    enum class CustRegReads : uint8_t
    {
        None,
        /** No port has an address: drive all, then evaluate once. */
        Direct,
        /** Some port has an address: evaluate to compute it, drive
         * every read, evaluate again. */
        Indexed,
    };

    /**
     * Attach-time record of one generated module: what the per-cycle
     * paths need of it, resolved once, and its idle simulators.
     */
    struct BoundModule
    {
        const hwgen::GeneratedModule *module = nullptr;
        const IsaxInstrUnit *unit = nullptr; ///< null for always-blocks
        /** Shared bytecode program (compiled engine), built once. */
        std::shared_ptr<const rtl::simjit::Program> program;
        /** The nets of one interface port (invalidNet where absent). */
        struct PortNets
        {
            rtl::NetId data = rtl::invalidNet;
            rtl::NetId addr = rtl::invalidNet;
            rtl::NetId valid = rtl::invalidNet;
            /** The custom register the port accesses. */
            CustomRegFile *reg = nullptr;
        };
        std::vector<PortNets> ports; ///< parallel to module->ports
        /** The custom-register reads of each stage (index = stage)
         * and of the whole module (always-blocks drive every port). */
        std::vector<CustRegReads> stageReads;
        CustRegReads reads = CustRegReads::None;
        bool hasRegisters = false;
        bool readsRs1 = false;
        bool readsRs2 = false;
        bool writesRd = false;
        /** Has spawn ports after the core's write-back stage. */
        bool spawnsPastWb = false;
        /** Custom registers read or written, and those read; each
         * without duplicates. */
        std::vector<const CustomRegFile *> customRegs;
        std::vector<const CustomRegFile *> readRegs;
        /** Simulators of finished executions, reset on reuse. */
        std::vector<std::unique_ptr<rtl::Simulator>> idleSims;
    };

    struct IsaxExec; // an ISAX instruction in flight

    /** One pipeline slot (the instruction occupying a stage). */
    struct Slot
    {
        bool valid = false;
        uint64_t seq = 0;
        uint32_t pc = 0;
        uint32_t instr = 0;
        DecodedInstr d;
        bool operandsRead = false;
        uint32_t rs1v = 0;
        uint32_t rs2v = 0;
        bool resultValid = false;
        uint32_t result = 0;
        bool addrValid = false;  ///< EX computed the memory address
        unsigned waitCycles = 0; ///< bus wait countdown in MEM
        bool memDone = false;
        bool isHalt = false;
        std::shared_ptr<IsaxExec> isax; ///< non-null for ISAX instrs
    };

    /** A custom (ISAX) instruction execution driving its module. */
    struct IsaxExec
    {
        BoundModule *bound = nullptr;
        /** Null once finished (returned to bound->idleSims). */
        std::unique_ptr<rtl::Simulator> sim;
        int stage = -1;       ///< current module stage (time step)
        bool rdPending = false; ///< WrRD not yet delivered
        bool resultReady = false; ///< sampled, awaiting WB commit
        uint32_t resultValue = 0;
        unsigned rd = 0;
        bool decoupled = false; ///< detached from the pipeline
        bool finished = false;
        unsigned memWait = 0;   ///< bus wait for an ISAX memory access
        uint64_t seq = 0;
    };

    struct AlwaysUnit
    {
        BoundModule *bound = nullptr;
        std::unique_ptr<rtl::Simulator> sim;
        /** Writes to the registers the block reads, when last seen. */
        uint64_t seenWrites = 0;
        /** PCs, most recent first, at which an evaluation since then
         * had no effect (runAlwaysUnits). */
        std::array<uint32_t, 2> quietPcs{};
        unsigned numQuiet = 0;
    };

    // Stage processing (called once per cycle, last stage first).
    void processWriteback();
    void processMemory();
    void processExecute();
    void processDecode();
    void processFetch();
    void advancePipeline();
    void runAlwaysUnits();
    void stepIsaxExecs(bool force_hold_attached);
    void stepOneExec(IsaxExec &exec, Slot *slot, bool force_hold);
    /** Mark @p exec finished and return its simulator to the pool. */
    void finishExec(IsaxExec &exec);

    bool readOperand(unsigned reg_index, uint64_t reader_seq,
                     uint32_t &value) const;
    BoundModule *matchIsax(uint32_t word) const;

    void sampleIsaxOutputs(Slot *slot, IsaxExec &exec);
    /** Evaluate @p sim, its other inputs driven, resolving the
     * RdCustReg ports at @p stage (all of them when negative). */
    void evalModule(rtl::Simulator &sim, const BoundModule &bound,
                    int stage);
    /** Sample a WrCustRegAddr port (remember the index) or a
     * WrCustRegData port (write its register at the index remembered
     * last for it). @return whether a data port's valid fired. */
    bool sampleCustRegWrite(const rtl::Simulator &sim,
                            const hwgen::InterfacePort &port,
                            const BoundModule::PortNets &nets);
    void applyRedirect(uint32_t new_pc, uint64_t younger_than_seq);

    unsigned stageOf(const Slot *slot) const;
    bool slotWillAdvance(unsigned stage) const;
    bool customRegHasPendingWrite(const CustomRegFile *reg,
                                  uint64_t reader_seq) const;
    /** Bind @p mod (of instruction @p unit, or an always-block when
     * null): resolve its port nets and custom registers. */
    BoundModule *bindModule(const hwgen::GeneratedModule &mod,
                            const IsaxInstrUnit *unit);
    /** Simulator for a bound module, honoring the process-wide engine
     * default. The compiled engine shares one bytecode program per
     * module across all dynamic executions. */
    std::unique_ptr<rtl::Simulator> makeSim(BoundModule &bound);
    /** An idle simulator of @p bound, reset, or a new one. */
    std::unique_ptr<rtl::Simulator> acquireSim(BoundModule &bound);

    // ------------------------------------------------------------------
    const scaiev::Datasheet &sheet_;
    CoreTiming timing_;

    unsigned numStages_;
    bool overlap_; ///< false models FSM sequencing (PicoRV32)
    unsigned decodeStage_;
    unsigned execStage_;
    unsigned memStage_;
    unsigned wbStage_;

    ArchState state_;
    Memory memory_;
    uint32_t fetchPc_ = 0;
    unsigned fetchWait_ = 0;
    bool fetchedThisCycle_ = false;
    uint32_t fetchedPc_ = 0;
    uint64_t nextSeq_ = 1;
    uint64_t retired_ = 0;
    uint64_t stallCycles_ = 0;
    bool halted_ = false;
    /** Extra full-pipeline stall cycles (tightly-coupled / commit). */
    unsigned globalStall_ = 0;

    std::vector<Slot> slots_; ///< index = stage
    std::vector<std::shared_ptr<IsaxExec>> detachedExecs_;
    /** GPR scoreboard for decoupled writes: reg -> owning seq. */
    std::map<unsigned, uint64_t> rdScoreboard_;

    std::vector<std::shared_ptr<IsaxBundle>> bundles_;
    /** One record per attached module, in attach order (which is the
     * arbitration order: first attached, first matched). */
    std::vector<std::unique_ptr<BoundModule>> bound_;
    std::vector<AlwaysUnit> alwaysUnits_;
    std::map<std::string, CustomRegFile> customRegs_;

    // Work counters, flushed by run() as core.module_evals,
    // core.sim_reuses and core.always_skipped.
    uint64_t moduleEvals_ = 0;
    uint64_t simReuses_ = 0;
    uint64_t alwaysSkipped_ = 0;

    /** Direct-mapped fetch decode cache: decode() + matchIsax() are
     * pure functions of the instruction word and the attached
     * bundles, so memoize them (invalidated by attachIsax). */
    struct DecodeCacheEntry
    {
        uint32_t word = 0;
        bool valid = false;
        DecodedInstr d;
        BoundModule *isax = nullptr;
    };
    std::array<DecodeCacheEntry, 256> decodeCache_{};
    /** Reusable scratch for WrCustRegAddr/WrCustRegData pairing,
     * avoiding a per-cycle map allocation. */
    std::vector<std::pair<const CustomRegFile *, uint64_t>>
        pendingIdxScratch_;

    /** Decode held its instruction this cycle (hazard). */
    bool stallDecode_ = false;
};

} // namespace cores
} // namespace longnail

#endif // LONGNAIL_CORES_CORE_HH
