/**
 * @file
 * Compiled simulation for netlist Modules: a one-pass compiler that
 * lowers a Module's topologically-ordered node list into a flat
 * bytecode program executed by a threaded-code dispatch loop.
 *
 * This is the throughput half of the simulation story (docs/
 * simulation.md). The interpreter in sim.cc walks the node list and
 * evaluates every node on heap-allocated ApInts; the compiled engine
 * instead assigns every net a slot in a preallocated register file --
 * a packed `uint64_t` word for nets of width <= 64 (the overwhelmingly
 * common case for RV32 ISAXes), a packed `unsigned __int128` word for
 * widths 65..128 (multi-cycle datapaths like the sqrt ISAXes), and an
 * ApInt spill lane for anything wider -- and emits one dense
 * instruction per combinational node. Constants
 * are preloaded into their slots at compile time, registers hold their
 * state directly in their result slot, and a handful of superops fuse
 * common shapes (compare feeding a mux, shifts by a constant amount).
 *
 * The program is immutable after compilation and can be shared by many
 * Machine instances (the core models reuse one program across all
 * dynamic executions of an ISAX instruction). Behavior is bit-identical
 * to the interpreter for every net after evalComb(); the differential
 * fuzz suite (tests/rtl/test_sim_diff.cc) enforces this.
 */

#ifndef LONGNAIL_RTL_SIMJIT_HH
#define LONGNAIL_RTL_SIMJIT_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "rtl/netlist.hh"
#include "support/apint.hh"

namespace longnail {
namespace rtl {
namespace simjit {

// Nets of width 65..128 get their own packed lane on compilers with a
// native 128-bit integer (GCC/Clang); elsewhere they fall back to the
// ApInt lane. The typedef keeps a single compiled code path: without
// native support the Wide2 lane is simply never assigned, so the u128
// op bodies are dead code.
#if defined(__SIZEOF_INT128__)
#define LN_SIMJIT_HAS_U128 1
using u128 = unsigned __int128;
using s128 = __int128;
#else
#define LN_SIMJIT_HAS_U128 0
using u128 = uint64_t;
using s128 = int64_t;
#endif

/**
 * Thread-local simulation statistics, accumulated by both engines and
 * always on (plain additions; no atomics). The driver snapshots these
 * around a compile to fill the `--report` simulation section; the obs
 * registry additionally receives them as `sim.*` counters when
 * observability is enabled.
 */
struct SimStats
{
    uint64_t compiles = 0;    ///< programs compiled
    uint64_t programOps = 0;  ///< bytecode ops emitted
    uint64_t cycles = 0;      ///< clock edges simulated (both engines)
    double compileMs = 0.0;   ///< wall time spent compiling
};

SimStats &tlsSimStats();

/** Bytecode opcodes. Values of all narrow (<= 64 bit) nets are kept
 * masked to their width at all times, which every op relies on. */
enum class Op : uint8_t
{
    // dst = a <op> b, masked to the result width.
    Add,
    Sub,
    Mul,
    DivU,   ///< division by zero yields 0 (interpreter semantics)
    DivS,   ///< magnitude-based, like ApInt::sdiv
    ModU,
    ModS,
    And,
    Or,
    Xor,
    Shl,    ///< dynamic amount in b, clamped to the operand width
    ShrU,
    ShrS,
    ShlI,   ///< constant amount in `shift` (amount operand was constant)
    ShrUI,
    ShrSI,
    CmpEq,  ///< dst = (a <pred> b) ? 1 : 0
    CmpNe,
    CmpUlt,
    CmpUle,
    CmpUgt,
    CmpUge,
    CmpSlt,
    CmpSle,
    CmpSgt,
    CmpSge,
    Mux,     ///< dst = a ? b : c
    CmpMux,  ///< dst = (a <pred(sub)> b) ? c : d2   (fused compare+mux)
    Extract, ///< dst = (a >> shift) & mask
    ExtractWide, ///< a is a wide-lane slot; lo in aux, count in auxw
    Concat2, ///< dst = ((a << shift) | b) & mask    (a high, b low)
    ConcatN, ///< concat pool entries [aux, aux+auxw), high to low
    Replicate, ///< dst = a ? mask : 0
    Rom,     ///< dst = idx < table.size() ? table[idx] : 0; table in aux
    // 128-bit lane variants (dst in the u128 register file unless
    // noted). Operand lane flags live in `sshift`: bit N set means
    // field N of (a, b, c, d2) reads the u128 lane, clear means the
    // narrow lane (a zero-extension, values being invariantly masked).
    Add2,
    Sub2,
    Mul2,
    DivU2,
    DivS2,   ///< magnitude-based at the result width (auxw)
    ModU2,
    ModS2,
    And2,
    Or2,
    Xor2,
    Shl2,    ///< dynamic amount in b, clamped to auxw
    ShrU2,
    ShrS2,
    Cmp2,    ///< dst (narrow) = a <pred(sub)> b; operand width in shift
    Mux2,    ///< dst = a (narrow sel) ? b : c
    Extract2N, ///< dst (narrow) = (a >> shift) & mask
    Extract22, ///< dst = (a >> shift) & mask128(auxw)
    Concat22,  ///< dst = ((a << shift) | b) & mask128(auxw)
    ConcatN2,  ///< concat pool entries [aux, aux+shift), high to low
    Replicate2, ///< dst = a ? mask128(auxw) : 0
    Rom2,    ///< table in romTables2_[aux]
    WideEval, ///< interpret module node `aux` (an ApInt-lane net involved)
    Halt,
};

/** One bytecode instruction. Field use depends on the opcode. */
struct Insn
{
    Op op = Op::Halt;
    uint8_t sub = 0;     ///< ICmp predicate for CmpMux
    uint16_t shift = 0;  ///< shift amount / extract lo / concat low width
    uint16_t sshift = 0; ///< 64 - operand width, for sign extension
    uint16_t auxw = 0;   ///< operand width / pool count
    uint32_t dst = 0;
    uint32_t a = 0;
    uint32_t b = 0;
    uint32_t c = 0;
    uint32_t d2 = 0;     ///< else-operand of CmpMux
    uint32_t aux = 0;    ///< rom table / node index / pool offset
    uint64_t mask = 0;   ///< result mask ((1 << width) - 1; ~0 for 64)
};

/** Where a net's value lives in a Machine. */
enum class Lane : uint8_t
{
    Narrow, ///< regs_[slot], width <= 64, always masked
    Wide2,  ///< w2_[slot], a u128, width 65..128, always masked
    Wide,   ///< wide_[slot], an ApInt at the net's declared width
    Lazy,   ///< elided (a fully-fused ICmp); recomputed on demand
};

struct NetLoc
{
    uint32_t slot = 0;
    Lane lane = Lane::Narrow;
};

/**
 * An immutable compiled program for one Module. Compile once, execute
 * through any number of Machines. The Module must outlive the Program
 * (the wide-net fallback and lazy materialization consult its nodes).
 */
class Program
{
  public:
    static std::shared_ptr<const Program> compile(const Module &module);

    const Module &module() const { return *module_; }
    size_t numOps() const { return insns_.size(); }
    const NetLoc &locOf(NetId net) const { return loc_[net]; }

  private:
    friend class Machine;
    Program() = default;

    struct RegN ///< register with narrow result
    {
        uint32_t slot = 0;       ///< state lives in the result slot
        uint32_t d = 0;          ///< narrow slot of the data operand
        uint32_t en = ~0u;       ///< narrow slot of enable, ~0u if none
        uint64_t init = 0;
    };
    struct RegW ///< register with wide result
    {
        uint32_t slot = 0;       ///< wide-lane slot
        uint32_t d = 0;          ///< wide-lane slot of the data operand
        uint32_t en = ~0u;
        ApInt init{1, 0};
    };
    struct Reg2 ///< register with a u128-lane result
    {
        uint32_t slot = 0;
        uint32_t d = 0;          ///< u128-lane slot of the data operand
        uint32_t en = ~0u;       ///< narrow slot of enable, ~0u if none
        u128 init = 0;
    };
    struct PoolEnt ///< one ConcatN/ConcatN2 operand
    {
        uint32_t slot = 0;
        uint16_t width = 0;
        uint8_t wide2 = 0; ///< operand reads the u128 lane
    };

    const Module *module_ = nullptr;
    std::vector<Insn> insns_; ///< ends with Halt
    std::vector<NetLoc> loc_; ///< per net
    std::vector<uint32_t> lazyNode_; ///< per net: node index or ~0u
    uint32_t numNarrow_ = 0;
    uint32_t numWide2_ = 0;
    uint32_t numWide_ = 0;
    std::vector<std::pair<uint32_t, uint64_t>> constN_; ///< preloads
    std::vector<std::pair<uint32_t, u128>> const2_;
    std::vector<std::pair<uint32_t, ApInt>> constW_;
    std::vector<unsigned> wideWidths_; ///< declared width per wide slot
    std::vector<RegN> regsN_;
    std::vector<Reg2> regs2_;
    std::vector<RegW> regsW_;
    std::vector<std::vector<uint64_t>> romTables_; ///< pre-masked
    std::vector<std::vector<u128>> romTables2_;
    std::vector<PoolEnt> concatPool_;
};

/**
 * Execution state for one Program: the packed register file, the wide
 * lane, and the dispatch loop. One Machine per simulated module
 * instance; cheap to construct (no compilation).
 */
class Machine
{
  public:
    explicit Machine(std::shared_ptr<const Program> program);

    const Program &program() const { return *prog_; }

    /** Reset registers to their init values and inputs to zero. */
    void reset();

    void setInput(NetId net, const ApInt &value);
    void setInput(NetId net, uint64_t value);

    /** Run the bytecode program once (= evaluate all comb logic). */
    void evalComb();

    /** Capture register data inputs (two-phase; chains are safe). */
    void clockEdge();

    /**
     * Current value of a net as an ApInt at its declared width. Valid
     * after evalComb(). Narrow nets materialize into a preallocated
     * per-net cache (no allocation); the returned reference is stable
     * until the next netRef() call for the same net.
     */
    const ApInt &netRef(NetId net) const;

    /** Low 64 bits of a net's value (full value for narrow nets). */
    uint64_t netU64(NetId net) const;

  private:
    void execWide(uint32_t nodeIndex);
    ApInt loadNet(NetId net) const;
    void storeNet(NetId net, const ApInt &value);
    uint64_t lazyValue(NetId net) const;

    std::shared_ptr<const Program> prog_;
    std::vector<uint64_t> regs_;   ///< narrow lane, invariantly masked
    std::vector<u128> w2_;         ///< u128 lane, invariantly masked
    std::vector<ApInt> wide_;      ///< wide lane, declared widths
    std::vector<uint64_t> nextN_;  ///< clockEdge double-buffer
    std::vector<u128> next2_;
    std::vector<ApInt> nextW_;
    mutable std::vector<ApInt> mat_; ///< netRef materialization cache
};

} // namespace simjit
} // namespace rtl
} // namespace longnail

#endif // LONGNAIL_RTL_SIMJIT_HH
