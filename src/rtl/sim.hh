/**
 * @file
 * Cycle-accurate simulator for netlist Modules. This is the "RTL
 * simulation" half of the paper's verification story (Sec. 5.3): the
 * generated ISAX modules execute here, in lock-step with the cycle-
 * level host-core models.
 *
 * Two engines implement the same API (docs/simulation.md):
 *  - SimEngine::Compiled (the default): the module is lowered once
 *    into a bytecode program run by a threaded-code loop (simjit.hh).
 *  - SimEngine::Interp: the original node-by-node ApInt interpreter,
 *    retained as the differential oracle for the compiled engine.
 *
 * Net values are defined after evalComb(); the engines are
 * bit-identical there for every net (tests/rtl/test_sim_diff.cc).
 */

#ifndef LONGNAIL_RTL_SIM_HH
#define LONGNAIL_RTL_SIM_HH

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "rtl/netlist.hh"
#include "rtl/simjit.hh"
#include "support/apint.hh"

namespace longnail {
namespace rtl {

enum class SimEngine
{
    Interp,   ///< node-by-node ApInt interpretation (the oracle)
    Compiled, ///< bytecode + threaded-code dispatch (simjit.hh)
};

/** Process-wide default engine for new Simulators (initially
 * Compiled; the CLI's --sim-engine flag overrides it). */
SimEngine defaultSimEngine();
void setDefaultSimEngine(SimEngine engine);
/** Parse "interp" / "compiled"; nullopt on anything else. */
std::optional<SimEngine> parseSimEngine(const std::string &name);
const char *simEngineName(SimEngine engine);

class Simulator
{
  public:
    explicit Simulator(const Module &module);
    Simulator(const Module &module, SimEngine engine);
    /** Compiled engine sharing an already-compiled program (the core
     * models compile each ISAX module once and reuse it across all
     * dynamic executions). The program must be for @p module. */
    Simulator(const Module &module,
              std::shared_ptr<const simjit::Program> program);
    /** Flushes this instance's cycle count to the obs registry. */
    ~Simulator();

    SimEngine engine() const
    {
        return machine_ ? SimEngine::Compiled : SimEngine::Interp;
    }

    /** Reset all registers to their initial values and every input
     * to zero: a reset simulator behaves exactly like a fresh one. */
    void reset();

    void setInput(const std::string &name, const ApInt &value);
    void setInput(const std::string &name, uint64_t value);
    void setInput(NetId net, const ApInt &value);
    void setInput(NetId net, uint64_t value);

    /**
     * Evaluate all combinational logic with the current inputs and
     * register states. Safe to call repeatedly within a cycle.
     */
    void evalComb();

    /** Capture register inputs (call after evalComb). */
    void clockEdge();

    /** evalComb + clockEdge. */
    void
    tick()
    {
        evalComb();
        clockEdge();
    }

    const ApInt &net(NetId id) const;
    /** Low 64 bits of a net (the full value for nets <= 64 bits wide);
     * avoids materializing an ApInt on the compiled engine. */
    uint64_t netU64(NetId id) const;
    const ApInt &output(const std::string &name) const;
    uint64_t outputU64(const std::string &name) const;

    const Module &module() const { return module_; }

  private:
    void evalCombInterp();
    NetId inputNet(const std::string &name) const;
    NetId outputNet(const std::string &name) const;

    const Module &module_;
    // Port-name lookup, built once (findInput/findOutput scan).
    std::unordered_map<std::string, NetId> inputIndex_;
    std::unordered_map<std::string, NetId> outputIndex_;
    // Interpreter engine state (empty when compiled).
    std::vector<ApInt> values_;    ///< current net values
    std::vector<ApInt> regState_;  ///< per register node, stored value
    std::vector<size_t> regNodes_; ///< indices of register nodes
    // Compiled engine state (null when interpreting).
    std::unique_ptr<simjit::Machine> machine_;
    uint64_t cycles_ = 0; ///< clock edges simulated by this instance
};

} // namespace rtl
} // namespace longnail

#endif // LONGNAIL_RTL_SIM_HH
