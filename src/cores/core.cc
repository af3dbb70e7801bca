#include "cores/core.hh"

#include <algorithm>

#include "obs/metrics.hh"
#include "support/logging.hh"

namespace longnail {
namespace cores {

using hwgen::GeneratedModule;
using hwgen::InterfacePort;
using scaiev::SubInterface;

Core::Core(const scaiev::Datasheet &sheet, CoreTiming timing)
    : sheet_(sheet), timing_(timing)
{
    numStages_ = sheet.numStages;
    overlap_ = sheet.pipelined;
    decodeStage_ = std::min(1u, numStages_ - 1);
    execStage_ = sheet.operandStage;
    memStage_ = sheet.memoryStage;
    wbStage_ = numStages_ - 1;
    slots_.resize(numStages_);
}

Core::BoundModule *
Core::bindModule(const GeneratedModule &mod, const IsaxInstrUnit *unit)
{
    auto bound = std::make_unique<BoundModule>();
    bound->module = &mod;
    bound->unit = unit;
    if (rtl::defaultSimEngine() == rtl::SimEngine::Compiled)
        bound->program = rtl::simjit::Program::compile(mod.module);
    bound->hasRegisters = mod.module.numRegisters() > 0;
    auto net = [&](const std::string &name, bool is_input) {
        if (name.empty())
            return rtl::invalidNet;
        auto found = is_input ? mod.module.findInput(name)
                              : mod.module.findOutput(name);
        if (!found)
            LN_PANIC("module '", mod.name, "' has no port '", name, "'");
        return *found;
    };
    for (const InterfacePort &port : mod.ports) {
        BoundModule::PortNets nets;
        // Read interfaces take their data in, write interfaces drive it
        // out; addresses and valids are always outputs.
        nets.data = net(port.dataPort, !scaiev::isWriteInterface(port.iface));
        nets.addr = net(port.addrPort, false);
        nets.valid = net(port.validPort, false);
        if (!port.reg.empty()) {
            auto it = customRegs_.find(port.reg);
            if (it == customRegs_.end())
                LN_PANIC("module '", mod.name,
                         "' accesses unknown custom register '", port.reg,
                         "'");
            nets.reg = &it->second;
        }
        switch (port.iface) {
          case SubInterface::RdRS1: bound->readsRs1 = true; break;
          case SubInterface::RdRS2: bound->readsRs2 = true; break;
          case SubInterface::WrRD: bound->writesRd = true; break;
          case SubInterface::RdCustReg: {
            CustRegReads reads = nets.addr == rtl::invalidNet
                                     ? CustRegReads::Direct
                                     : CustRegReads::Indexed;
            size_t stage = size_t(std::max(port.stage, 0));
            if (stage >= bound->stageReads.size())
                bound->stageReads.resize(stage + 1, CustRegReads::None);
            bound->stageReads[stage] =
                std::max(bound->stageReads[stage], reads);
            bound->reads = std::max(bound->reads, reads);
            break;
          }
          default: break;
        }
        auto add = [&](std::vector<const CustomRegFile *> &regs) {
            if (std::find(regs.begin(), regs.end(), nets.reg) == regs.end())
                regs.push_back(nets.reg);
        };
        if (port.iface == SubInterface::RdCustReg ||
            port.iface == SubInterface::WrCustRegData)
            add(bound->customRegs);
        if (port.iface == SubInterface::RdCustReg)
            add(bound->readRegs);
        if (port.fromSpawn && port.stage > int(wbStage_))
            bound->spawnsPastWb = true;
        bound->ports.push_back(nets);
    }
    bound_.push_back(std::move(bound));
    return bound_.back().get();
}

std::unique_ptr<rtl::Simulator>
Core::makeSim(BoundModule &bound)
{
    const rtl::Module &module = bound.module->module;
    if (rtl::defaultSimEngine() == rtl::SimEngine::Compiled) {
        if (!bound.program)
            bound.program = rtl::simjit::Program::compile(module);
        return std::make_unique<rtl::Simulator>(module, bound.program);
    }
    return std::make_unique<rtl::Simulator>(module,
                                            rtl::SimEngine::Interp);
}

std::unique_ptr<rtl::Simulator>
Core::acquireSim(BoundModule &bound)
{
    if (bound.idleSims.empty())
        return makeSim(bound);
    std::unique_ptr<rtl::Simulator> sim = std::move(bound.idleSims.back());
    bound.idleSims.pop_back();
    sim->reset();
    ++simReuses_;
    return sim;
}

void
Core::attachIsax(std::shared_ptr<IsaxBundle> bundle)
{
    for (const auto &reg : bundle->customRegs) {
        CustomRegFile &file = customRegs_[reg.name];
        file.values.assign(reg.elements, ApInt(reg.width, 0));
        ++file.writes;
    }
    for (const auto &always : bundle->alwaysBlocks) {
        AlwaysUnit unit;
        unit.bound = bindModule(always, nullptr);
        unit.sim = makeSim(*unit.bound);
        alwaysUnits_.push_back(std::move(unit));
    }
    for (const auto &unit : bundle->instructions)
        bindModule(unit.module, &unit);
    // New instructions can change what a fetched word decodes to.
    for (auto &entry : decodeCache_)
        entry.valid = false;
    bundles_.push_back(std::move(bundle));
}

void
Core::loadProgram(const std::vector<uint32_t> &words, uint32_t base)
{
    for (size_t i = 0; i < words.size(); ++i)
        memory_.writeWord(base + uint32_t(i) * 4, words[i]);
    fetchPc_ = base;
    state_.pc = base;
}

const ApInt &
Core::customReg(const std::string &name, uint64_t index) const
{
    auto it = customRegs_.find(name);
    if (it == customRegs_.end())
        LN_PANIC("no custom register '", name, "'");
    return it->second.values.at(index);
}

void
Core::setCustomReg(const std::string &name, uint64_t index,
                   const ApInt &value)
{
    auto it = customRegs_.find(name);
    if (it == customRegs_.end())
        LN_PANIC("no custom register '", name, "'");
    ApInt &slot = it->second.values.at(index);
    slot = value.zextOrTrunc(slot.width());
    ++it->second.writes;
}

Core::BoundModule *
Core::matchIsax(uint32_t word) const
{
    // Static arbitration priority: first attached, first matched
    // (Sec. 3.3).
    for (const auto &bound : bound_)
        if (bound->unit && (word & bound->unit->mask) == bound->unit->match)
            return bound.get();
    return nullptr;
}

unsigned
Core::stageOf(const Slot *slot) const
{
    for (unsigned s = 0; s < slots_.size(); ++s)
        if (&slots_[s] == slot)
            return s;
    LN_PANIC("slot not in pipeline");
}

bool
Core::readOperand(unsigned reg_index, uint64_t reader_seq,
                  uint32_t &value) const
{
    if (reg_index == 0) {
        value = 0;
        return true;
    }
    // Decoupled scoreboard: the register is owned by an ISAX still
    // computing its result.
    auto owned = rdScoreboard_.find(reg_index);
    if (owned != rdScoreboard_.end())
        return false;
    // Nearest older in-flight producer (ascending stages = most
    // recently issued first).
    for (unsigned s = decodeStage_ + 1; s < slots_.size(); ++s) {
        const Slot &slot = slots_[s];
        if (!slot.valid || slot.seq >= reader_seq)
            continue;
        if (slot.isax && slot.isax->rd == reg_index) {
            // In-pipeline ISAX results forward as soon as the module
            // delivers them; the register file commit happens at WB.
            IsaxExec &exec = *slot.isax;
            if (exec.resultReady) {
                value = exec.resultValue;
                return true;
            }
            if (exec.rdPending && !exec.finished)
                return false; // stall until the module delivers
            continue; // predicated off / no WrRD: not a producer
        }
        if (!(slot.d.writesRd() && slot.d.rd == reg_index))
            continue;
        if (slot.resultValid) {
            value = slot.result;
            return true;
        }
        return false; // stall until the producer computes
    }
    value = state_.reg(reg_index);
    return true;
}

void
Core::applyRedirect(uint32_t new_pc, uint64_t younger_than_seq)
{
    fetchPc_ = new_pc;
    fetchWait_ = 0;
    for (auto &slot : slots_) {
        if (slot.valid && slot.seq > younger_than_seq) {
            if (slot.isax && !slot.isax->finished)
                finishExec(*slot.isax); // squashed
            slot = Slot{};
        }
    }
}

// ---------------------------------------------------------------------------
// Stage processing
// ---------------------------------------------------------------------------

void
Core::processWriteback()
{
    Slot &slot = slots_[wbStage_];
    if (!slot.valid)
        return;
    if (slot.isHalt) {
        halted_ = true;
        ++retired_;
        slot = Slot{};
        return;
    }
    if (slot.isax) {
        IsaxExec &exec = *slot.isax;
        // Commit an in-pipeline result in program order.
        if (exec.resultReady) {
            state_.setReg(exec.rd, exec.resultValue);
            exec.resultReady = false;
        }
        // Decide how the remaining module stages execute.
        const GeneratedModule &mod = *exec.bound->module;
        if (!exec.finished && exec.stage <= mod.lastStage) {
            // Either way the register stays owned by the ISAX until
            // its WrRD fires; readers stall via the scoreboard.
            if (exec.rdPending && exec.rd != 0)
                rdScoreboard_[exec.rd] = exec.seq;
            if (exec.bound->spawnsPastWb) {
                // Decoupled execution: the instruction retires, the
                // module keeps running in parallel.
                exec.decoupled = true;
            } else {
                // Tightly-coupled: stall the whole core until the
                // module delivers its last result.
                globalStall_ = unsigned(mod.lastStage - exec.stage);
            }
            detachedExecs_.push_back(slot.isax);
        }
        ++retired_;
        slot = Slot{};
        return;
    }
    // Base instruction commit.
    if (slot.d.writesRd() && slot.resultValid)
        state_.setReg(slot.d.rd, slot.result);
    state_.pc = slot.pc + 4;
    ++retired_;
    slot = Slot{};
}

void
Core::processMemory()
{
    Slot &slot = slots_[memStage_];
    if (!slot.valid || slot.isax || slot.memDone)
        return;
    if (slot.d.opcode != Opcode::Load && slot.d.opcode != Opcode::Store) {
        slot.memDone = true;
        return;
    }
    if (!slot.addrValid)
        return; // the address has not been computed yet
    if (slot.waitCycles == 0) {
        unsigned waits = slot.d.opcode == Opcode::Load
                             ? timing_.bus.loadWaitStates
                             : timing_.bus.storeWaitStates;
        slot.waitCycles = waits + 1;
    }
    --slot.waitCycles;
    if (slot.waitCycles > 0)
        return; // still waiting; occupancy stalls upstream
    uint32_t addr = slot.result; // ALU computed the address
    if (slot.d.opcode == Opcode::Load) {
        uint32_t value = 0;
        switch (slot.d.funct3) {
          case 0x0:
            value = uint32_t(int32_t(int8_t(memory_.readByte(addr))));
            break;
          case 0x1:
            value = uint32_t(int32_t(int16_t(memory_.readHalf(addr))));
            break;
          case 0x2: value = memory_.readWord(addr); break;
          case 0x4: value = memory_.readByte(addr); break;
          case 0x5: value = memory_.readHalf(addr); break;
          default: break;
        }
        slot.result = value;
        slot.resultValid = true;
    } else {
        uint32_t value = slot.rs2v;
        switch (slot.d.funct3) {
          case 0x0: memory_.writeByte(addr, uint8_t(value)); break;
          case 0x1: memory_.writeHalf(addr, uint16_t(value)); break;
          case 0x2: memory_.writeWord(addr, value); break;
          default: break;
        }
    }
    slot.memDone = true;
}

void
Core::processExecute()
{
    Slot &slot = slots_[execStage_];
    if (!slot.valid || slot.isax || slot.resultValid || !slot.operandsRead)
        return;
    if (slot.d.opcode == Opcode::System || slot.d.opcode == Opcode::Fence)
        return;
    slot.result = executeAlu(slot.d, slot.rs1v, slot.rs2v, slot.pc);
    // Loads/stores: 'result' is the address until MEM replaces it.
    slot.addrValid = true;
    slot.resultValid = slot.d.opcode != Opcode::Load;
    // Control flow resolves here.
    if (slot.d.opcode == Opcode::Jal) {
        applyRedirect(slot.pc + uint32_t(slot.d.imm), slot.seq);
    } else if (slot.d.opcode == Opcode::Jalr) {
        applyRedirect((slot.rs1v + uint32_t(slot.d.imm)) & ~1u,
                      slot.seq);
    } else if (slot.d.opcode == Opcode::Branch &&
               branchTaken(slot.d, slot.rs1v, slot.rs2v)) {
        applyRedirect(slot.pc + uint32_t(slot.d.imm), slot.seq);
    }
}

void
Core::processDecode()
{
    Slot &slot = slots_[decodeStage_];
    stallDecode_ = false;
    if (!slot.valid || slot.operandsRead)
        return;

    // Structural hazard: only one execution per ISAX module at a time.
    if (slot.isax) {
        for (unsigned s = decodeStage_ + 1; s < slots_.size(); ++s) {
            const Slot &older = slots_[s];
            if (older.valid && older.isax &&
                older.isax->bound == slot.isax->bound &&
                !older.isax->finished) {
                stallDecode_ = true;
                return;
            }
        }
        for (const auto &exec : detachedExecs_) {
            if (!exec->finished && exec->bound == slot.isax->bound) {
                stallDecode_ = true;
                return;
            }
        }
    }

    // Register operands (with forwarding / stall).
    bool needs_rs1 =
        slot.isax ? slot.isax->bound->readsRs1 : slot.d.readsRs1();
    bool needs_rs2 =
        slot.isax ? slot.isax->bound->readsRs2 : slot.d.readsRs2();
    if (needs_rs1 && !readOperand(slot.d.rs1, slot.seq, slot.rs1v)) {
        stallDecode_ = true;
        return;
    }
    if (needs_rs2 && !readOperand(slot.d.rs2, slot.seq, slot.rs2v)) {
        stallDecode_ = true;
        return;
    }
    // WAW with an ISAX write in flight (either already detached and
    // tracked by the scoreboard, or still moving through the
    // pipeline).
    if ((slot.d.writesRd() || slot.isax) && slot.d.rd != 0) {
        auto owned = rdScoreboard_.find(slot.d.rd);
        if (owned != rdScoreboard_.end()) {
            stallDecode_ = true;
            return;
        }
        for (unsigned s = decodeStage_ + 1; s < slots_.size(); ++s) {
            const Slot &older = slots_[s];
            if (older.valid && older.seq < slot.seq && older.isax &&
                !older.isax->finished && older.isax->rdPending &&
                older.isax->rd == slot.d.rd) {
                stallDecode_ = true;
                return;
            }
        }
    }
    // Custom-register RAW/WAW against older unfinished ISAXes writing
    // the same register.
    if (slot.isax) {
        for (const CustomRegFile *reg : slot.isax->bound->customRegs) {
            if (customRegHasPendingWrite(reg, slot.seq)) {
                stallDecode_ = true;
                return;
            }
        }
    }
    slot.operandsRead = true;
}

bool
Core::customRegHasPendingWrite(const CustomRegFile *reg,
                               uint64_t reader_seq) const
{
    auto pending = [&](const IsaxExec &exec) {
        if (exec.finished || exec.seq >= reader_seq)
            return false;
        const BoundModule &bound = *exec.bound;
        for (size_t i = 0; i < bound.ports.size(); ++i) {
            const InterfacePort &port = bound.module->ports[i];
            if (port.iface == SubInterface::WrCustRegData &&
                bound.ports[i].reg == reg && port.stage >= exec.stage)
                return true;
        }
        return false;
    };
    for (unsigned s = 0; s < slots_.size(); ++s)
        if (slots_[s].valid && slots_[s].isax && pending(*slots_[s].isax))
            return true;
    for (const auto &exec : detachedExecs_)
        if (pending(*exec))
            return true;
    return false;
}

void
Core::processFetch()
{
    if (halted_)
        return;
    if (slots_[0].valid)
        return; // fetch stage occupied
    if (fetchWait_ > 0) {
        --fetchWait_;
        return;
    }
    if (!overlap_) {
        // FSM sequencing: one instruction at a time.
        for (const auto &slot : slots_)
            if (slot.valid)
                return;
    }
    uint32_t word = memory_.readWord(fetchPc_);
    DecodeCacheEntry &cached = decodeCache_[(word >> 2) & 0xff];
    if (!cached.valid || cached.word != word) {
        cached.word = word;
        cached.d = decode(word);
        cached.isax = cached.d.opcode == Opcode::Custom
                          ? matchIsax(word)
                          : nullptr;
        cached.valid = true;
    }
    Slot slot;
    slot.valid = true;
    slot.seq = nextSeq_++;
    slot.pc = fetchPc_;
    slot.instr = word;
    slot.d = cached.d;
    slot.isHalt = slot.d.opcode == Opcode::System;
    if (slot.d.opcode == Opcode::Custom) {
        if (BoundModule *bound = cached.isax) {
            // Two executions of one module can overlap (the structural
            // hazard check is in decode, the module steps from fetch),
            // so each takes its own simulator from the pool.
            auto exec = std::make_shared<IsaxExec>();
            exec->bound = bound;
            exec->sim = acquireSim(*bound);
            exec->stage = 0;
            exec->seq = slot.seq;
            exec->rdPending = bound->writesRd;
            exec->rd = slot.d.rd;
            slot.isax = exec;
        }
        // Unmatched custom opcodes trap as illegal: halt.
        if (!slot.isax)
            slot.isHalt = true;
    }
    slots_[0] = std::move(slot);
    fetchedThisCycle_ = true;
    fetchedPc_ = slots_[0].pc;
    fetchPc_ += 4;
    fetchWait_ = timing_.fetchWaitStates;
}

// ---------------------------------------------------------------------------
// ISAX module driving
// ---------------------------------------------------------------------------

void
Core::finishExec(IsaxExec &exec)
{
    exec.finished = true;
    exec.bound->idleSims.push_back(std::move(exec.sim));
}

void
Core::stepOneExec(IsaxExec &exec, Slot *slot, bool force_hold)
{
    bool hold;
    if (slot) {
        unsigned s = stageOf(slot);
        if (exec.stage != int(s)) {
            // The module ran ahead while the slot stalled at fetch
            // time; wait for the slot to catch up.
            hold = true;
        } else {
            hold = force_hold || !slotWillAdvance(s);
        }
    } else {
        hold = false;
    }
    if (exec.memWait > 0) {
        --exec.memWait;
        hold = true;
    }
    // A held module neither samples its outputs nor clocks, and the
    // next cycle without a hold drives the same stage's inputs again,
    // so evaluating it now would be discarded work. Its stall inputs
    // thus only ever read 0 when evaluated, as a fresh or reset
    // simulator has them.
    if (hold)
        return;

    const BoundModule &bound = *exec.bound;
    const std::vector<InterfacePort> &ports = bound.module->ports;
    rtl::Simulator &sim = *exec.sim;

    // Drive data inputs for ports in the current module stage.
    for (size_t i = 0; i < ports.size(); ++i) {
        if (ports[i].stage != exec.stage)
            continue;
        rtl::NetId data = bound.ports[i].data;
        switch (ports[i].iface) {
          case SubInterface::RdInstr:
            sim.setInput(data, uint64_t(slot ? slot->instr : 0));
            break;
          case SubInterface::RdRS1:
            sim.setInput(data, uint64_t(slot ? slot->rs1v : 0));
            break;
          case SubInterface::RdRS2:
            sim.setInput(data, uint64_t(slot ? slot->rs2v : 0));
            break;
          case SubInterface::RdPC:
            sim.setInput(data, uint64_t(slot ? slot->pc : 0));
            break;
          default:
            break;
        }
    }
    evalModule(sim, bound, exec.stage);
    sampleIsaxOutputs(slot, exec);
    sim.clockEdge();
    if (++exec.stage > bound.module->lastStage)
        finishExec(exec);
}

void
Core::evalModule(rtl::Simulator &sim, const BoundModule &bound, int stage)
{
    CustRegReads reads = bound.reads;
    if (stage >= 0)
        reads = size_t(stage) < bound.stageReads.size()
                    ? bound.stageReads[size_t(stage)]
                    : CustRegReads::None;
    // Custom-register reads resolve combinationally. An address comes
    // out of an evaluation; without one, driving the data first makes
    // the second evaluation unnecessary.
    if (reads == CustRegReads::Indexed) {
        sim.evalComb();
        ++moduleEvals_;
    }
    if (reads != CustRegReads::None) {
        const std::vector<InterfacePort> &ports = bound.module->ports;
        for (size_t i = 0; i < ports.size(); ++i) {
            if (ports[i].iface != SubInterface::RdCustReg ||
                (stage >= 0 && ports[i].stage != stage))
                continue;
            const BoundModule::PortNets &nets = bound.ports[i];
            const std::vector<ApInt> &storage = nets.reg->values;
            uint64_t index =
                nets.addr == rtl::invalidNet ? 0 : sim.netU64(nets.addr);
            if (index < storage.size())
                sim.setInput(nets.data, storage[index]);
            else
                sim.setInput(nets.data, uint64_t(0));
        }
    }
    sim.evalComb();
    ++moduleEvals_;
}

bool
Core::sampleCustRegWrite(const rtl::Simulator &sim,
                         const InterfacePort &port,
                         const BoundModule::PortNets &nets)
{
    if (port.iface == SubInterface::WrCustRegAddr) {
        pendingIdxScratch_.emplace_back(
            nets.reg,
            nets.addr == rtl::invalidNet ? 0 : sim.netU64(nets.addr));
        return false;
    }
    if (sim.netU64(nets.valid) == 0)
        return false;
    uint64_t index = 0;
    for (const auto &[reg, idx] : pendingIdxScratch_)
        if (reg == nets.reg)
            index = idx;
    std::vector<ApInt> &storage = nets.reg->values;
    if (index < storage.size()) {
        storage[index] =
            sim.net(nets.data).zextOrTrunc(storage[index].width());
        ++nets.reg->writes;
    }
    return true;
}

void
Core::stepIsaxExecs(bool force_hold_attached)
{
    for (auto &slot : slots_)
        if (slot.valid && slot.isax && !slot.isax->finished)
            stepOneExec(*slot.isax, &slot, force_hold_attached);
    for (auto &exec : detachedExecs_)
        if (!exec->finished)
            stepOneExec(*exec, nullptr, false);
    std::erase_if(detachedExecs_,
                  [](const std::shared_ptr<IsaxExec> &exec) {
                      return exec->finished;
                  });
}

void
Core::sampleIsaxOutputs(Slot *slot, IsaxExec &exec)
{
    const BoundModule &bound = *exec.bound;
    const std::vector<InterfacePort> &ports = bound.module->ports;
    rtl::Simulator &sim = *exec.sim;
    pendingIdxScratch_.clear();

    for (size_t i = 0; i < ports.size(); ++i) {
        const InterfacePort &port = ports[i];
        if (port.stage != exec.stage)
            continue;
        const BoundModule::PortNets &nets = bound.ports[i];
        switch (port.iface) {
          case SubInterface::RdMem: {
            if (sim.netU64(nets.valid) == 0)
                break;
            uint32_t addr = uint32_t(sim.netU64(nets.addr));
            uint32_t word = memory_.readWord(addr);
            sim.setInput(nets.data, uint64_t(word));
            if (timing_.bus.loadWaitStates > 0)
                exec.memWait = timing_.bus.loadWaitStates;
            break;
          }
          case SubInterface::WrMem: {
            if (sim.netU64(nets.valid) == 0)
                break;
            uint32_t addr = uint32_t(sim.netU64(nets.addr));
            uint32_t value = uint32_t(sim.netU64(nets.data));
            memory_.writeWord(addr, value);
            if (timing_.bus.storeWaitStates > 0)
                exec.memWait = timing_.bus.storeWaitStates;
            break;
          }
          case SubInterface::WrRD: {
            bool enabled = sim.netU64(nets.valid) != 0;
            if (enabled) {
                uint32_t value = uint32_t(sim.netU64(nets.data));
                if (slot) {
                    // In-pipeline: forwardable immediately, committed
                    // to the register file in program order at WB.
                    exec.resultReady = true;
                    exec.resultValue = value;
                } else {
                    state_.setReg(exec.rd, value);
                }
            }
            exec.rdPending = false;
            // Release the scoreboard entry if this execution owns it.
            auto owned = rdScoreboard_.find(exec.rd);
            if (owned != rdScoreboard_.end() &&
                owned->second == exec.seq)
                rdScoreboard_.erase(owned);
            if (enabled && exec.decoupled) {
                // Sec. 3.2: the base pipeline is stalled for one cycle
                // to avoid write-back conflicts.
                globalStall_ += 1;
            }
            break;
          }
          case SubInterface::WrPC: {
            if (sim.netU64(nets.valid) == 0)
                break;
            uint32_t target = uint32_t(sim.netU64(nets.data));
            applyRedirect(target, exec.seq);
            break;
          }
          case SubInterface::WrCustRegAddr:
          case SubInterface::WrCustRegData:
            sampleCustRegWrite(sim, port, nets);
            break;
          default:
            break;
        }
    }
}

void
Core::runAlwaysUnits()
{
    // Gated by fetch-valid: the always-block sees each fetched PC
    // exactly once (cf. RdIValid in Table 1).
    uint32_t pc = fetchedThisCycle_ ? fetchedPc_ : 0xffffffffu;
    for (auto &unit : alwaysUnits_) {
        const BoundModule &bound = *unit.bound;
        const std::vector<InterfacePort> &ports = bound.module->ports;
        rtl::Simulator &sim = *unit.sim;
        // A register-less block is a function of its PC and the custom
        // registers it reads. At a PC where it had no effect, with
        // those registers unwritten since, it would have none again.
        // (On ZOL the PC reads 0xffffffff on every cycle without a
        // fetch.)
        uint64_t writes = 0;
        for (const CustomRegFile *reg : bound.readRegs)
            writes += reg->writes;
        if (writes != unit.seenWrites) {
            unit.seenWrites = writes;
            unit.numQuiet = 0;
        }
        if (std::find(unit.quietPcs.begin(),
                      unit.quietPcs.begin() + unit.numQuiet,
                      pc) != unit.quietPcs.begin() + unit.numQuiet) {
            ++alwaysSkipped_;
            sim.clockEdge(); // no registers: only counts the cycle
            continue;
        }
        for (size_t i = 0; i < ports.size(); ++i)
            if (ports[i].iface == SubInterface::RdPC)
                sim.setInput(bound.ports[i].data, uint64_t(pc));
        evalModule(sim, bound, -1);

        bool fired = false;
        pendingIdxScratch_.clear();
        for (size_t i = 0; i < ports.size(); ++i) {
            const BoundModule::PortNets &nets = bound.ports[i];
            switch (ports[i].iface) {
              case SubInterface::WrPC:
                if (sim.netU64(nets.valid) != 0) {
                    // Redirect the next fetch; the already fetched
                    // instruction proceeds (ZOL semantics).
                    fetchPc_ = uint32_t(sim.netU64(nets.data));
                    fetchWait_ = 0;
                    fired = true;
                }
                break;
              case SubInterface::WrCustRegAddr:
              case SubInterface::WrCustRegData:
                fired |= sampleCustRegWrite(sim, ports[i], nets);
                break;
              default:
                break;
            }
        }
        sim.clockEdge();
        if (fired || bound.hasRegisters) {
            unit.numQuiet = 0;
        } else {
            unit.quietPcs[1] = unit.quietPcs[0];
            unit.quietPcs[0] = pc;
            unit.numQuiet = std::min(unit.numQuiet + 1, 2u);
        }
    }
}

// ---------------------------------------------------------------------------
// Cycle loop
// ---------------------------------------------------------------------------

bool
Core::slotWillAdvance(unsigned stage) const
{
    const Slot &slot = slots_[stage];
    if (!slot.valid)
        return false;
    if (stage == wbStage_)
        return true; // retires
    // Hold conditions.
    if (stage == decodeStage_ && !slot.operandsRead)
        return false;
    if (stage == memStage_ && !slot.isax && !slot.memDone)
        return false;
    if (slot.isax && slot.isax->memWait > 0)
        return false;
    return !slots_[stage + 1].valid || slotWillAdvance(stage + 1);
}

void
Core::advancePipeline()
{
    // Writeback already retired its slot. Move the rest upward.
    for (int s = int(wbStage_) - 1; s >= 0; --s) {
        Slot &slot = slots_[s];
        if (!slot.valid)
            continue;
        if (s == int(decodeStage_) && !slot.operandsRead)
            continue;
        if (s == int(memStage_) && !slot.isax && !slot.memDone)
            continue;
        if (slot.isax && slot.isax->memWait > 0)
            continue;
        if (slots_[s + 1].valid)
            continue;
        slots_[s + 1] = std::move(slot);
        slot = Slot{};
        // Instructions passing through decode before decodeStage_?
        // (Not possible: decodeStage_ <= 1.)
    }
}

bool
Core::stepCycle()
{
    if (halted_)
        return false;
    fetchedThisCycle_ = false;

    if (globalStall_ > 0) {
        --globalStall_;
        ++stallCycles_;
        stepIsaxExecs(/*force_hold_attached=*/true);
        runAlwaysUnits();
        return !halted_;
    }

    // Fetch first: the fetched instruction occupies the fetch stage
    // during this cycle and moves into decode at the cycle's end.
    processFetch();

    processWriteback();
    processExecute();
    processMemory();
    processDecode();
    // Merged decode/execute/memory stages (3-stage Piccolo) need the
    // younger processing order within the same cycle.
    if (execStage_ == decodeStage_) {
        processExecute();
        processMemory();
    }

    // ISAX modules advance in lock-step with their slots; evaluate
    // before moving the slots so stage-s inputs are sampled in stage s.
    stepIsaxExecs(/*force_hold_attached=*/false);

    if (stallDecode_)
        ++stallCycles_;
    advancePipeline();
    runAlwaysUnits();
    return !halted_;
}

RunStats
Core::run(uint64_t max_cycles)
{
    uint64_t retired_before = retired_;
    uint64_t stalls_before = stallCycles_;
    uint64_t evals_before = moduleEvals_;
    uint64_t reuses_before = simReuses_;
    uint64_t skipped_before = alwaysSkipped_;
    RunStats stats;
    while (!halted_ && stats.cycles < max_cycles) {
        stepCycle();
        ++stats.cycles;
    }
    // Drain: decoupled/tightly-coupled executions still in flight
    // commit their results even though the core has halted (their
    // architectural effects precede the halting instruction in
    // program order).
    uint64_t drain_budget = 100000;
    while (!detachedExecs_.empty() && drain_budget-- > 0) {
        stepIsaxExecs(/*force_hold_attached=*/true);
        ++stats.cycles;
    }
    stats.instructions = retired_;
    stats.stallCycles = stallCycles_;
    stats.halted = halted_;
    obs::count("core.cycles", stats.cycles);
    obs::count("core.instructions_retired", retired_ - retired_before);
    obs::count("core.stall_cycles", stallCycles_ - stalls_before);
    obs::count("core.module_evals", moduleEvals_ - evals_before);
    obs::count("core.sim_reuses", simReuses_ - reuses_before);
    obs::count("core.always_skipped", alwaysSkipped_ - skipped_before);
    return stats;
}

} // namespace cores
} // namespace longnail
