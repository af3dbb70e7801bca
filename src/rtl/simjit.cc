#include "rtl/simjit.hh"

#include <algorithm>
#include <chrono>

#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "support/logging.hh"

namespace longnail {
namespace rtl {
namespace simjit {

SimStats &
tlsSimStats()
{
    thread_local SimStats stats;
    return stats;
}

namespace {

inline uint64_t
maskOf(unsigned width)
{
    return width >= 64 ? ~uint64_t(0) : (uint64_t(1) << width) - 1;
}

/** Sign-extend the low (64 - shift) bits of @p v. */
inline int64_t
sx(uint64_t v, unsigned shift)
{
    return int64_t(v << shift) >> shift;
}

/** Narrow compare; operands masked to their width, @p shift = 64 - w. */
inline bool
cmpEval(ir::ICmpPred pred, uint64_t a, uint64_t b, unsigned shift)
{
    switch (pred) {
      case ir::ICmpPred::Eq: return a == b;
      case ir::ICmpPred::Ne: return a != b;
      case ir::ICmpPred::Ult: return a < b;
      case ir::ICmpPred::Ule: return a <= b;
      case ir::ICmpPred::Ugt: return a > b;
      case ir::ICmpPred::Uge: return a >= b;
      case ir::ICmpPred::Slt: return sx(a, shift) < sx(b, shift);
      case ir::ICmpPred::Sle: return sx(a, shift) <= sx(b, shift);
      case ir::ICmpPred::Sgt: return sx(a, shift) > sx(b, shift);
      case ir::ICmpPred::Sge: return sx(a, shift) >= sx(b, shift);
    }
    return false;
}

/** ir::clampShiftAmount() for a packed amount: any amount needing
 * more than 32 bits already exceeds the operand width. */
inline unsigned
clampShift(uint64_t amount, unsigned width)
{
    return unsigned(std::min<uint64_t>(amount, width));
}

// --- u128-lane helpers. The double shifts keep every shift count
// below 64 so the bodies stay defined when u128 is the uint64_t
// fallback typedef (in which case they are never executed anyway).

inline uint64_t
lo64(u128 v)
{
    return uint64_t(v);
}

inline uint64_t
hi64(u128 v)
{
    return uint64_t(v >> 63 >> 1);
}

inline u128
make128(uint64_t lo, uint64_t hi)
{
    return (u128(hi) << 63 << 1) | lo;
}

/** Result mask for a u128-lane width (65..128; the shift count is
 * always below 64, defined even for the fallback typedef). */
inline u128
maskW2(unsigned width)
{
    return ~u128(0) >> (128 - width);
}

/** Sign-extend the low @p width bits of @p v (width 65..128). */
inline s128
sx2(u128 v, unsigned width)
{
    unsigned shift = 128 - width;
    return s128(v << shift) >> shift;
}

inline unsigned
clampShift2(u128 amount, unsigned width)
{
    return amount < width ? unsigned(amount) : width;
}

inline bool
cmpEval2(ir::ICmpPred pred, u128 a, u128 b, unsigned width)
{
    switch (pred) {
      case ir::ICmpPred::Eq: return a == b;
      case ir::ICmpPred::Ne: return a != b;
      case ir::ICmpPred::Ult: return a < b;
      case ir::ICmpPred::Ule: return a <= b;
      case ir::ICmpPred::Ugt: return a > b;
      case ir::ICmpPred::Uge: return a >= b;
      case ir::ICmpPred::Slt: return sx2(a, width) < sx2(b, width);
      case ir::ICmpPred::Sle: return sx2(a, width) <= sx2(b, width);
      case ir::ICmpPred::Sgt: return sx2(a, width) > sx2(b, width);
      case ir::ICmpPred::Sge: return sx2(a, width) >= sx2(b, width);
    }
    return false;
}

} // namespace

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

std::shared_ptr<const Program>
Program::compile(const Module &module)
{
    auto t0 = std::chrono::steady_clock::now();
    obs::TraceSpan span("sim.compile");

    std::string err = module.verify();
    if (!err.empty())
        LN_PANIC("cannot compile invalid module '", module.name(),
                 "': ", err);

    auto prog = std::shared_ptr<Program>(new Program());
    Program &p = *prog;
    p.module_ = &module;
    const auto &nodes = module.nodes();
    size_t num_nets = module.numNets();

    auto narrow = [&](NetId net) { return module.widthOf(net) <= 64; };

    // Net -> defining node.
    std::vector<uint32_t> driver(num_nets, ~0u);
    for (size_t i = 0; i < nodes.size(); ++i)
        driver[nodes[i].result] = uint32_t(i);

    // Use counts, to find ICmps whose only consumers are fusable muxes.
    std::vector<uint32_t> total_uses(num_nets, 0);
    std::vector<uint32_t> fusable_uses(num_nets, 0);
    std::vector<uint8_t> is_output(num_nets, 0);
    for (const Node &node : nodes)
        for (NetId operand : node.operands)
            ++total_uses[operand];
    for (const auto &port : module.outputs()) {
        ++total_uses[port.net];
        is_output[port.net] = 1;
    }
    auto fusable_cmp = [&](NetId net) {
        if (driver[net] == ~0u)
            return false;
        const Node &d = nodes[driver[net]];
        return d.kind == NodeKind::ICmp && narrow(d.operands[0]) &&
               narrow(d.operands[1]);
    };
    for (const Node &node : nodes)
        if (node.kind == NodeKind::Mux && narrow(node.result) &&
            fusable_cmp(node.operands[0]))
            ++fusable_uses[node.operands[0]];

    // Lane and slot assignment. An ICmp whose every use is a fused mux
    // select (and that is not an output) gets no slot at all; net()
    // recomputes it on demand.
    p.loc_.resize(num_nets);
    p.lazyNode_.assign(num_nets, ~0u);
    for (NetId net = 0; net < num_nets; ++net) {
        if (fusable_cmp(net) && !is_output[net] &&
            fusable_uses[net] == total_uses[net]) {
            p.loc_[net] = {0, Lane::Lazy};
            p.lazyNode_[net] = driver[net];
        } else if (narrow(net)) {
            p.loc_[net] = {p.numNarrow_++, Lane::Narrow};
        } else if (LN_SIMJIT_HAS_U128 && module.widthOf(net) <= 128) {
            p.loc_[net] = {p.numWide2_++, Lane::Wide2};
        } else {
            p.loc_[net] = {p.numWide_++, Lane::Wide};
            p.wideWidths_.push_back(module.widthOf(net));
        }
    }

    auto slot = [&](NetId net) { return p.loc_[net].slot; };
    auto lane = [&](NetId net) { return p.loc_[net].lane; };
    auto all_narrow = [&](const Node &node) {
        if (!narrow(node.result))
            return false;
        for (NetId operand : node.operands)
            if (lane(operand) != Lane::Narrow)
                return false;
        return true;
    };
    // A node qualifies for the u128 lane when its result lives there
    // and every operand is packed (narrow or u128) -- anything ApInt-
    // or Lazy-laned falls back to WideEval.
    auto w2_node = [&](const Node &node) {
        if (lane(node.result) != Lane::Wide2)
            return false;
        for (NetId operand : node.operands)
            if (lane(operand) != Lane::Narrow &&
                lane(operand) != Lane::Wide2)
                return false;
        return true;
    };
    // Operand lane flags for u128-lane ops: bit N set = instruction
    // field N of (a, b, c, d2) indexes the u128 register file.
    auto w2_flags = [&](std::initializer_list<NetId> operands) {
        uint16_t flags = 0;
        unsigned bit = 0;
        for (NetId operand : operands) {
            if (lane(operand) == Lane::Wide2)
                flags |= uint16_t(1) << bit;
            ++bit;
        }
        return flags;
    };
    auto const_amount = [&](NetId net) -> const ApInt * {
        if (driver[net] == ~0u)
            return nullptr;
        const Node &d = nodes[driver[net]];
        return d.kind == NodeKind::Constant ? &d.value : nullptr;
    };
    auto wide_eval = [&](uint32_t node_index) {
        Insn insn;
        insn.op = Op::WideEval;
        insn.aux = node_index;
        p.insns_.push_back(insn);
    };

    for (size_t ni = 0; ni < nodes.size(); ++ni) {
        const Node &node = nodes[ni];
        NetId res = node.result;
        unsigned w = module.widthOf(res);
        Insn insn;
        insn.dst = slot(res);
        insn.mask = maskOf(w);
        insn.auxw = uint16_t(w);

        switch (node.kind) {
          case NodeKind::Input:
            break; // driven externally, no code
          case NodeKind::Constant:
            if (lane(res) == Lane::Narrow)
                p.constN_.emplace_back(slot(res), node.value.toUint64());
            else if (lane(res) == Lane::Wide2)
                p.const2_.emplace_back(
                    slot(res),
                    make128(node.value.word(0), node.value.word(1)));
            else
                p.constW_.emplace_back(slot(res), node.value);
            break;
          case NodeKind::Register: {
            // The data operand shares the result's width, hence its
            // lane; the enable (if any) is a 1-bit narrow net.
            if (lane(res) == Lane::Narrow) {
                RegN reg;
                reg.slot = slot(res);
                reg.d = slot(node.operands[0]);
                if (node.operands.size() > 1)
                    reg.en = slot(node.operands[1]);
                reg.init = node.value.toUint64();
                p.regsN_.push_back(reg);
            } else if (lane(res) == Lane::Wide2) {
                Reg2 reg;
                reg.slot = slot(res);
                reg.d = slot(node.operands[0]);
                if (node.operands.size() > 1)
                    reg.en = slot(node.operands[1]);
                reg.init = make128(node.value.word(0),
                                   node.value.word(1));
                p.regs2_.push_back(reg);
            } else {
                RegW reg;
                reg.slot = slot(res);
                reg.d = slot(node.operands[0]);
                if (node.operands.size() > 1)
                    reg.en = slot(node.operands[1]);
                reg.init = node.value;
                p.regsW_.push_back(reg);
            }
            break;
          }
          case NodeKind::Add:
          case NodeKind::Sub:
          case NodeKind::Mul:
          case NodeKind::DivU:
          case NodeKind::DivS:
          case NodeKind::ModU:
          case NodeKind::ModS:
          case NodeKind::And:
          case NodeKind::Or:
          case NodeKind::Xor: {
            if (all_narrow(node)) {
                static const Op bin_ops[] = {
                    Op::Add, Op::Sub, Op::Mul, Op::DivU, Op::DivS,
                    Op::ModU, Op::ModS, Op::And, Op::Or, Op::Xor};
                insn.op = bin_ops[int(node.kind) - int(NodeKind::Add)];
                insn.a = slot(node.operands[0]);
                insn.b = slot(node.operands[1]);
                insn.sshift = uint16_t(64 - w);
                p.insns_.push_back(insn);
            } else if (w2_node(node)) {
                static const Op bin2_ops[] = {
                    Op::Add2, Op::Sub2, Op::Mul2, Op::DivU2, Op::DivS2,
                    Op::ModU2, Op::ModS2, Op::And2, Op::Or2, Op::Xor2};
                insn.op = bin2_ops[int(node.kind) - int(NodeKind::Add)];
                insn.a = slot(node.operands[0]);
                insn.b = slot(node.operands[1]);
                insn.sshift =
                    w2_flags({node.operands[0], node.operands[1]});
                p.insns_.push_back(insn);
            } else {
                wide_eval(uint32_t(ni));
            }
            break;
          }
          case NodeKind::Shl:
          case NodeKind::ShrU:
          case NodeKind::ShrS: {
            if (all_narrow(node)) {
                insn.a = slot(node.operands[0]);
                insn.sshift = uint16_t(64 - w);
                if (const ApInt *amount =
                        const_amount(node.operands[1])) {
                    insn.shift =
                        uint16_t(ir::clampShiftAmount(*amount, w));
                    insn.op = node.kind == NodeKind::Shl ? Op::ShlI
                              : node.kind == NodeKind::ShrU ? Op::ShrUI
                                                            : Op::ShrSI;
                } else {
                    insn.b = slot(node.operands[1]);
                    insn.op = node.kind == NodeKind::Shl ? Op::Shl
                              : node.kind == NodeKind::ShrU ? Op::ShrU
                                                            : Op::ShrS;
                }
                p.insns_.push_back(insn);
            } else if (w2_node(node) &&
                       lane(node.operands[0]) == Lane::Wide2) {
                insn.op = node.kind == NodeKind::Shl ? Op::Shl2
                          : node.kind == NodeKind::ShrU ? Op::ShrU2
                                                        : Op::ShrS2;
                insn.a = slot(node.operands[0]);
                insn.b = slot(node.operands[1]);
                insn.sshift =
                    w2_flags({node.operands[0], node.operands[1]});
                p.insns_.push_back(insn);
            } else {
                wide_eval(uint32_t(ni));
            }
            break;
          }
          case NodeKind::ICmp: {
            if (lane(res) == Lane::Lazy)
                break; // fully fused into CmpMux users
            if (narrow(node.operands[0]) && narrow(node.operands[1])) {
                static const Op cmp_ops[] = {Op::CmpEq, Op::CmpNe,
                                             Op::CmpUlt, Op::CmpUle,
                                             Op::CmpUgt, Op::CmpUge,
                                             Op::CmpSlt, Op::CmpSle,
                                             Op::CmpSgt, Op::CmpSge};
                insn.op = cmp_ops[int(node.pred)];
                insn.a = slot(node.operands[0]);
                insn.b = slot(node.operands[1]);
                insn.sshift =
                    uint16_t(64 - module.widthOf(node.operands[0]));
                p.insns_.push_back(insn);
            } else if (lane(node.operands[0]) == Lane::Wide2 &&
                       lane(node.operands[1]) == Lane::Wide2 &&
                       module.widthOf(node.operands[0]) ==
                           module.widthOf(node.operands[1])) {
                insn.op = Op::Cmp2;
                insn.sub = uint8_t(node.pred);
                insn.a = slot(node.operands[0]);
                insn.b = slot(node.operands[1]);
                insn.shift =
                    uint16_t(module.widthOf(node.operands[0]));
                p.insns_.push_back(insn);
            } else {
                wide_eval(uint32_t(ni));
            }
            break;
          }
          case NodeKind::Mux: {
            if (p.loc_[node.operands[0]].lane == Lane::Lazy) {
                // Fused compare+mux; re-evaluating the (cheap) compare
                // per user beats a separate op plus a select slot.
                const Node &cmp = nodes[p.lazyNode_[node.operands[0]]];
                insn.op = Op::CmpMux;
                insn.sub = uint8_t(cmp.pred);
                insn.a = slot(cmp.operands[0]);
                insn.b = slot(cmp.operands[1]);
                insn.c = slot(node.operands[1]);
                insn.d2 = slot(node.operands[2]);
                insn.sshift =
                    uint16_t(64 - module.widthOf(cmp.operands[0]));
                p.insns_.push_back(insn);
                break;
            }
            if (all_narrow(node)) {
                insn.op = Op::Mux;
                insn.a = slot(node.operands[0]);
                insn.b = slot(node.operands[1]);
                insn.c = slot(node.operands[2]);
                p.insns_.push_back(insn);
            } else if (w2_node(node) &&
                       lane(node.operands[0]) == Lane::Narrow) {
                insn.op = Op::Mux2;
                insn.a = slot(node.operands[0]);
                insn.b = slot(node.operands[1]);
                insn.c = slot(node.operands[2]);
                insn.sshift = w2_flags({node.operands[0],
                                        node.operands[1],
                                        node.operands[2]});
                p.insns_.push_back(insn);
            } else {
                wide_eval(uint32_t(ni));
            }
            break;
          }
          case NodeKind::Extract: {
            NetId src = node.operands[0];
            if (lane(src) == Lane::Narrow && narrow(res)) {
                insn.op = Op::Extract;
                insn.a = slot(src);
                insn.shift = uint16_t(node.lo);
                p.insns_.push_back(insn);
            } else if (lane(src) == Lane::Wide2 && narrow(res)) {
                insn.op = Op::Extract2N;
                insn.a = slot(src);
                insn.shift = uint16_t(node.lo);
                p.insns_.push_back(insn);
            } else if (lane(src) == Lane::Wide2 &&
                       lane(res) == Lane::Wide2) {
                insn.op = Op::Extract22;
                insn.a = slot(src);
                insn.shift = uint16_t(node.lo);
                p.insns_.push_back(insn);
            } else if (lane(src) == Lane::Wide && narrow(res)) {
                insn.op = Op::ExtractWide;
                insn.a = slot(src);
                insn.aux = node.lo;
                p.insns_.push_back(insn);
            } else {
                wide_eval(uint32_t(ni));
            }
            break;
          }
          case NodeKind::Concat: {
            if (all_narrow(node)) {
                if (node.operands.size() == 2) {
                    insn.op = Op::Concat2;
                    insn.a = slot(node.operands[0]); // high
                    insn.b = slot(node.operands[1]); // low
                    insn.shift =
                        uint16_t(module.widthOf(node.operands[1]));
                    p.insns_.push_back(insn);
                    break;
                }
                insn.op = Op::ConcatN;
                insn.aux = uint32_t(p.concatPool_.size());
                insn.auxw = uint16_t(node.operands.size());
                for (NetId operand : node.operands) // high to low
                    p.concatPool_.push_back(
                        {slot(operand),
                         uint16_t(module.widthOf(operand)), 0});
                p.insns_.push_back(insn);
                break;
            }
            if (w2_node(node)) {
                if (node.operands.size() == 2) {
                    insn.op = Op::Concat22;
                    insn.a = slot(node.operands[0]); // high
                    insn.b = slot(node.operands[1]); // low
                    insn.shift =
                        uint16_t(module.widthOf(node.operands[1]));
                    insn.sshift =
                        w2_flags({node.operands[0], node.operands[1]});
                    p.insns_.push_back(insn);
                    break;
                }
                insn.op = Op::ConcatN2;
                insn.aux = uint32_t(p.concatPool_.size());
                insn.shift = uint16_t(node.operands.size());
                for (NetId operand : node.operands) // high to low
                    p.concatPool_.push_back(
                        {slot(operand),
                         uint16_t(module.widthOf(operand)),
                         uint8_t(lane(operand) == Lane::Wide2)});
                p.insns_.push_back(insn);
                break;
            }
            wide_eval(uint32_t(ni));
            break;
          }
          case NodeKind::Replicate: {
            if (all_narrow(node)) {
                insn.op = Op::Replicate;
                insn.a = slot(node.operands[0]);
                p.insns_.push_back(insn);
            } else if (w2_node(node) &&
                       lane(node.operands[0]) == Lane::Narrow) {
                insn.op = Op::Replicate2;
                insn.a = slot(node.operands[0]);
                p.insns_.push_back(insn);
            } else {
                wide_eval(uint32_t(ni));
            }
            break;
          }
          case NodeKind::Rom: {
            if (all_narrow(node)) {
                insn.op = Op::Rom;
                insn.a = slot(node.operands[0]);
                insn.aux = uint32_t(p.romTables_.size());
                std::vector<uint64_t> table;
                table.reserve(node.romValues.size());
                for (const ApInt &value : node.romValues)
                    table.push_back(value.zextOrTrunc(w).toUint64());
                p.romTables_.push_back(std::move(table));
                p.insns_.push_back(insn);
            } else if (w2_node(node)) {
                insn.op = Op::Rom2;
                insn.a = slot(node.operands[0]);
                insn.aux = uint32_t(p.romTables2_.size());
                insn.sshift = w2_flags({node.operands[0]});
                std::vector<u128> table;
                table.reserve(node.romValues.size());
                for (const ApInt &value : node.romValues) {
                    ApInt masked = value.zextOrTrunc(w);
                    table.push_back(
                        make128(masked.word(0), masked.word(1)));
                }
                p.romTables2_.push_back(std::move(table));
                p.insns_.push_back(insn);
            } else {
                wide_eval(uint32_t(ni));
            }
            break;
          }
        }
    }
    p.insns_.push_back(Insn{}); // Halt

    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    SimStats &stats = tlsSimStats();
    ++stats.compiles;
    stats.programOps += p.insns_.size();
    stats.compileMs += ms;
    obs::count("sim.compiles");
    obs::count("sim.program_ops", p.insns_.size());
    obs::observe("sim.compile_ms", ms);
    return prog;
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

Machine::Machine(std::shared_ptr<const Program> program)
    : prog_(std::move(program))
{
    const Program &p = *prog_;
    regs_.assign(p.numNarrow_, 0);
    w2_.assign(p.numWide2_, 0);
    wide_.reserve(p.numWide_);
    for (unsigned width : p.wideWidths_)
        wide_.emplace_back(width, 0);
    for (const auto &[slot, value] : p.constN_)
        regs_[slot] = value;
    for (const auto &[slot, value] : p.const2_)
        w2_[slot] = value;
    for (const auto &[slot, value] : p.constW_)
        wide_[slot] = value;
    nextN_.assign(p.regsN_.size(), 0);
    next2_.assign(p.regs2_.size(), 0);
    nextW_.reserve(p.regsW_.size());
    for (const auto &reg : p.regsW_)
        nextW_.push_back(reg.init);
    size_t num_nets = p.module_->numNets();
    mat_.reserve(num_nets);
    for (NetId net = 0; net < num_nets; ++net)
        mat_.emplace_back(p.module_->widthOf(net), 0);
    reset();
}

void
Machine::reset()
{
    for (const auto &reg : prog_->regsN_)
        regs_[reg.slot] = reg.init;
    for (const auto &reg : prog_->regs2_)
        w2_[reg.slot] = reg.init;
    for (const auto &reg : prog_->regsW_)
        wide_[reg.slot] = reg.init;
    for (const auto &[name, net] : prog_->module_->inputs())
        setInput(net, uint64_t(0));
}

void
Machine::setInput(NetId net, const ApInt &value)
{
    const NetLoc &loc = prog_->loc_[net];
    unsigned width = prog_->module_->widthOf(net);
    if (loc.lane == Lane::Narrow) {
        regs_[loc.slot] = value.toUint64() & maskOf(width);
    } else if (loc.lane == Lane::Wide2) {
        if (value.width() == width) {
            w2_[loc.slot] = make128(value.word(0), value.word(1));
        } else {
            ApInt t = value.zextOrTrunc(width);
            w2_[loc.slot] = make128(t.word(0), t.word(1));
        }
    } else {
        wide_[loc.slot] = value.zextOrTrunc(width);
    }
}

void
Machine::setInput(NetId net, uint64_t value)
{
    const NetLoc &loc = prog_->loc_[net];
    unsigned width = prog_->module_->widthOf(net);
    if (loc.lane == Lane::Narrow)
        regs_[loc.slot] = value & maskOf(width);
    else if (loc.lane == Lane::Wide2)
        w2_[loc.slot] = value; // zero-extended; width > 64
    else
        wide_[loc.slot] = ApInt(width, value);
}

// The dispatch loop. With GCC/Clang each opcode body jumps directly to
// the next instruction's body through a label table (threaded code);
// other compilers fall back to a switch in a loop.
#if defined(__GNUC__) || defined(__clang__)
#define LN_SIMJIT_THREADED 1
#else
#define LN_SIMJIT_THREADED 0
#endif

void
Machine::evalComb()
{
    const Insn *ip = prog_->insns_.data();
    uint64_t *R = regs_.data();
    u128 *W = w2_.data();
    (void)W;

// Flag-driven operand load for u128-lane ops: bit N of sshift selects
// the u128 register file, else the narrow one (a zero-extension).
#define LN_W2(bit, field)                                              \
    ((ip->sshift & (1u << bit)) ? W[ip->field] : u128(R[ip->field]))

#define LN_SIMJIT_OPLIST(X)                                            \
    X(Add) X(Sub) X(Mul) X(DivU) X(DivS) X(ModU) X(ModS) X(And) X(Or) \
    X(Xor) X(Shl) X(ShrU) X(ShrS) X(ShlI) X(ShrUI) X(ShrSI) X(CmpEq)  \
    X(CmpNe) X(CmpUlt) X(CmpUle) X(CmpUgt) X(CmpUge) X(CmpSlt)        \
    X(CmpSle) X(CmpSgt) X(CmpSge) X(Mux) X(CmpMux) X(Extract)         \
    X(ExtractWide) X(Concat2) X(ConcatN) X(Replicate) X(Rom)          \
    X(Add2) X(Sub2) X(Mul2) X(DivU2) X(DivS2) X(ModU2) X(ModS2)       \
    X(And2) X(Or2) X(Xor2) X(Shl2) X(ShrU2) X(ShrS2) X(Cmp2) X(Mux2)  \
    X(Extract2N) X(Extract22) X(Concat22) X(ConcatN2) X(Replicate2)   \
    X(Rom2) X(WideEval) X(Halt)

#if LN_SIMJIT_THREADED
#define X(name) &&lbl_##name,
    static const void *jump[] = {LN_SIMJIT_OPLIST(X)};
#undef X
#define LN_CASE(name) lbl_##name:
#define LN_NEXT()                                                      \
    do {                                                               \
        ++ip;                                                          \
        goto *jump[size_t(ip->op)];                                    \
    } while (0)
    goto *jump[size_t(ip->op)];
#else
#define LN_CASE(name) case Op::name:
#define LN_NEXT() break
    for (;; ++ip) {
        switch (ip->op) {
#endif

    LN_CASE(Add) { R[ip->dst] = (R[ip->a] + R[ip->b]) & ip->mask; }
    LN_NEXT();
    LN_CASE(Sub) { R[ip->dst] = (R[ip->a] - R[ip->b]) & ip->mask; }
    LN_NEXT();
    LN_CASE(Mul) { R[ip->dst] = (R[ip->a] * R[ip->b]) & ip->mask; }
    LN_NEXT();
    LN_CASE(DivU)
    {
        uint64_t d = R[ip->b];
        R[ip->dst] = d ? R[ip->a] / d : 0;
    }
    LN_NEXT();
    LN_CASE(DivS)
    {
        uint64_t bv = R[ip->b];
        if (!bv) {
            R[ip->dst] = 0;
        } else {
            // Magnitude-based like ApInt::sdiv; width-64 INT_MIN / -1
            // wraps the same way.
            int64_t sa = sx(R[ip->a], ip->sshift);
            int64_t sb = sx(bv, ip->sshift);
            uint64_t am = sa < 0 ? 0 - uint64_t(sa) : uint64_t(sa);
            uint64_t bm = sb < 0 ? 0 - uint64_t(sb) : uint64_t(sb);
            uint64_t q = am / bm;
            if ((sa < 0) != (sb < 0))
                q = 0 - q;
            R[ip->dst] = q & ip->mask;
        }
    }
    LN_NEXT();
    LN_CASE(ModU)
    {
        uint64_t d = R[ip->b];
        R[ip->dst] = d ? R[ip->a] % d : 0;
    }
    LN_NEXT();
    LN_CASE(ModS)
    {
        uint64_t bv = R[ip->b];
        if (!bv) {
            R[ip->dst] = 0;
        } else {
            int64_t sa = sx(R[ip->a], ip->sshift);
            int64_t sb = sx(bv, ip->sshift);
            uint64_t am = sa < 0 ? 0 - uint64_t(sa) : uint64_t(sa);
            uint64_t bm = sb < 0 ? 0 - uint64_t(sb) : uint64_t(sb);
            uint64_t r = am % bm;
            if (sa < 0)
                r = 0 - r;
            R[ip->dst] = r & ip->mask;
        }
    }
    LN_NEXT();
    LN_CASE(And) { R[ip->dst] = R[ip->a] & R[ip->b]; }
    LN_NEXT();
    LN_CASE(Or) { R[ip->dst] = R[ip->a] | R[ip->b]; }
    LN_NEXT();
    LN_CASE(Xor) { R[ip->dst] = R[ip->a] ^ R[ip->b]; }
    LN_NEXT();
    LN_CASE(Shl)
    {
        unsigned amount = clampShift(R[ip->b], ip->auxw);
        R[ip->dst] =
            amount >= 64 ? 0 : (R[ip->a] << amount) & ip->mask;
    }
    LN_NEXT();
    LN_CASE(ShrU)
    {
        unsigned amount = clampShift(R[ip->b], ip->auxw);
        R[ip->dst] = amount >= 64 ? 0 : R[ip->a] >> amount;
    }
    LN_NEXT();
    LN_CASE(ShrS)
    {
        unsigned amount = clampShift(R[ip->b], ip->auxw);
        int64_t sa = sx(R[ip->a], ip->sshift);
        R[ip->dst] = (amount >= 64 ? uint64_t(sa >> 63)
                                   : uint64_t(sa >> amount)) &
                     ip->mask;
    }
    LN_NEXT();
    LN_CASE(ShlI)
    {
        R[ip->dst] =
            ip->shift >= 64 ? 0 : (R[ip->a] << ip->shift) & ip->mask;
    }
    LN_NEXT();
    LN_CASE(ShrUI)
    {
        R[ip->dst] = ip->shift >= 64 ? 0 : R[ip->a] >> ip->shift;
    }
    LN_NEXT();
    LN_CASE(ShrSI)
    {
        int64_t sa = sx(R[ip->a], ip->sshift);
        R[ip->dst] = (ip->shift >= 64 ? uint64_t(sa >> 63)
                                      : uint64_t(sa >> ip->shift)) &
                     ip->mask;
    }
    LN_NEXT();
    LN_CASE(CmpEq) { R[ip->dst] = R[ip->a] == R[ip->b]; }
    LN_NEXT();
    LN_CASE(CmpNe) { R[ip->dst] = R[ip->a] != R[ip->b]; }
    LN_NEXT();
    LN_CASE(CmpUlt) { R[ip->dst] = R[ip->a] < R[ip->b]; }
    LN_NEXT();
    LN_CASE(CmpUle) { R[ip->dst] = R[ip->a] <= R[ip->b]; }
    LN_NEXT();
    LN_CASE(CmpUgt) { R[ip->dst] = R[ip->a] > R[ip->b]; }
    LN_NEXT();
    LN_CASE(CmpUge) { R[ip->dst] = R[ip->a] >= R[ip->b]; }
    LN_NEXT();
    LN_CASE(CmpSlt)
    {
        R[ip->dst] =
            sx(R[ip->a], ip->sshift) < sx(R[ip->b], ip->sshift);
    }
    LN_NEXT();
    LN_CASE(CmpSle)
    {
        R[ip->dst] =
            sx(R[ip->a], ip->sshift) <= sx(R[ip->b], ip->sshift);
    }
    LN_NEXT();
    LN_CASE(CmpSgt)
    {
        R[ip->dst] =
            sx(R[ip->a], ip->sshift) > sx(R[ip->b], ip->sshift);
    }
    LN_NEXT();
    LN_CASE(CmpSge)
    {
        R[ip->dst] =
            sx(R[ip->a], ip->sshift) >= sx(R[ip->b], ip->sshift);
    }
    LN_NEXT();
    LN_CASE(Mux) { R[ip->dst] = R[ip->a] ? R[ip->b] : R[ip->c]; }
    LN_NEXT();
    LN_CASE(CmpMux)
    {
        bool taken = cmpEval(ir::ICmpPred(ip->sub), R[ip->a], R[ip->b],
                             ip->sshift);
        R[ip->dst] = taken ? R[ip->c] : R[ip->d2];
    }
    LN_NEXT();
    LN_CASE(Extract)
    {
        R[ip->dst] = (R[ip->a] >> ip->shift) & ip->mask;
    }
    LN_NEXT();
    LN_CASE(ExtractWide)
    {
        R[ip->dst] =
            wide_[ip->a].extract(ip->aux, ip->auxw).toUint64();
    }
    LN_NEXT();
    LN_CASE(Concat2)
    {
        R[ip->dst] = ((R[ip->a] << ip->shift) | R[ip->b]) & ip->mask;
    }
    LN_NEXT();
    LN_CASE(ConcatN)
    {
        const auto *pool = prog_->concatPool_.data() + ip->aux;
        uint64_t acc = 0;
        for (unsigned i = 0; i < ip->auxw; ++i)
            acc = (acc << pool[i].width) | R[pool[i].slot];
        R[ip->dst] = acc & ip->mask;
    }
    LN_NEXT();
    LN_CASE(Replicate) { R[ip->dst] = R[ip->a] ? ip->mask : 0; }
    LN_NEXT();
    LN_CASE(Rom)
    {
        const auto &table = prog_->romTables_[ip->aux];
        uint64_t index = R[ip->a];
        R[ip->dst] = index < table.size() ? table[index] : 0;
    }
    LN_NEXT();
    LN_CASE(Add2)
    {
        W[ip->dst] =
            (LN_W2(0, a) + LN_W2(1, b)) & maskW2(ip->auxw);
    }
    LN_NEXT();
    LN_CASE(Sub2)
    {
        W[ip->dst] =
            (LN_W2(0, a) - LN_W2(1, b)) & maskW2(ip->auxw);
    }
    LN_NEXT();
    LN_CASE(Mul2)
    {
        W[ip->dst] =
            (LN_W2(0, a) * LN_W2(1, b)) & maskW2(ip->auxw);
    }
    LN_NEXT();
    LN_CASE(DivU2)
    {
        u128 d = LN_W2(1, b);
        W[ip->dst] = d ? LN_W2(0, a) / d : u128(0);
    }
    LN_NEXT();
    LN_CASE(DivS2)
    {
        u128 bv = LN_W2(1, b);
        if (!bv) {
            W[ip->dst] = 0;
        } else {
            s128 sa = sx2(LN_W2(0, a), ip->auxw);
            s128 sb = sx2(bv, ip->auxw);
            u128 am = sa < 0 ? u128(0) - u128(sa) : u128(sa);
            u128 bm = sb < 0 ? u128(0) - u128(sb) : u128(sb);
            u128 q = am / bm;
            if ((sa < 0) != (sb < 0))
                q = u128(0) - q;
            W[ip->dst] = q & maskW2(ip->auxw);
        }
    }
    LN_NEXT();
    LN_CASE(ModU2)
    {
        u128 d = LN_W2(1, b);
        W[ip->dst] = d ? LN_W2(0, a) % d : u128(0);
    }
    LN_NEXT();
    LN_CASE(ModS2)
    {
        u128 bv = LN_W2(1, b);
        if (!bv) {
            W[ip->dst] = 0;
        } else {
            s128 sa = sx2(LN_W2(0, a), ip->auxw);
            s128 sb = sx2(bv, ip->auxw);
            u128 am = sa < 0 ? u128(0) - u128(sa) : u128(sa);
            u128 bm = sb < 0 ? u128(0) - u128(sb) : u128(sb);
            u128 r = am % bm;
            if (sa < 0)
                r = u128(0) - r;
            W[ip->dst] = r & maskW2(ip->auxw);
        }
    }
    LN_NEXT();
    LN_CASE(And2) { W[ip->dst] = LN_W2(0, a) & LN_W2(1, b); }
    LN_NEXT();
    LN_CASE(Or2) { W[ip->dst] = LN_W2(0, a) | LN_W2(1, b); }
    LN_NEXT();
    LN_CASE(Xor2) { W[ip->dst] = LN_W2(0, a) ^ LN_W2(1, b); }
    LN_NEXT();
    LN_CASE(Shl2)
    {
        unsigned amount = clampShift2(LN_W2(1, b), ip->auxw);
        W[ip->dst] = amount >= 128
                         ? u128(0)
                         : (LN_W2(0, a) << amount) & maskW2(ip->auxw);
    }
    LN_NEXT();
    LN_CASE(ShrU2)
    {
        unsigned amount = clampShift2(LN_W2(1, b), ip->auxw);
        W[ip->dst] = amount >= 128 ? u128(0) : LN_W2(0, a) >> amount;
    }
    LN_NEXT();
    LN_CASE(ShrS2)
    {
        unsigned amount = clampShift2(LN_W2(1, b), ip->auxw);
        s128 sa = sx2(LN_W2(0, a), ip->auxw);
        W[ip->dst] = u128(sa >> (amount > 127 ? 127 : amount)) &
                     maskW2(ip->auxw);
    }
    LN_NEXT();
    LN_CASE(Cmp2)
    {
        R[ip->dst] = cmpEval2(ir::ICmpPred(ip->sub), W[ip->a],
                              W[ip->b], ip->shift);
    }
    LN_NEXT();
    LN_CASE(Mux2)
    {
        W[ip->dst] =
            (R[ip->a] ? LN_W2(1, b) : LN_W2(2, c)) & maskW2(ip->auxw);
    }
    LN_NEXT();
    LN_CASE(Extract2N)
    {
        R[ip->dst] = uint64_t(W[ip->a] >> ip->shift) & ip->mask;
    }
    LN_NEXT();
    LN_CASE(Extract22)
    {
        W[ip->dst] = (W[ip->a] >> ip->shift) & maskW2(ip->auxw);
    }
    LN_NEXT();
    LN_CASE(Concat22)
    {
        W[ip->dst] = ((LN_W2(0, a) << ip->shift) | LN_W2(1, b)) &
                     maskW2(ip->auxw);
    }
    LN_NEXT();
    LN_CASE(ConcatN2)
    {
        const auto *pool = prog_->concatPool_.data() + ip->aux;
        u128 acc = 0;
        for (unsigned i = 0; i < ip->shift; ++i) {
            u128 v = pool[i].wide2 ? W[pool[i].slot]
                                   : u128(R[pool[i].slot]);
            acc = (acc << pool[i].width) | v;
        }
        W[ip->dst] = acc & maskW2(ip->auxw);
    }
    LN_NEXT();
    LN_CASE(Replicate2)
    {
        W[ip->dst] = R[ip->a] ? maskW2(ip->auxw) : u128(0);
    }
    LN_NEXT();
    LN_CASE(Rom2)
    {
        const auto &table = prog_->romTables2_[ip->aux];
        u128 iv = LN_W2(0, a);
        // activeBits() > 63 is out of bounds for ir::evalComb().
        uint64_t index = (iv >> 63) ? ~uint64_t(0) : uint64_t(iv);
        W[ip->dst] = index < table.size() ? table[index] : u128(0);
    }
    LN_NEXT();
    LN_CASE(WideEval) { execWide(ip->aux); }
    LN_NEXT();
    LN_CASE(Halt) { return; }

#if !LN_SIMJIT_THREADED
        }
    }
#endif
#undef LN_CASE
#undef LN_NEXT
#undef LN_W2
#undef LN_SIMJIT_OPLIST
}

void
Machine::clockEdge()
{
    const Program &p = *prog_;
    // Two phases so register chains capture pre-edge values.
    for (size_t i = 0; i < p.regsN_.size(); ++i) {
        const Program::RegN &reg = p.regsN_[i];
        bool enabled = reg.en == ~0u || regs_[reg.en] != 0;
        nextN_[i] = enabled ? regs_[reg.d] : regs_[reg.slot];
    }
    for (size_t i = 0; i < p.regs2_.size(); ++i) {
        const Program::Reg2 &reg = p.regs2_[i];
        bool enabled = reg.en == ~0u || regs_[reg.en] != 0;
        next2_[i] = enabled ? w2_[reg.d] : w2_[reg.slot];
    }
    for (size_t i = 0; i < p.regsW_.size(); ++i) {
        const Program::RegW &reg = p.regsW_[i];
        bool enabled = reg.en == ~0u || regs_[reg.en] != 0;
        nextW_[i] = enabled ? wide_[reg.d] : wide_[reg.slot];
    }
    for (size_t i = 0; i < p.regsN_.size(); ++i)
        regs_[p.regsN_[i].slot] = nextN_[i];
    for (size_t i = 0; i < p.regs2_.size(); ++i)
        w2_[p.regs2_[i].slot] = next2_[i];
    for (size_t i = 0; i < p.regsW_.size(); ++i)
        wide_[p.regsW_[i].slot] = nextW_[i];
}

uint64_t
Machine::lazyValue(NetId net) const
{
    const Node &node = prog_->module_->nodes()[prog_->lazyNode_[net]];
    uint64_t a = regs_[prog_->loc_[node.operands[0]].slot];
    uint64_t b = regs_[prog_->loc_[node.operands[1]].slot];
    unsigned shift =
        64 - prog_->module_->widthOf(node.operands[0]);
    return cmpEval(node.pred, a, b, shift) ? 1 : 0;
}

const ApInt &
Machine::netRef(NetId net) const
{
    const NetLoc &loc = prog_->loc_[net];
    switch (loc.lane) {
      case Lane::Wide:
        return wide_[loc.slot];
      case Lane::Narrow:
        mat_[net].setValue(regs_[loc.slot]);
        return mat_[net];
      case Lane::Wide2:
        mat_[net].setValue(lo64(w2_[loc.slot]), hi64(w2_[loc.slot]));
        return mat_[net];
      case Lane::Lazy:
        mat_[net].setValue(lazyValue(net));
        return mat_[net];
    }
    LN_PANIC("bad net lane");
}

uint64_t
Machine::netU64(NetId net) const
{
    const NetLoc &loc = prog_->loc_[net];
    switch (loc.lane) {
      case Lane::Narrow: return regs_[loc.slot];
      case Lane::Wide2: return lo64(w2_[loc.slot]);
      case Lane::Wide: return wide_[loc.slot].toUint64();
      case Lane::Lazy: return lazyValue(net);
    }
    LN_PANIC("bad net lane");
}

ApInt
Machine::loadNet(NetId net) const
{
    const NetLoc &loc = prog_->loc_[net];
    switch (loc.lane) {
      case Lane::Narrow:
        return ApInt(prog_->module_->widthOf(net), regs_[loc.slot]);
      case Lane::Wide2: {
        ApInt out(prog_->module_->widthOf(net), 0);
        out.setValue(lo64(w2_[loc.slot]), hi64(w2_[loc.slot]));
        return out;
      }
      case Lane::Wide:
        return wide_[loc.slot];
      case Lane::Lazy:
        return ApInt(1, lazyValue(net));
    }
    LN_PANIC("bad net lane");
}

void
Machine::storeNet(NetId net, const ApInt &value)
{
    const NetLoc &loc = prog_->loc_[net];
    unsigned width = prog_->module_->widthOf(net);
    if (loc.lane == Lane::Narrow) {
        regs_[loc.slot] = value.toUint64() & maskOf(width);
    } else if (loc.lane == Lane::Wide2) {
        if (value.width() == width) {
            w2_[loc.slot] = make128(value.word(0), value.word(1));
        } else {
            ApInt t = value.zextOrTrunc(width);
            w2_[loc.slot] = make128(t.word(0), t.word(1));
        }
    } else {
        wide_[loc.slot] =
            value.width() == width ? value : value.zextOrTrunc(width);
    }
}

/** Fallback for nodes touching wide nets: evaluate on ApInts with
 * ir::evalComb(). Rare by construction for RV32 ISAXes. */
void
Machine::execWide(uint32_t nodeIndex)
{
    const Node &node = prog_->module_->nodes()[nodeIndex];
    auto comb = combOpOf(node.kind);
    if (!comb)
        LN_PANIC("node kind has no wide fallback");
    storeNet(node.result,
             ir::evalComb(*comb, prog_->module_->widthOf(node.result),
                          combAttrsOf(node), [&](unsigned i) {
                              return loadNet(node.operands[i]);
                          }));
}

} // namespace simjit
} // namespace rtl
} // namespace longnail
