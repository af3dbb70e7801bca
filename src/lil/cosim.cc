#include "lil/cosim.hh"

namespace longnail {
namespace lil {

namespace {

std::string
hex(const ApInt &v)
{
    return "0x" + v.toStringUnsigned(16);
}

} // namespace

ApInt
hashMemWord(const ApInt &addr)
{
    uint64_t x = addr.toUint64() ^ 0x5bd1e995u;
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    return ApInt(32, uint32_t(x));
}

InterpInput
cosimInput(const LilGraph &graph, const coredsl::ElaboratedIsa *isa,
           unsigned trial, std::mt19937 &rng)
{
    auto word = [&]() -> uint32_t {
        if (trial == 0)
            return 0;
        if (trial == 1)
            return ~0u;
        return rng();
    };
    InterpInput input;
    uint32_t raw = word();
    input.instrWord =
        ApInt(32, graph.instr
                      ? (graph.instr->match | (raw & ~graph.instr->mask))
                      : raw);
    input.rs1 = ApInt(32, word());
    input.rs2 = ApInt(32, word());
    input.pc = ApInt(32, word() & ~3u);
    input.readMem = hashMemWord;
    if (!isa)
        return input;
    for (const auto &state : isa->state) {
        if (state.isCoreState || state.isConst ||
            state.kind != coredsl::StateInfo::Kind::Register)
            continue;
        std::vector<ApInt> contents;
        for (uint64_t i = 0; i < state.numElements; ++i)
            contents.push_back(
                ApInt(state.elementType.width,
                      trial == 0 ? 0
                      : trial == 1
                          ? ~0ull
                          : (uint64_t(rng()) << 32 | rng())));
        input.custRegs[state.name] = contents;
    }
    return input;
}

std::string
describeInput(const InterpInput &input)
{
    return "instr_word=" + hex(input.instrWord) +
           " rs1=" + hex(input.rs1) + " rs2=" + hex(input.rs2) +
           " pc=" + hex(input.pc);
}

std::string
diffEffects(const InterpResult &want, const InterpResult &got,
            const char *want_label, const char *got_label)
{
    const std::string w_is = std::string(" ") + want_label + "=";
    const std::string g_is = std::string(" ") + got_label + "=";
    auto bit = [](bool b) { return b ? "1" : "0"; };
    // "<what> valid: want=1 got=0"
    auto valid = [&](const std::string &what, bool w, bool g) {
        return what + " valid:" + w_is + bit(w) + g_is + bit(g);
    };
    auto scalar = [&](const char *what, const InterpWrite &w,
                      const InterpWrite &g) -> std::string {
        if (w.enabled != g.enabled)
            return valid(what, w.enabled, g.enabled);
        if (w.enabled && !(w.value == g.value))
            return std::string(what) + ":" + w_is + hex(w.value) + g_is +
                   hex(g.value);
        return "";
    };
    std::string d = scalar("WrRD", want.rd, got.rd);
    if (d.empty())
        d = scalar("WrPC", want.pcWrite, got.pcWrite);
    if (!d.empty())
        return d;
    if (want.mem.enabled != got.mem.enabled)
        return valid("WrMem", want.mem.enabled, got.mem.enabled);
    if (want.mem.enabled &&
        (!(want.mem.addr == got.mem.addr) ||
         !(want.mem.value == got.mem.value)))
        return "WrMem:" + w_is + "[" + hex(want.mem.addr) + "]<-" +
               hex(want.mem.value) + g_is + "[" + hex(got.mem.addr) +
               "]<-" + hex(got.mem.value);
    if (want.memReadUsed != got.memReadUsed)
        return valid("RdMem", want.memReadUsed, got.memReadUsed);
    if (want.memReadUsed && !(want.memReadAddr == got.memReadAddr))
        return "RdMem addr:" + w_is + hex(want.memReadAddr) + g_is +
               hex(got.memReadAddr);
    for (const auto &[reg, w] : want.custWrites) {
        auto it = got.custWrites.find(reg);
        bool got_enabled =
            it != got.custWrites.end() && it->second.enabled;
        if (w.enabled != got_enabled)
            return valid("Wr" + reg, w.enabled, got_enabled);
        if (w.enabled && (!(w.value == it->second.value) ||
                          !(w.index == it->second.index)))
            return "Wr" + reg + ":" + w_is + "[" + hex(w.index) +
                   "]<-" + hex(w.value) + g_is + "[" +
                   hex(it->second.index) + "]<-" +
                   hex(it->second.value);
    }
    for (const auto &[reg, g] : got.custWrites) {
        if (g.enabled && !want.custWrites.count(reg))
            return valid("Wr" + reg, false, true);
    }
    return "";
}

} // namespace lil
} // namespace longnail
