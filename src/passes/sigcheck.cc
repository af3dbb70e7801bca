#include "passes/sigcheck.hh"

#include <random>

#include "ir/eval.hh"
#include "lil/cosim.hh"
#include "lil/interp.hh"
#include "support/logging.hh"

namespace longnail {
namespace passes {

using analysis::tv::TermBuilder;
using analysis::tv::TermId;
using analysis::tv::TermKind;
using analysis::tv::invalidTerm;
using ir::OpKind;

SignatureChecker::SignatureChecker(const coredsl::ElaboratedIsa *isa,
                                   unsigned trials)
    : isa_(isa), trials_(trials)
{}

Signature
SignatureChecker::buildSignature(const lil::LilGraph &graph)
{
    TermBuilder &b = builder_;
    const TermId zero1 = b.constant(ApInt(1, 0));
    const TermId one1 = b.constant(ApInt(1, 1));

    // Pending-index terms are widened to 64 bits so chains with
    // different source widths still mux; lil operand widths are
    // pass-invariant, so the widening never hides a real width change.
    auto widen = [&](TermId t) -> TermId {
        unsigned w = b.term(t).width;
        if (w >= 64)
            return t;
        return b.make(TermKind::Concat, 64,
                      {b.constant(ApInt(64 - w, 0)), t});
    };

    Signature sig;
    std::map<const ir::Value *, TermId> values;
    auto get = [&](const ir::Value *v) { return values.at(v); };
    auto predOf = [&](const ir::Operation &op, unsigned idx) {
        return op.numOperands() > idx ? get(op.operand(idx)) : one1;
    };
    // Last-enabled-wins accumulation, exactly lil::interpret():
    // valid |= pred, payload_i = mux(pred, new_i, payload_i).
    auto accumulate = [&](EffectSig &eff, TermId pred,
                          std::vector<TermId> payload,
                          const std::vector<unsigned> &widths) {
        if (eff.valid == invalidTerm) {
            eff.valid = zero1;
            for (unsigned w : widths)
                eff.payload.push_back(b.constant(ApInt(w, 0)));
        }
        eff.valid = b.make(TermKind::Or, 1, {eff.valid, pred});
        for (size_t i = 0; i < payload.size(); ++i)
            eff.payload[i] =
                b.make(TermKind::Mux, widths[i],
                       {pred, payload[i], eff.payload[i]});
    };

    std::map<std::string, TermId> pending; // custom write index, widened

    for (const auto &op : graph.graph.ops()) {
        unsigned rw = op->numResults() ? op->result()->type.width : 1;
        OpKind kind = op->kind();
        switch (kind) {
          case OpKind::CombConstant:
            values[op->result()] =
                b.constant(op->apAttr("value"));
            break;
          case OpKind::LilInstrWord:
            values[op->result()] = b.var("instr_word", rw);
            break;
          case OpKind::LilReadRs1:
            values[op->result()] = b.var("rs1", rw);
            break;
          case OpKind::LilReadRs2:
            values[op->result()] = b.var("rs2", rw);
            break;
          case OpKind::LilReadPC:
            values[op->result()] = b.var("pc", rw);
            break;
          case OpKind::LilReadMem: {
            // Memory is a pure function of the address (hashMemWord in
            // co-simulation), so the data variable is keyed by the
            // canonical address term; the result is guarded exactly
            // like lil::interpret() (predicated-off reads yield 0 and
            // leave mem_read_used untouched).
            TermId addr = get(op->operand(0));
            TermId pred = predOf(*op, 1);
            accumulate(sig.memRead, pred, {addr}, {32});
            TermId data = b.var(
                "rdmem_data@" + std::to_string(addr), rw);
            values[op->result()] = b.make(
                TermKind::Mux, rw,
                {pred, data, b.constant(ApInt(rw, 0))});
            break;
          }
          case OpKind::LilReadCustReg: {
            // Keyed by register and canonical index term: reads at
            // provably equal indices share a symbol, anything else
            // stays distinct (and falls back to co-simulation).
            TermId index = get(op->operand(0));
            values[op->result()] = b.var(
                "rdreg_data:" + op->strAttr("reg") + "@" +
                    std::to_string(index), rw);
            break;
          }
          case OpKind::LilWriteRd:
            accumulate(sig.rd, predOf(*op, 1), {get(op->operand(0))},
                       {op->operand(0)->type.width});
            break;
          case OpKind::LilWritePC:
            accumulate(sig.pc, predOf(*op, 1), {get(op->operand(0))},
                       {op->operand(0)->type.width});
            break;
          case OpKind::LilWriteMem:
            accumulate(sig.mem, predOf(*op, 2),
                       {get(op->operand(0)), get(op->operand(1))},
                       {op->operand(0)->type.width,
                        op->operand(1)->type.width});
            break;
          case OpKind::LilWriteCustRegAddr:
            pending[op->strAttr("reg")] = widen(get(op->operand(0)));
            break;
          case OpKind::LilWriteCustRegData: {
            const std::string &reg = op->strAttr("reg");
            auto pit = pending.find(reg);
            TermId index = pit != pending.end()
                               ? pit->second
                               : widen(zero1);
            accumulate(sig.cust[reg], predOf(*op, 1),
                       {get(op->operand(0)), index},
                       {op->operand(0)->type.width, 64});
            break;
          }
          case OpKind::LilSink:
            break;
          default:
            if (auto comb = ir::combOpOf(kind)) {
                std::vector<TermId> operands;
                for (unsigned i = 0; i < op->numOperands(); ++i)
                    operands.push_back(get(op->operand(i)));
                values[op->result()] = b.comb(
                    *comb, rw, std::move(operands), ir::combAttrsOf(*op));
            } else if (op->numResults()) {
                // Unmodeled: a fresh opaque can never prove equal, so
                // the check degrades to co-simulation, never to a
                // false proof.
                values[op->result()] = b.opaque(rw);
            }
            break;
        }
    }
    return sig;
}

bool
SignatureChecker::signaturesEqual(const Signature &a,
                                  const Signature &b) const
{
    // constant() hash-conses, so the const-0 valid of an absent or
    // fully-disabled effect always interns to one id per builder. The
    // builder is non-const only because constant() may intern; use the
    // ids already present instead.
    auto effectEqual = [&](const EffectSig &x, const EffectSig &y) {
        TermId xv = x.valid;
        TermId yv = y.valid;
        if (xv == yv) {
            // Same chain (or both absent): payloads can only differ if
            // present, and then element-for-element.
            if (x.payload.size() != y.payload.size())
                return xv == invalidTerm;
            for (size_t i = 0; i < x.payload.size(); ++i)
                if (x.payload[i] != y.payload[i])
                    return false;
            return true;
        }
        // One side absent: equal iff the other side's valid folded to
        // the constant 0 (its payload is then unobservable).
        auto isConstFalse = [&](TermId t) {
            return t != invalidTerm &&
                   builder_.term(t).kind == TermKind::Const &&
                   builder_.term(t).cval.isZero();
        };
        if (xv == invalidTerm)
            return isConstFalse(yv);
        if (yv == invalidTerm)
            return isConstFalse(xv);
        return false;
    };

    if (!effectEqual(a.rd, b.rd) || !effectEqual(a.pc, b.pc) ||
        !effectEqual(a.mem, b.mem) ||
        !effectEqual(a.memRead, b.memRead))
        return false;
    for (const auto &[reg, eff] : a.cust) {
        auto it = b.cust.find(reg);
        if (!effectEqual(eff, it != b.cust.end() ? it->second
                                                 : EffectSig{}))
            return false;
    }
    for (const auto &[reg, eff] : b.cust)
        if (!a.cust.count(reg) && !effectEqual(EffectSig{}, eff))
            return false;
    return true;
}

GraphCapture
SignatureChecker::capture(const lil::LilGraph &graph)
{
    GraphCapture cap;
    cap.sig = buildSignature(graph);
    std::mt19937 rng(lil::cosimSeed);
    for (unsigned trial = 0; trial < trials_; ++trial) {
        cap.inputs.push_back(lil::cosimInput(graph, isa_, trial, rng));
        cap.results.push_back(
            lil::interpret(graph, cap.inputs.back()));
    }
    return cap;
}

SignatureChecker::Outcome
SignatureChecker::check(const lil::LilGraph &graph,
                        const GraphCapture &before, std::string &detail)
{
    Signature after = buildSignature(graph);
    if (signaturesEqual(before.sig, after))
        return Outcome::Proved;

    for (size_t i = 0; i < before.inputs.size(); ++i) {
        lil::InterpResult got =
            lil::interpret(graph, before.inputs[i]);
        std::string diff =
            lil::diffEffects(before.results[i], got, "before", "after");
        if (diff.empty())
            continue;
        detail = "counterexample (trial " + std::to_string(i) +
                 "): " + lil::describeInput(before.inputs[i]) + ": " +
                 diff;
        return Outcome::Refuted;
    }
    return Outcome::CosimAgreed;
}

} // namespace passes
} // namespace longnail
