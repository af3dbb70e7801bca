#include "rtl/netlist.hh"

#include <map>

#include "support/logging.hh"

namespace longnail {
namespace rtl {

const char *
nodeKindName(NodeKind kind)
{
    switch (kind) {
      case NodeKind::Input: return "input";
      case NodeKind::Constant: return "constant";
#define LN_COMB_OP(name, lil, term, arity) case NodeKind::name: return term;
#include "ir/combops.def"
      case NodeKind::Register: return "register";
    }
    return "?";
}

NetId
Module::newNet(unsigned width)
{
    if (width == 0)
        LN_PANIC("zero-width net");
    netWidths_.push_back(width);
    netNames_.emplace_back();
    return netWidths_.size() - 1;
}

NetId
Module::addInput(const std::string &name, unsigned width)
{
    NetId net = newNet(width);
    Node node;
    node.kind = NodeKind::Input;
    node.result = net;
    nodes_.push_back(std::move(node));
    inputs_.emplace_back(name, net);
    nameNet(net, name);
    return net;
}

void
Module::addOutput(const std::string &name, NetId net)
{
    outputs_.push_back({name, net});
}

NetId
Module::addConstant(const ApInt &value)
{
    NetId net = newNet(value.width());
    Node node;
    node.kind = NodeKind::Constant;
    node.result = net;
    node.value = value;
    nodes_.push_back(std::move(node));
    return net;
}

NetId
Module::addNode(NodeKind kind, unsigned width, std::vector<NetId> operands)
{
    NetId net = newNet(width);
    Node node;
    node.kind = kind;
    node.result = net;
    node.operands = std::move(operands);
    nodes_.push_back(std::move(node));
    return net;
}

NetId
Module::addICmp(ir::ICmpPred pred, NetId lhs, NetId rhs)
{
    NetId net = newNet(1);
    Node node;
    node.kind = NodeKind::ICmp;
    node.result = net;
    node.operands = {lhs, rhs};
    node.pred = pred;
    nodes_.push_back(std::move(node));
    return net;
}

NetId
Module::addExtract(NetId v, unsigned lo, unsigned count)
{
    if (lo == 0 && count == widthOf(v))
        return v;
    NetId net = newNet(count);
    Node node;
    node.kind = NodeKind::Extract;
    node.result = net;
    node.operands = {v};
    node.lo = lo;
    nodes_.push_back(std::move(node));
    return net;
}

NetId
Module::addRom(std::vector<ApInt> values, unsigned width, NetId index)
{
    NetId net = newNet(width);
    Node node;
    node.kind = NodeKind::Rom;
    node.result = net;
    node.operands = {index};
    node.romValues = std::move(values);
    nodes_.push_back(std::move(node));
    return net;
}

NetId
Module::addRegister(NetId d, NetId enable, const ApInt &init)
{
    NetId net = newNet(widthOf(d));
    Node node;
    node.kind = NodeKind::Register;
    node.result = net;
    node.operands = {d};
    if (enable != invalidNet)
        node.operands.push_back(enable);
    node.value = init.zextOrTrunc(widthOf(d));
    nodes_.push_back(std::move(node));
    return net;
}

void
Module::rebindOutput(const std::string &name, NetId net)
{
    for (auto &port : outputs_) {
        if (port.name == name) {
            port.net = net;
            return;
        }
    }
    LN_PANIC("no output port named ", name);
}

std::optional<NetId>
Module::findInput(const std::string &name) const
{
    for (const auto &[n, net] : inputs_)
        if (n == name)
            return net;
    return std::nullopt;
}

std::optional<NetId>
Module::findOutput(const std::string &name) const
{
    for (const auto &port : outputs_)
        if (port.name == name)
            return port.net;
    return std::nullopt;
}

void
Module::nameNet(NetId net, const std::string &name)
{
    netNames_.at(net) = name;
}

const std::string &
Module::netName(NetId net) const
{
    return netNames_.at(net);
}

unsigned
Module::numRegisters() const
{
    unsigned n = 0;
    for (const auto &node : nodes_)
        if (node.kind == NodeKind::Register)
            ++n;
    return n;
}

unsigned
Module::numRegisterBits() const
{
    unsigned bits = 0;
    for (const auto &node : nodes_)
        if (node.kind == NodeKind::Register)
            bits += netWidths_[node.result];
    return bits;
}

std::string
Module::verify() const
{
    std::vector<bool> defined(netWidths_.size(), false);
    for (const auto &node : nodes_) {
        for (NetId operand : node.operands) {
            if (operand >= netWidths_.size())
                return "operand net out of range";
            if (!defined[operand])
                return std::string("net used before definition in ") +
                       nodeKindName(node.kind) + " node";
        }
        switch (node.kind) {
          case NodeKind::Add:
          case NodeKind::Sub:
          case NodeKind::Mul:
          case NodeKind::DivU:
          case NodeKind::DivS:
          case NodeKind::ModU:
          case NodeKind::ModS:
          case NodeKind::And:
          case NodeKind::Or:
          case NodeKind::Xor:
            if (node.operands.size() != 2 ||
                widthOf(node.operands[0]) != widthOf(node.result) ||
                widthOf(node.operands[1]) != widthOf(node.result))
                return std::string("width mismatch in ") +
                       nodeKindName(node.kind);
            break;
          case NodeKind::Mux:
            if (node.operands.size() != 3 ||
                widthOf(node.operands[0]) != 1 ||
                widthOf(node.operands[1]) != widthOf(node.result) ||
                widthOf(node.operands[2]) != widthOf(node.result))
                return "malformed mux";
            break;
          case NodeKind::ICmp:
            if (node.operands.size() != 2 ||
                widthOf(node.operands[0]) != widthOf(node.operands[1]))
                return "malformed icmp";
            break;
          case NodeKind::Extract:
            if (node.operands.size() != 1 ||
                node.lo + widthOf(node.result) >
                    widthOf(node.operands[0]))
                return "extract out of range";
            break;
          case NodeKind::Concat:
            if (node.operands.size() < 2)
                return "concat needs at least two operands";
            break;
          case NodeKind::Register:
            if (node.operands.empty() ||
                widthOf(node.operands[0]) != widthOf(node.result))
                return "register width mismatch";
            if (node.operands.size() == 2 &&
                widthOf(node.operands[1]) != 1)
                return "register enable must be one bit";
            break;
          default:
            break;
        }
        defined[node.result] = true;
    }
    for (const auto &port : outputs_) {
        if (port.net >= netWidths_.size() || !defined[port.net])
            return "output port '" + port.name +
                   "' bound to an undefined net";
    }
    return "";
}

} // namespace rtl
} // namespace longnail
