#include "asm/program.hh"

#include <sstream>

#include "common/logging.hh"
#include "isa/disasm.hh"

namespace ruu
{

const Instruction &
Program::inst(std::size_t index) const
{
    ruu_assert(index < _insts.size(), "instruction index %zu out of range",
               index);
    return _insts[index];
}

ParcelAddr
Program::pc(std::size_t index) const
{
    ruu_assert(index < _pcs.size(), "instruction index %zu out of range",
               index);
    return _pcs[index];
}

std::optional<std::size_t>
Program::indexOfPc(ParcelAddr pc) const
{
    auto it = _pcToIndex.find(pc);
    if (it == _pcToIndex.end())
        return std::nullopt;
    return it->second;
}

std::optional<ParcelAddr>
Program::labelAddr(const std::string &label) const
{
    auto it = _labels.find(label);
    if (it == _labels.end())
        return std::nullopt;
    return it->second;
}

std::uint64_t
Program::contentHash() const
{
    WordHash hash;
    hash.mix(_isHandler ? 1 : 0);
    hash.mix(_insts.size());
    for (const Instruction &inst : _insts)
        hashInstruction(hash, inst);
    hash.mix(_data.size());
    for (const DataInit &init : _data) {
        hash.mix(init.addr);
        hash.mix(init.value);
    }
    return hash.value;
}

std::size_t
Program::append(const Instruction &inst)
{
    std::size_t index = _insts.size();
    _insts.push_back(inst);
    _pcs.push_back(_nextPc);
    _pcToIndex[_nextPc] = index;
    _nextPc += inst.parcels();
    return index;
}

bool
Program::bindLabel(const std::string &label)
{
    if (_labels.count(label))
        return false;
    _labels[label] = _nextPc;
    return true;
}

std::string
Program::listing() const
{
    // Invert the label map so each address shows its labels.
    std::multimap<ParcelAddr, std::string> by_addr;
    for (const auto &kv : _labels)
        by_addr.emplace(kv.second, kv.first);

    std::ostringstream os;
    os << "; program " << _name << " (" << _insts.size()
       << " instructions, " << _nextPc << " parcels)\n";
    for (std::size_t i = 0; i < _insts.size(); ++i) {
        auto range = by_addr.equal_range(_pcs[i]);
        for (auto it = range.first; it != range.second; ++it)
            os << it->second << ":\n";
        os << "  /* " << _pcs[i] << " */  " << disassemble(_insts[i])
           << "\n";
    }
    return os.str();
}

} // namespace ruu
