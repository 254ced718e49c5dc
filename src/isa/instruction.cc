#include "isa/instruction.hh"

#include "common/logging.hh"

namespace ruu
{

unsigned
Instruction::numSrcs() const
{
    return (src1.valid() ? 1u : 0u) + (src2.valid() ? 1u : 0u);
}

RegId
Instruction::src(unsigned i) const
{
    if (src1.valid()) {
        if (i == 0)
            return src1;
        ruu_assert(i == 1 && src2.valid(), "source %u out of range", i);
        return src2;
    }
    ruu_assert(i == 0 && src2.valid(), "source %u out of range", i);
    return src2;
}

Instruction
Instruction::rrr(Opcode op, RegId dst, RegId a, RegId b)
{
    ruu_assert(opInfo(op).form == OperandForm::Rrr,
               "%s is not a three-register opcode", mnemonic(op));
    Instruction inst;
    inst.op = op;
    inst.dst = dst;
    inst.src1 = a;
    inst.src2 = b;
    return inst;
}

Instruction
Instruction::rr(Opcode op, RegId dst, RegId src)
{
    ruu_assert(opInfo(op).form == OperandForm::Rr,
               "%s is not a two-register opcode", mnemonic(op));
    Instruction inst;
    inst.op = op;
    inst.dst = dst;
    inst.src1 = src;
    return inst;
}

Instruction
Instruction::rimm(Opcode op, RegId dst, std::int64_t imm)
{
    ruu_assert(opInfo(op).form == OperandForm::RImm,
               "%s is not an immediate opcode", mnemonic(op));
    Instruction inst;
    inst.op = op;
    inst.dst = dst;
    inst.imm = imm;
    return inst;
}

Instruction
Instruction::shift(Opcode op, RegId reg, unsigned count)
{
    ruu_assert(opInfo(op).form == OperandForm::RShift,
               "%s is not a shift opcode", mnemonic(op));
    ruu_assert(count < 64, "shift count %u out of range", count);
    Instruction inst;
    inst.op = op;
    inst.dst = reg;
    inst.src1 = reg;
    inst.imm = count;
    return inst;
}

Instruction
Instruction::load(Opcode op, RegId dst, RegId base, std::int64_t disp)
{
    ruu_assert(opInfo(op).form == OperandForm::MemLoad,
               "%s is not a load opcode", mnemonic(op));
    ruu_assert(base.valid() && base.file() == RegFile::A,
               "load base must be an A register");
    Instruction inst;
    inst.op = op;
    inst.dst = dst;
    inst.src1 = base;
    inst.imm = disp;
    return inst;
}

Instruction
Instruction::store(Opcode op, RegId base, std::int64_t disp, RegId data)
{
    ruu_assert(opInfo(op).form == OperandForm::MemStore,
               "%s is not a store opcode", mnemonic(op));
    ruu_assert(base.valid() && base.file() == RegFile::A,
               "store base must be an A register");
    Instruction inst;
    inst.op = op;
    inst.src1 = base;
    inst.src2 = data;
    inst.imm = disp;
    return inst;
}

Instruction
Instruction::branch(Opcode op, ParcelAddr target)
{
    ruu_assert(opInfo(op).form == OperandForm::Branch,
               "%s is not a branch opcode", mnemonic(op));
    Instruction inst;
    inst.op = op;
    inst.target = target;
    switch (opInfo(op).cond) {
      case CondReg::A0:
        inst.src1 = regA(0);
        break;
      case CondReg::S0:
        inst.src1 = regS(0);
        break;
      default:
        break;
    }
    return inst;
}

Instruction
Instruction::bare(Opcode op)
{
    ruu_assert(opInfo(op).form == OperandForm::Bare,
               "%s takes operands", mnemonic(op));
    Instruction inst;
    inst.op = op;
    return inst;
}

Instruction
Instruction::rdst(Opcode op, RegId dst)
{
    ruu_assert(opInfo(op).form == OperandForm::RDst,
               "%s is not a destination-only opcode", mnemonic(op));
    Instruction inst;
    inst.op = op;
    inst.dst = dst;
    return inst;
}

void
hashInstruction(WordHash &hash, const Instruction &inst)
{
    hash.mix(static_cast<std::uint64_t>(inst.op));
    for (RegId reg : {inst.dst, inst.src1, inst.src2})
        hash.mix(reg.valid() ? reg.flat() + 1 : 0);
    hash.mix(static_cast<std::uint64_t>(inst.imm));
    hash.mix(inst.target);
}

} // namespace ruu
