/**
 * @file
 * Disassembler coverage: every opcode renders in the documented
 * syntax, and every register-addressable form survives a full
 * disassemble -> assemble -> compare loop.
 */

#include <gtest/gtest.h>

#include "asm/parser.hh"
#include "isa/disasm.hh"

namespace ruu
{
namespace
{

TEST(Disasm, ThreeRegisterForms)
{
    EXPECT_EQ(disassemble(Instruction::rrr(Opcode::AADD, regA(1),
                                           regA(2), regA(3))),
              "aadd A1, A2, A3");
    EXPECT_EQ(disassemble(Instruction::rrr(Opcode::FMUL, regS(7),
                                           regS(0), regS(5))),
              "fmul S7, S0, S5");
}

TEST(Disasm, TwoRegisterForms)
{
    EXPECT_EQ(disassemble(Instruction::rr(Opcode::FRECIP, regS(1),
                                          regS(2))),
              "frecip S1, S2");
    EXPECT_EQ(disassemble(Instruction::rr(Opcode::MOVBA, regB(42),
                                          regA(3))),
              "movba B42, A3");
    EXPECT_EQ(disassemble(Instruction::rr(Opcode::MOVST, regS(6),
                                          regT(17))),
              "movst S6, T17");
}

TEST(Disasm, ImmediateAndShiftForms)
{
    EXPECT_EQ(disassemble(Instruction::rimm(Opcode::SMOVI, regS(3),
                                            -1000)),
              "smovi S3, -1000");
    EXPECT_EQ(disassemble(Instruction::shift(Opcode::SSHL, regS(2), 12)),
              "sshl S2, 12");
    EXPECT_EQ(disassemble(Instruction::shift(Opcode::SSHR, regS(2), 0)),
              "sshr S2, 0");
}

TEST(Disasm, MemoryForms)
{
    EXPECT_EQ(disassemble(Instruction::load(Opcode::LDS, regS(1),
                                            regA(2), 100)),
              "lds S1, 100(A2)");
    EXPECT_EQ(disassemble(Instruction::load(Opcode::LDA, regA(1),
                                            regA(2), -8)),
              "lda A1, -8(A2)");
    EXPECT_EQ(disassemble(Instruction::store(Opcode::STS, regA(3), 7,
                                             regS(6))),
              "sts 7(A3), S6");
    EXPECT_EQ(disassemble(Instruction::store(Opcode::STA, regA(3), 0,
                                             regA(1))),
              "sta 0(A3), A1");
}

TEST(Disasm, ControlForms)
{
    EXPECT_EQ(disassemble(Instruction::branch(Opcode::JAM, 42)),
              "jam @42");
    EXPECT_EQ(disassemble(Instruction::branch(Opcode::J, 0)), "j @0");
    EXPECT_EQ(disassemble(Instruction::bare(Opcode::HALT)), "halt");
    EXPECT_EQ(disassemble(Instruction::bare(Opcode::NOP)), "nop");
}

TEST(Disasm, EveryNonBranchOpcodeRoundTripsThroughTheAssembler)
{
    // Build one instance of every opcode (branch targets print as
    // addresses, so branches are checked separately above).
    std::vector<Instruction> insts;
    for (unsigned i = 0; i < kNumOpcodes; ++i) {
        Opcode op = static_cast<Opcode>(i);
        switch (opInfo(op).form) {
          case OperandForm::Rrr:
            insts.push_back(Instruction::rrr(
                op, RegId(op == Opcode::AADD || op == Opcode::ASUB ||
                                  op == Opcode::AMUL
                              ? RegFile::A
                              : RegFile::S,
                          1),
                RegId(op == Opcode::AADD || op == Opcode::ASUB ||
                              op == Opcode::AMUL
                          ? RegFile::A
                          : RegFile::S,
                      2),
                RegId(op == Opcode::AADD || op == Opcode::ASUB ||
                              op == Opcode::AMUL
                          ? RegFile::A
                          : RegFile::S,
                      3)));
            break;
          case OperandForm::Rr: {
            // Infer operand files from a decode of an encodable value:
            // just use the builder-checked helpers per opcode.
            switch (op) {
              case Opcode::MOVA:
                insts.push_back(Instruction::rr(op, regA(1), regA(2)));
                break;
              case Opcode::MOVSA:
                insts.push_back(Instruction::rr(op, regS(1), regA(2)));
                break;
              case Opcode::MOVAS:
                insts.push_back(Instruction::rr(op, regA(1), regS(2)));
                break;
              case Opcode::MOVBA:
                insts.push_back(Instruction::rr(op, regB(9), regA(2)));
                break;
              case Opcode::MOVAB:
                insts.push_back(Instruction::rr(op, regA(1), regB(9)));
                break;
              case Opcode::MOVTS:
                insts.push_back(Instruction::rr(op, regT(9), regS(2)));
                break;
              case Opcode::MOVST:
                insts.push_back(Instruction::rr(op, regS(1), regT(9)));
                break;
              default:
                insts.push_back(Instruction::rr(op, regS(1), regS(2)));
                break;
            }
            break;
          }
          case OperandForm::RImm:
            insts.push_back(Instruction::rimm(
                op, op == Opcode::AMOVI ? regA(1) : regS(1), -77));
            break;
          case OperandForm::RShift:
            insts.push_back(Instruction::shift(op, regS(4), 9));
            break;
          case OperandForm::RDst: // MFEPC, MFCAUSE: Si <- trap register
            insts.push_back(Instruction::rdst(op, regS(5)));
            break;
          case OperandForm::MemLoad:
            insts.push_back(Instruction::load(
                op, op == Opcode::LDA ? regA(1) : regS(1), regA(2), 5));
            break;
          case OperandForm::MemStore:
            insts.push_back(Instruction::store(
                op, regA(2), 5, op == Opcode::STA ? regA(1) : regS(1)));
            break;
          case OperandForm::Branch:
            break; // labels, covered separately
          case OperandForm::Bare:
            insts.push_back(Instruction::bare(op));
            break;
        }
    }

    std::string text;
    for (const auto &inst : insts)
        text += disassemble(inst) + "\n";
    AsmResult reassembled = assemble(text);
    ASSERT_TRUE(reassembled.ok())
        << (reassembled.errors.empty()
                ? ""
                : reassembled.errors[0].toString());
    EXPECT_EQ(reassembled.program->instructions(), insts);
}

} // namespace
} // namespace ruu
