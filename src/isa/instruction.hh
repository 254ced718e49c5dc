/**
 * @file
 * A decoded instruction of the model ISA.
 *
 * Instruction is a plain value type: opcode plus operand fields, with
 * branch targets already resolved to parcel addresses. The assembler
 * (src/asm) produces them; the functional simulator and the issue-logic
 * cores consume them.
 */

#ifndef RUU_ISA_INSTRUCTION_HH
#define RUU_ISA_INSTRUCTION_HH

#include <array>
#include <cstdint>
#include <string>

#include "common/hash.hh"
#include "common/types.hh"
#include "isa/opcode.hh"
#include "isa/reg.hh"

namespace ruu
{

/** One decoded instruction. */
struct Instruction
{
    Opcode op = Opcode::NOP;

    /** Destination register; invalid for stores, branches, HALT, NOP. */
    RegId dst;

    /**
     * First source. For memory operations this is the base A register;
     * for conditional branches it is A0 or S0; for in-place shifts it
     * equals dst.
     */
    RegId src1;

    /** Second source. For stores this is the data register. */
    RegId src2;

    /** Immediate: imm22 for RImm, disp22 for memory, count for shifts. */
    std::int64_t imm = 0;

    /** Resolved branch target (parcel address); branches only. */
    ParcelAddr target = 0;

    /** Instruction length in 16-bit parcels (1 or 2). */
    unsigned parcels() const { return opInfo(op).parcels; }

    /** Functional-unit class that executes this instruction. */
    FuKind fu() const { return opInfo(op).fu; }

    /** Number of valid source registers (0-2). */
    unsigned numSrcs() const;

    /** The i-th valid source register (0-based). */
    RegId src(unsigned i) const;

    /** All source registers, invalid entries possible; prefer src(). */
    std::array<RegId, 2> rawSrcs() const { return {src1, src2}; }

    /** True when this instruction writes a register. */
    bool writesReg() const { return dst.valid(); }

    bool operator==(const Instruction &other) const = default;

    // -- convenience constructors used by the builder and tests ---------

    /** Three-register form (AADD, FMUL, ...). */
    static Instruction rrr(Opcode op, RegId dst, RegId a, RegId b);

    /** Two-register form (FRECIP, MOVA, inter-file moves, ...). */
    static Instruction rr(Opcode op, RegId dst, RegId src);

    /** Immediate form (AMOVI, SMOVI). */
    static Instruction rimm(Opcode op, RegId dst, std::int64_t imm);

    /** In-place shift (SSHL/SSHR). */
    static Instruction shift(Opcode op, RegId reg, unsigned count);

    /** Load: dst <- mem[base + disp]. */
    static Instruction load(Opcode op, RegId dst, RegId base,
                            std::int64_t disp);

    /** Store: mem[base + disp] <- data. */
    static Instruction store(Opcode op, RegId base, std::int64_t disp,
                             RegId data);

    /** Branch with an already-resolved parcel-address target. */
    static Instruction branch(Opcode op, ParcelAddr target);

    /** Bare form (HALT, NOP, RTI, EINT, DINT). */
    static Instruction bare(Opcode op);

    /** Destination-only form (MFEPC, MFCAUSE). */
    static Instruction rdst(Opcode op, RegId dst);
};

/** Fold every field of @p inst into @p hash. */
void hashInstruction(WordHash &hash, const Instruction &inst);

} // namespace ruu

#endif // RUU_ISA_INSTRUCTION_HH
