/**
 * @file
 * A complete model-ISA program: instruction sequence with parcel
 * addresses, labels, and an initial data-memory image.
 *
 * Programs are produced by the textual assembler (asm/parser.hh) or the
 * C++ builder DSL (asm/builder.hh) and consumed by the functional
 * simulator and — via the trace it generates — by the timing cores.
 */

#ifndef RUU_ASM_PROGRAM_HH
#define RUU_ASM_PROGRAM_HH

#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "isa/instruction.hh"

namespace ruu
{

/** An initial-value entry for data memory. */
struct DataInit
{
    Addr addr;  //!< word address
    Word value; //!< raw 64-bit contents (integer or double bits)
};

/** An immutable, fully resolved program. */
class Program
{
  public:
    Program() = default;

    /** Human-readable program name (e.g. "lll3"). */
    const std::string &name() const { return _name; }

    /** Number of static instructions. */
    std::size_t size() const { return _insts.size(); }

    /** True when the program has no instructions. */
    bool empty() const { return _insts.empty(); }

    /** Instruction @p index (0-based static index). */
    const Instruction &inst(std::size_t index) const;

    /** Parcel address of instruction @p index. */
    ParcelAddr pc(std::size_t index) const;

    /** All instructions in order. */
    const std::vector<Instruction> &instructions() const { return _insts; }

    /** Total program length in parcels. */
    ParcelAddr totalParcels() const { return _nextPc; }

    /**
     * Static instruction index whose parcel address is @p pc;
     * nullopt when @p pc is not an instruction boundary.
     */
    std::optional<std::size_t> indexOfPc(ParcelAddr pc) const;

    /** Parcel address bound to @p label, if the label exists. */
    std::optional<ParcelAddr> labelAddr(const std::string &label) const;

    /** All labels, for listings. */
    const std::map<std::string, ParcelAddr> &labels() const
    {
        return _labels;
    }

    /** Initial data-memory image. */
    const std::vector<DataInit> &dataInits() const { return _data; }

    /**
     * Lint suppressions bound to single instructions: parcel address
     * of the annotated instruction -> check id or name as written
     * (`.lint allow <check>` in assembly, ProgramBuilder::allow()).
     * Matching is done by the analyzer (lint/analyze.hh).
     */
    const std::multimap<ParcelAddr, std::string> &lintAllows() const
    {
        return _lintAllows;
    }

    /** Program-wide lint suppressions ("all" suppresses everything). */
    const std::set<std::string> &lintGlobalAllows() const
    {
        return _lintGlobalAllows;
    }

    /**
     * True when the program is an interrupt handler kernel (`.handler`
     * in assembly, ProgramBuilder::handler()): it runs from the trap
     * controller's exchange sequence and ends with RTI rather than
     * HALT. The static analyzer (lint/analyze.hh) treats RTI in a
     * non-handler program as a likely mistake (RUU-W302).
     */
    bool isHandler() const { return _isHandler; }

    /**
     * Hash of everything execution reads: every instruction, the data
     * image and the handler flag (not the name, labels or lint
     * suppressions).
     */
    std::uint64_t contentHash() const;

    /** Render an assembler-style listing with addresses and labels. */
    std::string listing() const;

  private:
    friend class ProgramBuilder;
    friend class Parser;

    std::string _name;
    std::vector<Instruction> _insts;
    std::vector<ParcelAddr> _pcs;
    std::map<ParcelAddr, std::size_t> _pcToIndex;
    std::map<std::string, ParcelAddr> _labels;
    std::vector<DataInit> _data;
    std::multimap<ParcelAddr, std::string> _lintAllows;
    std::set<std::string> _lintGlobalAllows;
    bool _isHandler = false;
    ParcelAddr _nextPc = 0;

    /** Append an instruction, assigning its parcel address. */
    std::size_t append(const Instruction &inst);

    /** Bind @p label to the next instruction's address. */
    bool bindLabel(const std::string &label);
};

} // namespace ruu

#endif // RUU_ASM_PROGRAM_HH
