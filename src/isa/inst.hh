/**
 * @file
 * Synthetic fixed-width RISC ISA.
 *
 * The paper evaluates on UltraSPARC III (fixed 4-byte instructions). The
 * properties AirBTB depends on are (a) fixed-width instructions so a 16-bit
 * branch bitmap identifies branches within a 64B block, and (b) branch type
 * and PC-relative displacement fields that a predecoder can extract from
 * the raw instruction word before the block is inserted into the L1-I.
 * This module defines a minimal ISA with exactly those properties.
 *
 * Encoding (32-bit word):
 *   bits [31:28] opcode
 *   bits [25:0]  signed displacement in instruction (4B) units for
 *                direct control transfers (Cond/Uncond/Call)
 *   bits [15:0]  immediate payload for indirect branches (target-set id)
 */

#ifndef CFL_ISA_INST_HH
#define CFL_ISA_INST_HH

#include <cstdint>

#include "common/types.hh"

namespace cfl
{

/** Classification of a control-transfer instruction. */
enum class BranchKind : std::uint8_t
{
    None,      ///< not a branch
    Cond,      ///< conditional, direct, PC-relative
    Uncond,    ///< unconditional jump, direct, PC-relative
    Call,      ///< direct call (pushes return address)
    Return,    ///< return (target from return address stack)
    IndJump,   ///< indirect jump (target from indirect target cache)
    IndCall,   ///< indirect call (pushes return address)
};

/** The 2-bit branch-type classes a BTB entry stores (Section 3.1). */
enum class BtbBranchClass : std::uint8_t
{
    Conditional,
    Unconditional,
    Indirect,
    Return,
};

/** Raw 32-bit instruction word. */
using InstWord = std::uint32_t;

/** Maximum magnitude of the direct displacement field (in instructions). */
constexpr std::int64_t kMaxDispInsts = (1ll << 25) - 1;

/** Encode a non-branch (ALU/NOP-class) instruction. */
InstWord encodeAlu(std::uint32_t payload = 0);

/** Encode a direct branch of @p kind (Cond/Uncond/Call) with a
 *  displacement of @p disp_insts instructions relative to the branch PC. */
InstWord encodeDirect(BranchKind kind, std::int64_t disp_insts);

/** Encode a return instruction. */
InstWord encodeReturn();

/** Encode an indirect branch of @p kind (IndJump/IndCall). */
InstWord encodeIndirect(BranchKind kind, std::uint16_t target_set_id = 0);

/** Decode the branch kind of an instruction word. */
BranchKind decodeKind(InstWord word);

/** Decode the signed displacement (instruction units) of a direct branch. */
std::int64_t decodeDispInsts(InstWord word);

/** Compute the target address of a direct branch at @p pc. */
Addr directTarget(Addr pc, InstWord word);

/** True for every kind other than None. */
bool isBranch(BranchKind kind);

/** True if the kind transfers control unconditionally when executed. */
bool isAlwaysTaken(BranchKind kind);

/** True if the kind pushes a return address (Call/IndCall). */
bool isCall(BranchKind kind);

/** True if the target comes from the return address stack. */
bool usesRas(BranchKind kind);

/** True if the target comes from the indirect target cache. */
bool usesIndirectPredictor(BranchKind kind);

/** True if the instruction word itself encodes the target (direct). */
bool hasDirectTarget(BranchKind kind);

/** Map a BranchKind to the 2-bit class stored in BTB entries. */
BtbBranchClass btbClassOf(BranchKind kind);

/**
 * One dynamic instruction as produced by the execution engine: the oracle
 * record the front-end model verifies its predictions against.
 */
struct DynInst
{
    Addr pc = 0;                 ///< instruction address
    BranchKind kind = BranchKind::None;
    bool taken = false;          ///< actual direction (branches only)
    Addr target = 0;             ///< actual next PC if taken
    std::uint32_t requestId = 0; ///< request sequence number (workload)

    /** The address of the next sequential instruction. */
    Addr fallThrough() const { return pc + kInstBytes; }

    /** The actual next PC of this instruction. */
    Addr nextPc() const { return taken ? target : fallThrough(); }

    bool isBranch() const { return kind != BranchKind::None; }
};

} // namespace cfl

#endif // CFL_ISA_INST_HH
