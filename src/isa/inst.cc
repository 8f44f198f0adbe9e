#include "isa/inst.hh"

#include "common/bitops.hh"
#include "common/logging.hh"

namespace cfl
{

namespace
{

constexpr unsigned kOpcodeShift = 28;

constexpr std::uint32_t kOpAlu = 0;
constexpr std::uint32_t kOpCond = 1;
constexpr std::uint32_t kOpUncond = 2;
constexpr std::uint32_t kOpCall = 3;
constexpr std::uint32_t kOpReturn = 4;
constexpr std::uint32_t kOpIndJump = 5;
constexpr std::uint32_t kOpIndCall = 6;

std::uint32_t
opcodeOf(InstWord word)
{
    return word >> kOpcodeShift;
}

std::uint32_t
opcodeFor(BranchKind kind)
{
    switch (kind) {
      case BranchKind::None: return kOpAlu;
      case BranchKind::Cond: return kOpCond;
      case BranchKind::Uncond: return kOpUncond;
      case BranchKind::Call: return kOpCall;
      case BranchKind::Return: return kOpReturn;
      case BranchKind::IndJump: return kOpIndJump;
      case BranchKind::IndCall: return kOpIndCall;
    }
    cfl_panic("unreachable branch kind");
}

} // namespace

InstWord
encodeAlu(std::uint32_t payload)
{
    return (kOpAlu << kOpcodeShift) | (payload & 0x0fffffffu);
}

InstWord
encodeDirect(BranchKind kind, std::int64_t disp_insts)
{
    cfl_assert(kind == BranchKind::Cond || kind == BranchKind::Uncond ||
               kind == BranchKind::Call,
               "encodeDirect on non-direct kind %d", static_cast<int>(kind));
    cfl_assert(disp_insts >= -kMaxDispInsts && disp_insts <= kMaxDispInsts,
               "displacement %lld out of range",
               static_cast<long long>(disp_insts));
    const std::uint32_t disp26 =
        static_cast<std::uint32_t>(disp_insts) & 0x03ffffffu;
    return (opcodeFor(kind) << kOpcodeShift) | disp26;
}

InstWord
encodeReturn()
{
    return kOpReturn << kOpcodeShift;
}

InstWord
encodeIndirect(BranchKind kind, std::uint16_t target_set_id)
{
    cfl_assert(kind == BranchKind::IndJump || kind == BranchKind::IndCall,
               "encodeIndirect on non-indirect kind %d",
               static_cast<int>(kind));
    return (opcodeFor(kind) << kOpcodeShift) | target_set_id;
}

BranchKind
decodeKind(InstWord word)
{
    switch (opcodeOf(word)) {
      case kOpAlu: return BranchKind::None;
      case kOpCond: return BranchKind::Cond;
      case kOpUncond: return BranchKind::Uncond;
      case kOpCall: return BranchKind::Call;
      case kOpReturn: return BranchKind::Return;
      case kOpIndJump: return BranchKind::IndJump;
      case kOpIndCall: return BranchKind::IndCall;
      default: return BranchKind::None;
    }
}

std::int64_t
decodeDispInsts(InstWord word)
{
    return signExtend(word & 0x03ffffffu, 26);
}

Addr
directTarget(Addr pc, InstWord word)
{
    const std::int64_t disp_bytes =
        decodeDispInsts(word) * static_cast<std::int64_t>(kInstBytes);
    return static_cast<Addr>(static_cast<std::int64_t>(pc) + disp_bytes);
}

bool
isBranch(BranchKind kind)
{
    return kind != BranchKind::None;
}

bool
isAlwaysTaken(BranchKind kind)
{
    return isBranch(kind) && kind != BranchKind::Cond;
}

bool
isCall(BranchKind kind)
{
    return kind == BranchKind::Call || kind == BranchKind::IndCall;
}

bool
usesRas(BranchKind kind)
{
    return kind == BranchKind::Return;
}

bool
usesIndirectPredictor(BranchKind kind)
{
    return kind == BranchKind::IndJump || kind == BranchKind::IndCall;
}

bool
hasDirectTarget(BranchKind kind)
{
    return kind == BranchKind::Cond || kind == BranchKind::Uncond ||
           kind == BranchKind::Call;
}

BtbBranchClass
btbClassOf(BranchKind kind)
{
    switch (kind) {
      case BranchKind::Cond:
        return BtbBranchClass::Conditional;
      case BranchKind::Uncond:
      case BranchKind::Call:
        return BtbBranchClass::Unconditional;
      case BranchKind::IndJump:
      case BranchKind::IndCall:
        return BtbBranchClass::Indirect;
      case BranchKind::Return:
        return BtbBranchClass::Return;
      case BranchKind::None:
        break;
    }
    cfl_panic("btbClassOf on non-branch");
}

} // namespace cfl
