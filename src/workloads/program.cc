#include "workloads/program.hh"

#include "common/logging.hh"

namespace cfl
{

double
Program::staticBranchDensity() const
{
    const std::size_t blocks = image.numBlocks();
    if (blocks == 0)
        return 0.0;
    return static_cast<double>(branches.size()) /
           static_cast<double>(blocks);
}

ProgramBuilder::ProgramBuilder(std::string name)
{
    program_.name = std::move(name);
}

ProgramBuilder::Label
ProgramBuilder::newLabel()
{
    labelAddrs_.push_back(0);
    labelBound_.push_back(false);
    return static_cast<Label>(labelAddrs_.size() - 1);
}

void
ProgramBuilder::bind(Label label)
{
    cfl_assert(label < labelAddrs_.size(), "bind of unknown label");
    cfl_assert(!labelBound_[label], "label bound twice");
    labelAddrs_[label] = here();
    labelBound_[label] = true;
}

Addr
ProgramBuilder::here() const
{
    return program_.image.limit();
}

void
ProgramBuilder::emitStraight(unsigned count)
{
    for (unsigned i = 0; i < count; ++i)
        program_.image.append(encodeAlu());
}

void
ProgramBuilder::recordBranch(Addr pc, BranchInfo info)
{
    info.id = static_cast<std::uint32_t>(program_.branches.size());
    program_.branches.push_back(info);
    const std::size_t slot = (pc - program_.image.base()) / kInstBytes;
    program_.branchSlots.resize(slot + 1, 0);
    program_.branchSlots[slot] = info.id + 1;
}

void
ProgramBuilder::emitCondTo(Label label, double bias)
{
    // Emit with a zero displacement; the fixup pass patches it.
    const Addr pc = program_.image.append(encodeDirect(BranchKind::Cond, 0));
    fixups_.push_back({pc, label, BranchKind::Cond});
    BranchInfo info;
    info.kind = BranchKind::Cond;
    info.bias = bias;
    recordBranch(pc, info);
}

void
ProgramBuilder::emitLoopBack(Addr head, std::uint8_t trip_base,
                             std::uint8_t trip_range)
{
    const Addr pc = here();
    const std::int64_t disp =
        (static_cast<std::int64_t>(head) - static_cast<std::int64_t>(pc)) /
        static_cast<std::int64_t>(kInstBytes);
    program_.image.append(encodeDirect(BranchKind::Cond, disp));
    BranchInfo info;
    info.kind = BranchKind::Cond;
    info.target = head;
    info.isLoopBack = true;
    info.tripBase = trip_base;
    info.tripRange = trip_range;
    recordBranch(pc, info);
}

void
ProgramBuilder::emitJumpTo(Label label)
{
    const Addr pc =
        program_.image.append(encodeDirect(BranchKind::Uncond, 0));
    fixups_.push_back({pc, label, BranchKind::Uncond});
    BranchInfo info;
    info.kind = BranchKind::Uncond;
    recordBranch(pc, info);
}

void
ProgramBuilder::emitJumpBack(Addr target)
{
    const Addr pc = here();
    const std::int64_t disp =
        (static_cast<std::int64_t>(target) - static_cast<std::int64_t>(pc)) /
        static_cast<std::int64_t>(kInstBytes);
    program_.image.append(encodeDirect(BranchKind::Uncond, disp));
    BranchInfo info;
    info.kind = BranchKind::Uncond;
    info.target = target;
    recordBranch(pc, info);
}

void
ProgramBuilder::emitCallTo(Addr callee)
{
    const Addr pc = here();
    const std::int64_t disp =
        (static_cast<std::int64_t>(callee) - static_cast<std::int64_t>(pc)) /
        static_cast<std::int64_t>(kInstBytes);
    program_.image.append(encodeDirect(BranchKind::Call, disp));
    BranchInfo info;
    info.kind = BranchKind::Call;
    info.target = callee;
    recordBranch(pc, info);
}

void
ProgramBuilder::emitIndirectCall(std::uint32_t set_id)
{
    const Addr pc = program_.image.append(
        encodeIndirect(BranchKind::IndCall,
                       static_cast<std::uint16_t>(set_id)));
    BranchInfo info;
    info.kind = BranchKind::IndCall;
    info.indirectSet = set_id;
    recordBranch(pc, info);
}

void
ProgramBuilder::emitIndirectJump(std::uint32_t set_id)
{
    const Addr pc = program_.image.append(
        encodeIndirect(BranchKind::IndJump,
                       static_cast<std::uint16_t>(set_id)));
    BranchInfo info;
    info.kind = BranchKind::IndJump;
    info.indirectSet = set_id;
    recordBranch(pc, info);
}

void
ProgramBuilder::emitReturn()
{
    const Addr pc = program_.image.append(encodeReturn());
    BranchInfo info;
    info.kind = BranchKind::Return;
    recordBranch(pc, info);
}

void
ProgramBuilder::alignBlock()
{
    program_.image.padToBlockBoundary();
}

std::uint32_t
ProgramBuilder::addIndirectSet(std::vector<Addr> targets)
{
    cfl_assert(!targets.empty(), "indirect set must not be empty");
    program_.indirectSets.push_back(std::move(targets));
    return static_cast<std::uint32_t>(program_.indirectSets.size() - 1);
}

void
ProgramBuilder::noteFunction(Addr entry, Addr limit, unsigned layer)
{
    program_.functions.push_back({entry, limit, layer});
}

Program
ProgramBuilder::finish(Addr entry, Addr dispatch_call_pc,
                       std::vector<Addr> handlers,
                       unsigned num_request_types)
{
    cfl_assert(!finished_, "ProgramBuilder::finish called twice");
    finished_ = true;

    // Straight-line code after the last branch has no slot yet.
    program_.branchSlots.resize(program_.image.numInsts(), 0);

    for (const Fixup &fx : fixups_) {
        cfl_assert(labelBound_[fx.label], "unbound label in fixup");
        const Addr target = labelAddrs_[fx.label];
        const std::int64_t disp =
            (static_cast<std::int64_t>(target) -
             static_cast<std::int64_t>(fx.branchPc)) /
            static_cast<std::int64_t>(kInstBytes);
        program_.image.patch(fx.branchPc, encodeDirect(fx.kind, disp));
        const std::uint32_t slot =
            program_.branchSlots[(fx.branchPc - program_.image.base()) /
                                 kInstBytes];
        cfl_assert(slot != 0, "fixup on unknown branch");
        program_.branches[slot - 1].target = target;
    }

    program_.entry = entry;
    program_.dispatchCallPc = dispatch_call_pc;
    program_.handlers = std::move(handlers);
    program_.numRequestTypes = num_request_types;

    // Validate: every direct target must land inside the image.
    for (const BranchInfo &info : program_.branches) {
        if (hasDirectTarget(info.kind)) {
            cfl_assert(program_.image.contains(info.target),
                       "branch %u targets outside image", info.id);
        }
    }
    for (const auto &set : program_.indirectSets) {
        for (const Addr t : set) {
            cfl_assert(program_.image.contains(t),
                       "indirect target outside image");
        }
    }

    return std::move(program_);
}

} // namespace cfl
