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

std::uint32_t
ProgramBuilder::recordBranch(Addr pc, BranchInfo info)
{
    // Branches are emitted in address order, so ids ascend with pc.
    info.pc = pc;
    info.id = static_cast<std::uint32_t>(program_.branches.size());
    program_.branches.push_back(info);
    return info.id;
}

void
ProgramBuilder::reserve(std::size_t insts, std::size_t branches)
{
    program_.image.reserve(insts);
    program_.branches.reserve(branches);
}

void
ProgramBuilder::emitCondTo(Label label, double bias)
{
    // Emit with a zero displacement; the fixup pass patches it.
    const Addr pc = program_.image.append(encodeDirect(BranchKind::Cond, 0));
    BranchInfo info;
    info.kind = BranchKind::Cond;
    info.bias = bias;
    fixups_.push_back({recordBranch(pc, info), label});
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
    BranchInfo info;
    info.kind = BranchKind::Uncond;
    fixups_.push_back({recordBranch(pc, info), label});
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

    std::vector<BranchInfo> &branches = program_.branches;
    for (const Fixup &fx : fixups_) {
        cfl_assert(labelBound_[fx.label], "unbound label in fixup");
        BranchInfo &info = branches[fx.branch];
        info.target = labelAddrs_[fx.label];
        const std::int64_t disp =
            (static_cast<std::int64_t>(info.target) -
             static_cast<std::int64_t>(info.pc)) /
            static_cast<std::int64_t>(kInstBytes);
        program_.image.patch(info.pc, encodeDirect(info.kind, disp));
    }

    program_.entry = entry;
    program_.dispatchCallPc = dispatch_call_pc;
    program_.handlers = std::move(handlers);
    program_.numRequestTypes = num_request_types;

    // The branch-at-or-after table, in one backward pass.
    const Addr base = program_.image.base();
    const std::uint32_t num_branches =
        static_cast<std::uint32_t>(branches.size());
    program_.firstBranch.resize(program_.image.numInsts());
    std::uint32_t next = num_branches;
    for (std::size_t slot = program_.firstBranch.size(); slot-- > 0;) {
        if (next > 0 && branches[next - 1].pc == base + slot * kInstBytes)
            --next;
        program_.firstBranch[slot] = next;
    }
    cfl_assert(next == 0, "branches out of address order");

    // Control flow must not run off the image: every place it can land
    // (entry, direct and indirect targets, a fall-through) reaches a
    // branch, and the last branch falls through nowhere.
    const auto lands = [&](Addr pc) {
        return program_.image.contains(pc) &&
               program_.firstBranchAt(pc) < num_branches;
    };
    cfl_assert(lands(entry), "program entry reaches no branch");
    cfl_assert(num_branches > 0 &&
                   (branches.back().kind == BranchKind::Uncond ||
                    branches.back().kind == BranchKind::IndJump ||
                    branches.back().kind == BranchKind::Return),
               "the last branch falls through off the image");
    for (BranchInfo &info : branches) {
        if (hasDirectTarget(info.kind)) {
            cfl_assert(lands(info.target), "branch %u targets outside image",
                       info.id);
            info.targetBranch = program_.firstBranchAt(info.target);
        }
    }
    for (const auto &set : program_.indirectSets) {
        // A trace stores an indirect choice in one byte.
        cfl_assert(set.size() <= 256, "indirect set of %zu targets",
                   set.size());
        for (const Addr t : set)
            cfl_assert(lands(t), "indirect target outside image");
    }

    return std::move(program_);
}

} // namespace cfl
