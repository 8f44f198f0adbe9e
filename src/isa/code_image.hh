/**
 * @file
 * A program's static code image: a contiguous array of instruction words
 * starting at a base address. The predecoder and the execution engine both
 * read instruction words from here; this is the single source of truth for
 * static control flow.
 */

#ifndef CFL_ISA_CODE_IMAGE_HH
#define CFL_ISA_CODE_IMAGE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "isa/inst.hh"

namespace cfl
{

/** Contiguous instruction storage with block-aligned base address. */
class CodeImage
{
  public:
    /** @param base block-aligned base virtual address of the image */
    explicit CodeImage(Addr base = 0x10000);

    /** Append one instruction word; returns its address. */
    Addr append(InstWord word);

    /** Append @p count copies of @p word. */
    void appendRun(InstWord word, std::size_t count)
    {
        words_.insert(words_.end(), count, word);
    }

    /** Make room for @p insts instructions without reallocating. */
    void reserve(std::size_t insts) { words_.reserve(insts); }

    /** Pad with ALU instructions until the next 64B block boundary. */
    void padToBlockBoundary();

    /** Overwrite the word at @p addr (used for branch fixups). */
    void patch(Addr addr, InstWord word);

    /** Fetch the word at @p addr; addr must be in range and aligned. */
    InstWord at(Addr addr) const;

    /** True if @p addr addresses an instruction inside the image. */
    bool contains(Addr addr) const;

    Addr base() const { return base_; }

    /** One past the last instruction address. */
    Addr limit() const { return base_ + words_.size() * kInstBytes; }

    /** Number of instructions in the image. */
    std::size_t numInsts() const { return words_.size(); }

    /** Image size in bytes. */
    std::size_t sizeBytes() const { return words_.size() * kInstBytes; }

    /** Number of (whole or partial) 64B blocks the image spans. */
    std::size_t numBlocks() const;

  private:
    Addr base_;
    std::vector<InstWord> words_;
};

} // namespace cfl

#endif // CFL_ISA_CODE_IMAGE_HH
