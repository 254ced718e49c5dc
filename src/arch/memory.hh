/**
 * @file
 * Data memory of the model machine.
 *
 * Memory is word-addressed (64-bit words) and flat, with a fixed
 * capacity; accesses beyond the capacity raise a page fault. The paper
 * assumes no memory-bank conflicts (§2.2 assumption (i)), so there is
 * no banking model — the memory functional unit's latency lives in
 * UarchConfig.
 *
 * The image is sparse and copy-on-write: words live in fixed-size
 * pages that are allocated on first non-zero write, a missing page
 * reads as zero, copies share pages, and a store clones a page only
 * while another image still holds it. Building, copying and comparing
 * an image therefore costs in proportion to the pages a program
 * touched, not to the capacity.
 */

#ifndef RUU_ARCH_MEMORY_HH
#define RUU_ARCH_MEMORY_HH

#include <array>
#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "common/types.hh"

namespace ruu
{

/** Flat word-addressed data memory (sparse, copy-on-write pages). */
class Memory
{
  public:
    /** Default capacity: 1 Mi words (8 MiB when fully written). */
    static constexpr std::size_t kDefaultWords = 1u << 20;

    /** Words per page, the unit of allocation and sharing. */
    static constexpr std::size_t kPageWords = 512;

    /** An image of @p words capacity; allocates nothing. */
    explicit Memory(std::size_t words = kDefaultWords) : _words(words) {}

    /** Capacity in words. */
    std::size_t sizeWords() const { return _words; }

    /** True when @p addr is in range. */
    bool mapped(Addr addr) const { return addr < _words; }

    /**
     * Read the word at @p addr.
     * @return nullopt on a page fault (unmapped address).
     */
    std::optional<Word> load(Addr addr) const;

    /**
     * Write @p value at @p addr.
     * @return false on a page fault.
     */
    bool store(Addr addr, Word value);

    /** Unchecked read used by test oracles; panics when unmapped. */
    Word at(Addr addr) const;

    /** Unchecked write used when loading program images. */
    void set(Addr addr, Word value);

    /** Read the word as an IEEE double (test convenience). */
    double atDouble(Addr addr) const;

    /** Zero all of memory. */
    void clear();

    /**
     * The lowest address whose word differs between the two images,
     * or nullopt when their contents are equal over the smaller
     * capacity. Pages both images share are skipped without a compare.
     */
    std::optional<Addr> firstDifference(const Memory &other) const;

    /** Equal capacity and equal contents (missing pages are zero). */
    bool operator==(const Memory &other) const
    {
        return _words == other._words && !firstDifference(other);
    }

  private:
    using Page = std::array<Word, kPageWords>;

    /** The page holding @p addr, or null when it reads as zero. */
    const Page *page(Addr addr) const;

    /** Write an in-range word, allocating or unsharing its page. */
    void write(Addr addr, Word value);

    std::size_t _words;

    /** Page table, grown on demand; a null handle is an all-zero page. */
    std::vector<std::shared_ptr<Page>> _pages;
};

} // namespace ruu

#endif // RUU_ARCH_MEMORY_HH
