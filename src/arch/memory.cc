#include "arch/memory.hh"

#include <algorithm>

#include "common/bitfield.hh"
#include "common/logging.hh"

namespace ruu
{

const Memory::Page *
Memory::page(Addr addr) const
{
    std::size_t index = addr / kPageWords;
    return index < _pages.size() ? _pages[index].get() : nullptr;
}

void
Memory::write(Addr addr, Word value)
{
    std::size_t index = addr / kPageWords;
    if (index >= _pages.size()) {
        if (value == 0)
            return; // a missing page already reads as zero
        _pages.resize(index + 1);
    }
    std::shared_ptr<Page> &slot = _pages[index];
    if (!slot) {
        if (value == 0)
            return;
        slot = std::make_shared<Page>(); // value-initialized: zeros
    } else if (slot.use_count() > 1) {
        slot = std::make_shared<Page>(*slot); // another image holds it
    } else {
        // Sole holder. use_count() is a relaxed read, so the last reads
        // of an image that shared this page and was dropped on another
        // thread are not yet ordered before the write below. Taking and
        // dropping a reference orders them: the drop is an acq_rel
        // decrement in the same release sequence as that image's.
        std::shared_ptr<Page> acquire = slot;
    }
    (*slot)[addr % kPageWords] = value;
}

std::optional<Word>
Memory::load(Addr addr) const
{
    if (!mapped(addr))
        return std::nullopt;
    const Page *p = page(addr);
    return p ? (*p)[addr % kPageWords] : 0;
}

bool
Memory::store(Addr addr, Word value)
{
    if (!mapped(addr))
        return false;
    write(addr, value);
    return true;
}

Word
Memory::at(Addr addr) const
{
    ruu_assert(mapped(addr), "unmapped address %llu",
               static_cast<unsigned long long>(addr));
    const Page *p = page(addr);
    return p ? (*p)[addr % kPageWords] : 0;
}

void
Memory::set(Addr addr, Word value)
{
    ruu_assert(mapped(addr), "unmapped address %llu",
               static_cast<unsigned long long>(addr));
    write(addr, value);
}

double
Memory::atDouble(Addr addr) const
{
    return wordToDouble(at(addr));
}

void
Memory::clear()
{
    _pages.clear();
}

std::optional<Addr>
Memory::firstDifference(const Memory &other) const
{
    static const Page kZero{};
    std::size_t limit = std::min(_words, other._words);
    std::size_t pages = std::max(_pages.size(), other._pages.size());
    for (std::size_t index = 0; index < pages; ++index) {
        Addr base = static_cast<Addr>(index) * kPageWords;
        if (base >= limit)
            break;
        const Page *mine = page(base);
        const Page *theirs = other.page(base);
        if (mine == theirs)
            continue; // shared, or both missing
        const Page &a = mine ? *mine : kZero;
        const Page &b = theirs ? *theirs : kZero;
        if (a == b)
            continue;
        for (std::size_t w = 0; w < kPageWords; ++w)
            if (a[w] != b[w])
                return base + w < limit ? std::optional<Addr>(base + w)
                                        : std::nullopt;
    }
    return std::nullopt;
}

} // namespace ruu
