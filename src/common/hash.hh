/**
 * @file
 * FNV-1a over 64-bit words: the content hash of programs and traces
 * (Program::contentHash, lint::boundTraceFingerprint).
 */

#ifndef RUU_COMMON_HASH_HH
#define RUU_COMMON_HASH_HH

#include <cstdint>

namespace ruu
{

/** A running FNV-1a hash that folds in one 64-bit word at a time. */
struct WordHash
{
    std::uint64_t value = 0xcbf29ce484222325ull;

    void mix(std::uint64_t word) { value = (value ^ word) * 0x100000001b3ull; }
};

} // namespace ruu

#endif // RUU_COMMON_HASH_HH
