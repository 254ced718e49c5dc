/**
 * @file
 * The flat one-line JSON dialect shared by every durable line format
 * in the repo: the journals of common/journal.hh (inject campaign,
 * serve recovery, campaign queue), the serve protocol
 * (serve/protocol.hh) and the serve result cache. One object per
 * line, values only strings and unsigned integers, so readers need no
 * JSON dependency and a torn line is detectable by a failed parse.
 *
 * Hoisted out of inject/journal.cc when the serve subsystem arrived;
 * the grammar is pinned by the journal format and must not grow
 * richer types.
 */

#ifndef RUU_COMMON_FLAT_JSON_HH
#define RUU_COMMON_FLAT_JSON_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hh"

namespace ruu::flat
{

/** One parsed value of the flat object grammar. */
struct Value
{
    bool isString = false;
    std::string text;         //!< unescaped string / number spelling
    std::uint64_t number = 0; //!< valid when !isString
};

using Object = std::map<std::string, Value>;

/**
 * Parse one line holding a single flat object. Errors carry the
 * column, so a torn or hand-edited line points at the damage.
 */
Expected<Object> parseObject(const std::string &text);

/** Escape @p text for embedding in a flat-JSON string literal. */
std::string escape(const std::string &text);

/**
 * The comma-joined list spelling that string values use for lists
 * ("ruu,history"). Splitting drops empty items, so "" is the empty
 * list.
 */
std::string joinCommas(const std::vector<std::string> &items);
std::vector<std::string> splitCommas(const std::string &joined);

/** The same spelling for unsigned integers ("100,250"). */
std::string joinNumbers(const std::vector<std::uint64_t> &items);
Expected<std::vector<std::uint64_t>> splitNumbers(const std::string &joined);

/** The value of @p key, which must be a number. */
Expected<std::uint64_t> getNumber(const Object &object,
                                  const std::string &key);

/** The value of @p key, which must be a string. */
Expected<std::string> getString(const Object &object,
                                const std::string &key);

/** The number at @p key, or std::nullopt when absent. */
std::optional<std::uint64_t> optNumber(const Object &object,
                                       const std::string &key);

/** The string at @p key, or std::nullopt when absent. */
std::optional<std::string> optString(const Object &object,
                                     const std::string &key);

} // namespace ruu::flat

#endif // RUU_COMMON_FLAT_JSON_HH
