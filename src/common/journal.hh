/**
 * @file
 * The one append-only journal: the crash discipline shared by every
 * journal in the repo — the inject campaign journal
 * (inject/journal.hh), ruusimd's recovery journal and its campaign-
 * queue journal (serve/server.hh, serve/queue.hh). Each owner keeps
 * only its header fields and its record grammar; this module owns the
 * file.
 *
 * A journal is a flat-JSON line file (common/flat_json.hh):
 *
 *   line 1:  header   {"kind": K, "version": 1, <identity fields>}
 *   line 2+: records, one per line, in the owner's grammar
 *
 * Like the RUU, a journal keeps a precise prefix and discards what
 * never committed. Appends go through io::AppendFile, which fsyncs
 * every line, so a process killed mid-append leaves at most one torn
 * final line. read() forgives exactly that: an unparseable *final*
 * record line is dropped and the valid byte extent reported; a bad
 * line anywhere else is corruption, refused with its line number.
 *
 * open() is the one create-or-resume path. It truncates a torn tail
 * away before appending, and when the valid prefix does not end in a
 * newline (a record whose '\n' never landed) it writes one first, so
 * no fragment or unterminated record can fuse with the next append
 * into an unparseable interior line. That newline-isolation rule is
 * what keeps every resumed journal readable.
 */

#ifndef RUU_COMMON_JOURNAL_HH
#define RUU_COMMON_JOURNAL_HH

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hh"
#include "common/flat_json.hh"
#include "common/io_faults.hh"

namespace ruu::journal
{

/** A journal's identity line: {"kind": K, "version": 1, fields...}. */
struct Header
{
    explicit Header(std::string kind) : kind(std::move(kind)) {}

    std::string kind;
    /** Identity fields after kind and version, in line order. */
    std::vector<std::pair<std::string, flat::Value>> fields;

    Header &text(const std::string &key, const std::string &value);
    Header &number(const std::string &key, std::uint64_t value);

    /** The header's one-line form (no newline). */
    std::string line() const;
};

/**
 * Parses one record line and keeps the record. An error marks the line
 * bad: forgiven as a torn tail when it is the last line, else fatal.
 */
using RecordParser = std::function<Expected<bool>(const std::string &)>;

/** A RecordParser that appends each record @p parse yields to @p out. */
template <typename Record>
RecordParser
collectInto(std::vector<Record> &out,
            Expected<Record> (*parse)(const std::string &))
{
    return [&out, parse](const std::string &line) -> Expected<bool> {
        auto record = parse(line);
        if (!record)
            return record.error();
        out.push_back(record.take());
        return true;
    };
}

/** What read() reports beyond the records it handed to the parser. */
struct Extent
{
    flat::Object header;        //!< the stored header line's fields
    bool tornTail = false;      //!< an unparseable final line was dropped
    std::string tornLine;       //!< that line, when tornTail
    std::size_t validBytes = 0; //!< byte extent of the valid prefix
};

/**
 * Read @p path: the first non-empty line must be a version-1 header of
 * @p kind; every later non-empty line goes to @p parse in order.
 */
Expected<Extent> read(const std::string &path, const std::string &kind,
                      const RecordParser &parse);

/**
 * The one header check: @p stored has @p expected's kind, version 1,
 * and every one of its identity fields, equal. A field mismatch is
 * refused as "<mismatch>: <field> is <stored>, not <expected>".
 */
Expected<bool> checkHeader(const flat::Object &stored,
                           const Header &expected,
                           const std::string &mismatch);

/**
 * Create-or-resume @p path into @p file. An absent or empty file (a
 * crash between create and the header write) is created with
 * @p header's line. Any other one is replayed through @p parse,
 * its header checked against @p header (see checkHeader), a torn tail
 * truncated (io::truncateFile), and the file reopened for appending —
 * after a '\n' when the valid prefix lacks one. The shimmed I/O runs
 * in exactly that order: truncate, open-for-append, newline write.
 */
Expected<bool> open(io::AppendFile &file, const std::string &path,
                    const Header &header, const RecordParser &parse,
                    const std::string &mismatch);

} // namespace ruu::journal

#endif // RUU_COMMON_JOURNAL_HH
