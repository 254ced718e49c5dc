#include "common/journal.hh"

#include <optional>

#include <sys/stat.h>

#include "common/file.hh"

namespace ruu::journal
{

namespace
{

std::string
show(const flat::Value &value)
{
    return value.isString ? "'" + value.text + "'"
                          : std::to_string(value.number);
}

bool
same(const flat::Value &a, const flat::Value &b)
{
    return a.isString == b.isString &&
           (a.isString ? a.text == b.text : a.number == b.number);
}

std::string
where(const std::string &path, std::size_t lineNo)
{
    return "'" + path + "' line " + std::to_string(lineNo);
}

/** read() over text already in memory (open() needs the bytes too). */
Expected<Extent>
replay(const std::string &text, const std::string &path,
       const std::string &kind, const RecordParser &parse)
{
    Extent extent;
    extent.validBytes = text.size();
    bool sawHeader = false;
    // A record line that failed to parse. It is forgiven only if no
    // non-empty line follows it; the next one makes it corruption.
    struct Bad
    {
        std::size_t number, start;
        std::string text;
        Error error;
    };
    std::optional<Bad> bad;
    std::size_t lineNo = 0, pos = 0;
    while (pos < text.size()) {
        std::size_t eol = text.find('\n', pos);
        std::size_t end = eol == std::string::npos ? text.size() : eol;
        std::string line = text.substr(pos, end - pos);
        std::size_t start = pos;
        pos = eol == std::string::npos ? text.size() : eol + 1;
        ++lineNo;
        if (line.empty())
            continue;
        if (bad)
            return Error(bad->error).context(where(path, bad->number));
        if (!sawHeader) {
            auto header = flat::parseObject(line);
            if (!header)
                return Error(header.error())
                    .context("journal header")
                    .context(where(path, lineNo));
            if (auto valid = checkHeader(*header, Header(kind), "");
                !valid)
                return Error(valid.error()).context(where(path, lineNo));
            extent.header = header.take();
            sawHeader = true;
            continue;
        }
        if (auto parsed = parse(line); !parsed)
            bad = Bad{lineNo, start, std::move(line), parsed.error()};
    }
    if (!sawHeader)
        return Error("journal '" + path + "' has no header line");
    if (bad) {
        // The signature of a writer killed mid-append: drop it.
        extent.tornTail = true;
        extent.tornLine = std::move(bad->text);
        extent.validBytes = bad->start;
    }
    return extent;
}

} // namespace

Header &
Header::text(const std::string &key, const std::string &value)
{
    fields.push_back({key, flat::Value{true, value, 0}});
    return *this;
}

Header &
Header::number(const std::string &key, std::uint64_t value)
{
    fields.push_back({key, flat::Value{false, std::to_string(value), value}});
    return *this;
}

std::string
Header::line() const
{
    std::string out = "{\"kind\": \"" + flat::escape(kind) +
                      "\", \"version\": 1";
    for (const auto &[key, value] : fields)
        out += ", \"" + key + "\": " +
               (value.isString ? "\"" + flat::escape(value.text) + "\""
                               : std::to_string(value.number));
    return out + "}";
}

Expected<Extent>
read(const std::string &path, const std::string &kind,
     const RecordParser &parse)
{
    auto text = readTextFile(path);
    if (!text)
        return text.error();
    return replay(*text, path, kind, parse);
}

Expected<bool>
checkHeader(const flat::Object &stored, const Header &expected,
            const std::string &mismatch)
{
    auto kind = flat::getString(stored, "kind");
    if (!kind)
        return Error(kind.error()).context("journal header");
    if (*kind != expected.kind)
        return Error("journal header: kind '" + *kind + "' is not '" +
                     expected.kind + "'");
    auto version = flat::getNumber(stored, "version");
    if (!version)
        return Error(version.error()).context("journal header");
    if (*version != 1)
        return Error("journal header: unsupported version " +
                     std::to_string(*version));
    for (const auto &[key, value] : expected.fields) {
        auto it = stored.find(key);
        if (it == stored.end())
            return Error(mismatch + ": " + key + " is missing, not " +
                         show(value));
        if (!same(it->second, value))
            return Error(mismatch + ": " + key + " is " +
                         show(it->second) + ", not " + show(value));
    }
    return true;
}

Expected<bool>
open(io::AppendFile &file, const std::string &path, const Header &header,
     const RecordParser &parse, const std::string &mismatch)
{
    // An empty file is a crash between create and the header write:
    // it holds no durable record, so it is created afresh.
    struct stat st;
    if (::stat(path.c_str(), &st) != 0 || st.st_size == 0) {
        if (auto created = file.create(path); !created)
            return created.error();
        return file.appendLine(header.line());
    }
    auto text = readTextFile(path);
    if (!text)
        return text.error();
    auto extent = replay(*text, path, header.kind, parse);
    if (!extent)
        return extent.error();
    if (auto pinned = checkHeader(extent->header, header, mismatch);
        !pinned)
        return pinned.error();
    if (extent->tornTail)
        if (auto cut = io::truncateFile(path, extent->validBytes); !cut)
            return Error(cut.error()).context("cannot drop the torn tail");
    if (auto opened = file.append(path); !opened)
        return opened.error();
    // validBytes > 0: the header line is always valid.
    if ((*text)[extent->validBytes - 1] != '\n')
        return file.appendText("\n");
    return true;
}

} // namespace ruu::journal
