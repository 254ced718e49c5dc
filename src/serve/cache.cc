#include "serve/cache.hh"

#include <cstdio>
#include <sstream>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/file.hh"
#include "common/flat_json.hh"
#include "common/io_faults.hh"

namespace ruu::serve
{

namespace
{

const char *const kCacheKind = "ruu-serve-cache";

} // namespace

std::uint64_t
fnv1a(const std::string &text, std::uint64_t h)
{
    for (unsigned char c : text)
        h = (h ^ c) * 0x100000001b3ull;
    return h;
}

std::uint64_t
cacheKey(const CacheKeyInputs &inputs)
{
    // Mix string lengths in alongside the strings so no concatenation
    // of two fields can collide with a different split of the same
    // bytes.
    std::uint64_t h = fnv1a(inputs.displayName);
    h = fnv1a(std::to_string(inputs.displayName.size()), h);
    h = fnv1a(std::to_string(inputs.traceFingerprint), h);
    h = fnv1a(std::to_string(inputs.traceLength), h);
    h = fnv1a(inputs.configJson, h);
    h = fnv1a(std::to_string(inputs.configJson.size()), h);
    h = fnv1a(inputs.core, h);
    h = fnv1a(std::to_string(inputs.period), h);
    if (inputs.ibuffers)
        h = fnv1a("ibuffers", h);
    h = fnv1a(std::to_string(inputs.engineVersion), h);
    return h;
}

std::string
keyToHex(std::uint64_t key)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(key));
    return buf;
}

Expected<std::uint64_t>
getHexKey(const flat::Object &object, const std::string &key)
{
    auto text = flat::getString(object, key);
    if (!text)
        return text.error();
    if (text->size() != 16)
        return Error("key '" + key + "' is not a 16-hex-digit value");
    std::uint64_t value = 0;
    for (char c : *text) {
        value <<= 4;
        if (c >= '0' && c <= '9')
            value |= static_cast<std::uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            value |= static_cast<std::uint64_t>(c - 'a' + 10);
        else
            return Error("key '" + key + "' has a non-hex digit");
    }
    return value;
}

std::string
ResultCache::entryPath(std::uint64_t key) const
{
    return _dir + "/" + keyToHex(key) + ".entry";
}

std::optional<std::string>
ResultCache::load(std::uint64_t key)
{
    if (!enabled())
        return std::nullopt;
    std::string path = entryPath(key);
    auto text = readTextFile(path);
    if (!text) {
        ++_stats.misses;
        return std::nullopt;
    }

    // Validate header + payload; any disagreement means the entry is
    // not trustworthy — delete it and recompute rather than serve it.
    auto drop = [&]() -> std::optional<std::string> {
        ::unlink(path.c_str());
        ++_stats.dropped;
        ++_stats.misses;
        return std::nullopt;
    };
    std::size_t eol = text->find('\n');
    if (eol == std::string::npos)
        return drop();
    auto header = flat::parseObject(text->substr(0, eol));
    if (!header)
        return drop();
    auto kind = flat::optString(*header, "kind");
    auto version = flat::optNumber(*header, "version");
    auto keyHex = flat::optString(*header, "key");
    auto checksum = flat::optString(*header, "checksum");
    auto bytes = flat::optNumber(*header, "bytes");
    if (!kind || *kind != kCacheKind || !version || *version != 1 ||
        !keyHex || *keyHex != keyToHex(key) || !checksum || !bytes)
        return drop();
    std::string payload = text->substr(eol + 1);
    if (!payload.empty() && payload.back() == '\n')
        payload.pop_back();
    if (payload.size() != *bytes ||
        keyToHex(fnv1a(payload)) != *checksum)
        return drop();
    ++_stats.hits;
    return payload;
}

Expected<bool>
ResultCache::store(std::uint64_t key, const std::string &payload)
{
    if (!enabled())
        return true;
    io::ensureDir(_dir);
    std::string path = entryPath(key);
    std::ostringstream entry;
    entry << "{\"kind\": \"" << kCacheKind << "\", \"version\": 1"
          << ", \"key\": \"" << keyToHex(key) << "\""
          << ", \"checksum\": \"" << keyToHex(fnv1a(payload)) << "\""
          << ", \"bytes\": " << payload.size() << "}\n"
          << payload << "\n";
    // The checked atomic-store idiom: tmp + write + fsync + rename +
    // directory fsync. A crash (or injected fault) mid-store leaves
    // either the old entry or none under the key — never a torn one —
    // and a reported success is durable, which is what lets journal
    // records vouch for entries across a power cut.
    if (auto stored = io::atomicWriteFile(path, entry.str()); !stored)
        return Error(stored.error()).context("cache entry");
    ++_stats.stores;
    return true;
}

bool
ResultCache::verifyAgainst(std::uint64_t key, std::uint64_t checksum,
                           std::uint64_t bytes)
{
    if (!enabled())
        return false;
    Stats before = _stats;
    auto payload = load(key);
    // A verification probe is bookkeeping, not traffic: restore the
    // hit/miss counters, keep only the drop count.
    std::uint64_t dropped = _stats.dropped;
    _stats = before;
    _stats.dropped = dropped;
    if (!payload)
        return false;
    if (payload->size() != bytes || fnv1a(*payload) != checksum) {
        ::unlink(entryPath(key).c_str());
        ++_stats.dropped;
        return false;
    }
    return true;
}

std::uint64_t
ResultCache::entriesOnDisk() const
{
    if (!enabled())
        return 0;
    DIR *dir = ::opendir(_dir.c_str());
    if (!dir)
        return 0;
    std::uint64_t count = 0;
    while (struct dirent *entry = ::readdir(dir)) {
        std::string name = entry->d_name;
        if (name.size() > 6 &&
            name.compare(name.size() - 6, 6, ".entry") == 0)
            ++count;
    }
    ::closedir(dir);
    return count;
}

} // namespace ruu::serve
