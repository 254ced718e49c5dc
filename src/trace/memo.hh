/**
 * @file
 * Per-trace memo of derived data.
 *
 * Several layers derive trace-invariant artifacts from a Trace — the
 * compiled stream (engine/stream.hh), the dataflow, resource and WCIRT
 * bounds (lint/), and the trace's content hash. Each is deterministic
 * in the trace plus a small configuration key, so it is computed once
 * per trace and kept here, on the trace itself: copies of a trace share
 * its memo, and the memo dies with the last of them. Nothing is keyed
 * on a trace's address, so a freed trace's memory reused by a new one
 * can never return a stale artifact.
 *
 * The memo holds one map per artifact kind; the kind fixes the key and
 * value types, and the owning layer's key struct names every
 * configuration field its artifact reads. Lookup/hit counters are
 * process-wide per kind (tests assert on deltas).
 */

#ifndef RUU_TRACE_MEMO_HH
#define RUU_TRACE_MEMO_HH

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>

namespace ruu
{

/** What a TraceMemo slot holds; one map per kind. */
enum class TraceArtifact : unsigned
{
    ContentHash,   //!< lint::boundTraceFingerprint
    Stream,        //!< engine::cachedStream
    DataflowBound, //!< lint::cachedDataflowBound
    ResourceBound, //!< lint::cachedResourceBound
    WcirtBound,    //!< lint::cachedWcirtBound
};

inline constexpr std::size_t kNumTraceArtifacts = 5;

/** Hit/lookup counters of one artifact kind since process start. */
struct MemoStats
{
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
};

/** The derived-data memo a Trace and its copies share. */
class TraceMemo
{
  public:
    /**
     * The @p kind artifact for @p key: the stored value on a hit, else
     * compute() — run outside the lock, since artifacts are
     * deterministic and a racing duplicate is wasted work, not wrong
     * work — stored and returned. The value lives as long as the memo.
     * Every call for one kind must use the same Key and Value types.
     */
    template <class Value, class Key, class Compute>
    std::shared_ptr<const Value>
    get(TraceArtifact kind, const Key &key, Compute &&compute)
    {
        using Map = std::map<Key, std::shared_ptr<const Value>>;
        auto &slot = _maps[static_cast<std::size_t>(kind)];
        auto &counters = _counters[static_cast<std::size_t>(kind)];
        counters.lookups.fetch_add(1, std::memory_order_relaxed);
        {
            std::lock_guard<std::mutex> lock(_mutex);
            if (slot) {
                const Map &map = *static_cast<const Map *>(slot.get());
                auto it = map.find(key);
                if (it != map.end()) {
                    counters.hits.fetch_add(1, std::memory_order_relaxed);
                    return it->second;
                }
            }
        }
        auto value = std::make_shared<const Value>(compute());
        std::lock_guard<std::mutex> lock(_mutex);
        if (!slot)
            slot = std::make_shared<Map>();
        _used.store(true, std::memory_order_relaxed);
        return static_cast<Map *>(slot.get())
            ->emplace(key, std::move(value))
            .first->second;
    }

    /** True once any artifact has been stored. */
    bool used() const { return _used.load(std::memory_order_relaxed); }

    /** Counters of @p kind across every memo in the process. */
    static MemoStats stats(TraceArtifact kind);

  private:
    struct Counters
    {
        std::atomic<std::uint64_t> lookups{0};
        std::atomic<std::uint64_t> hits{0};
    };

    std::mutex _mutex;
    std::array<std::shared_ptr<void>, kNumTraceArtifacts> _maps;
    std::atomic<bool> _used{false};

    static std::array<Counters, kNumTraceArtifacts> _counters;
};

} // namespace ruu

#endif // RUU_TRACE_MEMO_HH
