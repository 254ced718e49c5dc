#include "trace/trace.hh"

#include "common/logging.hh"

namespace ruu
{

std::array<TraceMemo::Counters, kNumTraceArtifacts> TraceMemo::_counters;

MemoStats
TraceMemo::stats(TraceArtifact kind)
{
    const Counters &counters = _counters[static_cast<std::size_t>(kind)];
    MemoStats stats;
    stats.lookups = counters.lookups.load(std::memory_order_relaxed);
    stats.hits = counters.hits.load(std::memory_order_relaxed);
    return stats;
}

const TraceRecord &
Trace::at(SeqNum seq) const
{
    ruu_assert(seq < _records.size(), "trace index %llu out of range",
               static_cast<unsigned long long>(seq));
    return _records[seq];
}

void
Trace::injectFault(SeqNum seq, Fault fault)
{
    ruu_assert(seq < _records.size(), "fault index %llu out of range",
               static_cast<unsigned long long>(seq));
    _records[seq].fault = fault;
}

void
Trace::clearFaults()
{
    for (auto &record : _records)
        record.fault = Fault::None;
}

std::size_t
Trace::countCondBranches() const
{
    std::size_t n = 0;
    for (const auto &record : _records)
        if (isCondBranch(record.inst.op))
            ++n;
    return n;
}

std::size_t
Trace::countMemOps() const
{
    std::size_t n = 0;
    for (const auto &record : _records)
        if (isMemory(record.inst.op))
            ++n;
    return n;
}

} // namespace ruu
