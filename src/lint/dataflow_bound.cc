#include "lint/dataflow_bound.hh"

#include <algorithm>
#include <array>
#include <unordered_map>
#include <variant>

#include "isa/reg.hh"

namespace ruu::lint
{

namespace
{

/** Finish time and critical-path bookkeeping of one producer. */
struct NodeInfo
{
    std::uint64_t finish = 0; //!< cycle the value is available
    std::size_t length = 0;   //!< instructions on the path ending here
    SeqNum seq = kNoSeqNum;   //!< producer (for reporting)
};

} // namespace

std::uint64_t
minRecordCost(const TraceRecord &record, const UarchConfig &config)
{
    const Instruction &inst = record.inst;
    if (isLoad(inst.op)) {
        return std::min<std::uint64_t>(config.latency(FuKind::Memory),
                                       config.forwardLatency);
    }
    if (isStore(inst.op) || isBranch(inst.op) ||
        isNopLike(inst.op) || inst.op == Opcode::HALT) {
        return 0;
    }
    return config.latency(inst.fu());
}

DataflowBound
dataflowBound(const Trace &trace, const UarchConfig &config)
{
    DataflowBound bound;
    std::array<NodeInfo, kNumArchRegs> regs{};
    std::unordered_map<Addr, NodeInfo> storedWords;
    NodeInfo best;

    const auto &records = trace.records();
    for (SeqNum seq = 0; seq < records.size(); ++seq) {
        const TraceRecord &rec = records[seq];
        const Instruction &inst = rec.inst;

        if (!isBranch(inst.op))
            ++bound.decodeFloor;

        // Earliest start: all register sources and, for a load, the
        // last store to the same word, must have produced their values.
        NodeInfo start;
        for (RegId src : inst.rawSrcs()) {
            if (src.valid() && regs[src.flat()].finish >= start.finish &&
                regs[src.flat()].seq != kNoSeqNum) {
                start = regs[src.flat()];
            }
        }
        if (isLoad(inst.op)) {
            auto it = storedWords.find(rec.memAddr);
            if (it != storedWords.end() &&
                it->second.finish >= start.finish) {
                start = it->second;
            }
        }

        NodeInfo node;
        node.finish = start.finish + minRecordCost(rec, config);
        node.length = start.length + 1;
        node.seq = seq;

        if (inst.dst.valid())
            regs[inst.dst.flat()] = node;
        if (isStore(inst.op))
            storedWords[rec.memAddr] = node;
        if (node.finish > best.finish ||
            (node.finish == best.finish && node.length > best.length)) {
            best = node;
        }
    }

    bound.critPathCycles = best.finish;
    bound.critTail = best.seq;
    bound.critLength = best.length;
    // Even a dependence-free instruction occupies the decode stage for
    // a cycle, and the last producer's result lands one cycle after the
    // machine's first decode cycle at the very earliest.
    bound.cycles = std::max<std::uint64_t>(bound.critPathCycles + 1,
                                           bound.decodeFloor);
    return bound;
}

namespace
{

/** Memo key: the config fields minCost reads. */
struct BoundKey
{
    std::array<unsigned, kNumFuKinds> fuLatency;
    unsigned forwardLatency;

    auto operator<=>(const BoundKey &) const = default;
};

} // namespace

std::uint64_t
boundTraceFingerprint(const Trace &trace)
{
    return *trace.memo()->get<std::uint64_t>(
        TraceArtifact::ContentHash, std::monostate{}, [&] {
            WordHash hash;
            hash.mix(trace.programPtr() ? trace.program().contentHash()
                                        : 0);
            hash.mix(trace.size());
            for (const TraceRecord &rec : trace.records()) {
                hashInstruction(hash, rec.inst);
                hash.mix(rec.staticIndex);
                hash.mix(rec.pc);
                hash.mix(rec.memAddr);
                hash.mix(rec.result);
                hash.mix(rec.storeValue);
                hash.mix(rec.taken ? 1 : 0);
            }
            return hash.value;
        });
}

const DataflowBound &
cachedDataflowBound(const Trace &trace, const UarchConfig &config)
{
    return *trace.memo()->get<DataflowBound>(
        TraceArtifact::DataflowBound,
        BoundKey{config.fuLatency, config.forwardLatency},
        [&] { return dataflowBound(trace, config); });
}

BoundCacheStats
boundCacheStats()
{
    return TraceMemo::stats(TraceArtifact::DataflowBound);
}

} // namespace ruu::lint
