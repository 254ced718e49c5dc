#include "kernels/lll.hh"

#include <array>
#include <mutex>
#include <string_view>

namespace ruu
{

namespace
{

constexpr std::size_t kNumKernels = 14;

/** Each kernel's name and constructor, so a lookup builds only its match. */
struct Entry
{
    std::string_view name;
    Kernel (*make)();
};

constexpr std::array<Entry, kNumKernels> kEntries = {{
    {"lll01", makeLll01}, {"lll02", makeLll02}, {"lll03", makeLll03},
    {"lll04", makeLll04}, {"lll05", makeLll05}, {"lll06", makeLll06},
    {"lll07", makeLll07}, {"lll08", makeLll08}, {"lll09", makeLll09},
    {"lll10", makeLll10}, {"lll11", makeLll11}, {"lll12", makeLll12},
    {"lll13", makeLll13}, {"lll14", makeLll14},
}};

/**
 * The per-process kernel and workload store: one slot per kernel,
 * each built at most once, on first use, by whichever thread asks
 * first. The vectors are sized up front and never resized, so a slot
 * is safe to read once its flag has fired while other slots are still
 * being built.
 */
struct Store
{
    std::vector<Kernel> kernels = std::vector<Kernel>(kNumKernels);
    std::vector<Workload> workloads = std::vector<Workload>(kNumKernels);
    std::array<std::once_flag, kNumKernels> kernelBuilt;
    std::array<std::once_flag, kNumKernels> workloadBuilt;
};

Store &
store()
{
    static Store instance;
    return instance;
}

const Kernel &
kernelAt(std::size_t slot)
{
    Store &s = store();
    std::call_once(s.kernelBuilt[slot],
                   [&] { s.kernels[slot] = kEntries[slot].make(); });
    return s.kernels[slot];
}

const Workload &
workloadAt(std::size_t slot)
{
    Store &s = store();
    std::call_once(s.workloadBuilt[slot], [&] {
        s.workloads[slot] = makeWorkload(kernelAt(slot).program);
    });
    return s.workloads[slot];
}

} // namespace

std::vector<std::string>
livermoreKernelNames()
{
    std::vector<std::string> names;
    for (const Entry &entry : kEntries)
        names.emplace_back(entry.name);
    return names;
}

const std::vector<Kernel> &
livermoreKernels()
{
    for (std::size_t slot = 0; slot < kNumKernels; ++slot)
        kernelAt(slot);
    return store().kernels;
}

const std::vector<Workload> &
livermoreWorkloads()
{
    for (std::size_t slot = 0; slot < kNumKernels; ++slot)
        workloadAt(slot);
    return store().workloads;
}

const Kernel *
findLivermoreKernel(const std::string &name)
{
    for (std::size_t slot = 0; slot < kNumKernels; ++slot)
        if (kEntries[slot].name == name)
            return &kernelAt(slot);
    return nullptr;
}

const Workload *
findLivermoreWorkload(const std::string &name)
{
    for (std::size_t slot = 0; slot < kNumKernels; ++slot)
        if (kEntries[slot].name == name)
            return &workloadAt(slot);
    return nullptr;
}

} // namespace ruu
