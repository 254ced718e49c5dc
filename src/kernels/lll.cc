#include "kernels/lll.hh"

namespace ruu
{

const std::vector<Kernel> &
livermoreKernels()
{
    static const std::vector<Kernel> kernels = [] {
        std::vector<Kernel> all;
        all.push_back(makeLll01());
        all.push_back(makeLll02());
        all.push_back(makeLll03());
        all.push_back(makeLll04());
        all.push_back(makeLll05());
        all.push_back(makeLll06());
        all.push_back(makeLll07());
        all.push_back(makeLll08());
        all.push_back(makeLll09());
        all.push_back(makeLll10());
        all.push_back(makeLll11());
        all.push_back(makeLll12());
        all.push_back(makeLll13());
        all.push_back(makeLll14());
        return all;
    }();
    return kernels;
}

const std::vector<Workload> &
livermoreWorkloads()
{
    static const std::vector<Workload> workloads = [] {
        std::vector<Workload> all;
        for (const auto &kernel : livermoreKernels())
            all.push_back(makeWorkload(kernel.program));
        return all;
    }();
    return workloads;
}

const Workload *
findLivermoreWorkload(const std::string &name)
{
    for (const Workload &workload : livermoreWorkloads())
        if (workload.name == name)
            return &workload;
    return nullptr;
}

} // namespace ruu
