#include "inject/journal.hh"

#include <sstream>

#include "common/flat_json.hh"

namespace ruu::inject
{

using flat::escape;
using flat::getNumber;
using flat::getString;

const char *
outcomeName(Outcome outcome)
{
    switch (outcome) {
      case Outcome::Masked: return "masked";
      case Outcome::DetectedInvariant: return "detected-invariant";
      case Outcome::DetectedOracle: return "detected-oracle";
      case Outcome::Trapped: return "trapped";
      case Outcome::Hung: return "hung";
      case Outcome::Sdc: return "sdc";
      case Outcome::Unclassified: return "unclassified";
    }
    return "unclassified";
}

Expected<Outcome>
outcomeFromName(const std::string &name)
{
    for (Outcome o : {Outcome::Masked, Outcome::DetectedInvariant,
                      Outcome::DetectedOracle, Outcome::Trapped,
                      Outcome::Hung, Outcome::Sdc, Outcome::Unclassified})
        if (name == outcomeName(o))
            return o;
    return Error("unknown outcome '" + name + "'");
}

std::string
trialToLine(const TrialResult &trial)
{
    std::ostringstream os;
    os << "{\"index\": " << trial.point.index
       << ", \"seed\": " << trial.point.seed
       << ", \"core\": \"" << escape(trial.point.core) << "\""
       << ", \"workload\": \"" << escape(trial.point.workload)
       << "\""
       << ", \"cycle\": " << trial.point.cycle
       << ", \"bit\": " << trial.point.bit
       << ", \"port\": \"" << escape(trial.port) << "\""
       << ", \"before\": " << trial.before
       << ", \"after\": " << trial.after
       << ", \"outcome\": \"" << outcomeName(trial.outcome) << "\""
       << ", \"cycles\": " << trial.cycles
       << ", \"retries\": " << trial.retries
       << ", \"detail\": \"" << escape(trial.detail) << "\"}";
    return os.str();
}

Expected<TrialResult>
parseTrialLine(const std::string &line)
{
    auto object = flat::parseObject(line);
    if (!object)
        return object.error();
    TrialResult trial;
    auto index = getNumber(*object, "index");
    auto seed = getNumber(*object, "seed");
    auto core = getString(*object, "core");
    auto workload = getString(*object, "workload");
    auto cycle = getNumber(*object, "cycle");
    auto bit = getNumber(*object, "bit");
    auto port = getString(*object, "port");
    auto before = getNumber(*object, "before");
    auto after = getNumber(*object, "after");
    auto outcome = getString(*object, "outcome");
    auto cycles = getNumber(*object, "cycles");
    auto retries = getNumber(*object, "retries");
    auto detail = getString(*object, "detail");
    for (const Error *e :
         {index.errorOrNull(), seed.errorOrNull(), core.errorOrNull(),
          workload.errorOrNull(), cycle.errorOrNull(), bit.errorOrNull(),
          port.errorOrNull(), before.errorOrNull(), after.errorOrNull(),
          outcome.errorOrNull(), cycles.errorOrNull(),
          retries.errorOrNull(), detail.errorOrNull()})
        if (e)
            return Error(e->message());
    auto parsed = outcomeFromName(*outcome);
    if (!parsed)
        return parsed.error();
    trial.point.index = *index;
    trial.point.seed = *seed;
    trial.point.core = *core;
    trial.point.workload = *workload;
    trial.point.cycle = *cycle;
    trial.point.bit = *bit;
    trial.port = *port;
    trial.before = *before;
    trial.after = *after;
    trial.outcome = *parsed;
    trial.cycles = *cycles;
    trial.retries = *retries;
    trial.detail = *detail;
    return trial;
}

} // namespace ruu::inject
