/**
 * @file
 * Tests for the JSON export of runs and configurations (sim/json.hh).
 */

#include <gtest/gtest.h>

#include "kernels/lll.hh"
#include "sim/json.hh"
#include "sim/machine.hh"

namespace ruu
{
namespace
{

/** Crude structural validation: balanced braces, quoted keys. */
void
expectBalanced(const std::string &json)
{
    int depth = 0;
    bool in_string = false;
    for (std::size_t i = 0; i < json.size(); ++i) {
        char c = json[i];
        if (in_string) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                in_string = false;
            continue;
        }
        if (c == '"')
            in_string = true;
        else if (c == '{')
            ++depth;
        else if (c == '}')
            --depth;
        EXPECT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
    EXPECT_FALSE(in_string);
}

TEST(Json, ConfigSerializesEveryKnob)
{
    UarchConfig config;
    config.poolEntries = 42;
    config.bypass = BypassMode::LimitedA;
    config.memoryBanks = 8;
    config.bankBusyCycles = 8;
    config.storeLatency = 3;
    config.forwardLatency = 2;
    config.predictorTableBits = 6;
    config.predictedTakenPenalty = 2;
    config.mispredictPenalty = 7;
    std::string json = configToJson(config);
    expectBalanced(json);
    EXPECT_NE(json.find("\"pool_entries\": 42"), std::string::npos);
    EXPECT_NE(json.find("\"bypass\": \"limited_a\""), std::string::npos);
    EXPECT_NE(json.find("\"memory_banks\": 8"), std::string::npos);
    EXPECT_NE(json.find("\"fp_recip\": 14"), std::string::npos);
    EXPECT_NE(json.find("\"store_latency\": 3"), std::string::npos);

    // Every knob round-trips through the parser `--config` uses.
    auto parsed = parseUarchConfig(json);
    ASSERT_TRUE(parsed.ok()) << parsed.error().message();
    EXPECT_EQ(parsed->bankBusyCycles, 8u);
    EXPECT_EQ(parsed->storeLatency, 3u);
    EXPECT_EQ(parsed->forwardLatency, 2u);
    EXPECT_EQ(parsed->predictorTableBits, 6u);
    EXPECT_EQ(parsed->predictedTakenPenalty, 2u);
    EXPECT_EQ(parsed->mispredictPenalty, 7u);
    EXPECT_EQ(configToJson(*parsed), json);

    // The late knobs are written only off cray1, so cray1's text (in
    // every cache key and journal header) is the text it always was.
    EXPECT_EQ(configToJson(UarchConfig::cray1()).find("store_latency"),
              std::string::npos);
}

TEST(Json, RunSerializesResultsAndStats)
{
    const Workload &workload = livermoreWorkloads()[0];
    auto core = makeCore(CoreKind::Ruu, UarchConfig{});
    RunResult run = core->run(workload.trace());
    std::string json = runToJson(workload.name, core->name(), run,
                                 core->stats());
    expectBalanced(json);
    EXPECT_NE(json.find("\"workload\": \"lll01\""), std::string::npos);
    EXPECT_NE(json.find("\"core\": \"ruu\""), std::string::npos);
    EXPECT_NE(json.find("\"cycles\": "), std::string::npos);
    EXPECT_NE(json.find("\"commits\": "), std::string::npos);
    EXPECT_NE(json.find("\"ruu_occupancy\": {"), std::string::npos);
    EXPECT_NE(json.find("\"interrupted\": false"), std::string::npos);
}

TEST(Json, InterruptedRunIncludesFaultObject)
{
    const Workload &workload = livermoreWorkloads()[0];
    auto core = makeCore(CoreKind::Ruu, UarchConfig{});
    Trace faulty = workload.trace();
    SeqNum seq = faultableSeqs(faulty)[50];
    faulty.injectFault(seq, Fault::PageFault);
    RunResult run = core->run(faulty);
    std::string json = runToJson(workload.name, core->name(), run,
                                 core->stats());
    expectBalanced(json);
    EXPECT_NE(json.find("\"interrupted\": true"), std::string::npos);
    EXPECT_NE(json.find("\"kind\": \"page_fault\""), std::string::npos);
}

TEST(Json, EscapesSpecialCharacters)
{
    RunResult run;
    StatSet stats;
    std::string json = runToJson("we\"ird\nname", "core", run, stats);
    expectBalanced(json);
    EXPECT_NE(json.find("we\\\"ird\\nname"), std::string::npos);
}

} // namespace
} // namespace ruu
