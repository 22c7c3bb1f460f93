/**
 * @file
 * Integration tests for the serving engine: request lifecycle, metric
 * sanity, optimization toggles, and the performance orderings the
 * paper's evaluation rests on.
 */

#include <gtest/gtest.h>

#include "core/engine.h"
#include "kv/kv_session.h"
#include "util/units.h"

namespace fasttts
{
namespace
{

RequestResult
run(const FastTtsConfig &config, const ModelConfig &models, int n,
    const std::string &dataset = "AIME", const std::string &algo_name
    = "beam_search", int problem_index = 0)
{
    const DatasetProfile profile = *datasetByName(dataset);
    auto algo = *makeAlgorithm(algo_name, n, 4);
    FastTtsEngine engine(config, models, rtx4090(), profile, *algo);
    const auto problems = makeProblems(profile, problem_index + 1, 2026);
    return engine.runRequest(problems[static_cast<size_t>(problem_index)]);
}

TEST(Engine, RequestCompletesWithNSolutions)
{
    const auto r =
        run(FastTtsConfig::fastTts(), config1_5Bplus1_5B(), 16);
    EXPECT_EQ(r.completedBeams, 16);
    EXPECT_EQ(r.solutions.size(), 16u);
    EXPECT_GT(r.completionTime, 0);
    EXPECT_GT(r.verifiedTokens, 0);
    EXPECT_GT(r.preciseGoodput(), 0);
}

TEST(Engine, BaselineRequestCompletesToo)
{
    const auto r =
        run(FastTtsConfig::baseline(), config1_5Bplus1_5B(), 16);
    EXPECT_EQ(r.completedBeams, 16);
    EXPECT_EQ(r.speculativeTokens, 0);
    EXPECT_EQ(r.wastedSpecTokens, 0);
}

TEST(Engine, TimeDecomposesIntoComponents)
{
    const auto r =
        run(FastTtsConfig::fastTts(), config1_5Bplus1_5B(), 32);
    EXPECT_NEAR(r.completionTime,
                r.generatorTime + r.verifierTime + r.transferTime, 1e-6);
    EXPECT_GT(r.generatorTime, 0);
    EXPECT_GT(r.verifierTime, 0);
}

TEST(Engine, SolutionsHaveValidFields)
{
    const auto r =
        run(FastTtsConfig::fastTts(), config1_5Bplus1_5B(), 8);
    for (const auto &s : r.solutions) {
        EXPECT_GE(s.answer, 0);
        EXPECT_GT(s.score, 0);
        EXPECT_LT(s.score, 1);
        EXPECT_GT(s.tokens, 0);
        EXPECT_GT(s.finishTime, 0);
        EXPECT_LE(s.finishTime, r.completionTime);
    }
}

TEST(Engine, SpeculationGeneratesExtraTokens)
{
    const auto r =
        run(FastTtsConfig::fastTts(), config1_5Bplus1_5B(), 16);
    EXPECT_GT(r.speculativeTokens, 0);
    EXPECT_GE(r.generatedTokens,
              r.speculativeTokens); // Spec is a subset of generated.
    EXPECT_LE(r.wastedSpecTokens, r.speculativeTokens);
}

TEST(Engine, FastTtsNotSlowerThanBaseline)
{
    for (const auto &models : allModelConfigs()) {
        for (int n : {8, 32}) {
            const auto base =
                run(FastTtsConfig::baseline(), models, n);
            const auto fast =
                run(FastTtsConfig::fastTts(), models, n);
            EXPECT_LE(fast.completionTime, base.completionTime * 1.05)
                << models.label << " n=" << n;
        }
    }
}

TEST(Engine, DeterministicAcrossRuns)
{
    const auto a =
        run(FastTtsConfig::fastTts(), config1_5Bplus1_5B(), 16);
    const auto b =
        run(FastTtsConfig::fastTts(), config1_5Bplus1_5B(), 16);
    EXPECT_DOUBLE_EQ(a.completionTime, b.completionTime);
    ASSERT_EQ(a.solutions.size(), b.solutions.size());
    for (size_t i = 0; i < a.solutions.size(); ++i) {
        EXPECT_EQ(a.solutions[i].answer, b.solutions[i].answer);
        EXPECT_DOUBLE_EQ(a.solutions[i].score, b.solutions[i].score);
    }
}

TEST(Engine, IterationStatsPopulated)
{
    const DatasetProfile profile = aime2024();
    auto algo = makeBeamSearch(16, 4);
    FastTtsEngine engine(FastTtsConfig::fastTts(), config1_5Bplus1_5B(),
                         rtx4090(), profile, *algo);
    const auto problems = makeProblems(profile, 1, 2026);
    (void)engine.runRequest(problems[0]);
    const auto &stats = engine.iterationStats();
    ASSERT_FALSE(stats.empty());
    for (const auto &s : stats) {
        EXPECT_GT(s.activeBeams, 0);
        EXPECT_GE(s.decodeBatch, 1);
        EXPECT_GE(s.prefillBatch, 1);
        EXPECT_GE(s.unsharedTokens, s.residentTokens * 0);
    }
    // Iteration clocks are monotone.
    for (size_t i = 1; i < stats.size(); ++i)
        EXPECT_GE(stats[i].clock, stats[i - 1].clock);
}

TEST(Engine, PrefixSharingReducesFootprint)
{
    // Fig. 5: with prefix sharing, resident tokens are far below the
    // sum of per-beam path lengths once branching has occurred.
    const DatasetProfile profile = aime2024();
    auto algo = makeBeamSearch(64, 4);
    FastTtsEngine engine(FastTtsConfig::fastTts(), config1_5Bplus1_5B(),
                         rtx4090(), profile, *algo);
    const auto problems = makeProblems(profile, 1, 2026);
    (void)engine.runRequest(problems[0]);
    bool saw_sharing = false;
    for (const auto &s : engine.iterationStats()) {
        ASSERT_GE(s.unsharedTokens, s.uniqueTokens);
        if (s.iteration >= 2 && s.unsharedTokens > 0)
            saw_sharing |= s.unsharedTokens > 2 * s.uniqueTokens;
    }
    EXPECT_TRUE(saw_sharing);
}

TEST(Engine, UtilizationTraceRecordedWhenEnabled)
{
    FastTtsConfig config = FastTtsConfig::fastTts();
    config.recordTrace = true;
    const DatasetProfile profile = aime2024();
    auto algo = makeBeamSearch(8, 4);
    FastTtsEngine engine(config, config1_5Bplus1_5B(), rtx4090(),
                         profile, *algo);
    const auto problems = makeProblems(profile, 1, 2026);
    (void)engine.runRequest(problems[0]);
    EXPECT_FALSE(engine.clock().segments().empty());
    bool saw_generation = false;
    bool saw_verification = false;
    for (const auto &seg : engine.clock().segments()) {
        saw_generation |= seg.phase == Phase::Generation;
        saw_verification |= seg.phase == Phase::Verification;
        EXPECT_GE(seg.computeUtil, 0.0);
        EXPECT_LE(seg.computeUtil, 1.0);
    }
    EXPECT_TRUE(saw_generation);
    EXPECT_TRUE(saw_verification);
}

TEST(Engine, TraceDisabledByDefault)
{
    const DatasetProfile profile = aime2024();
    auto algo = makeBeamSearch(8, 4);
    FastTtsEngine engine(FastTtsConfig::fastTts(), config1_5Bplus1_5B(),
                         rtx4090(), profile, *algo);
    const auto problems = makeProblems(profile, 1, 2026);
    (void)engine.runRequest(problems[0]);
    EXPECT_TRUE(engine.clock().segments().empty());
    EXPECT_GT(engine.clock().now(), 0);
}

TEST(Engine, StepTokenSamplesRecorded)
{
    const DatasetProfile profile = aime2024();
    auto algo = makeBeamSearch(16, 4);
    FastTtsEngine engine(FastTtsConfig::baseline(), config1_5Bplus1_5B(),
                         rtx4090(), profile, *algo);
    const auto problems = makeProblems(profile, 1, 2026);
    (void)engine.runRequest(problems[0]);
    const auto &samples = engine.stepTokenSamples();
    ASSERT_FALSE(samples.empty());
    EXPECT_FALSE(samples[0].empty());
    for (int tokens : samples[0]) {
        EXPECT_GE(tokens, profile.minStepTokens);
        EXPECT_LE(tokens, profile.maxStepTokens);
    }
}

TEST(Engine, NoForcedTerminationsAtModerateScale)
{
    for (int n : {8, 64}) {
        const DatasetProfile profile = aime2024();
        auto algo = makeBeamSearch(n, 4);
        FastTtsEngine engine(FastTtsConfig::fastTts(),
                             config1_5Bplus1_5B(), rtx4090(), profile,
                             *algo);
        const auto problems = makeProblems(profile, 1, 2026);
        (void)engine.runRequest(problems[0]);
        EXPECT_EQ(engine.forcedTerminations(), 0) << "n=" << n;
    }
}

TEST(Engine, OffloadConfigRunsOnTinyDevice)
{
    FastTtsConfig config = FastTtsConfig::fastTts();
    config.offloadEnabled = true;
    const DatasetProfile profile = aime2024();
    auto algo = makeBeamSearch(16, 4);
    FastTtsEngine engine(config, config1_5Bplus1_5B(), rtx3070Ti(),
                         profile, *algo);
    const auto problems = makeProblems(profile, 1, 2026);
    const auto r = engine.runRequest(problems[0]);
    EXPECT_EQ(r.completedBeams, 16);
}

TEST(Engine, LargerVerifierCostsMoreVerifierTime)
{
    const auto small =
        run(FastTtsConfig::baseline(), config1_5Bplus1_5B(), 32);
    const auto large =
        run(FastTtsConfig::baseline(), config1_5Bplus7B(), 32);
    EXPECT_GT(large.verifierTime, small.verifierTime);
}

TEST(Engine, LargerGeneratorCostsMoreGeneratorTime)
{
    const auto small =
        run(FastTtsConfig::baseline(), config1_5Bplus1_5B(), 32);
    const auto large =
        run(FastTtsConfig::baseline(), config7Bplus1_5B(), 32);
    EXPECT_GT(large.generatorTime, small.generatorTime);
}

TEST(Engine, EveryAlgorithmRunsEndToEnd)
{
    for (const std::string name :
         {"best_of_n", "beam_search", "dvts", "dynamic_branching",
          "varying_granularity"}) {
        const auto r = run(FastTtsConfig::fastTts(),
                           config1_5Bplus1_5B(), 16, "AIME", name);
        EXPECT_GT(r.completedBeams, 0) << name;
        EXPECT_GT(r.preciseGoodput(), 0) << name;
    }
}

TEST(Engine, EveryDatasetRunsEndToEnd)
{
    for (const std::string ds :
         {"AIME", "AMC", "MATH500", "HumanEval"}) {
        const auto r = run(FastTtsConfig::fastTts(),
                           config1_5Bplus1_5B(), 8, ds);
        EXPECT_EQ(r.completedBeams, 8) << ds;
    }
}

TEST(Engine, VaryingGranularityCapsEarlySteps)
{
    const DatasetProfile profile = aime2024();
    auto algo = makeVaryingGranularity(16, 4);
    FastTtsEngine engine(FastTtsConfig::baseline(), config1_5Bplus1_5B(),
                         rtx4090(), profile, *algo);
    const auto problems = makeProblems(profile, 1, 2026);
    (void)engine.runRequest(problems[0]);
    const auto &samples = engine.stepTokenSamples();
    for (int step = 0; step < 3 && step < static_cast<int>(samples.size());
         ++step) {
        for (int tokens : samples[static_cast<size_t>(step)])
            EXPECT_LE(tokens, 64) << "step " << step;
    }
}

TEST(Engine, HigherTruncationRatioKeepsMoreSpecTokens)
{
    FastTtsConfig high = FastTtsConfig::fastTts();
    high.truncationRatio = 0.85;
    FastTtsConfig low = FastTtsConfig::fastTts();
    low.truncationRatio = 0.0;
    const auto rh = run(high, config1_5Bplus1_5B(), 32);
    const auto rl = run(low, config1_5Bplus1_5B(), 32);
    // R=0 discards nearly all duplicated speculative tokens.
    EXPECT_GT(rh.speculativeTokens - rh.wastedSpecTokens,
              rl.speculativeTokens - rl.wastedSpecTokens);
}

TEST(Engine, KvStatsReportedAndConsistent)
{
    const auto r =
        run(FastTtsConfig::baseline(), config1_5Bplus7B(), 64);
    EXPECT_GT(r.kvStats.missTokens, 0u);
    EXPECT_EQ(r.kvStats.recomputedTokens, r.kvStats.missTokens);
}

TEST(Engine, LedgerStarvedGenerationCountsStalls)
{
    // Another tenant holds all but a sliver of the shared ledger: the
    // request's lanes are admitted (their paths fit) but their next
    // block is always refused, so every generation phase runs into its
    // iteration cap. Each such exit is a counted stall, per iteration
    // and per request; with the ledger free there is none.
    const DatasetProfile profile = *datasetByName("AIME");
    auto algo = *makeAlgorithm("beam_search", 4, 4);
    const Problem problem = makeProblems(profile, 1, 2026)[0];
    for (const bool starved : {false, true}) {
        FastTtsEngine engine(FastTtsConfig::fastTts(),
                             config1_5Bplus1_5B(), rtx4090(), profile,
                             *algo);
        KvBudgetLedger ledger(4.0 * GiB);
        const double sliver =
            (problem.promptTokens + 64.0) * engine.promptKvBytesPerToken();
        if (starved) {
            ASSERT_TRUE(ledger.charge(ledger.totalBytes() - sliver));
        }
        engine.attachKvLedger(&ledger);
        const RequestResult r = engine.runRequest(problem);
        int per_iteration = 0;
        for (const IterationStats &stats : engine.iterationStats()) {
            EXPECT_LE(stats.generationStalls, 1);
            per_iteration += stats.generationStalls;
        }
        EXPECT_EQ(r.generationStalls, per_iteration);
        EXPECT_EQ(r.generationStalls > 0, starved);
    }
}

} // namespace
} // namespace fasttts
