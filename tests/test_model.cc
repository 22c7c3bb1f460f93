/**
 * @file
 * Tests for the synthetic workload, generator and verifier models,
 * including the Fig. 3 (right) step-length calibration.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "core/serving.h"
#include "model/generator.h"
#include "model/verifier.h"
#include "model/workload.h"
#include "util/histogram.h"

namespace fasttts
{
namespace
{

TEST(Workload, DatasetRegistry)
{
    EXPECT_EQ(datasetByName("AIME")->name, "AIME");
    EXPECT_EQ(datasetByName("AMC")->name, "AMC");
    EXPECT_EQ(datasetByName("MATH500")->name, "MATH500");
    EXPECT_EQ(datasetByName("HumanEval")->name, "HumanEval");
    // Unknown names are a hard error that lists the valid names.
    const auto unknown = datasetByName("unknown");
    ASSERT_FALSE(unknown.ok());
    EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
    EXPECT_NE(unknown.status().message().find("MATH500"),
              std::string::npos);
}

TEST(Workload, ProblemsAreDeterministic)
{
    const auto a = makeProblems(aime2024(), 16, 7);
    const auto b = makeProblems(aime2024(), 16, 7);
    ASSERT_EQ(a.size(), 16u);
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].seed, b[i].seed);
        EXPECT_DOUBLE_EQ(a[i].difficulty, b[i].difficulty);
    }
}

TEST(Workload, DifferentSeedsGiveDifferentProblems)
{
    const auto a = makeProblems(aime2024(), 4, 7);
    const auto b = makeProblems(aime2024(), 4, 8);
    EXPECT_NE(a[0].seed, b[0].seed);
}

TEST(Workload, AimeHarderThanAmc)
{
    const auto aime = makeProblems(aime2024(), 200, 1);
    const auto amc = makeProblems(amc2023(), 200, 1);
    double aime_mean = 0;
    double amc_mean = 0;
    for (int i = 0; i < 200; ++i) {
        aime_mean += aime[static_cast<size_t>(i)].difficulty;
        amc_mean += amc[static_cast<size_t>(i)].difficulty;
    }
    EXPECT_GT(aime_mean / 200, amc_mean / 200 + 0.5);
}

/** A double's exact bits, spelled as a C hex-float. */
std::string
hexFloat(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

/** Field-for-field bit equality of two problems. */
void
expectSameProblem(const Problem &want, const Problem &got)
{
    EXPECT_EQ(want.id, got.id);
    EXPECT_EQ(hexFloat(want.difficulty), hexFloat(got.difficulty));
    EXPECT_EQ(want.seed, got.seed);
    EXPECT_EQ(want.promptTokens, got.promptTokens);
    EXPECT_EQ(want.promptIds, got.promptIds);
}

TEST(ProblemSet, MatchesMakeProblemsAtEveryIndex)
{
    // Counts straddle the checkpoint stride (64) on both sides.
    const int counts[] = {0, 1, 63, 64, 65, 1000, 8192};
    const uint64_t seeds[] = {2026, 7, 0xdeadbeefULL};
    for (const std::string &name : datasetRegistry().list()) {
        const DatasetProfile profile = *datasetByName(name);
        for (const int count : counts) {
            for (const uint64_t seed : seeds) {
                SCOPED_TRACE(name + " count " + std::to_string(count)
                             + " seed " + std::to_string(seed));
                const std::vector<Problem> want =
                    makeProblems(profile, count, seed);
                const ProblemSet set(profile, count, seed);
                ASSERT_EQ(set.size(), want.size());
                EXPECT_EQ(set.empty(), want.empty());
                // Shuffled order: no access may depend on the one
                // before it.
                std::vector<size_t> order(want.size());
                std::iota(order.begin(), order.end(), size_t{0});
                Rng(seed ^ 0x5eedULL).shuffle(order);
                for (const size_t i : order)
                    expectSameProblem(want[i], set[i]);
            }
        }
    }
}

TEST(ProblemSet, ServingSystemServesTheSameProblems)
{
    ServingOptions opts;
    opts.datasetName = "AMC";
    opts.problemCount = 300;
    opts.seed = 99;
    const ServingSystem system = ServingSystem::create(opts).value();
    const std::vector<Problem> want =
        makeProblems(*datasetByName("AMC"), 300, 99);
    ASSERT_EQ(system.problems().size(), want.size());
    for (size_t i = 0; i < want.size(); ++i)
        expectSameProblem(want[i], system.problems()[i]);
}

TEST(Generator, StepLengthsRespectBounds)
{
    const auto profile = aime2024();
    SyntheticGenerator gen(qwen25Math1_5B(), profile);
    Rng rng(3);
    for (int i = 0; i < 5000; ++i) {
        const int len = gen.sampleStepTokens(i % 10, rng);
        EXPECT_GE(len, profile.minStepTokens);
        EXPECT_LE(len, profile.maxStepTokens);
    }
}

TEST(Generator, Fig3StepLengthCalibration)
{
    // Paper Fig. 3 (right): on AIME the average step length is in the
    // low hundreds while outliers approach the per-step cap, at every
    // step index.
    SyntheticGenerator gen(qwen25Math1_5B(), aime2024());
    Rng rng(11);
    for (int step : {0, 3, 6, 9}) {
        SummaryStats stats;
        for (int i = 0; i < 20000; ++i)
            stats.add(gen.sampleStepTokens(step, rng));
        EXPECT_GT(stats.mean(), 80);
        EXPECT_LT(stats.mean(), 350);
        EXPECT_GT(stats.max(), 1000); // Heavy tail.
        EXPECT_GT(stats.max(), 4 * stats.mean());
    }
}

TEST(Generator, TerminalProbabilityIncreasesWithDepth)
{
    SyntheticGenerator gen(qwen25Math1_5B(), aime2024());
    Rng rng(5);
    auto terminal_rate = [&](int step) {
        int hits = 0;
        for (int i = 0; i < 20000; ++i)
            hits += gen.sampleTerminal(step, rng) ? 1 : 0;
        return hits / 20000.0;
    };
    EXPECT_LT(terminal_rate(0), terminal_rate(5));
    EXPECT_LT(terminal_rate(5), terminal_rate(9));
}

TEST(Generator, TerminalForcedAtMaxSteps)
{
    const auto profile = aime2024();
    SyntheticGenerator gen(qwen25Math1_5B(), profile);
    Rng rng(6);
    for (int i = 0; i < 100; ++i)
        EXPECT_TRUE(gen.sampleTerminal(profile.maxSteps - 1, rng));
}

TEST(Generator, LargerModelHasHigherSkill)
{
    SyntheticGenerator small(qwen25Math1_5B(), aime2024());
    SyntheticGenerator large(qwen25Math7B(), aime2024());
    EXPECT_GT(large.skill(), small.skill());
    EXPECT_NEAR(small.skill(), 0.0, 0.02);
}

TEST(Generator, QualityIsMeanReverting)
{
    SyntheticGenerator gen(qwen25Math1_5B(), aime2024());
    Rng rng(9);
    // From a very high start, expected next quality moves down.
    double total = 0;
    for (int i = 0; i < 5000; ++i)
        total += gen.evolveQuality(5.0, rng);
    EXPECT_LT(total / 5000, 4.5);
    // From a very low start, it moves up.
    total = 0;
    for (int i = 0; i < 5000; ++i)
        total += gen.evolveQuality(-5.0, rng);
    EXPECT_GT(total / 5000, -4.5);
}

TEST(Generator, CorrectProbabilityMonotone)
{
    SyntheticGenerator gen(qwen25Math1_5B(), aime2024());
    Problem p;
    p.difficulty = 1.0;
    EXPECT_LT(gen.correctProbability(-1.0, p),
              gen.correctProbability(0.5, p));
    EXPECT_LT(gen.correctProbability(0.5, p),
              gen.correctProbability(2.0, p));
    EXPECT_GT(gen.correctProbability(1.0, p), 0.45);
    EXPECT_LT(gen.correctProbability(1.0, p), 0.55);
}

TEST(Generator, AnswerZeroIsCorrectAndMoreLikelyWhenEasy)
{
    SyntheticGenerator gen(qwen25Math1_5B(), aime2024());
    Problem easy;
    easy.difficulty = -3.0;
    Problem hard;
    hard.difficulty = 3.0;
    Rng rng(12);
    int easy_correct = 0;
    int hard_correct = 0;
    for (int i = 0; i < 2000; ++i) {
        easy_correct += gen.sampleAnswer(0.0, easy, rng) == 0 ? 1 : 0;
        hard_correct += gen.sampleAnswer(0.0, hard, rng) == 0 ? 1 : 0;
    }
    EXPECT_GT(easy_correct, 1900);
    EXPECT_LT(hard_correct, 100);
}

TEST(Generator, WrongAnswersCluster)
{
    // Zipf-skewed wrong answers: answer 1 more common than answer 5.
    SyntheticGenerator gen(qwen25Math1_5B(), aime2024());
    Problem hard;
    hard.difficulty = 10.0;
    Rng rng(13);
    std::vector<int> counts(gen.profile().numAnswers, 0);
    for (int i = 0; i < 20000; ++i)
        ++counts[static_cast<size_t>(gen.sampleAnswer(0.0, hard, rng))];
    EXPECT_EQ(counts[0], 0);
    EXPECT_GT(counts[1], counts[5]);
    EXPECT_GT(counts[1], counts[20]);
}

TEST(Verifier, ScoreInUnitInterval)
{
    SyntheticVerifier ver(skywork1_5B());
    Rng rng(21);
    for (double q : {-3.0, -1.0, 0.0, 1.0, 3.0}) {
        for (int i = 0; i < 100; ++i) {
            const double s = ver.scoreStep(q, rng);
            EXPECT_GT(s, 0.0);
            EXPECT_LT(s, 1.0);
        }
    }
}

TEST(Verifier, ScoreTracksQuality)
{
    SyntheticVerifier ver(skywork1_5B());
    Rng rng(22);
    double low = 0;
    double high = 0;
    for (int i = 0; i < 5000; ++i) {
        low += ver.scoreStep(-1.0, rng);
        high += ver.scoreStep(1.0, rng);
    }
    EXPECT_GT(high / 5000, low / 5000 + 0.3);
}

TEST(Verifier, LargerVerifierIsLessNoisy)
{
    SyntheticVerifier small(skywork1_5B());
    SyntheticVerifier large(mathShepherd7B());
    EXPECT_LT(large.noiseSd(), small.noiseSd());
}

TEST(Verifier, RankingAccuracyImprovesWithScale)
{
    // A larger PRM orders a good and a bad path correctly more often.
    Rng rng(23);
    auto ranking_accuracy = [&](const ModelSpec &spec) {
        SyntheticVerifier ver(spec);
        int correct = 0;
        const int trials = 20000;
        for (int i = 0; i < trials; ++i) {
            const double good = ver.scoreStep(0.5, rng);
            const double bad = ver.scoreStep(-0.5, rng);
            correct += good > bad ? 1 : 0;
        }
        return correct / static_cast<double>(trials);
    };
    const double small = ranking_accuracy(skywork1_5B());
    const double large = ranking_accuracy(mathShepherd7B());
    EXPECT_GT(large, small);
    EXPECT_GT(small, 0.75);
}

} // namespace
} // namespace fasttts
