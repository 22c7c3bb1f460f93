/**
 * @file
 * Tests for the ServingSystem facade and batch aggregation.
 */

#include <gtest/gtest.h>

#include "core/serving.h"

namespace fasttts
{
namespace
{

TEST(ServingSystem, ServesProblemsAndAggregates)
{
    ServingOptions opts;
    opts.numBeams = 8;
    ServingSystem system = ServingSystem::create(opts).value();
    const auto out = system.serveProblems(3);
    EXPECT_EQ(out.requests.size(), 3u);
    EXPECT_GT(out.meanGoodput, 0);
    EXPECT_GT(out.meanLatency, 0);
    EXPECT_GE(out.top1Accuracy, 0);
    EXPECT_LE(out.top1Accuracy, 100);
    EXPECT_GE(out.passAtNAccuracy, out.passAt1);
}

TEST(ServingSystem, CountsEveryDecodedToken)
{
    ServingOptions opts;
    opts.numBeams = 8;
    ServingSystem system = ServingSystem::create(opts).value();
    EXPECT_EQ(system.tokensDecoded(), 0);
    const auto out = system.serveProblems(3);
    long generated = 0;
    for (const RequestResult &r : out.requests)
        generated += r.generatedTokens;
    EXPECT_GT(generated, 0);
    EXPECT_EQ(system.tokensDecoded(), generated);
}

TEST(ServingSystem, ProblemSetIsDeterministic)
{
    ServingOptions opts;
    ServingSystem a = ServingSystem::create(opts).value();
    ServingSystem b = ServingSystem::create(opts).value();
    ASSERT_FALSE(a.problems().empty());
    EXPECT_EQ(a.problems()[0].seed, b.problems()[0].seed);
}

TEST(ServingSystem, SeedChangesProblems)
{
    ServingOptions a;
    a.seed = 1;
    ServingOptions b;
    b.seed = 2;
    EXPECT_NE(ServingSystem::create(a)->problems()[0].seed,
              ServingSystem::create(b)->problems()[0].seed);
}

TEST(ServingSystem, OptionsRoundTrip)
{
    ServingOptions opts;
    opts.deviceName = "RTX4070Ti";
    opts.datasetName = "AMC";
    opts.algorithmName = "dvts";
    opts.numBeams = 12;
    ServingSystem system = ServingSystem::create(opts).value();
    EXPECT_EQ(system.options().deviceName, "RTX4070Ti");
    EXPECT_EQ(system.options().numBeams, 12);
}

TEST(ServingSystem, ServeSingleProblem)
{
    ServingOptions opts;
    opts.numBeams = 8;
    ServingSystem system = ServingSystem::create(opts).value();
    const auto r = system.serve(system.problems()[0]);
    EXPECT_EQ(r.completedBeams, 8);
}

TEST(AggregateResults, AccuracyPercentages)
{
    // Two requests: one solved (answer 0 majority), one not.
    RequestResult solved;
    solved.completedBeams = 2;
    solved.avgBeamTokens = 100;
    solved.avgBeamCompletion = 10;
    solved.solutions = {{0, 0.9, 100, 1.0}, {0, 0.8, 100, 2.0}};
    RequestResult failed;
    failed.completedBeams = 2;
    failed.avgBeamTokens = 100;
    failed.avgBeamCompletion = 10;
    failed.solutions = {{3, 0.9, 100, 1.0}, {3, 0.8, 100, 2.0}};
    const auto out = aggregateResults({solved, failed}, 2);
    EXPECT_DOUBLE_EQ(out.top1Accuracy, 50.0);
    EXPECT_DOUBLE_EQ(out.passAtNAccuracy, 50.0);
}

TEST(ServingSystem, CreateRejectsUnknownNames)
{
    ServingOptions opts;
    opts.deviceName = "RTX409O"; // Typo: letter O, not zero.
    const auto bad_device = ServingSystem::create(opts);
    ASSERT_FALSE(bad_device.ok());
    EXPECT_EQ(bad_device.status().code(), StatusCode::kNotFound);
    EXPECT_NE(bad_device.status().message().find("RTX4090"),
              std::string::npos);

    opts = ServingOptions();
    opts.datasetName = "AIMEE";
    EXPECT_EQ(ServingSystem::create(opts).status().code(),
              StatusCode::kNotFound);

    opts = ServingOptions();
    opts.algorithmName = "beam_serach";
    EXPECT_EQ(ServingSystem::create(opts).status().code(),
              StatusCode::kNotFound);
}

TEST(ServingSystem, CreateRejectsBadWidths)
{
    ServingOptions opts;
    opts.numBeams = 0;
    EXPECT_EQ(ServingSystem::create(opts).status().code(),
              StatusCode::kInvalidArgument);

    opts = ServingOptions();
    opts.branchFactor = 0;
    EXPECT_EQ(ServingSystem::create(opts).status().code(),
              StatusCode::kInvalidArgument);
}

TEST(ServingSystem, CreateRejectsEachFieldOneAboveItsBound)
{
    ServingOptions opts;
    opts.numBeams = ServingOptions::kMaxBeams + 1;
    auto made = ServingSystem::create(opts);
    EXPECT_EQ(made.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(made.status().message(),
              "numBeams must be in [1, 1048576], got 1048577");

    opts = ServingOptions();
    opts.branchFactor = ServingOptions::kMaxBranchFactor + 1;
    made = ServingSystem::create(opts);
    EXPECT_EQ(made.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(made.status().message(),
              "branchFactor must be in [1, 1048576], got 1048577");

    opts = ServingOptions();
    opts.problemCount = ServingOptions::kMaxProblems + 1;
    made = ServingSystem::create(opts);
    EXPECT_EQ(made.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(made.status().message(),
              "problemCount must be in [0, 1048576], got 1048577");

    // Each bound itself is accepted (problems are drawn on access, so
    // the largest set costs one checkpoint pass, not 2^20 problems).
    opts = ServingOptions();
    opts.problemCount = ServingOptions::kMaxProblems;
    EXPECT_TRUE(ServingSystem::create(opts).ok());
}

TEST(AggregateResults, EmptyIsSafe)
{
    const auto out = aggregateResults({}, 8);
    EXPECT_TRUE(out.requests.empty());
    EXPECT_DOUBLE_EQ(out.meanGoodput, 0.0);
}

} // namespace
} // namespace fasttts
