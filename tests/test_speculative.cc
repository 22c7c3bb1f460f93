/**
 * @file
 * Tests for the SelectSPEC policy (Sec. 4.1.1) and the duplicate
 * truncation draw (Algorithm 1).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "core/speculative.h"

namespace fasttts
{
namespace
{

TEST(SpeculativePolicy, TopBinGetsFullPotential)
{
    SpeculativePolicy policy(4, 0.85);
    const std::vector<double> scores = {0.1, 0.4, 0.7, 0.9};
    EXPECT_EQ(policy.speculativePotential(0.9, scores), 4);
    EXPECT_EQ(policy.speculativePotential(0.1, scores), 1);
}

TEST(SpeculativePolicy, PotentialMonotoneInScore)
{
    SpeculativePolicy policy(4, 0.85);
    const std::vector<double> scores = {0.0, 0.25, 0.5, 0.75, 1.0};
    int prev = 0;
    for (double s : {0.05, 0.3, 0.6, 0.95}) {
        const int m = policy.speculativePotential(s, scores);
        EXPECT_GE(m, prev);
        EXPECT_GE(m, 1);
        EXPECT_LE(m, 4);
        prev = m;
    }
}

TEST(SpeculativePolicy, EqualScoresAllTopBin)
{
    SpeculativePolicy policy(4, 0.85);
    const std::vector<double> scores = {0.5, 0.5, 0.5};
    EXPECT_EQ(policy.speculativePotential(0.5, scores), 4);
}

TEST(SpeculativePolicy, EmptyScoresGiveMinimum)
{
    SpeculativePolicy policy(4, 0.85);
    EXPECT_EQ(policy.speculativePotential(0.9, {}), 1);
}

TEST(SpeculativePolicy, BinCountMatchesBranchFactor)
{
    // With B bins over [0,1], score 1.0 gives B and score 0.0 gives 1.
    for (int b : {1, 2, 4, 8}) {
        SpeculativePolicy policy(b, 0.85);
        std::vector<double> scores = {0.0, 1.0};
        EXPECT_EQ(policy.speculativePotential(1.0, scores), b);
        EXPECT_EQ(policy.speculativePotential(0.0, scores), 1);
    }
}

TEST(SpeculativePolicy, TruncationMeanTracksRatio)
{
    SpeculativePolicy policy(4, 0.85);
    Rng rng(17);
    double total = 0;
    const int len = 200;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i)
        total += policy.truncationKeep(len, rng);
    EXPECT_NEAR(total / trials, 0.85 * len, 2.0);
}

TEST(SpeculativePolicy, TruncationClampedToSegment)
{
    SpeculativePolicy policy(4, 0.85);
    Rng rng(18);
    for (int i = 0; i < 5000; ++i) {
        const int keep = policy.truncationKeep(50, rng);
        EXPECT_GE(keep, 0);
        EXPECT_LE(keep, 50);
    }
    EXPECT_EQ(policy.truncationKeep(0, rng), 0);
}

TEST(SpeculativePolicy, ZeroRatioDropsMostTokens)
{
    SpeculativePolicy policy(4, 0.0);
    Rng rng(19);
    double total = 0;
    for (int i = 0; i < 5000; ++i)
        total += policy.truncationKeep(100, rng);
    EXPECT_LT(total / 5000, 10.0);
}

TEST(SpeculativePolicy, RatioClampedToUnitInterval)
{
    SpeculativePolicy policy(4, 1.7);
    EXPECT_DOUBLE_EQ(policy.truncationRatio(), 1.0);
    SpeculativePolicy negative(4, -0.5);
    EXPECT_DOUBLE_EQ(negative.truncationRatio(), 0.0);
}

/**
 * The order the engine used to rebuild on every event wave: each
 * extendable beam's potential from the full score list, candidates
 * with a positive potential, sorted by (potential desc, score desc,
 * id asc).
 */
std::vector<SpeculativePolicy::Candidate>
bruteForceOrder(const SpeculativePolicy &policy,
                const std::vector<SpeculativePolicy::Candidate> &beams)
{
    std::vector<double> scores;
    for (const auto &b : beams)
        scores.push_back(b.score);
    std::vector<SpeculativePolicy::Candidate> out;
    for (auto b : beams) {
        b.potential = policy.speculativePotential(b.score, scores);
        if (b.extendable && b.potential > 0)
            out.push_back(b);
    }
    std::sort(out.begin(), out.end(), [](const auto &a, const auto &c) {
        if (a.potential != c.potential)
            return a.potential > c.potential;
        if (a.score != c.score)
            return a.score > c.score;
        return a.id < c.id;
    });
    return out;
}

TEST(SpeculativePolicy, CandidateOrderMatchesBruteForceSort)
{
    Rng rng(23);
    for (int trial = 0; trial < 400; ++trial) {
        const int branch = rng.uniformInt(1, 6);
        SpeculativePolicy policy(branch, 0.85);
        const int n = rng.uniformInt(0, 80);
        // Few distinct scores, so equal scores (and hence equal
        // potentials) are common; ids are unique but shuffled.
        const int levels = rng.uniformInt(1, 6);
        std::vector<uint64_t> ids(static_cast<size_t>(n));
        std::iota(ids.begin(), ids.end(), uint64_t{1});
        for (int i = n - 1; i > 0; --i)
            std::swap(ids[static_cast<size_t>(i)],
                      ids[static_cast<size_t>(rng.uniformInt(0, i))]);
        std::vector<SpeculativePolicy::Candidate> beams;
        for (int i = 0; i < n; ++i) {
            SpeculativePolicy::Candidate c;
            c.beam = static_cast<size_t>(i);
            c.score = rng.uniformInt(0, levels - 1)
                / static_cast<double>(levels);
            c.id = ids[static_cast<size_t>(i)];
            c.extendable = rng.uniformInt(0, 4) != 0;
            beams.push_back(c);
        }
        const auto expected = bruteForceOrder(policy, beams);
        auto actual = beams;
        policy.orderCandidates(actual);
        ASSERT_EQ(actual.size(), expected.size()) << "trial " << trial;
        for (size_t k = 0; k < actual.size(); ++k) {
            EXPECT_EQ(actual[k].beam, expected[k].beam) << "trial " << trial;
            EXPECT_EQ(actual[k].potential, expected[k].potential)
                << "trial " << trial;
        }
    }
}

TEST(SpeculativePolicy, CandidateOrderBinsOverEveryBeam)
{
    // The bins span all beams' scores, including beams that may not
    // extend: here the top score belongs to a non-extendable beam, so
    // the best extendable beam does not reach the top bin.
    SpeculativePolicy policy(4, 0.85);
    std::vector<SpeculativePolicy::Candidate> beams = {
        {0, 0.0, 1, true, 0},
        {1, 0.6, 2, true, 0},
        {2, 1.0, 3, false, 0},
    };
    policy.orderCandidates(beams);
    ASSERT_EQ(beams.size(), 2u);
    EXPECT_EQ(beams[0].beam, 1u);
    EXPECT_EQ(beams[0].potential, 3); // 4 if binned over [0, 0.6].
    EXPECT_EQ(beams[1].beam, 0u);
    EXPECT_EQ(beams[1].potential, 1);
}

} // namespace
} // namespace fasttts
