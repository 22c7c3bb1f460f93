#include "model/workload.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/rng.h"

namespace fasttts
{

DatasetProfile
aime2024()
{
    DatasetProfile p;
    p.name = "AIME";
    // Calibrated to paper Fig. 3 (right): average step length in the
    // low hundreds with outliers above 1000 tokens at every step.
    p.stepLenMu = 4.85;
    p.stepLenSigma = 0.85;
    p.minStepTokens = 8;
    p.maxStepTokens = 1200;
    p.maxSteps = 12;
    p.terminalBase = 0.03;
    p.terminalGrowth = 0.09;
    p.difficultyMean = 1.5;
    p.difficultySd = 0.9;
    p.numAnswers = 100; // AIME answers are integers 0..999; model 100.
    p.promptTokens = 180;
    return p;
}

DatasetProfile
amc2023()
{
    DatasetProfile p;
    p.name = "AMC";
    p.stepLenMu = 4.55;
    p.stepLenSigma = 0.75;
    p.minStepTokens = 8;
    p.maxStepTokens = 900;
    p.maxSteps = 10;
    p.terminalBase = 0.06;
    p.terminalGrowth = 0.13;
    p.difficultyMean = 0.1;
    p.difficultySd = 0.8;
    p.numAnswers = 48;
    p.promptTokens = 140;
    return p;
}

DatasetProfile
math500()
{
    DatasetProfile p;
    p.name = "MATH500";
    p.stepLenMu = 4.6;
    p.stepLenSigma = 0.75;
    p.minStepTokens = 8;
    p.maxStepTokens = 1000;
    p.maxSteps = 10;
    p.terminalBase = 0.05;
    p.terminalGrowth = 0.12;
    p.difficultyMean = 0.6;
    p.difficultySd = 0.8;
    p.numAnswers = 64;
    p.promptTokens = 150;
    return p;
}

DatasetProfile
humanEval()
{
    DatasetProfile p;
    p.name = "HumanEval";
    // Code generation: moderately long steps (function bodies), fewer
    // but chunkier reasoning steps, binary-ish outcome space widened to
    // distinct program variants for voting.
    p.stepLenMu = 4.9;
    p.stepLenSigma = 0.65;
    p.minStepTokens = 16;
    p.maxStepTokens = 1000;
    p.maxSteps = 8;
    p.terminalBase = 0.10;
    p.terminalGrowth = 0.16;
    p.difficultyMean = 0.5;
    p.difficultySd = 0.8;
    p.numAnswers = 32;
    p.promptTokens = 220;
    return p;
}

Registry<DatasetProfile> &
datasetRegistry()
{
    static Registry<DatasetProfile> *registry = [] {
        // fasttts-lint: allow(naked-new) leaky registry singleton
        auto *r = new Registry<DatasetProfile>("dataset");
        checkOk(r->add("AIME", aime2024));
        checkOk(r->add("AMC", amc2023));
        checkOk(r->add("MATH500", math500));
        checkOk(r->add("HumanEval", humanEval));
        return r;
    }();
    return *registry;
}

StatusOr<DatasetProfile>
datasetByName(const std::string &name)
{
    return datasetRegistry().create(name);
}

namespace
{

/** The random stream a problem set draws from. */
Rng
problemStream(uint64_t seed)
{
    return Rng(seed).fork(0x9a0b);
}

/** Raw outputs one drawProblem() call consumes. */
constexpr int kDrawsPerProblem = 3;

/**
 * Draw problem `id` from `rng`, consuming exactly kDrawsPerProblem
 * outputs: both halves of one Box-Muller pair (difficulty, then the
 * cached half for the prompt length) and one raw seed.
 */
Problem
drawProblem(const DatasetProfile &profile, int id, Rng &rng)
{
    Problem p;
    p.id = id;
    p.difficulty = rng.normal(profile.difficultyMean, profile.difficultySd);
    p.seed = rng.next();
    p.promptTokens = std::max(
        16, static_cast<int>(rng.normal(profile.promptTokens,
                                        profile.promptTokens * 0.2)));
    return p;
}

} // namespace

std::vector<Problem>
makeProblems(const DatasetProfile &profile, int count, uint64_t seed)
{
    Rng rng = problemStream(seed);
    std::vector<Problem> problems;
    problems.reserve(static_cast<size_t>(std::max(0, count)));
    for (int i = 0; i < count; ++i)
        problems.push_back(drawProblem(profile, i, rng));
    return problems;
}

ProblemSet::ProblemSet(const DatasetProfile &profile, int count,
                       uint64_t seed)
    : profile_(profile), count_(static_cast<size_t>(std::max(0, count)))
{
    checkpoints_.reserve((count_ + kStride - 1) / kStride);
    Rng rng = problemStream(seed);
    for (size_t i = 0; i < count_; i += kStride) {
        if (i > 0)
            for (int skip = 0; skip < kStride * kDrawsPerProblem; ++skip)
                (void)rng.next();
        checkpoints_.push_back(rng);
    }
}

Problem
ProblemSet::operator[](size_t i) const
{
    assert(i < count_);
    Rng rng = checkpoints_[i / kStride];
    const size_t skip = (i % kStride) * kDrawsPerProblem;
    for (size_t k = 0; k < skip; ++k)
        (void)rng.next();
    return drawProblem(profile_, static_cast<int>(i), rng);
}

} // namespace fasttts
