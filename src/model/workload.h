/**
 * @file
 * Synthetic workload profiles standing in for the paper's datasets.
 *
 * The evaluation uses AIME-2024, AMC-2023, MATH-500 and HumanEval. The
 * serving system only observes a dataset through (i) the distribution
 * of thinking-step lengths it induces (paper Fig. 3 right: heavy-tailed,
 * avg ~150 tokens, outliers >1000 on AIME), (ii) how many reasoning
 * steps solutions take, and (iii) how hard problems are (the latent
 * difficulty that determines answer correctness). Each profile encodes
 * exactly those three aspects; everything else about the text is
 * irrelevant to system behaviour and is not modelled.
 */

#ifndef FASTTTS_MODEL_WORKLOAD_H
#define FASTTTS_MODEL_WORKLOAD_H

#include <cstdint>
#include <string>
#include <vector>

#include "api/registry.h"
#include "api/status.h"
#include "util/rng.h"

namespace fasttts
{

/**
 * Distributional description of one benchmark dataset.
 */
struct DatasetProfile
{
    std::string name;

    // --- Thinking-step length process (log-normal, clamped) ---
    double stepLenMu = 4.8;     //!< log-space mean of step tokens.
    double stepLenSigma = 0.8;  //!< log-space sd (tail heaviness).
    int minStepTokens = 8;      //!< Shortest step.
    int maxStepTokens = 1200;   //!< EOS-forced cap per step.

    // --- Reasoning-depth process ---
    int maxSteps = 12;            //!< Hard cap on steps per path.
    double terminalBase = 0.04;   //!< P(terminal) after first step.
    double terminalGrowth = 0.10; //!< Added per subsequent step.

    // --- Difficulty / answer process ---
    double difficultyMean = 1.0; //!< Mean latent difficulty.
    double difficultySd = 0.6;   //!< Across-problem spread.
    int numAnswers = 64;         //!< Distinct answer values (vote space).
    int promptTokens = 160;      //!< Question prompt length.
};

/** AIME 2024: hard competition math, long heavy-tailed steps. */
DatasetProfile aime2024();

/** AMC 2023: broader difficulty range, shorter reasoning. */
DatasetProfile amc2023();

/** MATH-500: the Sec. 3.1 motivation dataset. */
DatasetProfile math500();

/** HumanEval: code generation (Sec. 6.4 generality study). */
DatasetProfile humanEval();

/**
 * The dataset registry. Ships with "AIME", "AMC", "MATH500" and
 * "HumanEval"; register custom workload profiles here to serve new
 * domains without touching core code:
 *
 *   datasetRegistry().add("MyBench", [] { DatasetProfile p; ...; return p; });
 */
Registry<DatasetProfile> &datasetRegistry();

/**
 * Look up a dataset by registered name. Unknown names are a kNotFound
 * error listing the valid names — never a silent default.
 */
StatusOr<DatasetProfile> datasetByName(const std::string &name);

/**
 * One problem instance drawn from a dataset.
 */
struct Problem
{
    int id = 0;             //!< Index within the generated set.
    double difficulty = 0;  //!< Latent difficulty (higher = harder).
    uint64_t seed = 0;      //!< Per-problem RNG stream seed.
    int promptTokens = 0;   //!< Question prompt length in tokens.
    //!< Prompt token identities for cross-request prefix caching
    //!< (kv/prefix_index.h). Empty means "opaque prompt": when the
    //!< prefix cache is enabled the engine synthesizes a
    //!< deterministic sequence from `seed`, so repeat servings of
    //!< the same problem still share their full prompt. When set,
    //!< size() must equal promptTokens.
    std::vector<int32_t> promptIds;
};

/**
 * Draw a deterministic problem set from a profile.
 * @param profile Dataset distribution.
 * @param count Number of problems.
 * @param seed Master seed; same (profile, count, seed) gives the same
 *             problems.
 */
std::vector<Problem> makeProblems(const DatasetProfile &profile, int count,
                                  uint64_t seed);

/**
 * The problems makeProblems(profile, count, seed) returns, drawn on
 * access instead of up front: set[i] equals makeProblems(...)[i] field
 * for field, bit for bit.
 *
 * Problem i consumes exactly three outputs of the set's random stream
 * (one Box-Muller pair, one raw draw), so the stream state before
 * problem i is the state before problem 0 advanced by 3*i outputs.
 * Construction takes one pass of raw draws and keeps a copy of that
 * state every kStride problems; access copies the nearest copy, skips
 * at most 3*(kStride-1) outputs and draws the problem. Set-up and
 * memory are thus a few raw draws and 1/kStride of a generator per
 * problem — no transcendental runs until a problem is used.
 *
 * Immutable after construction, so concurrent const access is safe.
 */
class ProblemSet
{
  public:
    /** Problems kept between two stream checkpoints. */
    static constexpr int kStride = 64;

    /** The empty set. */
    ProblemSet() = default;

    /** The set makeProblems(profile, count, seed) materialises. */
    ProblemSet(const DatasetProfile &profile, int count, uint64_t seed);

    [[nodiscard]] size_t size() const { return count_; }
    [[nodiscard]] bool empty() const { return count_ == 0; }

    /** Problem i (i < size()), drawn on every call. */
    [[nodiscard]] Problem operator[](size_t i) const;

  private:
    DatasetProfile profile_;
    size_t count_ = 0;
    std::vector<Rng> checkpoints_; //!< Stream before problem k*kStride.
};

} // namespace fasttts

#endif // FASTTTS_MODEL_WORKLOAD_H
