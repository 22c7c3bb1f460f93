/**
 * @file
 * Speculative Candidate Selection policy (paper Sec. 4.1.1).
 *
 * When standard beams in the generation batch complete, the freed
 * slots are filled with speculative branches of already-finished
 * beams. Priority uses the previous step's verifier score as a
 * zero-overhead proxy for retention probability: scores are
 * partitioned into B bins {C_1..C_B} (C_1 highest) and a beam in bin
 * C_j may speculate at most M = B - j + 1 branches. The policy also
 * draws the duplicate truncation length ~ N(R * len, sd) of
 * Algorithm 1's DuplicateThenTruncate.
 */

#ifndef FASTTTS_CORE_SPECULATIVE_H
#define FASTTTS_CORE_SPECULATIVE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace fasttts
{

/**
 * Stateless SelectSPEC policy.
 */
class SpeculativePolicy
{
  public:
    /**
     * @param branch_factor B: the search's branching factor, which is
     *        both the number of score bins and the max speculative
     *        potential.
     * @param truncation_ratio R: mean kept fraction for duplicates.
     */
    SpeculativePolicy(int branch_factor, double truncation_ratio);

    /** Branching factor B. */
    [[nodiscard]] int branchFactor() const { return branchFactor_; }

    /** Truncation ratio R. */
    [[nodiscard]] double truncationRatio() const
    {
        return truncationRatio_;
    }

    /**
     * Bin edges of one iteration's score set: the [lo, hi] range that
     * the equal-width partition divides. Computing this once per
     * iteration and reusing it for every beam turns the per-beam
     * potential query into O(1) (the engine's event loop queries every
     * candidate every wave).
     */
    struct ScoreBins
    {
        double lo = 0;
        double hi = 0;
        bool empty = true;
    };

    /** Scan the score set once for its bin edges. */
    [[nodiscard]] ScoreBins
    scoreBins(const std::vector<double> &scores) const;

    /**
     * Speculative potential M_i of a beam: the maximum number of
     * branches it may speculate.
     * @param prev_score The beam's previous-step verifier score.
     * @param scores All active beams' previous-step scores (defines
     *        the bin edges for this iteration).
     * @return M_i in [1, B].
     */
    [[nodiscard]] int
    speculativePotential(double prev_score,
                         const std::vector<double> &scores) const;

    /** O(1) variant against pre-computed bin edges; identical result
     *  to speculativePotential(prev_score, scores) for
     *  bins = scoreBins(scores). */
    [[nodiscard]] int
    binnedPotential(double prev_score, const ScoreBins &bins) const;

    /** One active beam as SelectSPEC's candidate order sees it. */
    struct Candidate
    {
        size_t beam = 0;         //!< The caller's beam index.
        double score = 0;        //!< Previous-step verifier score.
        uint64_t id = 0;         //!< Unique beam id (the final tiebreak).
        bool extendable = false; //!< A child step is still allowed.
        int potential = 0;       //!< M_i; set by orderCandidates().
    };

    /**
     * SelectSPEC priority order of one generation phase. A beam's
     * score cannot change within the phase, so the engine computes
     * this once and walks it on every event wave.
     * @param candidates Every active beam. The bin edges come from all
     *        of their scores; on return only the extendable beams with
     *        a positive potential remain, sorted by potential desc,
     *        score desc, id asc (ids are unique, so the order is total).
     */
    void orderCandidates(std::vector<Candidate> &candidates) const;

    /**
     * Tokens a duplicate keeps from a speculated segment of spec_len
     * tokens: round(N(R * spec_len, 0.1 * spec_len)), clamped to
     * [0, spec_len]. Timing-only randomness (does not affect search
     * decisions).
     */
    [[nodiscard]] int truncationKeep(int spec_len, Rng &rng) const;

  private:
    int branchFactor_;
    double truncationRatio_;
};

} // namespace fasttts

#endif // FASTTTS_CORE_SPECULATIVE_H
