#include "core/speculative.h"

#include <algorithm>
#include <cmath>

namespace fasttts
{

SpeculativePolicy::SpeculativePolicy(int branch_factor,
                                     double truncation_ratio)
    : branchFactor_(std::max(1, branch_factor)),
      truncationRatio_(std::clamp(truncation_ratio, 0.0, 1.0))
{
}

SpeculativePolicy::ScoreBins
SpeculativePolicy::scoreBins(const std::vector<double> &scores) const
{
    ScoreBins bins;
    if (scores.empty())
        return bins;
    bins.empty = false;
    bins.lo = scores[0];
    bins.hi = scores[0];
    for (double s : scores) {
        bins.lo = std::min(bins.lo, s);
        bins.hi = std::max(bins.hi, s);
    }
    return bins;
}

int
SpeculativePolicy::speculativePotential(
    double prev_score, const std::vector<double> &scores) const
{
    return binnedPotential(prev_score, scoreBins(scores));
}

int
SpeculativePolicy::binnedPotential(double prev_score,
                                   const ScoreBins &bins) const
{
    if (bins.empty)
        return 1;
    if (bins.hi <= bins.lo)
        return branchFactor_; // All equal: everyone is in the top bin.
    // Bin j (1-based, C_1 highest): equal-width partition of [lo, hi].
    const double frac = (prev_score - bins.lo) / (bins.hi - bins.lo);
    const int from_top = static_cast<int>((1.0 - frac) * branchFactor_);
    const int j = std::clamp(from_top + 1, 1, branchFactor_);
    return branchFactor_ - j + 1;
}

void
SpeculativePolicy::orderCandidates(std::vector<Candidate> &candidates) const
{
    // The same edges scoreBins() finds, without a separate score list.
    ScoreBins bins;
    for (const Candidate &c : candidates) {
        bins.lo = bins.empty ? c.score : std::min(bins.lo, c.score);
        bins.hi = bins.empty ? c.score : std::max(bins.hi, c.score);
        bins.empty = false;
    }
    for (Candidate &c : candidates)
        c.potential = c.extendable ? binnedPotential(c.score, bins) : 0;
    candidates.erase(std::remove_if(candidates.begin(), candidates.end(),
                                    [](const Candidate &c) {
                                        return c.potential <= 0;
                                    }),
                     candidates.end());
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate &a, const Candidate &c) {
                  if (a.potential != c.potential)
                      return a.potential > c.potential;
                  if (a.score != c.score)
                      return a.score > c.score;
                  return a.id < c.id;
              });
}

int
SpeculativePolicy::truncationKeep(int spec_len, Rng &rng) const
{
    if (spec_len <= 0)
        return 0;
    const double mean = truncationRatio_ * spec_len;
    const double sd = 0.1 * spec_len;
    const int keep = static_cast<int>(std::lround(rng.normal(mean, sd)));
    return std::clamp(keep, 0, spec_len);
}

} // namespace fasttts
