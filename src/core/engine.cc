#include "core/engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "kv/kv_session.h"
#include "kv/kv_tier.h"
#include "kv/prefix_index.h"

namespace fasttts
{

/** One speculative child branch being extended (Sec. 4.1). */
struct FastTtsEngine::SpecBranch
{
    int childIdx = 0;    //!< Which child slot this branch speculates.
    int node = -1;       //!< Generator KV node holding its tokens.
    uint64_t segId = 0;  //!< Segment id of that node.
    int verNode = -1;    //!< Verifier KV node (LookAhead only).
    int decoded = 0;     //!< Tokens generated so far.
    int target = 0;      //!< Full step length (from the child's draw).
    bool complete = false;
    bool scored = false; //!< LookAhead-verified.
    double score = 0;    //!< Verifier score when scored.
    bool retained = false; //!< Holds a KV retention on `node`.
    StepDraw draw;       //!< The child step's content.
};

/** Engine-internal beam state. */
struct FastTtsEngine::ActiveBeam
{
    uint64_t id = 0;
    uint64_t seed = 0;     //!< Lineage stream seed.
    int rootIndex = 0;
    int steps = 0;         //!< Completed verified steps.
    double quality = 0;    //!< After last verified step.
    double score = 0.5;    //!< Last verified step's PRM score.
    double prevScore = 0.5;
    long totalTokens = 0;  //!< Verified tokens in the whole path.
    int prevPos = 0;       //!< Schedule position carry-over.
    double spawnTime = 0;

    int leaf = -1;     //!< Generator KV node of last verified segment.
    int verLeaf = -1;  //!< Verifier KV node of last verified segment.

    // --- Current-step state ---
    bool stepPrepared = false;
    StepDraw draw;
    int targetTokens = 0;
    int decoded = 0;
    int curSeg = -1;       //!< Generator KV node of the in-flight step.
    uint64_t curSegId = 0; //!< Segment id (mirrored in verifier tree).
    int headStart = 0;     //!< Tokens inherited from kept speculation.
    bool pinned = false;   //!< Holds a retention on curSeg.
    bool inDecode = false;
    bool finishedGen = false;
    bool forceKilled = false;

    // --- LookAhead-verified step (child adopted a scored branch) ---
    bool pendingStepDone = false;
    double pendingScore = 0;
    int pendingVerSeg = -1;

    // --- Verification scratch ---
    double newScore = 0;
    int newVerSeg = -1;

    // --- Speculation ---
    std::vector<SpecBranch> branches;
    int branchesStarted = 0;
};

/**
 * One running member of the generation event loop: a standard beam
 * decoding its step or a speculative branch. The event loop reads only
 * the lanes on every wave; it reaches the beam, the branch and the KV
 * tree when a member needs a new KV block or leaves the running set.
 *
 * Deferred appends: tokens that still fit the blocks a node holds
 * accumulate in `pending` and reach the KV tree in one appendTokens()
 * call, made when the member next needs a block or when it leaves the
 * running set. Such an append allocates nothing and cannot fail, and
 * a running member's node is pinned (never a victim) and a leaf (on no
 * other path), so nothing else reads the deferred state meanwhile.
 */
struct FastTtsEngine::MemberLane
{
    size_t beam = 0;   //!< active_ index.
    size_t branch = 0; //!< ActiveBeam::branches index (speculative).
    int node = -1;     //!< Generator KV node the member decodes into.
    int remaining = 0; //!< Tokens left to decode in the step.
    int room = 0;      //!< Tokens the node's held blocks still take.
    int pending = 0;   //!< Decoded tokens not yet applied to `node`.
    int path = 0;      //!< Path tokens of `node`, pending included.
};

/**
 * Everything that belongs to one in-flight request: mounted on the
 * engine between beginRequest() and finishRequest(), or parked inside
 * a SuspendedEngineRequest. Field names keep the engine-member style
 * (trailing underscore) because the engine code reads them through
 * ctx_->.
 */
struct FastTtsEngine::RequestContext
{
    Problem problem_;
    SimClock clock_;
    AllocationPlan plan_;
    Rng systemRng_{0};
    std::vector<std::unique_ptr<ActiveBeam>> active_;
    std::vector<CompletedSolution> completed_;
    std::vector<IterationStats> iterStats_;
    std::vector<std::vector<int>> stepTokens_;
    std::unique_ptr<KvCacheManager> kvGen_;
    std::unique_ptr<KvCacheManager> kvVer_;
    uint64_t nextBeamId_ = 1;
    uint64_t nextSegId_ = 1;
    int iteration_ = 0;
    int forcedTerminations_ = 0;
    int generationStalls_ = 0; //!< Generation phases that hit the cap.
    int promptNodeGen_ = -1;
    int promptNodeVer_ = -1;
    int promptRemaining_ = 0; //!< Prompt tokens awaiting chunked
                              //!< prefill (deferred-prompt mode).
    int promptChunkTotal_ = 0; //!< Initial chunked-prefill volume
                               //!< (prompt minus mounted prefix);
                               //!< chunking restarts from it when the
                               //!< prompt node is evicted mid-stream.
    bool inRequest_ = false; //!< Between beginRequest and finish.

    // --- Cross-request prefix cache (kv/prefix_index.h) ---
    PrefixIndex *prefixIndex_ = nullptr; //!< Global index (borrowed).
    PrefixIndex::NodeId prefixNode_ = PrefixIndex::kInvalid;
    int prefixHitTokens_ = 0;        //!< Prompt tokens mounted, not
                                     //!< prefilled (saved recompute).
    std::vector<int32_t> promptIds_; //!< Resolved prompt identities.

    /** Drop the pin acquired at beginRequest; idempotent, so both
     *  finishRequest and abandonment (handle destruction) are safe. */
    void
    releasePrefixPin()
    {
        if (prefixIndex_ != nullptr
            && prefixNode_ != PrefixIndex::kInvalid) {
            prefixIndex_->release(prefixNode_);
            prefixNode_ = PrefixIndex::kInvalid;
        }
    }

    RequestContext() = default;
    ~RequestContext() { releasePrefixPin(); }
    RequestContext(const RequestContext &) = delete;
    RequestContext &operator=(const RequestContext &) = delete;

    // Accumulated request metrics.
    long generatedTokens_ = 0;
    long speculativeTokens_ = 0;
    long wastedSpecTokens_ = 0;

    // Generation-phase scratch (valid within one iteration). Every
    // buffer keeps its capacity across waves and iterations, so the
    // event loop allocates nothing once the request has warmed up.
    std::vector<size_t> queue_;
    // Running members, one lane each: standard beams in admission
    // order, then speculative branches kept sorted by (beam, branch)
    // and maintained incrementally (merged in at creation, compacted
    // per event wave, cleared on kill). Every entry is running:
    // members leave on finish, preemption, failure or kill.
    std::vector<MemberLane> decodeLanes_;
    std::vector<MemberLane> specLanes_;
    std::vector<MemberLane> laneMerge_; //!< Merge buffer.
    uint64_t waveTick_ = 0; //!< Tick of the last wave applied; every
                            //!< lane's pending tokens date from it.
    // SelectSPEC order of this phase's beams, built at the phase's
    // first fill (scores are fixed until selection), with each beam's
    // rank in it (-1: never speculates) and a bitset over ranks of the
    // finished beams that may still take branches.
    std::vector<SpeculativePolicy::Candidate> specOrder_;
    std::vector<int> specRank_;
    std::vector<uint64_t> specReady_;
    bool specOrderReady_ = false;
    std::vector<char> visited_; //!< Per-node marks (stepRequest).
    double meanVerifierSeq_ = 0;  //!< Mean incremental request length.
    double meanVerifierPath_ = 0; //!< Mean full-path length (planning).
    bool specAllowed_ = true;      //!< Memory allows speculation.
    bool lookaheadAllowed_ = true; //!< Verifier cache under pressure.

    // Per-token roofline recompute rates of the two trees, captured at
    // request start so a parked SuspendedEngineRequest can make the
    // swap-vs-recompute call without reaching back into the engine.
    // chunkedRecomputeTime is linear in tokens (max of two
    // through-origin lines plus a fixed step overhead), so the slope
    // is exact.
    double genRecomputePerToken_ = 0;
    double verRecomputePerToken_ = 0;
};

namespace
{

/** Expected step length of a log-normal profile, for planning. */
double
meanProfileStepTokens(const DatasetProfile &p)
{
    const double mean =
        std::exp(p.stepLenMu + 0.5 * p.stepLenSigma * p.stepLenSigma);
    return std::clamp(mean, static_cast<double>(p.minStepTokens),
                      static_cast<double>(p.maxStepTokens));
}

/**
 * Deterministic prompt token identities for problems that carry none
 * (Problem::promptIds empty): a splitmix64 stream keyed by the
 * problem seed. Repeat servings of the same problem therefore share
 * their full prompt in the PrefixIndex, while distinct seeds diverge
 * at the first token.
 */
std::vector<int32_t>
synthesizedPromptIds(const Problem &problem)
{
    std::vector<int32_t> ids;
    ids.reserve(static_cast<size_t>(std::max(0, problem.promptTokens)));
    uint64_t state = problem.seed ^ 0x9E3779B97F4A7C15ull;
    for (int i = 0; i < problem.promptTokens; ++i) {
        state += 0x9E3779B97F4A7C15ull;
        uint64_t z = state;
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        z ^= z >> 31;
        ids.push_back(static_cast<int32_t>(z & 0x7FFFFFFFu));
    }
    return ids;
}

void
setBit(std::vector<uint64_t> &bits, size_t i)
{
    bits[i / 64] |= uint64_t{1} << (i % 64);
}

void
clearBit(std::vector<uint64_t> &bits, size_t i)
{
    bits[i / 64] &= ~(uint64_t{1} << (i % 64));
}

/** First set bit at or after `from`, or bits.size() * 64 if none. */
size_t
nextSetBit(const std::vector<uint64_t> &bits, size_t from)
{
    size_t w = from / 64;
    if (w >= bits.size())
        return bits.size() * 64;
    uint64_t word = bits[w] & (~uint64_t{0} << (from % 64));
    while (word == 0) {
        if (++w == bits.size())
            return bits.size() * 64;
        word = bits[w];
    }
    return w * 64 + static_cast<size_t>(__builtin_ctzll(word));
}

} // namespace

FastTtsEngine::FastTtsEngine(const FastTtsConfig &config,
                             const ModelConfig &models,
                             const DeviceSpec &device,
                             const DatasetProfile &dataset,
                             const SearchAlgorithm &algorithm)
    : config_(config), models_(models), device_(device), dataset_(dataset),
      algorithm_(algorithm), roofline_(device),
      generator_(models.generator, dataset),
      verifier_(models.verifier),
      specPolicy_(algorithm.branchFactor(), config.truncationRatio)
{
    if (config_.asymmetricAllocation) {
        planner_ = config_.offloadEnabled
            ? makeOffloadPlanner(models_.generator, models_.verifier,
                                 roofline_)
            : makeRooflinePlanner(models_.generator, models_.verifier,
                                  roofline_);
    } else {
        planner_ = makeStaticPlanner(models_.generator, models_.verifier,
                                     roofline_);
    }
    scheduler_ = config_.prefixAwareScheduling
        ? makePrefixAwareScheduler()
        : makeScheduler(config_.baselineScheduler);
    // The dataset profile is fixed for the engine's lifetime; the
    // admission loop asks for this every queue pop, so pay the exp()
    // once.
    expectedStepTokens_ = meanProfileStepTokens(dataset_);

    const double usable = device_.usableBytes() * models_.memoryFraction;
    const double weights = models_.generator.weightBytes()
        + models_.verifier.weightBytes();
    kvBudget_ = std::max(64.0 * MiB,
                         usable - weights - config_.reservedBytes);
    ctx_ = std::make_unique<RequestContext>();
}

FastTtsEngine::~FastTtsEngine() = default;

double
FastTtsEngine::promptKvBytesPerToken() const
{
    // A mounted prompt prefix is root tokens of BOTH trees, so one
    // cached token costs the generator's and the verifier's KV.
    return models_.generator.kvBytesPerToken()
        + models_.verifier.kvBytesPerToken();
}

void
FastTtsEngine::resetRequestState(const Problem &problem,
                                 bool defer_prompt_prefill)
{
    ctx_->problem_ = problem;
    ctx_->clock_ = SimClock();
    ctx_->clock_.setTraceEnabled(config_.recordTrace);
    ctx_->systemRng_ = Rng(config_.systemSeed ^ problem.seed);
    ctx_->active_.clear();
    ctx_->completed_.clear();
    ctx_->iterStats_.clear();
    ctx_->queue_.clear();
    ctx_->decodeLanes_.clear();
    ctx_->specLanes_.clear();
    ctx_->stepTokens_.assign(static_cast<size_t>(dataset_.maxSteps) + 1, {});
    ctx_->nextBeamId_ = 1;
    ctx_->nextSegId_ = 1;
    ctx_->iteration_ = 0;
    ctx_->forcedTerminations_ = 0;
    ctx_->generationStalls_ = 0;
    ctx_->generatedTokens_ = 0;
    ctx_->speculativeTokens_ = 0;
    ctx_->wastedSpecTokens_ = 0;
    ctx_->meanVerifierSeq_ = 0;
    ctx_->meanVerifierPath_ = 0;

    // Fresh KV managers; the plan resizes their budgets each iteration.
    ctx_->kvGen_ = std::make_unique<KvCacheManager>(
        kvBudget_ * 0.5, models_.generator.kvBytesPerToken(),
        config_.blockTokens);
    ctx_->kvVer_ = std::make_unique<KvCacheManager>(
        kvBudget_ * 0.5, models_.verifier.kvBytesPerToken(),
        config_.blockTokens);
    if (ledger_ != nullptr) {
        ctx_->kvGen_->attachLedger(ledger_);
        ctx_->kvVer_->attachLedger(ledger_);
    }
    // Exact per-token slope: two point evaluations of a linear cost.
    ctx_->genRecomputePerToken_ =
        roofline_.chunkedRecomputeTime(models_.generator, 2)
        - roofline_.chunkedRecomputeTime(models_.generator, 1);
    ctx_->verRecomputePerToken_ =
        roofline_.chunkedRecomputeTime(models_.verifier, 2)
        - roofline_.chunkedRecomputeTime(models_.verifier, 1);
    if (hostTier_ != nullptr) {
        // The per-token rates arm the LRU-path roofline call: victims
        // cheaper to copy out than to re-prefill park on the host.
        ctx_->kvGen_->attachHostTier(hostTier_,
                                     ctx_->genRecomputePerToken_);
        ctx_->kvVer_->attachHostTier(hostTier_,
                                     ctx_->verRecomputePerToken_);
    }

    // Cross-request prefix cache: mount the longest cached prefix of
    // the prompt as root tokens of both trees (the blocks live in the
    // PrefixIndex and stay pinned until finishRequest), so only the
    // unmatched suffix is prefilled.
    ctx_->releasePrefixPin(); // Reused context: drop any stale pin.
    ctx_->prefixIndex_ = prefixIndex_;
    ctx_->prefixHitTokens_ = 0;
    ctx_->promptIds_.clear();
    int prompt_suffix = problem.promptTokens;
    if (prefixIndex_ != nullptr) {
        ctx_->promptIds_ = problem.promptIds.empty()
            ? synthesizedPromptIds(problem)
            : problem.promptIds;
        const PrefixIndex::Match match =
            prefixIndex_->acquire(ctx_->promptIds_);
        ctx_->prefixNode_ = match.node;
        const int mounted =
            std::min(match.matchedTokens, problem.promptTokens);
        ctx_->prefixHitTokens_ = mounted;
        prompt_suffix = problem.promptTokens - mounted;
        ctx_->kvGen_->setRootTokens(mounted);
        ctx_->kvVer_->setRootTokens(mounted);
    }

    // Shared question prompt: prefilled once by the generator; the
    // verifier materialises it lazily at first verification. With a
    // mounted prefix the node holds only the unmatched suffix (and
    // may be empty).
    ctx_->promptNodeGen_ = ctx_->kvGen_->createChild(KvCacheManager::kRoot,
                                         ctx_->nextSegId_, prompt_suffix);
    ctx_->promptNodeVer_ = ctx_->kvVer_->createChild(KvCacheManager::kRoot,
                                         ctx_->nextSegId_, prompt_suffix);
    ++ctx_->nextSegId_;
    ctx_->kvGen_->retain(ctx_->promptNodeGen_);
    ctx_->kvVer_->retain(ctx_->promptNodeVer_);
    ctx_->promptRemaining_ = 0;
    ctx_->promptChunkTotal_ = 0;
    if (defer_prompt_prefill) {
        // Continuous batching: the batch scheduler feeds the prompt
        // in chunks (prefillPromptChunk) from each wave's leftover
        // token budget, so a long prompt never stalls co-resident
        // decoders; the request must not decode until the chunks
        // finish (prefillPending() reaches 0).
        ctx_->promptRemaining_ = prompt_suffix;
        ctx_->promptChunkTotal_ = prompt_suffix;
    } else if (prompt_suffix > 0 || prefixIndex_ == nullptr) {
        // When the shared ledger is exhausted by other in-flight
        // requests the prompt KV cannot be stored yet; charging the
        // prefill now AND the inevitable recompute at first touch
        // would double-count it, so the prefill is deferred to that
        // touch instead.
        const auto prompt_touch =
            ctx_->kvGen_->ensureResident(ctx_->promptNodeGen_, 0);
        if (prompt_touch.ok) {
            ctx_->clock_.advance(
                roofline_.prefillTime(models_.generator, 1,
                                      prompt_suffix),
                Phase::Recompute,
                roofline_.prefillComputeUtil(models_.generator, 1,
                                             prompt_suffix),
                1, 1);
        }
    }

    const int n = algorithm_.beamWidth();
    const int branch = std::max(1, algorithm_.branchFactor());
    ctx_->active_.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
        auto beam = std::make_unique<ActiveBeam>();
        beam->id = ctx_->nextBeamId_++;
        beam->seed = rootLineageSeed(problem, i);
        beam->rootIndex = i / branch;
        beam->quality = rootQuality(generator_, problem, i);
        beam->leaf = ctx_->promptNodeGen_;
        beam->verLeaf = ctx_->promptNodeVer_;
        beam->prevPos = i;
        beam->spawnTime = ctx_->clock_.now();
        ctx_->active_.push_back(std::move(beam));
    }
}

void
FastTtsEngine::replan()
{
    WorkloadShape shape;
    // Plan for the full search width n, not the momentarily active
    // count: the speculative phase keeps the execution batch full
    // (Sec. 4.1.2), so capacity must not shrink as paths complete.
    shape.numRequests = algorithm_.beamWidth();
    const int cap = algorithm_.stepTokenCap(ctx_->iteration_);
    shape.decodeLen =
        std::min(expectedStepTokens_, static_cast<double>(cap));
    // The verifier's KV working set is the *full* reasoning path (a
    // discriminative PRM scores the whole path), not the incremental
    // request; plan memory for it.
    shape.verifierSeqLen = ctx_->meanVerifierPath_ > 0
        ? ctx_->meanVerifierPath_
        : ctx_->problem_.promptTokens + (ctx_->iteration_ + 1) * shape.decodeLen;
    shape.verifierReqLen =
        ctx_->meanVerifierSeq_ > 0 ? ctx_->meanVerifierSeq_ : shape.decodeLen;
    double ctx_total = 0;
    for (const auto &b : ctx_->active_)
        ctx_total += ctx_->kvGen_->pathTokens(b->leaf);
    shape.avgCacheLen = shape.decodeLen / 2
        + (ctx_->active_.empty() ? ctx_->problem_.promptTokens
                           : ctx_total / static_cast<double>(
                                 ctx_->active_.size()));
    ctx_->plan_ = planner_->plan(shape, kvBudget_);
    ctx_->kvGen_->setBudgetBytes(ctx_->plan_.generatorKvBytes);
    ctx_->kvVer_->setBudgetBytes(ctx_->plan_.verifierKvBytes);

    // Speculation pays only when memory is not the bottleneck
    // (Sec. 6.5.1): with the working set oversubscribed, speculative
    // KV would displace cache the standard beams still need.
    const double pool_tokens =
        ctx_->plan_.generatorKvBytes / models_.generator.kvBytesPerToken();
    const double working_set =
        shape.numRequests * (shape.avgCacheLen + shape.decodeLen / 2);
    ctx_->specAllowed_ = working_set <= 0.8 * pool_tokens;

    // LookAhead Verification pays when the verifier cache cannot hold
    // the beams' paths between iterations (pre-verifying avoids the
    // full-path re-prefill, Sec. 4.1.3); when the cache comfortably
    // retains prefixes, pre-verifying soon-pruned beams is pure waste.
    const double ver_pool_tokens =
        ctx_->plan_.verifierKvBytes / models_.verifier.kvBytesPerToken();
    const double ver_working_set =
        shape.numRequests * shape.verifierSeqLen;
    ctx_->lookaheadAllowed_ = ver_working_set > ver_pool_tokens;

    // Graceful degradation under fault pressure: the serving layer
    // turns both accelerations off wholesale so transient faults
    // cannot waste speculative work (timing-only; solutions are
    // unchanged by the engine's equivalence design).
    if (degraded_) {
        ctx_->specAllowed_ = false;
        ctx_->lookaheadAllowed_ = false;
    }
}

void
FastTtsEngine::chargeRecompute(int tokens)
{
    if (tokens <= 0)
        return;
    // Re-prefill of evicted prefixes piggybacks on the running decode
    // batch (chunked prefill): marginal compute + KV writes only.
    ctx_->clock_.advance(
        roofline_.chunkedRecomputeTime(models_.generator, tokens),
        Phase::Recompute, 0.6, 1, 1);
}

void
FastTtsEngine::chargeSwapIn(double bytes)
{
    // Host-tier traffic: restored bytes come back over the host link
    // instead of being re-prefilled, and LRU-path swap-outs since the
    // last charge drain their outbound copy time here too.
    // Phase::Transfer, like offload traffic, so it lands in
    // RequestResult::transferTime.
    if (hostTier_ == nullptr)
        return;
    double seconds = bytes > 0 ? hostTier_->transferSeconds(bytes) : 0;
    if (ctx_->kvGen_ != nullptr)
        seconds += ctx_->kvGen_->takePendingSwapSeconds();
    if (ctx_->kvVer_ != nullptr)
        seconds += ctx_->kvVer_->takePendingSwapSeconds();
    if (seconds > 0)
        ctx_->clock_.advance(seconds, Phase::Transfer);
}

bool
FastTtsEngine::admitBeam(size_t idx)
{
    ActiveBeam &b = *ctx_->active_[idx];
    if (!b.stepPrepared) {
        b.draw = drawStep(generator_, ctx_->problem_, b.seed, b.steps, b.quality,
                          algorithm_.stepTokenCap(b.steps));
        b.targetTokens = b.draw.tokens;
        b.decoded = 0;
        b.stepPrepared = true;
    }
    if (b.curSeg < 0) {
        b.curSegId = ctx_->nextSegId_++;
        b.curSeg = ctx_->kvGen_->createChild(b.leaf, b.curSegId, 0);
    }
    auto touch = ctx_->kvGen_->ensureResident(
        b.curSeg, static_cast<uint64_t>(ctx_->clock_.now() * 1e6));
    if (!touch.ok)
        return false;
    chargeRecompute(touch.recomputeTokens);
    chargeSwapIn(touch.swappedInBytes);
    ctx_->kvGen_->retain(b.curSeg);
    b.pinned = true;
    if (b.pendingStepDone || b.decoded >= b.targetTokens) {
        // Step already materialised (kept speculation); nothing to
        // decode — straight to the finished set.
        b.finishedGen = true;
        b.pinned = false;
        ctx_->kvGen_->release(b.curSeg);
        ctx_->stepTokens_[static_cast<size_t>(
                        std::min(b.steps, dataset_.maxSteps))]
            .push_back(b.targetTokens);
        markSpeculationReady(idx);
    } else {
        b.inDecode = true;
        MemberLane lane;
        lane.beam = idx;
        lane.node = b.curSeg;
        lane.remaining = b.targetTokens - b.decoded;
        lane.room = ctx_->kvGen_->appendRoom(b.curSeg);
        lane.path = ctx_->kvGen_->pathTokens(b.curSeg);
        ctx_->decodeLanes_.push_back(lane);
    }
    return true;
}

void
FastTtsEngine::finishStandardBeam(size_t idx)
{
    ActiveBeam &b = *ctx_->active_[idx];
    b.inDecode = false;
    b.finishedGen = true;
    if (b.pinned) {
        ctx_->kvGen_->release(b.curSeg);
        b.pinned = false;
    }
    ctx_->stepTokens_[static_cast<size_t>(std::min(b.steps, dataset_.maxSteps))]
        .push_back(b.targetTokens);
    markSpeculationReady(idx);
}

void
FastTtsEngine::markSpeculationReady(size_t idx)
{
    if (!ctx_->specOrderReady_)
        return; // The first fill marks every beam finished by then.
    const int rank = ctx_->specRank_[idx];
    if (rank >= 0)
        setBit(ctx_->specReady_, static_cast<size_t>(rank));
}

bool
FastTtsEngine::appendWithNewBlock(MemberLane &lane, int dt, uint64_t tick,
                                  bool allow_evict)
{
    // Apply the deferred tokens with this wave's. On success the node
    // ends exactly as one append per wave would leave it, and the
    // allocation (need, reclaim, ledger charge, fault probe) is the one
    // that wave's append made; the deferred tokens allocate nothing and
    // change nothing reclaim reads.
    if (ctx_->kvGen_->appendTokens(lane.node, lane.pending + dt, tick,
                                   allow_evict)) {
        lane.pending = 0;
        lane.room = ctx_->kvGen_->appendRoom(lane.node);
        return true;
    }
    // A failed append changes nothing of the node, so settle as the
    // previous waves left it before the caller preempts or releases.
    settleLane(lane, ctx_->waveTick_);
    return false;
}

void
FastTtsEngine::settleLane(MemberLane &lane, uint64_t tick)
{
    if (lane.pending == 0)
        return;
    // Fits the held blocks (lane.room), so this cannot fail.
    const bool applied =
        ctx_->kvGen_->appendTokens(lane.node, lane.pending, tick);
    assert(applied);
    (void)applied;
    lane.pending = 0;
}

void
FastTtsEngine::retireSpecLane(MemberLane &lane, uint64_t tick)
{
    settleLane(lane, tick);
    SpecBranch &br = ctx_->active_[lane.beam]->branches[lane.branch];
    br.decoded = br.target - lane.remaining;
}

void
FastTtsEngine::releaseBranch(SpecBranch &branch)
{
    if (branch.retained && branch.node >= 0) {
        ctx_->kvGen_->release(branch.node);
        branch.retained = false;
    }
    ctx_->wastedSpecTokens_ += branch.decoded;
    branch.decoded = 0;
    branch.complete = false;
    branch.node = -1;
}

void
FastTtsEngine::killAllSpeculation()
{
    // Branches are only *marked* dead (node = -1); the vector is never
    // resized here. Only the running lanes need visiting: completed
    // branches stay alive for selection, dead ones are already
    // node = -1. Every lane last decoded in the last applied wave.
    for (MemberLane &lane : ctx_->specLanes_) {
        retireSpecLane(lane, ctx_->waveTick_);
        releaseBranch(ctx_->active_[lane.beam]->branches[lane.branch]);
    }
    ctx_->specLanes_.clear();
}

void
FastTtsEngine::fillSpeculativeSlots()
{
    std::vector<MemberLane> &running = ctx_->specLanes_;
    const int capacity = std::max(1, ctx_->plan_.decodeBatch);
    int free_slots = capacity
        - static_cast<int>(ctx_->decodeLanes_.size())
        - static_cast<int>(running.size());
    if (free_slots <= 0)
        return;

    // Memory-headroom gate: speculation must never evict cache the
    // standard beams still need. Only speculate when the generator
    // pool has slack for a typical child step.
    const size_t slack_blocks = ctx_->kvGen_->blocksFor(
        static_cast<int>(expectedStepTokens_) * 4);
    if (ctx_->kvGen_->freeBlocks() < slack_blocks)
        return;

    std::vector<uint64_t> &ready = ctx_->specReady_;
    if (!ctx_->specOrderReady_) {
        ctx_->specOrder_.clear();
        for (size_t i = 0; i < ctx_->active_.size(); ++i) {
            const ActiveBeam &b = *ctx_->active_[i];
            ctx_->specOrder_.push_back(
                {i, b.score, b.id, b.steps + 1 < dataset_.maxSteps, 0});
        }
        specPolicy_.orderCandidates(ctx_->specOrder_);
        ctx_->specRank_.assign(ctx_->active_.size(), -1);
        ready.assign((ctx_->specOrder_.size() + 63) / 64, 0);
        for (size_t k = 0; k < ctx_->specOrder_.size(); ++k) {
            const size_t beam = ctx_->specOrder_[k].beam;
            ctx_->specRank_[beam] = static_cast<int>(k);
            if (ctx_->active_[beam]->finishedGen)
                setBit(ready, k);
        }
        ctx_->specOrderReady_ = true;
    }

    // Walk the finished beams in SelectSPEC order, highest speculative
    // potential first. A beam leaves the ready set once it can take no
    // more branches this phase. Starting a branch allocates no blocks
    // (a 0-token child of a resident path) and so evicts nothing: no
    // beam's residency changes during the walk.
    const size_t first_new = running.size();
    bool out_of_memory = false;
    for (size_t k = nextSetBit(ready, 0); k < ctx_->specOrder_.size()
         && free_slots > 0 && !out_of_memory; k = nextSetBit(ready, k + 1)) {
        const SpeculativePolicy::Candidate &cand = ctx_->specOrder_[k];
        ActiveBeam &b = *ctx_->active_[cand.beam];
        if (b.forceKilled || b.branchesStarted >= cand.potential
            || b.draw.terminal) {
            clearBit(ready, k); // Out for the rest of the phase.
            continue;
        }
        // Speculating from an evicted path would force a recompute
        // prefill — never worth it for speculative work.
        if (b.curSeg < 0
            || ctx_->kvGen_->residentPrefixTokens(b.curSeg)
                != ctx_->kvGen_->pathTokens(b.curSeg)) {
            continue;
        }
        while (b.branchesStarted < cand.potential && free_slots > 0) {
            const int j = b.branchesStarted;
            SpecBranch br;
            br.childIdx = j;
            const uint64_t child_seed =
                childLineageSeed(b.seed, b.steps + 1, j);
            br.draw = drawStep(generator_, ctx_->problem_, child_seed,
                               b.steps + 1, b.draw.quality,
                               algorithm_.stepTokenCap(b.steps + 1));
            br.target = br.draw.tokens;
            br.segId = ctx_->nextSegId_++;
            br.node = ctx_->kvGen_->createChild(b.curSeg, br.segId, 0);
            auto touch = ctx_->kvGen_->ensureResident(
                br.node, static_cast<uint64_t>(ctx_->clock_.now() * 1e6));
            if (!touch.ok) {
                out_of_memory = true; // Too tight to speculate at all.
                break;
            }
            chargeRecompute(touch.recomputeTokens);
            chargeSwapIn(touch.swappedInBytes);
            ctx_->kvGen_->retain(br.node);
            br.retained = true;
            b.branches.push_back(br);
            MemberLane lane;
            lane.beam = cand.beam;
            lane.branch = b.branches.size() - 1;
            lane.node = br.node;
            lane.remaining = br.target;
            lane.room = ctx_->kvGen_->appendRoom(br.node);
            lane.path = ctx_->kvGen_->pathTokens(br.node);
            running.push_back(lane);
            ++b.branchesStarted;
            --free_slots;
        }
        if (b.branchesStarted >= cand.potential)
            clearBit(ready, k);
    }
    // Keep the running set in (beam, branch) order: the event loop
    // applies tokens in this order, and allocation-failure behaviour
    // under memory pressure must match the original full rescan. The
    // prefix is already sorted, so sort the new tail and merge.
    if (first_new < running.size()) {
        const auto by_member = [](const MemberLane &a, const MemberLane &b) {
            return a.beam != b.beam ? a.beam < b.beam : a.branch < b.branch;
        };
        const auto tail = running.begin()
            + static_cast<std::ptrdiff_t>(first_new);
        std::sort(tail, running.end(), by_member);
        if (first_new > 0) {
            ctx_->laneMerge_.resize(running.size());
            std::merge(running.begin(), tail, tail, running.end(),
                       ctx_->laneMerge_.begin(), by_member);
            running.swap(ctx_->laneMerge_);
        }
    }
}

void
FastTtsEngine::runGenerationPhase()
{
    if (ctx_->plan_.offloadActive && ctx_->plan_.offloadOverhead > 0)
        ctx_->clock_.advance(ctx_->plan_.offloadOverhead * 0.5, Phase::Transfer);

    // --- Scheduling (Sec. 4.2) ---
    std::vector<SchedEntry> entries;
    for (size_t i = 0; i < ctx_->active_.size(); ++i) {
        const ActiveBeam &b = *ctx_->active_[i];
        SchedEntry e;
        e.index = i;
        e.beamId = b.id;
        e.parentBeam = b.prevPos >= 0 ? static_cast<uint64_t>(b.prevPos)
                                      : b.id;
        e.leaf = b.leaf;
        e.pathTokens = ctx_->kvGen_->pathTokens(b.leaf);
        e.prevPosition = b.prevPos;
        entries.push_back(e);
    }
    scheduler_->order(entries, *ctx_->kvGen_, ctx_->systemRng_);
    ctx_->queue_.clear();
    for (size_t pos = 0; pos < entries.size(); ++pos) {
        ctx_->active_[entries[pos].index]->prevPos = static_cast<int>(pos);
        ctx_->queue_.push_back(entries[pos].index);
    }
    // Selection released every branch of the previous iteration; start
    // the lanes from a clean slate regardless.
    ctx_->decodeLanes_.clear();
    ctx_->specLanes_.clear();
    ctx_->specOrderReady_ = false;
    ctx_->waveTick_ = 0;

    const int capacity = std::max(1, ctx_->plan_.decodeBatch);
    // Pinned working-set estimate (tokens) for admission control.
    // Capacity is what this request can actually obtain: the local
    // pool capped by the shared ledger's remaining headroom (equal to
    // the local total whenever no ledger binds), so admission waits
    // under cross-request memory pressure instead of admitting beams
    // the ledger will immediately refuse.
    double pinned_tokens = 0;
    const double budget_tokens =
        static_cast<double>(ctx_->kvGen_->allocator().used()
                            + ctx_->kvGen_->freeBlocks())
        * config_.blockTokens;

    size_t q_head = 0;
    bool spec_disabled = false;
    int safety = 0;
    const int safety_cap = static_cast<int>(ctx_->active_.size()) * 4096 + 4096;
    std::vector<MemberLane> &decoding = ctx_->decodeLanes_;
    std::vector<MemberLane> &speculating = ctx_->specLanes_;

    while (true) {
        if (++safety > safety_cap) {
            // A stall: work is left that cannot run (e.g. an append the
            // shared ledger keeps refusing). Count it; never hang.
            ++ctx_->generationStalls_;
            break;
        }

        // --- Phase 1: Continuous Beam Batching admission ---
        while (static_cast<int>(decoding.size()) < capacity
               && q_head < ctx_->queue_.size()) {
            const size_t idx = ctx_->queue_[q_head];
            ActiveBeam &b = *ctx_->active_[idx];
            if (b.forceKilled) {
                ++q_head;
                continue;
            }
            // Admission control. With Asymmetric Allocation (M) the
            // planner-informed watermark reserves room for the whole
            // step, preventing mid-decode preemption. The naive
            // baseline admits on *current* free memory only — vLLM's
            // behaviour — and pays preemption/recompute churn when
            // running beams outgrow the pool (Sec. 6.5.1).
            const int remaining = b.stepPrepared
                ? b.targetTokens - b.decoded
                : std::min(static_cast<int>(expectedStepTokens_),
                           algorithm_.stepTokenCap(b.steps));
            const double need = ctx_->kvGen_->pathTokens(b.leaf) + b.decoded
                + remaining;
            if (config_.asymmetricAllocation
                && pinned_tokens + need > budget_tokens * 0.95
                && !decoding.empty()) {
                break; // Wait for running beams to finish.
            }
            // Baseline (M off): admit whenever blocks can be found now
            // — evictable cache counts as allocatable, exactly vLLM's
            // policy — and eat mid-decode preemptions later.
            if (!admitBeam(idx)) {
                // Could not materialise the path.
                killAllSpeculation();
                spec_disabled = true;
                if (!admitBeam(idx)) {
                    if (decoding.empty()) {
                        // Alone it still does not fit: the beam can
                        // never run under this budget.
                        b.forceKilled = true;
                        b.finishedGen = true;
                        ++ctx_->forcedTerminations_;
                        ++q_head;
                    }
                    break;
                }
            }
            if (b.inDecode)
                pinned_tokens += need;
            ++q_head;
        }

        // --- Phase 2: speculative extension (preemptible) ---
        if (config_.speculativeExtension && ctx_->specAllowed_
            && !spec_disabled && q_head >= ctx_->queue_.size()) {
            fillSpeculativeSlots();
        }

        const size_t spec_count = speculating.size();
        if (decoding.empty() && spec_count == 0) {
            if (q_head >= ctx_->queue_.size())
                break;
            continue; // More standard beams to admit.
        }

        // --- Next event: smallest remaining token count ---
        // The mean context comes from the same pass; its accumulator
        // stays integral, so the mean is bit-identical to a rescan of
        // the KV tree.
        int dt = std::numeric_limits<int>::max();
        long path_total = 0;
        for (const MemberLane &lane : decoding) {
            dt = std::min(dt, lane.remaining);
            path_total += lane.path;
        }
        for (const MemberLane &lane : speculating) {
            dt = std::min(dt, lane.remaining);
            path_total += lane.path;
        }
        dt = std::max(dt, 1);

        const int active_total =
            static_cast<int>(decoding.size() + spec_count);
        const double ctx = static_cast<double>(path_total)
                / static_cast<double>(active_total)
            + dt * 0.5;
        const double step_time = roofline_.decodeStepTime(
            models_.generator, active_total, ctx);
        ctx_->clock_.advance(dt * step_time, Phase::Generation,
                       roofline_.decodeComputeUtil(models_.generator,
                                                   active_total, ctx),
                       active_total, capacity);

        const uint64_t tick =
            static_cast<uint64_t>(ctx_->clock_.now() * 1e6);

        // Memory pressure from the standard beams preempts speculation
        // *before* any useful cache gets evicted (Sec. 4.1.2: the
        // speculative phase is fully preemptible).
        if (spec_count > 0) {
            const size_t wave_need = ctx_->kvGen_->blocksFor(dt)
                * (decoding.size() + spec_count);
            if (ctx_->kvGen_->freeBlocks() < wave_need) {
                killAllSpeculation();
                spec_disabled = true;
            }
        }

        // --- Apply dt tokens to every running member ---
        // Members still decoding are compacted to the front in order.
        // A member touches its beam and the KV tree only when it needs
        // a new block or leaves the running set (MemberLane).
        long wave_tokens = 0;
        size_t kept = 0;
        for (size_t slot = 0; slot < decoding.size(); ++slot) {
            MemberLane lane = decoding[slot];
            if (dt <= lane.room) {
                lane.room -= dt;
                lane.pending += dt;
            } else if (!appendWithNewBlock(lane, dt, tick,
                                           /*allow_evict=*/true)) {
                // Memory pressure: stop speculation, then preempt the
                // beam itself if still stuck (vLLM swap semantics).
                killAllSpeculation();
                spec_disabled = true;
                if (!ctx_->kvGen_->appendTokens(lane.node, dt, tick)) {
                    ActiveBeam &b = *ctx_->active_[lane.beam];
                    b.decoded = b.targetTokens - lane.remaining;
                    ctx_->kvGen_->release(lane.node);
                    b.pinned = false;
                    b.inDecode = false;
                    pinned_tokens = std::max(
                        0.0, pinned_tokens
                                 - (lane.path + lane.remaining));
                    ctx_->queue_.push_back(lane.beam);
                    continue;
                }
                lane.room = ctx_->kvGen_->appendRoom(lane.node);
            }
            lane.remaining -= dt;
            lane.path += dt;
            wave_tokens += dt;
            if (lane.remaining <= 0) {
                settleLane(lane, tick);
                ActiveBeam &b = *ctx_->active_[lane.beam];
                b.decoded = b.targetTokens - lane.remaining;
                pinned_tokens =
                    std::max(0.0, pinned_tokens - lane.path);
                finishStandardBeam(lane.beam);
            } else {
                decoding[kept++] = lane;
            }
        }
        decoding.resize(kept);
        ctx_->generatedTokens_ += wave_tokens;

        // Speculative members, compacted the same way: branches that
        // complete or cannot grow leave the running set, order kept. A
        // kill above already emptied it.
        wave_tokens = 0;
        kept = 0;
        for (size_t slot = 0; slot < speculating.size(); ++slot) {
            MemberLane lane = speculating[slot];
            // Speculative appends may only take free blocks; they must
            // never evict cache the standard beams will re-touch.
            if (dt <= lane.room) {
                lane.room -= dt;
                lane.pending += dt;
            } else if (!appendWithNewBlock(lane, dt, tick,
                                           /*allow_evict=*/false)) {
                retireSpecLane(lane, ctx_->waveTick_);
                releaseBranch(
                    ctx_->active_[lane.beam]->branches[lane.branch]);
                continue;
            }
            lane.remaining -= dt;
            lane.path += dt;
            wave_tokens += dt;
            if (lane.remaining <= 0) {
                retireSpecLane(lane, tick);
                ctx_->active_[lane.beam]->branches[lane.branch].complete =
                    true;
            } else {
                speculating[kept++] = lane;
            }
        }
        speculating.resize(kept);
        ctx_->generatedTokens_ += wave_tokens;
        ctx_->speculativeTokens_ += wave_tokens;
        ctx_->waveTick_ = tick;

        // Iteration ends when every standard beam finished its step;
        // in-flight speculation is strictly terminated at that point
        // (partial tokens are kept as head starts).
        if (decoding.empty() && q_head >= ctx_->queue_.size())
            break;
    }

    // Members still running at the phase end (speculation cut short,
    // or every member after the safety cap) keep their decoded tokens.
    for (MemberLane &lane : speculating)
        retireSpecLane(lane, ctx_->waveTick_);
    speculating.clear();
    for (MemberLane &lane : decoding) {
        settleLane(lane, ctx_->waveTick_);
        ActiveBeam &b = *ctx_->active_[lane.beam];
        b.decoded = b.targetTokens - lane.remaining;
    }
    decoding.clear();
}

void
FastTtsEngine::runVerificationPhase()
{
    if (ctx_->plan_.offloadActive && ctx_->plan_.offloadOverhead > 0)
        ctx_->clock_.advance(ctx_->plan_.offloadOverhead * 0.5, Phase::Transfer);

    // Requests follow the generation schedule order (ctx_->queue_), which is
    // what lets Prefix-Aware Scheduling help the verifier cache too.
    struct Request
    {
        size_t beamIdx;
        int tokens;
    };
    std::vector<Request> requests;
    const uint64_t tick = static_cast<uint64_t>(ctx_->clock_.now() * 1e6);

    std::vector<size_t> order = ctx_->queue_;
    // Beams that never entered the queue (pendingStepDone) need their
    // state updated but no verifier request. A membership bitmap makes
    // this O(n) instead of the former O(n^2) std::find sweep.
    std::vector<char> queued(ctx_->active_.size(), 0);
    for (size_t idx : ctx_->queue_) {
        if (idx < queued.size())
            queued[idx] = 1;
    }
    for (size_t i = 0; i < ctx_->active_.size(); ++i) {
        if (!queued[i])
            order.push_back(i);
    }

    std::vector<double> lookaheadScores;
    lookaheadScores.reserve(ctx_->active_.size());
    for (const auto &bp : ctx_->active_)
        lookaheadScores.push_back(bp->score);
    const SpeculativePolicy::ScoreBins lookaheadBins =
        specPolicy_.scoreBins(lookaheadScores);

    std::vector<char> seen(ctx_->active_.size(), 0);
    for (size_t idx : order) {
        if (seen[idx])
            continue; // Suspended beams appear twice in ctx_->queue_.
        seen[idx] = 1;
        ActiveBeam &b = *ctx_->active_[idx];
        if (b.forceKilled)
            continue;
        if (b.pendingStepDone) {
            b.newScore = b.pendingScore;
            b.newVerSeg = b.pendingVerSeg;
            continue;
        }
        // Mirror the new segment into the verifier tree.
        int ver_seg = ctx_->kvVer_->childOf(b.verLeaf, b.curSegId);
        if (ver_seg < 0)
            ver_seg = ctx_->kvVer_->createChild(b.verLeaf, b.curSegId,
                                          b.targetTokens);
        b.newVerSeg = ver_seg;
        int touch_leaf = ver_seg;

        // LookAhead Verification (Sec. 4.1.3): a completed speculative
        // step for child 0 is concatenated into this request. Gated to
        // beams in the top score bin — pre-verifying a beam the search
        // is about to prune wastes verifier compute.
        SpecBranch *ahead = nullptr;
        if (config_.lookaheadVerification && ctx_->lookaheadAllowed_
            && specPolicy_.binnedPotential(b.score, lookaheadBins)
                >= specPolicy_.branchFactor()) {
            for (auto &br : b.branches) {
                if (br.childIdx == 0 && br.node >= 0 && br.complete) {
                    ahead = &br;
                    break;
                }
            }
        }
        if (ahead != nullptr) {
            ahead->verNode = ctx_->kvVer_->createChild(
                ver_seg, static_cast<uint64_t>(ahead->node) | (1ULL << 62),
                ahead->decoded);
            touch_leaf = ahead->verNode;
        }
        auto touch = ctx_->kvVer_->ensureResident(touch_leaf, tick);
        const int req_tokens = touch.ok
            ? touch.recomputeTokens
            : ctx_->kvVer_->pathTokens(touch_leaf); // Budget too small to
                                              // cache: full re-prefill.
        // Verifier nodes restored from the host tier are excluded
        // from req_tokens above; pay their link transfer instead.
        if (touch.ok)
            chargeSwapIn(touch.swappedInBytes);
        requests.push_back({idx, std::max(req_tokens, 1)});

        b.newScore =
            drawScore(verifier_, b.seed, b.steps, b.draw.quality);
        if (ahead != nullptr) {
            const uint64_t child_seed =
                childLineageSeed(b.seed, b.steps + 1, 0);
            ahead->score = drawScore(verifier_, child_seed, b.steps + 1,
                                     ahead->draw.quality);
            ahead->scored = true;
        }
    }

    // Observed full-path length feeds the next re-plan (verifier
    // working-set estimate).
    double path_total = 0;
    int path_count = 0;
    for (const auto &bp : ctx_->active_) {
        if (bp->newVerSeg >= 0) {
            path_total += ctx_->kvVer_->pathTokens(bp->newVerSeg);
            ++path_count;
        }
    }
    if (path_count > 0)
        ctx_->meanVerifierPath_ = path_total / path_count;

    // Batch the requests at the planned prefill batch size.
    const int b_pre = std::max(1, ctx_->plan_.prefillBatch);
    double seq_total = 0;
    for (size_t i = 0; i < requests.size();) {
        const size_t count =
            std::min<size_t>(b_pre, requests.size() - i);
        double batch_tokens = 0;
        for (size_t k = 0; k < count; ++k)
            batch_tokens += requests[i + k].tokens;
        const double mean_len = batch_tokens / count;
        ctx_->clock_.advance(
            roofline_.prefillTime(models_.verifier,
                                  static_cast<int>(count), mean_len),
            Phase::Verification,
            roofline_.prefillComputeUtil(models_.verifier,
                                         static_cast<int>(count),
                                         mean_len),
            static_cast<int>(count), b_pre);
        seq_total += batch_tokens;
        i += count;
    }
    if (!requests.empty())
        ctx_->meanVerifierSeq_ = seq_total / requests.size();
}

void
FastTtsEngine::completeBeam(ActiveBeam &beam, double score)
{
    CompletedSolution sol;
    sol.answer = beam.draw.answer;
    sol.score = score;
    sol.tokens = beam.totalTokens;
    sol.finishTime = ctx_->clock_.now();
    ctx_->completed_.push_back(sol);
}

void
FastTtsEngine::pruneBeam(ActiveBeam &beam)
{
    for (auto &br : beam.branches) {
        if (br.node >= 0)
            releaseBranch(br);
    }
    beam.branches.clear();
}

void
FastTtsEngine::runSelectionPhase()
{
    // --- Commit step results ---
    for (auto &bp : ctx_->active_) {
        ActiveBeam &b = *bp;
        if (b.forceKilled) {
            // Unverified forced completion: weak score.
            b.steps += 1;
            b.totalTokens += b.decoded;
            completeBeam(b, 0.05);
            pruneBeam(b);
            continue;
        }
        b.steps += 1;
        b.totalTokens += b.targetTokens;
        b.quality = b.draw.quality;
        b.leaf = b.curSeg;
        b.verLeaf = b.newVerSeg;
        b.prevScore = b.score;
        b.score = b.newScore;
    }

    // --- Collect terminal beams ---
    std::vector<size_t> live;
    for (size_t i = 0; i < ctx_->active_.size(); ++i) {
        ActiveBeam &b = *ctx_->active_[i];
        if (b.forceKilled)
            continue;
        if (b.draw.terminal) {
            completeBeam(b, b.score);
            pruneBeam(b);
        } else {
            live.push_back(i);
        }
    }

    const int target = algorithm_.beamWidth()
        - static_cast<int>(ctx_->completed_.size());

    std::vector<BeamCandidate> candidates;
    for (size_t k = 0; k < live.size(); ++k) {
        const ActiveBeam &b = *ctx_->active_[live[k]];
        BeamCandidate c;
        c.index = k;
        c.score = b.score;
        c.prevScore = b.prevScore;
        c.rootIndex = b.rootIndex;
        c.steps = b.steps;
        c.beamId = b.id;
        candidates.push_back(c);
    }

    std::vector<std::unique_ptr<ActiveBeam>> next;
    if (target > 0 && !candidates.empty()) {
        Rng sel_rng(Rng::mix(ctx_->problem_.seed,
                             0x5e1ec7 + static_cast<uint64_t>(
                                 ctx_->iteration_)));
        const SelectionResult result =
            algorithm_.select(candidates, target, sel_rng);

        std::vector<int> child_count(live.size(), 0);
        for (const auto &[cand_idx, k] : result.expansions)
            child_count[cand_idx] = k;

        for (size_t k = 0; k < live.size(); ++k) {
            ActiveBeam &parent = *ctx_->active_[live[k]];
            const int num_children = child_count[k];
            for (int j = 0; j < num_children; ++j) {
                auto child = std::make_unique<ActiveBeam>();
                child->id = ctx_->nextBeamId_++;
                child->seed =
                    childLineageSeed(parent.seed, parent.steps, j);
                child->rootIndex = parent.rootIndex;
                child->steps = parent.steps;
                child->quality = parent.quality;
                child->score = parent.score;
                child->prevScore = parent.score;
                child->totalTokens = parent.totalTokens;
                child->leaf = parent.leaf;
                child->verLeaf = parent.verLeaf;
                child->prevPos = parent.prevPos;
                child->spawnTime = ctx_->clock_.now();

                // Adopt the matching speculative branch, if any
                // (Algorithm 1: DuplicateThenTruncate — the original,
                // j == 0, keeps everything; duplicates truncate).
                SpecBranch *branch = nullptr;
                for (auto &br : parent.branches) {
                    if (br.childIdx == j && br.node >= 0) {
                        branch = &br;
                        break;
                    }
                }
                if (branch != nullptr) {
                    int keep = branch->decoded;
                    if (j != 0) {
                        keep = specPolicy_.truncationKeep(
                            branch->decoded, ctx_->systemRng_);
                        ctx_->kvGen_->truncateTokens(branch->node, keep);
                        ctx_->wastedSpecTokens_ += branch->decoded - keep;
                    }
                    child->curSeg = branch->node;
                    child->curSegId = branch->segId;
                    child->decoded = keep;
                    child->headStart = keep;
                    child->draw = branch->draw;
                    child->targetTokens = branch->target;
                    child->stepPrepared = true;
                    if (j == 0 && branch->complete && branch->scored) {
                        child->pendingStepDone = true;
                        child->pendingScore = branch->score;
                        child->pendingVerSeg = branch->verNode;
                    } else if (branch->verNode >= 0) {
                        branch->verNode = -1;
                    }
                    // Transfer the branch's KV retention to nobody:
                    // waiting beams hold no pins (evictable), matching
                    // vLLM semantics.
                    if (branch->retained) {
                        ctx_->kvGen_->release(branch->node);
                        branch->retained = false;
                    }
                    branch->node = -1; // Consumed.
                } else {
                    child->curSeg = -1;
                    child->decoded = 0;
                }
                next.push_back(std::move(child));
            }
            // Unconsumed branches are wasted speculation.
            pruneBeam(parent);
        }
    } else {
        // Width exhausted: prune all remaining candidates.
        for (size_t k = 0; k < live.size(); ++k)
            pruneBeam(*ctx_->active_[live[k]]);
    }

    ctx_->active_ = std::move(next);
}

RequestResult
FastTtsEngine::runRequest(const Problem &problem)
{
    beginRequest(problem);
    while (stepRequest()) {
    }
    return finishRequest();
}

void
FastTtsEngine::beginRequest(const Problem &problem,
                            bool defer_prompt_prefill)
{
    resetRequestState(problem, defer_prompt_prefill);
    ctx_->inRequest_ = true;
}

int
FastTtsEngine::prefillPromptChunk(int max_tokens)
{
    if (ctx_->promptRemaining_ <= 0 || max_tokens <= 0)
        return 0;
    const int chunk = std::min(max_tokens, ctx_->promptRemaining_);
    if (ctx_->promptRemaining_ == ctx_->promptChunkTotal_) {
        // First chunk (promptChunkTotal_ is the suffix left after any
        // prefix-cache mount; with the cache off it equals the full
        // prompt): materialise the prompt node. Under shared-ledger
        // exhaustion the prompt cannot be stored yet — fall back to
        // paying it as recompute at first decode touch, exactly like
        // the up-front path's ledger deferral (charging chunks AND
        // the inevitable recompute would double-count). The ledger
        // itself stays symmetric either way: allocateBlocks is
        // all-or-nothing, so a refused charge reserves nothing to
        // leak (tests/test_online_server.cc pins occupancy returning
        // to baseline after a tight-budget storm).
        const auto touch = ctx_->kvGen_->ensureResident(
            ctx_->promptNodeGen_,
            static_cast<uint64_t>(ctx_->clock_.now() * 1e6));
        if (!touch.ok) {
            ctx_->promptRemaining_ = 0;
            return 0;
        }
        // A prompt node parked on the host tier by a mid-prefill
        // preemption copies back here; the remaining chunks below
        // still pay their prefill exactly as before.
        chargeSwapIn(touch.swappedInBytes);
    }
    ctx_->clock_.advance(
        roofline_.prefillTime(models_.generator, 1, chunk),
        Phase::Recompute,
        roofline_.prefillComputeUtil(models_.generator, 1, chunk), 1,
        1);
    ctx_->promptRemaining_ -= chunk;
    return chunk;
}

BatchWaveResult
FastTtsEngine::stepBatch(const std::vector<RequestContext *> &contexts,
                         const BatchPlan &plan)
{
    BatchWaveResult out;
    out.outcomes.resize(contexts.size());
    assert(!hasActiveRequest());

    // Park the engine's own (idle) context; members mount one at a
    // time, borrowed — ownership stays with the caller's handles.
    std::unique_ptr<RequestContext> parked = std::move(ctx_);

    struct DecodeRun
    {
        size_t member = 0;
        double genTime = 0;    //!< Generation+recompute clock delta.
        double serialTime = 0; //!< Everything else (verify, transfer).
        int beams = 1;
        double avgCtx = 0;     //!< Mean resident context (tokens).
    };
    std::vector<DecodeRun> runs;
    runs.reserve(plan.entries.size());

    for (const BatchPlanEntry &entry : plan.entries) {
        if (entry.member >= contexts.size()
            || contexts[entry.member] == nullptr)
            continue;
        ctx_.reset(contexts[entry.member]);
        BatchMemberOutcome &outcome = out.outcomes[entry.member];
        outcome.participated = true;
        if (entry.kind == BatchWorkKind::PrefillChunk) {
            const double before = ctx_->clock_.now();
            outcome.prefilledTokens += prefillPromptChunk(entry.tokens);
            const double delta = ctx_->clock_.now() - before;
            outcome.activeDelta += delta;
            out.waveTime += delta;
            ++out.prefillChunks;
        } else {
            DecodeRun run;
            run.member = entry.member;
            run.beams =
                std::max(1, static_cast<int>(ctx_->active_.size()));
            long path_total = 0;
            for (const auto &b : ctx_->active_)
                path_total += ctx_->kvGen_->pathTokens(b->leaf);
            run.avgCtx = ctx_->active_.empty()
                ? static_cast<double>(ctx_->problem_.promptTokens)
                : static_cast<double>(path_total)
                    / static_cast<double>(ctx_->active_.size());
            const double gen0 =
                ctx_->clock_.phaseTime(Phase::Generation)
                + ctx_->clock_.phaseTime(Phase::Recompute);
            const double t0 = ctx_->clock_.now();
            const long decoded0 = ctx_->generatedTokens_;
            const int stalls0 = ctx_->generationStalls_;
            outcome.moreWork = stepRequest();
            outcome.generationStalls += ctx_->generationStalls_ - stalls0;
            run.genTime = ctx_->clock_.phaseTime(Phase::Generation)
                + ctx_->clock_.phaseTime(Phase::Recompute) - gen0;
            run.serialTime = (ctx_->clock_.now() - t0) - run.genTime;
            const long decoded = ctx_->generatedTokens_ - decoded0;
            outcome.decodedTokens += decoded;
            out.tokensDecoded += decoded;
            runs.push_back(run);
        }
        outcome.clock = ctx_->clock_.now();
        ctx_.release();
    }

    // Fuse the decode members' generation time: one wave of
    // sum(beams) sequences from all members streams the generator
    // weights ONCE, so the fused step is priced by the roofline at
    // the combined batch and the serial per-member sum scales down
    // proportionally (decodeStepTime is sublinear in batch — the
    // physical basis of continuous batching's goodput win). Each
    // member's own clock keeps its solo time: per-request results
    // stay independent of batch composition; only the wall/device
    // attribution (activeDelta, waveTime) is fused.
    if (!runs.empty()) {
        double solo_sum = 0;
        double weighted_ctx = 0;
        int batch_total = 0;
        for (const DecodeRun &run : runs) {
            solo_sum += roofline_.decodeStepTime(models_.generator,
                                                 run.beams, run.avgCtx);
            batch_total += run.beams;
            weighted_ctx +=
                static_cast<double>(run.beams) * run.avgCtx;
        }
        double scale = 1.0;
        if (runs.size() > 1 && solo_sum > 0) {
            const double fused = roofline_.decodeStepTime(
                models_.generator, batch_total,
                weighted_ctx / static_cast<double>(batch_total));
            scale = std::min(1.0, fused / solo_sum);
        }
        for (const DecodeRun &run : runs) {
            const double share = scale * run.genTime + run.serialTime;
            out.outcomes[run.member].activeDelta += share;
            out.waveTime += share;
        }
    }

    ctx_ = std::move(parked);
    return out;
}

int
FastTtsEngine::prefillPending() const
{
    return ctx_->promptRemaining_;
}

long
FastTtsEngine::generatedTokensSoFar() const
{
    return ctx_->generatedTokens_;
}

bool
FastTtsEngine::stepRequest()
{
    const int hard_cap = dataset_.maxSteps + 4;
    if (!ctx_->active_.empty() && ctx_->iteration_ < hard_cap) {
        replan();
        const int stalls = ctx_->generationStalls_;
        runGenerationPhase();
        runVerificationPhase();

        IterationStats stats;
        stats.iteration = ctx_->iteration_;
        stats.activeBeams = static_cast<int>(ctx_->active_.size());
        stats.residentNodes = ctx_->kvGen_->residentNodeCount();
        stats.residentTokens = ctx_->kvGen_->residentTokens();
        long unshared = 0;
        long unique = 0;
        // Marks indexed by node id (ids are small and dense).
        std::vector<char> &visited = ctx_->visited_;
        std::fill(visited.begin(), visited.end(), 0);
        for (const auto &b : ctx_->active_) {
            const int leaf = b->curSeg >= 0 ? b->curSeg : b->leaf;
            unshared += ctx_->kvGen_->pathTokens(leaf);
            for (int id = leaf; id != KvCacheManager::kInvalid;
                 id = ctx_->kvGen_->parentOf(id)) {
                const auto slot = static_cast<size_t>(id);
                if (slot >= visited.size())
                    visited.resize(slot + 1, 0);
                if (visited[slot] != 0)
                    break; // Shared ancestors already counted.
                visited[slot] = 1;
                unique += ctx_->kvGen_->nodeTokens(id);
            }
        }
        stats.unsharedTokens = unshared;
        stats.uniqueTokens = unique;
        stats.evictions = ctx_->kvGen_->stats().evictions;
        stats.recomputedTokens = ctx_->kvGen_->stats().recomputedTokens;
        stats.decodeBatch = ctx_->plan_.decodeBatch;
        stats.prefillBatch = ctx_->plan_.prefillBatch;
        stats.generationStalls = ctx_->generationStalls_ - stalls;

        runSelectionPhase();
        stats.clock = ctx_->clock_.now();
        ctx_->iterStats_.push_back(stats);
        ++ctx_->iteration_;
    }
    if (!ctx_->active_.empty() && ctx_->iteration_ < hard_cap)
        return true;
    // Last wave: outbound host-link time from swap-outs after the last
    // touch charge still belongs to it, so the request's clock after
    // this call is its completion time.
    chargeSwapIn(0);
    return false;
}

RequestResult
FastTtsEngine::finishRequest()
{
    // Any beams alive at the hard cap (or at cancellation) are
    // abandoned.
    for (auto &b : ctx_->active_)
        pruneBeam(*b);
    ctx_->active_.clear();

    RequestResult result;
    result.completionTime = ctx_->clock_.now();
    result.generatorTime = ctx_->clock_.phaseTime(Phase::Generation)
        + ctx_->clock_.phaseTime(Phase::Recompute);
    result.verifierTime = ctx_->clock_.phaseTime(Phase::Verification);
    result.transferTime = ctx_->clock_.phaseTime(Phase::Transfer);
    result.generatedTokens = ctx_->generatedTokens_;
    result.speculativeTokens = ctx_->speculativeTokens_;
    result.wastedSpecTokens = ctx_->wastedSpecTokens_;
    result.completedBeams = static_cast<int>(ctx_->completed_.size());
    result.generationStalls = ctx_->generationStalls_;
    double token_total = 0;
    double time_total = 0;
    for (const auto &s : ctx_->completed_) {
        token_total += static_cast<double>(s.tokens);
        time_total += s.finishTime;
        result.verifiedTokens += s.tokens;
    }
    if (!ctx_->completed_.empty()) {
        result.avgBeamTokens =
            token_total / static_cast<double>(ctx_->completed_.size());
        result.avgBeamCompletion =
            time_total / static_cast<double>(ctx_->completed_.size());
    }
    result.solutions = ctx_->completed_;
    result.kvStats = ctx_->kvGen_->stats();
    const KvStats &ver = ctx_->kvVer_->stats();
    result.kvStats.evictions += ver.evictions;
    result.kvStats.evictedTokens += ver.evictedTokens;
    result.kvStats.recomputedTokens += ver.recomputedTokens;
    result.kvStats.reprefilledTokens += ver.reprefilledTokens;
    result.kvStats.hitTokens += ver.hitTokens;
    result.kvStats.missTokens += ver.missTokens;
    result.kvStats.preemptEvictions += ver.preemptEvictions;
    result.kvStats.preemptEvictedTokens += ver.preemptEvictedTokens;
    result.kvStats.swappedOutTokens += ver.swappedOutTokens;
    result.kvStats.swappedInTokens += ver.swappedInTokens;
    result.kvStats.swapTransferTime += ver.swapTransferTime;
    result.kvStats.prefixHitTokens =
        static_cast<uint64_t>(ctx_->prefixHitTokens_);
    // Publish the prompt back to the cross-request prefix cache (the
    // next request with a shared prefix mounts it), then drop the pin
    // taken at beginRequest.
    if (ctx_->prefixIndex_ != nullptr) {
        ctx_->prefixIndex_->insert(ctx_->promptIds_);
        ctx_->releasePrefixPin();
    }
    ctx_->inRequest_ = false;
    return result;
}

void
FastTtsEngine::abortRequest()
{
    for (auto &b : ctx_->active_)
        pruneBeam(*b);
    ctx_->active_.clear();
    // Abnormal exit: drop the pin taken at beginRequest WITHOUT
    // publishing the prompt — a cancelled/shed/timed-out request must
    // not advertise a prefix it never finished serving.
    ctx_->releasePrefixPin();
    ctx_->inRequest_ = false;
}

// --- Multi-request contexts ---

SuspendedEngineRequest
FastTtsEngine::suspendRequest()
{
    SuspendedEngineRequest out;
    out.ctx_ = std::move(ctx_);
    ctx_ = std::make_unique<RequestContext>();
    return out;
}

void
FastTtsEngine::resumeRequest(SuspendedEngineRequest suspended)
{
    if (suspended.ctx_ == nullptr)
        return;
    assert(!hasActiveRequest());
    ctx_ = std::move(suspended.ctx_);
}

bool
FastTtsEngine::hasActiveRequest() const
{
    return ctx_->inRequest_;
}

void
FastTtsEngine::releaseFinishedKv()
{
    if (ctx_->inRequest_)
        return;
    // The context destructor drops any prefix pin; the KV managers'
    // destructors refund their remaining ledger charge byte-for-byte.
    ctx_ = std::make_unique<RequestContext>();
}

// --- Context-backed accessors (RequestContext is engine.cc-private,
//     so these cannot be inline in the header) ---

const SimClock &
FastTtsEngine::clock() const
{
    return ctx_->clock_;
}

const AllocationPlan &
FastTtsEngine::currentPlan() const
{
    return ctx_->plan_;
}

const std::vector<IterationStats> &
FastTtsEngine::iterationStats() const
{
    return ctx_->iterStats_;
}

const KvCacheManager &
FastTtsEngine::generatorKv() const
{
    return *ctx_->kvGen_;
}

const KvCacheManager &
FastTtsEngine::verifierKv() const
{
    return *ctx_->kvVer_;
}

const std::vector<std::vector<int>> &
FastTtsEngine::stepTokenSamples() const
{
    return ctx_->stepTokens_;
}

int
FastTtsEngine::forcedTerminations() const
{
    return ctx_->forcedTerminations_;
}

// --- SuspendedEngineRequest ---

SuspendedEngineRequest::SuspendedEngineRequest() = default;
SuspendedEngineRequest::~SuspendedEngineRequest() = default;
SuspendedEngineRequest::SuspendedEngineRequest(
    SuspendedEngineRequest &&) noexcept = default;
SuspendedEngineRequest &
SuspendedEngineRequest::operator=(SuspendedEngineRequest &&) noexcept =
    default;

int
SuspendedEngineRequest::promptTokensPending() const
{
    return ctx_ != nullptr ? ctx_->promptRemaining_ : 0;
}

int
SuspendedEngineRequest::activeBeams() const
{
    return ctx_ != nullptr ? static_cast<int>(ctx_->active_.size())
                           : 0;
}

uint64_t
SuspendedEngineRequest::prefixKey() const
{
    if (ctx_ == nullptr || ctx_->prefixNode_ <= PrefixIndex::kRoot)
        return 0;
    return static_cast<uint64_t>(ctx_->prefixNode_);
}

double
SuspendedEngineRequest::residentKvBytes() const
{
    if (ctx_ == nullptr)
        return 0;
    double bytes = 0;
    if (ctx_->kvGen_ != nullptr)
        bytes += ctx_->kvGen_->residentBytes();
    if (ctx_->kvVer_ != nullptr)
        bytes += ctx_->kvVer_->residentBytes();
    return bytes;
}

long
SuspendedEngineRequest::evictKv()
{
    if (ctx_ == nullptr)
        return 0;
    const uint64_t tick =
        static_cast<uint64_t>(ctx_->clock_.now() * 1e6);
    long dropped = 0;
    // Skip trees that hold no blocks (O(1)): under sustained budget
    // pressure the serving layer retries eviction every time slice,
    // and an already-evicted victim must not pay two full-tree scans
    // per retry.
    //
    // With a host tier attached each tree makes the roofline
    // swap-vs-recompute call (KvSession::suspend with the per-token
    // prefill rate captured at request start); the outbound copy is
    // charged to the parked request's own clock as Phase::Transfer,
    // so tiering shows up in its latency, not just its token counts.
    if (ctx_->kvGen_ != nullptr && ctx_->kvGen_->residentBytes() > 0) {
        KvSession session(*ctx_->kvGen_);
        dropped += session.suspend(tick, ctx_->genRecomputePerToken_);
        if (session.lastSwapOutSeconds() > 0)
            ctx_->clock_.advance(session.lastSwapOutSeconds(),
                                 Phase::Transfer);
    }
    if (ctx_->kvVer_ != nullptr && ctx_->kvVer_->residentBytes() > 0) {
        KvSession session(*ctx_->kvVer_);
        dropped += session.suspend(tick, ctx_->verRecomputePerToken_);
        if (session.lastSwapOutSeconds() > 0)
            ctx_->clock_.advance(session.lastSwapOutSeconds(),
                                 Phase::Transfer);
    }
    return dropped;
}

} // namespace fasttts
