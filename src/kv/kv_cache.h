/**
 * @file
 * Radix-tree KV cache manager with prefix sharing and LRU eviction.
 *
 * Reasoning beams in verifier-guided TTS form a tree: children created
 * by branching share their parent's entire KV prefix (paper Sec. 3.2.2,
 * Fig. 8). The manager stores one radix-tree node per *thinking-step
 * segment*; beams reference their leaf node and share all ancestors
 * physically (block refcounts), so "beams in memory" (Fig. 5), eviction
 * counts and recompute costs (Fig. 18) are measured quantities.
 *
 * Residency model: a node is resident when its blocks are allocated on
 * the device. Evicting a node frees its blocks; re-touching an evicted
 * node later costs a prefill *recompute* of its tokens, which is the
 * cost Dynamic Prefix-Aware Scheduling (Sec. 4.2) minimises. Only
 * nodes with zero active references and no resident children are
 * evictable; victims are chosen LRU.
 */

#ifndef FASTTTS_KV_KV_CACHE_H
#define FASTTTS_KV_KV_CACHE_H

#include <cstdint>
#include <queue>
#include <string>
#include <vector>

#include "kv/block_allocator.h"

namespace fasttts
{

/** Aggregate KV-cache statistics for one run. */
struct KvStats
{
    uint64_t evictions = 0;        //!< Nodes evicted.
    uint64_t evictedTokens = 0;    //!< Tokens whose KV was dropped.
    uint64_t recomputedTokens = 0; //!< Tokens prefilled on touch of a
                                   //!< non-resident node — first
                                   //!< materialisation AND re-prefill
                                   //!< (kept conflated for metric
                                   //!< compatibility).
    uint64_t reprefilledTokens = 0; //!< Strict subset of
                                    //!< recomputedTokens: tokens
                                    //!< re-prefilled on touch of a node
                                    //!< that was evicted before — the
                                    //!< recompute a host tier can
                                    //!< actually absorb.
    uint64_t hitTokens = 0;        //!< Tokens found resident on touch.
    uint64_t missTokens = 0;       //!< Tokens materialised on touch.
    uint64_t prefixHitTokens = 0;  //!< Prompt tokens mounted from the
                                   //!< global PrefixIndex instead of
                                   //!< being prefilled (saved
                                   //!< recompute; serving layer).
    uint64_t staleVictimEntries = 0; //!< Lazily-discarded heap entries.
    uint64_t victimCompactions = 0;  //!< Victim-heap rebuilds.
    uint64_t preemptEvictions = 0;     //!< Nodes dropped by forceEvictAll.
    uint64_t preemptEvictedTokens = 0; //!< Tokens dropped by forceEvictAll.
    uint64_t swappedOutTokens = 0; //!< Tokens copied to the host tier.
    uint64_t swappedInTokens = 0;  //!< Tokens restored from the host
                                   //!< tier instead of recomputed.
    double swapTransferTime = 0;   //!< Sim seconds of host-link copies
                                   //!< (both directions).
};

class KvBudgetLedger;
class HostKvTier;

/**
 * Paged, prefix-sharing KV cache for a tree of reasoning beams.
 *
 * Node handles are stable ints; the root (id 0) is always resident and
 * holds the shared question prompt.
 */
class KvCacheManager
{
  public:
    using NodeId = int;
    static constexpr NodeId kRoot = 0;
    static constexpr NodeId kInvalid = -1;

    /**
     * @param budget_bytes Device bytes granted to this cache.
     * @param kv_bytes_per_token Model-specific KV footprint.
     * @param block_tokens Tokens per paged block (vLLM default 16).
     */
    KvCacheManager(double budget_bytes, double kv_bytes_per_token,
                   int block_tokens = 16);

    /** Releases any shared-ledger charge still held. */
    ~KvCacheManager();

    KvCacheManager(const KvCacheManager &) = delete;
    KvCacheManager &operator=(const KvCacheManager &) = delete;

    /**
     * Attach a shared byte budget (kv/kv_session.h). Every block this
     * manager allocates is additionally charged to the ledger (block
     * count x block bytes), and an exhausted ledger fails allocations
     * exactly like an exhausted local pool — after LRU reclaim has
     * been tried. Must be called while the manager holds no blocks;
     * pass nullptr to detach (only valid when nothing is charged).
     * The ledger must outlive the manager.
     */
    void attachLedger(KvBudgetLedger *ledger);

    /** The attached shared ledger (nullptr when standalone). */
    [[nodiscard]] KvBudgetLedger *ledger() const { return ledger_; }

    /**
     * Attach a host-side KV tier (kv/kv_tier.h). While attached,
     * swapOutResident() may park resident nodes on the host and
     * ensureResident() restores parked nodes instead of counting them
     * as recompute. When recompute_seconds_per_token > 0 the LRU
     * eviction path additionally makes the per-node roofline call:
     * a reclaimed victim whose host copy-out is strictly cheaper than
     * re-prefilling its tokens is parked instead of dropped (ties go
     * to recompute). The outbound copy time accrues in
     * KvStats::swapTransferTime and in a pending-seconds counter the
     * engine drains onto the request clock (takePendingSwapSeconds()).
     * The manager registers as a tier owner and drops its entries on
     * destruction (or re-attach); pass nullptr to detach. The tier
     * must outlive the manager. Attaching does not change behaviour
     * until an eviction runs, so an attached-but-unused tier is
     * byte-identical to no tier.
     */
    void attachHostTier(HostKvTier *tier,
                        double recompute_seconds_per_token = 0);

    /** The attached host tier (nullptr when untiered). */
    [[nodiscard]] HostKvTier *hostTier() const { return tier_; }

    /**
     * Outbound host-link seconds accrued by LRU-path swap-outs since
     * the last call, cleared on read. The engine charges these to the
     * request clock as Phase::Transfer alongside swap-in charges.
     */
    [[nodiscard]] double takePendingSwapSeconds();

    // ------------------------------------------------------------------
    // Tree structure
    // ------------------------------------------------------------------

    /** Child of parent holding segment seg_id, or kInvalid (the most
     *  recently created one if several children share seg_id). */
    [[nodiscard]] NodeId childOf(NodeId parent, uint64_t seg_id) const;

    /**
     * Create a child node for a new thinking-step segment. The node
     * starts non-resident with zero references; call retain() +
     * ensureResident() to pin and materialise it.
     */
    [[nodiscard]] NodeId createChild(NodeId parent, uint64_t seg_id,
                                     int tokens);

    /**
     * Mount a globally shared prompt prefix of `tokens` tokens as the
     * root segment. The root stays permanently resident and holds no
     * blocks — the bytes live in (and are charged by) the global
     * PrefixIndex — so path lengths, context sizes and roofline times
     * include the prefix while this manager's pool does not pay for
     * it, and forceEvictAll()/suspend() never drop it. Must be called
     * before any child exists (prefix sums are derived at
     * createChild time).
     */
    void setRootTokens(int tokens);

    /** Segment token count of a node. */
    [[nodiscard]] int nodeTokens(NodeId node) const;

    /** Total tokens on the root->leaf path (context length). O(1):
     *  served from a per-node cached prefix sum that createChild /
     *  appendTokens / truncateTokens maintain incrementally. */
    [[nodiscard]] int pathTokens(NodeId leaf) const;

    /** Parent node id (kInvalid for root). */
    [[nodiscard]] NodeId parentOf(NodeId node) const;

    /**
     * Grow a leaf segment by delta tokens (incremental decoding). When
     * the node is resident, newly needed blocks are allocated, evicting
     * LRU victims if required; returns false when memory cannot be
     * freed (caller must preempt).
     * @param allow_evict When false, only genuinely free blocks may be
     *        used (speculative work must never evict cache that
     *        standard beams still need).
     */
    [[nodiscard]] bool appendTokens(NodeId node, int delta, uint64_t tick,
                                    bool allow_evict = true);

    /**
     * Tokens a resident node can still grow by inside the blocks it
     * already holds (0 when not resident). An append of at most this
     * many tokens allocates nothing and cannot fail, so a caller may
     * batch such appends and apply them later in one call.
     */
    [[nodiscard]] int appendRoom(NodeId node) const;

    /** Shrink a leaf segment (speculative-token truncation). */
    void truncateTokens(NodeId node, int new_tokens);

    // ------------------------------------------------------------------
    // Reference counting (active beams)
    // ------------------------------------------------------------------

    /** Pin the whole root->leaf path (one active beam). */
    void retain(NodeId leaf);

    /** Unpin the path; nodes stay cached until evicted. */
    void release(NodeId leaf);

    /** Active references on a node. */
    [[nodiscard]] int refCount(NodeId node) const;

    // ------------------------------------------------------------------
    // Residency
    // ------------------------------------------------------------------

    /** Result of touching a path. */
    struct TouchResult
    {
        bool ok = false;          //!< Whole path resident on return.
        int cachedTokens = 0;     //!< Tokens already resident (hit).
        int recomputeTokens = 0;  //!< Tokens that must be re-prefilled.
        int swappedInTokens = 0;  //!< Tokens restored from the host
                                  //!< tier (no recompute needed).
        double swappedInBytes = 0; //!< Bytes copied back over the host
                                   //!< link; the caller charges
                                   //!< transfer time for them.
    };

    /**
     * Make the whole root->leaf path resident, evicting LRU victims as
     * needed. recomputeTokens counts tokens of previously evicted or
     * never-materialised nodes; the caller charges prefill time for
     * them.
     */
    [[nodiscard]] TouchResult ensureResident(NodeId leaf, uint64_t tick);

    /** Whether a node's blocks are on device. */
    [[nodiscard]] bool isResident(NodeId node) const;

    /** Tokens of the path that are currently resident (prefix hit). */
    [[nodiscard]] int residentPrefixTokens(NodeId leaf) const;

    /**
     * Force-evict every resident node except the root, regardless of
     * reference counts — the whole-request preemption path (a
     * suspended request's beams keep their logical pins; their KV is
     * simply gone from the device until re-touched). Counted in
     * KvStats::preemptEvictions/preemptEvictedTokens, not in the LRU
     * eviction counters.
     * @return Tokens whose KV was dropped.
     */
    long forceEvictAll();

    /**
     * Offer every resident node (except the root) to the attached
     * host tier, oldest node id first. Call immediately before
     * forceEvictAll(): accepted nodes keep their KV on the host and
     * restore for transfer time instead of recompute at the next
     * touch; refused nodes (host budget exhausted) fall back to lazy
     * recompute unchanged. Accrues KvStats::swappedOutTokens and the
     * outbound half of KvStats::swapTransferTime. No-op without a
     * tier.
     * @return Tokens accepted by the tier.
     */
    long swapOutResident();

    /** Deepest resident node of every cached path (resident nodes
     *  with no resident children), excluding the root; the snapshot
     *  KvSession::suspend() restores from. */
    [[nodiscard]] std::vector<NodeId> residentFrontier() const;

    // ------------------------------------------------------------------
    // Introspection / metrics
    // ------------------------------------------------------------------

    /** Pool accounting. */
    [[nodiscard]] const BlockAllocator &allocator() const { return alloc_; }

    /**
     * Blocks this manager could allocate right now without eviction:
     * the local pool's free count, further capped by the shared
     * ledger's remaining bytes when one is attached.
     */
    [[nodiscard]] size_t freeBlocks() const;

    /** Bytes one block of this manager occupies. */
    [[nodiscard]] double blockBytes() const
    {
        return blockTokens_ * kvBytesPerToken_;
    }

    /** Device bytes currently held (used blocks x block bytes). */
    [[nodiscard]] double residentBytes() const;

    /** Running statistics. */
    [[nodiscard]] const KvStats &stats() const { return stats_; }

    /** Number of nodes ever created, excluding root. O(1). Nodes are
     *  never erased: they live until the manager is destroyed. */
    [[nodiscard]] int nodeCount() const;

    /** Number of resident nodes, excluding root. */
    [[nodiscard]] int residentNodeCount() const;

    /** Total resident tokens (unique; prefix shared once). */
    [[nodiscard]] long residentTokens() const;

    /**
     * Tokens that would be resident if no prefix sharing existed
     * (every retained beam stores its full path privately). Used for
     * the "w/o prefix cache" series of Fig. 5. O(1): counter-backed,
     * maintained by retain/release/append/truncate.
     */
    [[nodiscard]] long unsharedTokens() const;

    /** Tokens per block. */
    [[nodiscard]] int blockTokens() const { return blockTokens_; }

    /** Model-specific KV footprint of one token. */
    [[nodiscard]] double kvBytesPerToken() const
    {
        return kvBytesPerToken_;
    }

    /** Re-plan the budget (asymmetric allocator updates). */
    void setBudgetBytes(double budget_bytes);

    /** Budget in bytes. */
    [[nodiscard]] double budgetBytes() const;

    /** Blocks needed for n tokens. */
    [[nodiscard]] size_t blocksFor(int tokens) const;

    /**
     * Maintenance: drop stale victim-heap entries (nodes that are no
     * longer evictable, counted in KvStats::staleVictimEntries) and
     * rebuild the heap from the surviving candidates. reclaim()
     * invokes this automatically behind a defensive bound when stale
     * entries pile up past the resident set; it is public so tests
     * and diagnostics can force the rebuild deterministically.
     */
    void compactVictims();

    /**
     * Recompute every counter and link from the nodes and compare:
     * resident tokens and nodes, the unshared-token counter, each
     * node's resident-children count and cached prefix sum, parent and
     * sibling links, held blocks against the allocator's used count
     * and the shared-ledger charge. O(nodes); for tests.
     * @return The first mismatch found, or an empty string.
     */
    [[nodiscard]] std::string checkInvariants() const;

  private:
    // Trivially copyable: children form an intrusive singly linked
    // list (firstChild, then nextSibling, newest first), so creating a
    // node allocates nothing beyond amortised growth of nodes_.
    struct Node
    {
        uint64_t segId = 0;
        uint64_t lastUse = 0;
        size_t blocksHeld = 0;
        NodeId parent = kInvalid;
        NodeId firstChild = kInvalid;
        NodeId nextSibling = kInvalid;
        int tokens = 0;
        int prefixTokens = 0; //!< Path tokens of all strict ancestors.
        int refCount = 0;
        int residentChildren = 0;
        bool resident = false;
        bool inVictimHeap = false; //!< Has exactly one victims_ entry.
        bool evictedOnce = false;  //!< Lost residency at least once
                                   //!< (LRU or preemption), so its next
                                   //!< materialisation is a re-prefill.
    };

    Node &node(NodeId id) { return nodes_[static_cast<size_t>(id)]; }
    const Node &
    node(NodeId id) const
    {
        return nodes_[static_cast<size_t>(id)];
    }

    bool evictable(const Node &n) const;
    void maybeEnqueueVictim(NodeId id);
    /** allocate() on the local pool and charge the ledger; all-or-
     *  nothing. */
    bool allocateBlocks(size_t n);
    /** release() on the local pool and refund the ledger. */
    void releaseBlocks(size_t n);
    /** Evict LRU victims until at least need_blocks are free.
     *  @return true on success. */
    bool reclaim(size_t need_blocks);
    void evictNode(NodeId id);
    void markResident(NodeId id, uint64_t tick);
    /** Add delta to the cached prefix sums of every descendant of id.
     *  Hot-path appends hit leaves, so this is almost always a no-op. */
    void shiftDescendantPrefixes(NodeId id, int delta);

    double kvBytesPerToken_;
    int blockTokens_;
    BlockAllocator alloc_;
    KvBudgetLedger *ledger_ = nullptr; //!< Shared budget (optional).
    double ledgerCharged_ = 0;         //!< Bytes charged to ledger_.
    HostKvTier *tier_ = nullptr;       //!< Host swap tier (optional).
    uint64_t tierOwner_ = 0;           //!< Owner id under tier_.
    double swapRatePerToken_ = 0;      //!< Recompute s/token for the
                                       //!< LRU-path roofline call;
                                       //!< 0 disables it.
    double pendingSwapSeconds_ = 0;    //!< Outbound copy time not yet
                                       //!< drained onto a clock.
    std::vector<Node> nodes_;
    KvStats stats_;
    int residentCount_ = 0;   //!< Resident nodes, excluding root.
    long residentTokens_ = 0; //!< Unique resident tokens.
    long unsharedTokens_ = 0; //!< Sum of tokens * refCount over nodes.
    std::vector<NodeId> dfsScratch_;  //!< Reused by prefix propagation.
    std::vector<NodeId> pathScratch_; //!< Reused by ensureResident.

    // Min-heap of (lastUse, node) eviction candidates. Each node has at
    // most one entry (Node::inVictimHeap); entries whose key no longer
    // matches the node's lastUse are lazily refreshed on pop.
    using Victim = std::pair<uint64_t, NodeId>;
    std::priority_queue<Victim, std::vector<Victim>, std::greater<>>
        victims_;
};

} // namespace fasttts

#endif // FASTTTS_KV_KV_CACHE_H
