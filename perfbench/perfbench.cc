/**
 * @file
 * perfbench: the repository benchmark.
 *
 * Measures two systems on fixed workloads:
 *
 *  - the modelled edge server, in simulated seconds (deterministic for
 *    a given seed): goodput, latency percentiles over every request
 *    sent, SLO attainment;
 *  - the simulator itself, in host CPU time: simulated verified tokens
 *    per host second of the serve call (scaled to a reference host
 *    speed, see HostSpeed), set-up time; and its peak heap memory.
 *
 * Every input (arrival rate, SLO tiers, KV budget, wave token budget,
 * prompt shapes, request counts) is a constant of the workload; only
 * the seed comes from the command line. Outputs are checked on every
 * run. `--trace 1` adds a traced run: spans recorded around the calls
 * into each layer from this file (the engine step, the queue policy
 * and the search algorithm through delegating registrations), kept in
 * memory, written out at the end and reduced to per-layer self times.
 *
 *   perfbench --workload edge_single_user --seed 11 --seconds 15 \
 *             --trace 0
 *
 * The last line of standard output is one JSON object:
 * {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <functional>
#include <memory>
#include <new>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <malloc.h>

#include "api/engine_args.h"
#include "core/online_server.h"
#include "core/serving.h"
#include "kv/prefix_index.h"
#include "metrics/accuracy.h"
#include "metrics/request_metrics.h"
#include "sched/queue_policy.h"
#include "search/search_algorithm.h"
#include "util/json.h"
#include "util/rng.h"

// Every allocation of the process, the fasttts library's included, goes
// through these replacements of the global operator new and delete,
// which keep the live and the peak byte count. That counts the
// simulator's own memory exactly: unlike the resident set, it does not
// move with the address-space layout from run to run. The simulator is
// single-threaded, so the counters are plain integers.
namespace
{

size_t liveHeapBytes = 0;
size_t peakHeapBytes = 0;

void *
countedAlloc(size_t bytes)
{
    void *p = std::malloc(bytes == 0 ? 1 : bytes);
    if (p == nullptr)
        throw std::bad_alloc();
    liveHeapBytes += malloc_usable_size(p);
    peakHeapBytes = std::max(peakHeapBytes, liveHeapBytes);
    return p;
}

void
countedFree(void *p) noexcept
{
    if (p == nullptr)
        return;
    liveHeapBytes -= malloc_usable_size(p);
    std::free(p);
}

/**
 * Heap the simulator allocates from construction on: the peak of live
 * bytes above the live count at construction. Built after a serve's
 * input, so the input the benchmark holds is not counted.
 */
class HeapWindow
{
  public:
    HeapWindow() : base_(liveHeapBytes) { peakHeapBytes = liveHeapBytes; }

    size_t peakBytes() const { return peakHeapBytes - base_; }

  private:
    size_t base_;
};

} // namespace

void *operator new(size_t bytes) { return countedAlloc(bytes); }
void *operator new[](size_t bytes) { return countedAlloc(bytes); }
void operator delete(void *p) noexcept { countedFree(p); }
void operator delete[](void *p) noexcept { countedFree(p); }
void operator delete(void *p, size_t) noexcept { countedFree(p); }
void operator delete[](void *p, size_t) noexcept { countedFree(p); }

namespace
{

using namespace fasttts;
using HostClock = std::chrono::steady_clock;

constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;

// Inputs shared by every workload, pinned here rather than taken from
// the library's defaults: the modelled device and models, the search
// algorithm and its branch factor, and the continuous-batching wave
// shape (per-wave token budget, largest prompt slice per request).
constexpr const char *kDevice = "RTX4090";
constexpr const char *kModels = "1.5B+1.5B";
constexpr const char *kAlgorithm = "beam_search";
constexpr int kBranchFactor = 4;
constexpr int kMaxBatchedTokens = 4096;
constexpr int kPrefillChunk = 512;

double
secondsSince(HostClock::time_point start)
{
    return std::chrono::duration<double>(HostClock::now() - start).count();
}

/** CPU seconds this process has used: the simulator's own cost, not
 *  counting time it spends descheduled on a shared host. */
double
cpuSeconds()
{
    timespec now{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
    return static_cast<double>(now.tv_sec)
        + 1e-9 * static_cast<double>(now.tv_nsec);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

// ---------------------------------------------------------------------
// Host speed
// ---------------------------------------------------------------------

// The shared host's speed wanders on every time scale. A fixed loop's
// CPU time varied by 12% between 5 ms windows and still by 5% between
// 5 s windows, and the same serve took from 1.4 to 2.5 CPU seconds in
// runs minutes apart. Host times are therefore reported in reference
// seconds: CPU seconds scaled by the speed a fixed calibration loop
// shows in the same run. The loop runs between short stretches of
// every untraced serve (each open-loop trace, every kRequestsPerLap
// closed-loop requests), outside their timing, so that it shares their
// phases.

/** Reference CPU seconds of one calibration unit: a round figure in
 *  the range of its time on the host the benchmark was tuned on, a
 *  shared 4-vCPU Intel Xeon VM, where a run's average read 0.023 to
 *  0.030 s. */
constexpr double kReferenceUnitSeconds = 0.025;

/** Calibration after a stretch of serving, as a share of its CPU
 *  time. */
constexpr double kCalibrationShare = 0.2;

/** Closed-loop requests served between two calibrations. */
constexpr int kRequestsPerLap = 50;

/** Keeps the calibration's result observable, so it is not elided. */
volatile double calibrationSink = 0;

/**
 * CPU seconds of one calibration unit: fixed work (sorting, binary
 * search, random reads, floating point) from the standard library
 * alone, so no change to the simulator moves it. It allocates nothing,
 * so calibrating inside a serve leaves the heap count alone.
 */
double
timeCalibrationUnit()
{
    const double start = cpuSeconds();
    uint64_t x = 0x9e3779b97f4a7c15ULL; // xorshift64
    auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    std::array<double, 4096> values;
    std::array<uint64_t, 512> keys;
    double acc = 0;
    for (int round = 0; round < 40; ++round) {
        for (double &v : values)
            v = std::log1p(static_cast<double>(next() >> 11) * 0x1p-53);
        std::sort(values.begin(), values.end());
        for (uint64_t &k : keys)
            k = next() & 0xffff;
        std::sort(keys.begin(), keys.end());
        for (size_t i = 0; i < values.size(); ++i)
            acc += values[next() & 4095]
                * (std::binary_search(keys.begin(), keys.end(),
                                      next() & 0xffff)
                       ? 1.0
                       : 0.0);
    }
    calibrationSink = calibrationSink + acc;
    return cpuSeconds() - start;
}

/** The run's host speed, from calibration units timed between serves. */
class HostSpeed
{
  public:
    /** Times units for kCalibrationShare of `serve_seconds`, at least
     *  one. */
    void calibrateAfter(double serve_seconds)
    {
        const double target = kCalibrationShare * serve_seconds;
        double spent = 0;
        do {
            spent += timeCalibrationUnit();
            units_ += 1;
        } while (spent < target);
        seconds_ += spent;
    }

    /** Reference seconds per CPU second of this run. */
    double scale() const
    {
        return ratio(kReferenceUnitSeconds * static_cast<double>(units_),
                     seconds_);
    }

  private:
    long units_ = 0;
    double seconds_ = 0;
};

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/** One named workload; every field is fixed, only the seed varies. */
struct Workload
{
    const char *name;
    const char *why;
    uint64_t defaultSeed; //!< Seed used when --seed is not given.
    uint64_t heldOutSeed; //!< Seed kept out of tuning, for checks.

    // Engine.
    const char *dataset;
    int beams;
    int problemSet; //!< Size of the generated problem set.

    // Load. A closed loop sends `requests` problems back to back from
    // one client; an open loop sends `traces` independent traces of
    // `requests` arrivals each, at mean rate `rate`.
    bool closedLoop;
    int requests;
    int traces;
    const char *arrivals; //!< "poisson" or "bursty".
    double rate;          //!< Mean arrivals per simulated second.

    // Latency objective: request i's deadline is its due time plus
    // slo * sloTiers[i % tierCount]. A request not finished by the
    // horizon (last due time + grace) enters the latency sample at
    // the horizon.
    double slo;
    std::vector<double> sloTiers;
    double grace;

    // Online server.
    const char *policy;
    bool shedDoomed;
    int maxInflight;
    double kvBudgetGiB;
    double prefixCacheGiB; //!< Prefix cache budget; 0 = cache off.

    // Multi-turn sessions with Zipf(1) popularity (0 sessions = plain
    // dataset prompts). Turn t of a conversation carries basePrompt +
    // (t-1) * turnGrowth position-keyed token ids, so it prefix-extends
    // turn t-1; after maxTurns turns a session starts a new
    // conversation.
    int sessions;
    int basePrompt;
    int turnGrowth;
    int maxTurns;
};

const std::vector<Workload> &
workloads()
{
    // A seed also generates the workload's problem set. Open loops draw
    // from 8,192 problems, so that which problems a seed generates moves
    // the latencies less. On kv_pressure over twenty seeds, the spreads
    // of p50 and p99 were 5.6% and 11.9% at 2,048 problems, and 3.2% and
    // 7.9% at 8,192.
    static const std::vector<Workload> table = {
        // name, why,
        // defaultSeed, heldOutSeed,
        // dataset, beams, problemSet,
        // closedLoop, requests, traces, arrivals, rate,
        // slo, sloTiers, grace,
        // policy, shedDoomed, maxInflight, kvBudgetGiB, prefixCacheGiB,
        // sessions, basePrompt, turnGrowth, maxTurns
        {"edge_single_user",
         "the paper's deployment: one user, batch size 1, closed loop",
         11, 12,
         "AIME", 64, 1000,
         true, 1000, 1, "", 0.0,
         60.0, {1.0}, 0.0,
         "fifo", false, 1, 0.0, 0.0,
         0, 0, 0, 0},
        // The session traffic is synthetic and unverified: no public
        // multi-turn trace is used. Its shape is the repository's own
        // online_prefix_reuse benchmark (bench/bench_runner.cc): AMC, 4
        // in flight, FIFO, 6 sessions with Zipf(1) popularity, 96-token
        // base prompts growing by 48 tokens a turn, and the default
        // prefix cache of 1/8 of the KV budget. Beams are its quick
        // mode's 8: with its full mode's 16 the full budget binds and
        // one seed in 16 fell into the KV-thrash collapse, which
        // bursty_tight_kv records. Its sessions never end; here a
        // conversation lasts the 4 turns of bench_fig05_prefix_sharing.cc.
        // Only the rate, the SLO and the trace count are this
        // workload's own: the rate puts device utilisation at about
        // 0.94, and the SLO is about twice the median latency. With 6
        // traces a run, sim_tokens_per_host_s spread by 7.0% across
        // five seeds, and repeated runs of one seed by 1.2%; with 12
        // traces the seed spread fell to 1.9%.
        {"multiturn_prefix",
         "many users, zipf-popular multi-turn sessions sharing prompt "
         "prefixes, prefix cache on",
         21, 22,
         "AMC", 8, 8192,
         false, 2000, 12, "poisson", 0.3,
         20.0, {1.0}, 600.0,
         "fifo", false, 4, 2.3831, 2.3831 / 8,
         6, 96, 48, 4},
        // bursty_tight_kv's engine, policy, SLO tiers and concurrency
        // under memory pressure that does not collapse. The budget is
        // 2.0 GiB, 0.84x the engine's: at 1.6 GiB most seeds thrash and
        // at 1.8 GiB one trace in 64 did. Arrivals are Poisson, because
        // the Pareto gaps of bursty traces left a 23-36% spread in p99
        // across eight seeds even at 8,000 requests. Doomed requests are not
        // shed, so every request's latency is measured rather than
        // censored. 16 traces a run: with 8, p50 and p99 spread by up to
        // 6.8% and 8.5% across ten seeds.
        {"kv_pressure",
         "a KV budget that binds without collapse: ledger, eviction, "
         "re-prefill and admission carry it",
         41, 42,
         "AMC", 32, 8192,
         false, 1000, 16, "poisson", 0.045,
         20.0, {0.75, 1.5, 3.0, 6.0}, 600.0,
         "edf", false, 8, 2.0, 0.0,
         0, 0, 0, 0},
        // Kept with its load unchanged to record the collapse; it is not
        // listed in BENCHMARK.json (see perfbench/README.md).
        {"bursty_tight_kv",
         "overload bursts under half the KV budget: ledger, eviction "
         "and admission carry it; the known thrash collapse shows",
         31, 32,
         "AMC", 32, 256,
         false, 1000, 1, "bursty", 0.05,
         20.0, {0.75, 1.5, 3.0, 6.0}, 600.0,
         "edf", true, 8, 1.19, 0.0,
         0, 0, 0, 0},
    };
    return table;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads())
        if (name == w.name)
            return &w;
    return nullptr;
}

// ---------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------

enum class SpanKind {
    Setup,
    ServingServe,
    OnlineServe,
    EngineStep,
    QueuePick,
    QueuePreempt,
    SearchSelect,
    Count
};

const char *
spanName(SpanKind kind)
{
    switch (kind) {
    case SpanKind::Setup: return "setup";
    case SpanKind::ServingServe: return "serving.serve";
    case SpanKind::OnlineServe: return "online_server.serve";
    case SpanKind::EngineStep: return "engine.step";
    case SpanKind::QueuePick: return "queue_policy.pick";
    case SpanKind::QueuePreempt: return "queue_policy.should_preempt";
    case SpanKind::SearchSelect: return "search.select";
    case SpanKind::Count: break;
    }
    return "?";
}

constexpr size_t kSpanKinds = static_cast<size_t>(SpanKind::Count);

struct Span
{
    SpanKind kind;
    int parent;   //!< Index of the enclosing span, -1 at top level.
    long request; //!< Closed-loop request index, -1 when unknown.
    int64_t startNs;
    int64_t endNs;
};

/** Per-kind reduction of a span list: calls and self time. */
struct LayerTimes
{
    long calls[kSpanKinds] = {};
    double selfSeconds[kSpanKinds] = {};

    long callsOf(SpanKind k) const { return calls[static_cast<size_t>(k)]; }
    double selfOf(SpanKind k) const
    {
        return selfSeconds[static_cast<size_t>(k)];
    }
};

/**
 * In-memory span recorder. Single-threaded like the simulator; when
 * disabled, open() returns -1 and nothing is recorded.
 */
class Tracer
{
  public:
    void
    begin()
    {
        spans_.clear();
        stack_.clear();
        enabled_ = true;
    }

    void end() { enabled_ = false; }

    int
    open(SpanKind kind, long request)
    {
        if (!enabled_)
            return -1;
        const int index = static_cast<int>(spans_.size());
        const int parent = stack_.empty() ? -1 : stack_.back();
        if (request < 0 && parent >= 0)
            request = spans_[static_cast<size_t>(parent)].request;
        spans_.push_back({kind, parent, request, nowNs(), 0});
        stack_.push_back(index);
        return index;
    }

    void
    close(int index)
    {
        if (index < 0)
            return;
        spans_[static_cast<size_t>(index)].endNs = nowNs();
        stack_.pop_back();
    }

    /** Self time = span duration minus its children's durations. */
    LayerTimes
    reduce() const
    {
        std::vector<int64_t> childNs(spans_.size(), 0);
        for (const Span &s : spans_)
            if (s.parent >= 0)
                childNs[static_cast<size_t>(s.parent)] += s.endNs - s.startNs;
        LayerTimes out;
        for (size_t i = 0; i < spans_.size(); ++i) {
            const size_t k = static_cast<size_t>(spans_[i].kind);
            out.calls[k] += 1;
            out.selfSeconds[k] +=
                1e-9
                * static_cast<double>(spans_[i].endNs - spans_[i].startNs
                                      - childNs[i]);
        }
        return out;
    }

    /** Write the spans as CSV (one line per span, times in ns). */
    bool
    write(const std::string &path) const
    {
        std::ofstream out(path);
        if (!out)
            return false;
        out << "index,parent,request,name,start_ns,end_ns\n";
        const int64_t origin = spans_.empty() ? 0 : spans_.front().startNs;
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out << i << ',' << s.parent << ',' << s.request << ','
                << spanName(s.kind) << ',' << s.startNs - origin << ','
                << s.endNs - origin << '\n';
        }
        return static_cast<bool>(out);
    }

  private:
    static int64_t
    nowNs()
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   HostClock::now().time_since_epoch())
            .count();
    }

    bool enabled_ = false;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

Tracer &
tracer()
{
    static Tracer instance;
    return instance;
}

/** RAII span; a no-op while the tracer is disabled. */
class ScopedSpan
{
  public:
    explicit ScopedSpan(SpanKind kind, long request = -1)
        : index_(tracer().open(kind, request))
    {
    }
    ~ScopedSpan() { tracer().close(index_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    int index_;
};

/** Search algorithm that times select() around a registered one. */
class TracedAlgorithm : public SearchAlgorithm
{
  public:
    explicit TracedAlgorithm(std::unique_ptr<SearchAlgorithm> inner)
        : inner_(std::move(inner))
    {
    }

    std::string name() const override { return inner_->name(); }
    int beamWidth() const override { return inner_->beamWidth(); }
    int branchFactor() const override { return inner_->branchFactor(); }

    SelectionResult
    select(const std::vector<BeamCandidate> &candidates, int target_width,
           Rng &rng) const override
    {
        ScopedSpan span(SpanKind::SearchSelect);
        return inner_->select(candidates, target_width, rng);
    }

    int
    stepTokenCap(int step_index) const override
    {
        return inner_->stepTokenCap(step_index);
    }

  private:
    std::unique_ptr<SearchAlgorithm> inner_;
};

/** Queue policy that times pick()/shouldPreempt() around a registered
 *  one. */
class TracedPolicy : public QueuePolicy
{
  public:
    explicit TracedPolicy(std::unique_ptr<QueuePolicy> inner)
        : inner_(std::move(inner))
    {
    }

    std::string name() const override { return inner_->name(); }

    size_t
    pick(const std::vector<QueuedRequest> &pending, double now) override
    {
        ScopedSpan span(SpanKind::QueuePick);
        return inner_->pick(pending, now);
    }

    bool
    shouldPreempt(const QueuedRequest &running,
                  const QueuedRequest &challenger, double now) override
    {
        ScopedSpan span(SpanKind::QueuePreempt);
        return inner_->shouldPreempt(running, challenger, now);
    }

  private:
    std::unique_ptr<QueuePolicy> inner_;
};

const std::string kTracedPrefix = "perfbench.traced.";

/** Register the delegating algorithm and policy under traced names
 *  (once per process). */
void
registerTracedLayers(const std::string &algorithm, const std::string &policy)
{
    checkOk(algorithmRegistry().add(
        kTracedPrefix + algorithm, [algorithm](int n, int branch) {
            std::unique_ptr<SearchAlgorithm> traced =
                std::make_unique<TracedAlgorithm>(
                    makeAlgorithm(algorithm, n, branch).value());
            return traced;
        }));
    checkOk(queuePolicyRegistry().add(kTracedPrefix + policy, [policy]() {
        std::unique_ptr<QueuePolicy> traced =
            std::make_unique<TracedPolicy>(makeQueuePolicy(policy).value());
        return traced;
    }));
}

// ---------------------------------------------------------------------
// Simulated outcome of one serve of a workload
// ---------------------------------------------------------------------

/** Everything one serve produced in simulated time (deterministic). */
struct SimOutcome
{
    // Request accounting: every request sent ends in exactly one of
    // completed, shed, cancelled, failed or timed out.
    long sent = 0;
    long completed = 0;
    long shed = 0;
    long cancelled = 0;
    long failed = 0;
    long timedOut = 0;
    long censored = 0; //!< Latency samples cut at the horizon.
    long metSlo = 0;
    long top1Correct = 0; //!< Closed loop only.

    long verifiedTokens = 0;
    double span = 0; //!< Goodput denominator (simulated s).
    std::vector<double> latencies;   //!< One per request sent.
    std::vector<double> queueDelays; //!< One per completed request.

    // Engine, speculation, allocation (closed loop only).
    double generatorTime = 0;
    double verifierTime = 0;
    long generatedTokens = 0;
    long speculativeTokens = 0;
    long wastedSpecTokens = 0;
    long iterations = 0;
    long decodeBatchSum = 0;
    long prefillBatchSum = 0;

    // KV cache (per-request trees).
    long kvHitTokens = 0;
    long kvMissTokens = 0;
    long recomputedTokens = 0;
    long reprefilledTokens = 0;
    long preemptEvictedTokens = 0;

    // Shared KV ledger, prefix index, batch scheduler, online server
    // (open loop only).
    double ledgerPeakBytes = 0;
    long ledgerFailedCharges = 0;
    long prefixLookups = 0;
    long prefixHits = 0;
    long prefixHitTokens = 0;
    long promptTokens = 0;
    long prefixEvictedTokens = 0;
    long prefixRejectedTokens = 0;
    double occupancySum = 0;
    double utilizationSum = 0;
    long contextSwitches = 0;
    int traces = 0;

    /** Every field, for exact equality checks between serves. */
    std::vector<double>
    fingerprint() const
    {
        std::vector<double> f = {
            double(sent), double(completed), double(shed),
            double(cancelled), double(failed), double(timedOut),
            double(censored), double(metSlo), double(top1Correct),
            double(verifiedTokens), span, generatorTime, verifierTime,
            double(generatedTokens), double(speculativeTokens),
            double(wastedSpecTokens), double(iterations),
            double(decodeBatchSum), double(prefillBatchSum),
            double(kvHitTokens), double(kvMissTokens),
            double(recomputedTokens), double(reprefilledTokens),
            double(preemptEvictedTokens), ledgerPeakBytes,
            double(ledgerFailedCharges), double(prefixLookups),
            double(prefixHits), double(prefixHitTokens),
            double(promptTokens), double(prefixEvictedTokens),
            double(prefixRejectedTokens), occupancySum, utilizationSum,
            double(contextSwitches), double(traces)};
        f.insert(f.end(), latencies.begin(), latencies.end());
        f.insert(f.end(), queueDelays.begin(), queueDelays.end());
        return f;
    }
};

/** A serve's simulated outcome plus its host cost. */
struct Serve
{
    SimOutcome sim;
    double hostSeconds = 0; //!< Host CPU time inside the serve calls.
    size_t heapBytes = 0; //!< Peak heap of set-up + serve, input excluded.
    std::vector<std::string> errors; //!< Failed output checks.
};

// ---------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------

EngineArgs
engineArgs(const Workload &w, uint64_t seed, const std::string &mode)
{
    EngineArgs args;
    args.device = kDevice;
    args.models = kModels;
    args.algorithm = kAlgorithm;
    args.branchFactor = kBranchFactor;
    args.dataset = w.dataset;
    args.mode = mode;
    args.numBeams = w.beams;
    args.numProblems = w.problemSet;
    args.seed = seed;
    args.policy = w.policy;
    args.maxInflight = w.maxInflight;
    args.kvBudgetGiB = w.kvBudgetGiB;
    args.shedDoomed = w.shedDoomed;
    args.batching = "continuous";
    args.maxBatchedTokens = kMaxBatchedTokens;
    args.prefillChunk = kPrefillChunk;
    args.prefixCache = w.prefixCacheGiB > 0 ? "on" : "off";
    args.prefixCacheBudgetGiB = w.prefixCacheGiB;
    return args;
}

/** Serving options from the workload, optionally on traced layers. */
ServingOptions
servingOptions(const EngineArgs &args, bool traced)
{
    ServingOptions opts = args.toServingOptions().value();
    if (traced)
        opts.algorithmName = kTracedPrefix + opts.algorithmName;
    return opts;
}

OnlineServerOptions
onlineOptions(const EngineArgs &args, bool traced)
{
    OnlineServerOptions online = args.toOnlineOptions();
    if (traced)
        online.policy = kTracedPrefix + online.policy;
    return online;
}

/** Set-up of the closed loop: EngineArgs to a ready ServingSystem. */
ServingSystem
makeSystem(const Workload &w, uint64_t seed, const std::string &mode,
           bool traced)
{
    ScopedSpan span(SpanKind::Setup);
    return ServingSystem::create(
               servingOptions(engineArgs(w, seed, mode), traced))
        .value();
}

/** Set-up of an open loop: EngineArgs to a ready OnlineServer. */
OnlineServer
makeServer(const Workload &w, uint64_t seed, bool traced)
{
    ScopedSpan span(SpanKind::Setup);
    const EngineArgs args = engineArgs(w, seed, "fasttts");
    return OnlineServer::create(servingOptions(args, traced),
                                onlineOptions(args, traced))
        .value();
}

/** Host CPU seconds of one set-up (teardown excluded). */
double
timeSetUp(const Workload &w, uint64_t seed)
{
    const double start = cpuSeconds();
    if (w.closedLoop) {
        const ServingSystem system = makeSystem(w, seed, "fasttts", false);
        return cpuSeconds() - start;
    }
    const OnlineServer server = makeServer(w, seed, false);
    return cpuSeconds() - start;
}

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

/** The open-loop request list of trace `index` under `seed`. */
std::vector<OnlineRequest>
openLoopTrace(const Workload &w, uint64_t seed, int index)
{
    const uint64_t trace_seed = Rng::mix(seed, static_cast<uint64_t>(index));
    const std::vector<double> arrivals =
        makeArrivalTrace(w.arrivals, w.requests, w.rate, trace_seed)
            .value();
    Rng rng = Rng(trace_seed).fork(0x5e55);
    std::vector<double> popularity;
    for (int s = 0; s < w.sessions; ++s)
        popularity.push_back(
            1.0 / static_cast<double>(s + 1)); // Zipf, exponent 1.
    std::vector<int> sent_in_session(static_cast<size_t>(w.sessions), 0);

    std::vector<OnlineRequest> requests;
    requests.reserve(arrivals.size());
    for (size_t i = 0; i < arrivals.size(); ++i) {
        OnlineRequest r;
        r.arrival = arrivals[i];
        r.slo = w.slo * w.sloTiers[i % w.sloTiers.size()];
        r.problemId = static_cast<int>(rng.uniformInt(0, w.problemSet - 1));
        if (w.sessions > 0) {
            const int session = rng.categorical(popularity);
            const int count = sent_in_session[static_cast<size_t>(session)]++;
            const int turn = count % w.maxTurns;
            const int64_t conversation =
                static_cast<int64_t>(session) * 100003 + count / w.maxTurns;
            const int tokens = w.basePrompt + turn * w.turnGrowth;
            r.promptIds.reserve(static_cast<size_t>(tokens));
            for (int j = 0; j < tokens; ++j)
                r.promptIds.push_back(static_cast<int32_t>(
                    ((conversation + 1) * 1000003 + j) & 0x7FFFFFFF));
        }
        requests.push_back(std::move(r));
    }
    return requests;
}

// ---------------------------------------------------------------------
// Serving
// ---------------------------------------------------------------------

/** Work done between stretches of a serve, outside its timing, given
 *  the stretch's CPU seconds. An empty one does nothing. */
using Pause = std::function<void(double)>;

/** Closed loop, one client: each problem is sent when the previous
 *  one completes, driven through submit() + step(). `pause` runs after
 *  every kRequestsPerLap requests and at the end, inside the serve's
 *  heap window, so it must not allocate. */
Serve
serveClosedLoop(const Workload &w, uint64_t seed, const std::string &mode,
                bool traced, const Pause &pause)
{
    Serve serve;
    SimOutcome &out = serve.sim;
    out.traces = 1;
    // Reserved before the heap window: the benchmark's own record of
    // the serve is not the simulator's memory.
    out.latencies.reserve(static_cast<size_t>(w.requests));
    out.queueDelays.reserve(static_cast<size_t>(w.requests));
    const HeapWindow heap;
    ServingSystem system = makeSystem(w, seed, mode, traced);
    double start = cpuSeconds();
    auto lap = [&] {
        const double seconds = cpuSeconds() - start;
        serve.hostSeconds += seconds;
        if (pause)
            pause(seconds);
        start = cpuSeconds();
    };
    {
        ScopedSpan serve_span(SpanKind::ServingServe);
        for (int i = 0; i < w.requests; ++i) {
            if (i > 0 && i % kRequestsPerLap == 0)
                lap();
            const Problem &problem =
                system.problems()[static_cast<size_t>(i % w.problemSet)];
            const RequestId id = system.submit(problem);
            for (;;) {
                ScopedSpan step_span(SpanKind::EngineStep, i);
                if (!system.step())
                    break;
            }
            for (const IterationStats &s : system.engine().iterationStats()) {
                out.iterations += 1;
                out.decodeBatchSum += s.decodeBatch;
                out.prefillBatchSum += s.prefillBatch;
            }
            out.sent += 1;
            const StatusOr<RequestResult> result = system.result(id);
            if (!result.ok()) {
                out.failed += 1;
                serve.errors.push_back("request " + std::to_string(i)
                                       + ": " + result.status().message());
                continue;
            }
            const RequestResult &r = *result;
            out.completed += 1;
            // Due when the previous request completed: no queueing.
            out.latencies.push_back(r.completionTime);
            out.queueDelays.push_back(0.0);
            out.metSlo += r.completionTime
                    <= w.slo * w.sloTiers[static_cast<size_t>(i)
                                          % w.sloTiers.size()]
                ? 1
                : 0;
            out.top1Correct += top1Correct(r.solutions) ? 1 : 0;
            out.verifiedTokens += r.verifiedTokens;
            out.span += r.completionTime;
            out.generatorTime += r.generatorTime;
            out.verifierTime += r.verifierTime;
            out.generatedTokens += r.generatedTokens;
            out.speculativeTokens += r.speculativeTokens;
            out.wastedSpecTokens += r.wastedSpecTokens;
            out.kvHitTokens += static_cast<long>(r.kvStats.hitTokens);
            out.kvMissTokens += static_cast<long>(r.kvStats.missTokens);
            out.recomputedTokens +=
                static_cast<long>(r.kvStats.recomputedTokens);
            out.reprefilledTokens +=
                static_cast<long>(r.kvStats.reprefilledTokens);
            out.preemptEvictedTokens +=
                static_cast<long>(r.kvStats.preemptEvictedTokens);
            checkOk(system.release(id));
        }
    }
    lap();
    serve.heapBytes = heap.peakBytes();
    return serve;
}

/** One open-loop trace on a fresh OnlineServer, pooled into `serve`. */
void
serveOpenTrace(const Workload &w, uint64_t seed, bool traced,
               const std::vector<OnlineRequest> &requests, Serve &serve)
{
    const HeapWindow heap;
    OnlineServer server = makeServer(w, seed, traced);
    const double start = cpuSeconds();
    StatusOr<OnlineTraceResult> result = [&] {
        ScopedSpan span(SpanKind::OnlineServe);
        return server.serveRequests(requests);
    }();
    serve.hostSeconds += cpuSeconds() - start;
    serve.heapBytes = std::max(serve.heapBytes, heap.peakBytes());
    SimOutcome &out = serve.sim;
    const long sent = static_cast<long>(requests.size());
    out.sent += sent;
    if (!result.ok()) {
        out.failed += sent;
        serve.errors.push_back("serveRequests: "
                               + result.status().message());
        return;
    }
    const OnlineTraceResult &r = *result;
    const long completed = static_cast<long>(r.records.size());
    if (completed + r.shedRequests + r.cancelled + r.failedRequests
            + r.timeouts
        != sent)
        serve.errors.push_back(
            "terminal states do not add up to requests sent");
    out.completed += completed;
    out.shed += r.shedRequests;
    out.cancelled += r.cancelled;
    out.failed += r.failedRequests;
    out.timedOut += r.timeouts;

    // Due times of requests that never completed: match completion
    // records to requests by arrival time.
    std::multiset<double> pending;
    double last_due = 0;
    for (const OnlineRequest &q : requests) {
        pending.insert(q.arrival);
        last_due = std::max(last_due, q.arrival);
        out.promptTokens += static_cast<long>(q.promptIds.size());
    }
    const double horizon = last_due + w.grace;
    for (const OnlineRequestRecord &rec : r.records) {
        const auto it = pending.find(rec.arrival);
        if (it == pending.end()) {
            serve.errors.push_back("completion record matches no request");
            continue;
        }
        pending.erase(it);
        out.censored += rec.finish > horizon ? 1 : 0;
        out.latencies.push_back(std::min(rec.finish, horizon) - rec.arrival);
        out.queueDelays.push_back(rec.queueDelay());
        out.metSlo += rec.finish <= rec.deadline ? 1 : 0;
    }
    for (double due : pending) {
        out.censored += 1;
        out.latencies.push_back(horizon - due);
    }

    out.verifiedTokens += r.verifiedTokens;
    out.span += r.makespan;
    out.recomputedTokens += r.recomputedTokens;
    out.reprefilledTokens += r.reprefilledTokens;
    out.preemptEvictedTokens += r.preemptEvictedTokens;
    out.ledgerPeakBytes =
        std::max(out.ledgerPeakBytes, server.kvLedger().peakUsedBytes());
    out.ledgerFailedCharges +=
        static_cast<long>(server.kvLedger().failedCharges());
    out.occupancySum += r.batchOccupancy;
    out.utilizationSum += r.utilization;
    out.contextSwitches += r.contextSwitches;
    out.traces += 1;

    // After the trace the ledger holds only the prefix cache's bytes.
    double cached_bytes = 0;
    if (const PrefixIndex *index = server.system().prefixIndex()) {
        const PrefixIndexStats &s = index->stats();
        out.prefixLookups += static_cast<long>(s.lookups);
        out.prefixHits += static_cast<long>(s.hits);
        out.prefixHitTokens += static_cast<long>(s.hitTokens);
        out.prefixEvictedTokens += static_cast<long>(s.evictedTokens);
        out.prefixRejectedTokens += static_cast<long>(s.rejectedTokens);
        cached_bytes = index->residentBytes();
    }
    if (std::fabs(server.kvLedger().usedBytes() - cached_bytes) > 1.0)
        serve.errors.push_back("KV ledger did not drain after the trace");
}

/** Every trace of an open loop. Each trace is rebuilt from (seed, k)
 *  just before its serve, outside the timed region, so the run never
 *  holds more than one trace of input. `pause` runs after each trace,
 *  outside its heap window. */
Serve
serveOpenLoop(const Workload &w, uint64_t seed, bool traced,
              const Pause &pause)
{
    Serve serve;
    for (int k = 0; k < w.traces; ++k) {
        const double before = serve.hostSeconds;
        serveOpenTrace(w, seed, traced, openLoopTrace(w, seed, k), serve);
        if (pause)
            pause(serve.hostSeconds - before);
    }
    return serve;
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

/** Nearest-rank percentile (ceil rank) of an unsorted sample. */
double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    return ceilRankPercentile(values, p);
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Serve times are in reference seconds: CPU seconds times `scale`. */
std::vector<Metric>
endToEndMetrics(const SimOutcome &sim,
                const std::vector<double> &serve_seconds,
                const std::vector<double> &setup_seconds, double scale,
                double peak_heap_mib)
{
    double serve_total = 0;
    for (double t : serve_seconds)
        serve_total += t;
    const double mean_serve =
        serve_total / static_cast<double>(serve_seconds.size());
    return {
        {"goodput_tok_s", ratio(double(sim.verifiedTokens), sim.span),
         "tok/s"},
        {"latency_p50_s", percentile(sim.latencies, 0.50), "s"},
        {"latency_p99_s", percentile(sim.latencies, 0.99), "s"},
        {"slo_attainment", ratio(double(sim.metSlo), double(sim.sent)),
         "fraction"},
        {"sim_tokens_per_host_s",
         ratio(double(sim.verifiedTokens), mean_serve * scale), "tok/s"},
        {"setup_s",
         *std::min_element(setup_seconds.begin(), setup_seconds.end()),
         "s"},
        {"peak_heap_mib", peak_heap_mib, "MiB"},
    };
}

std::vector<Metric>
perLayerMetrics(const SimOutcome &sim, const std::vector<LayerTimes> &traced,
                double overhead)
{
    const double completed = static_cast<double>(sim.completed);
    auto median_of = [&](auto f) {
        std::vector<double> values;
        for (const LayerTimes &t : traced)
            values.push_back(f(t));
        return sampleQuantile(values, 0.5);
    };
    auto mean_us = [&](SpanKind k) {
        return median_of([k](const LayerTimes &t) {
            return 1e6 * ratio(t.selfOf(k), double(t.callsOf(k)));
        });
    };
    auto self_s = [&](SpanKind k) {
        return median_of([k](const LayerTimes &t) { return t.selfOf(k); });
    };
    const LayerTimes first = traced.empty() ? LayerTimes{} : traced.front();
    const double first_touch =
        double(sim.recomputedTokens - sim.reprefilledTokens);
    return {
        {"engine.generator_s", ratio(sim.generatorTime, completed), "s"},
        {"engine.verifier_s", ratio(sim.verifierTime, completed), "s"},
        {"engine.step_host_us", mean_us(SpanKind::EngineStep), "us"},
        {"speculative.wasted_fraction",
         ratio(double(sim.wastedSpecTokens), double(sim.speculativeTokens)),
         "fraction"},
        {"speculative.generated_per_verified",
         ratio(double(sim.generatedTokens), double(sim.verifiedTokens)),
         "ratio"},
        {"alloc.decode_batch_mean",
         ratio(double(sim.decodeBatchSum), double(sim.iterations)),
         "count"},
        {"alloc.prefill_batch_mean",
         ratio(double(sim.prefillBatchSum), double(sim.iterations)),
         "count"},
        {"search.select_calls",
         double(first.callsOf(SpanKind::SearchSelect)), "count"},
        {"search.select_host_us", mean_us(SpanKind::SearchSelect), "us"},
        {"kv_cache.hit_rate",
         ratio(double(sim.kvHitTokens),
               double(sim.kvHitTokens + sim.kvMissTokens)),
         "fraction"},
        {"kv_cache.reprefilled_tokens", double(sim.reprefilledTokens),
         "count"},
        {"kv_cache.work_inflation",
         ratio(double(sim.reprefilledTokens), first_touch), "ratio"},
        {"kv_cache.preempt_evicted_tokens",
         double(sim.preemptEvictedTokens), "count"},
        {"kv_ledger.peak_gib", sim.ledgerPeakBytes / kGiB, "GiB"},
        {"kv_ledger.failed_charges", double(sim.ledgerFailedCharges),
         "count"},
        {"prefix_index.lookups", double(sim.prefixLookups), "count"},
        {"prefix_index.hit_rate",
         ratio(double(sim.prefixHits), double(sim.prefixLookups)),
         "fraction"},
        {"prefix_index.saved_fraction",
         ratio(double(sim.prefixHitTokens), double(sim.promptTokens)),
         "fraction"},
        {"prefix_index.evicted_tokens", double(sim.prefixEvictedTokens),
         "count"},
        {"prefix_index.rejected_tokens", double(sim.prefixRejectedTokens),
         "count"},
        {"batch_scheduler.occupancy",
         ratio(sim.occupancySum, double(sim.traces)), "count"},
        {"online_server.queue_delay_p50_s",
         percentile(sim.queueDelays, 0.50), "s"},
        {"online_server.queue_delay_p99_s",
         percentile(sim.queueDelays, 0.99), "s"},
        {"online_server.shed_requests", double(sim.shed), "count"},
        {"online_server.context_switches", double(sim.contextSwitches),
         "count"},
        {"online_server.utilization",
         ratio(sim.utilizationSum, double(sim.traces)), "fraction"},
        {"online_server.self_host_s", self_s(SpanKind::OnlineServe), "s"},
        {"serving.self_host_s", self_s(SpanKind::ServingServe), "s"},
        {"queue_policy.picks", double(first.callsOf(SpanKind::QueuePick)),
         "count"},
        {"queue_policy.pick_host_us", mean_us(SpanKind::QueuePick), "us"},
        {"queue_policy.preempt_checks",
         double(first.callsOf(SpanKind::QueuePreempt)), "count"},
        {"trace.overhead_fraction", overhead, "fraction"},
    };
}

// ---------------------------------------------------------------------
// Command line and main loop
// ---------------------------------------------------------------------

struct Options
{
    std::string workload;
    uint64_t seed = 0;
    bool seedSet = false;
    double seconds = 10;
    bool trace = false;
    std::string traceOut;
};

int
usage(const char *message)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME "
                 "[--seed N] [--seconds S] [--trace 0|1] "
                 "[--trace-out FILE]\nworkloads:\n",
                 message);
    for (const Workload &w : workloads())
        std::fprintf(stderr,
                     "  %s (default seed %llu, held-out seed %llu): %s\n",
                     w.name, static_cast<unsigned long long>(w.defaultSeed),
                     static_cast<unsigned long long>(w.heldOutSeed), w.why);
    return 2;
}

bool
parseOptions(int argc, char **argv, Options &opts)
{
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return false;
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            opts.workload = value;
        } else if (flag == "--seed") {
            opts.seed = std::strtoull(value.c_str(), &end, 10);
            opts.seedSet = true;
        } else if (flag == "--seconds") {
            opts.seconds = std::strtod(value.c_str(), &end);
        } else if (flag == "--trace") {
            opts.trace = value == "1";
            if (value != "0" && value != "1")
                return false;
        } else if (flag == "--trace-out") {
            opts.traceOut = value;
        } else {
            return false;
        }
        if (end != nullptr && *end != '\0')
            return false;
    }
    return !opts.workload.empty() && opts.seconds > 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    if (!parseOptions(argc, argv, opts))
        return usage("bad arguments");
    const Workload *found = findWorkload(opts.workload);
    if (found == nullptr)
        return usage("unknown workload");
    const Workload &w = *found;
    const uint64_t seed = opts.seedSet ? opts.seed : w.defaultSeed;
    const auto run_start = HostClock::now();

    // Set-up time, EngineArgs -> ready server: sampled in batches spread
    // over the run (one before the first serve, one after each serve
    // and, in open loops, one after each untraced trace), and reported
    // as the fastest sample, in CPU seconds. A set-up takes well under a
    // millisecond. On a shared host, across ten runs, the median of
    // such samples spread by up to 33% and the fastest by up to 16%.
    // An open-loop set-up ran either at about 340 us or at about 500 us
    // for a whole batch, about one batch in three slow, and with one
    // batch per serve four kv_pressure runs in ten read only slow
    // batches; a batch per trace gives the fastest sample many more
    // chances. It is not scaled by the run's host speed:
    // the fastest sample is taken at the host's fastest moments, which
    // the run's average speed does not describe. Scaled, its spread
    // across five seeds on kv_pressure widened from 2% to 17%.
    constexpr int kSetUpBatch = 21;
    std::vector<double> setup_seconds;
    auto sample_set_ups = [&] {
        for (int i = 0; i < kSetUpBatch; ++i)
            setup_seconds.push_back(timeSetUp(w, seed));
    };
    sample_set_ups();

    // Untraced serves pause to calibrate the host speed and, between
    // open-loop traces, to sample set-ups.
    HostSpeed host_speed;
    auto serve_once = [&](bool traced) {
        Pause pause;
        if (!traced)
            pause = [&](double seconds) {
                host_speed.calibrateAfter(seconds);
                if (!w.closedLoop)
                    sample_set_ups();
            };
        return w.closedLoop
            ? serveClosedLoop(w, seed, "fasttts", traced, pause)
            : serveOpenLoop(w, seed, traced, pause);
    };

    std::vector<std::string> errors;
    auto check = [&](const Serve &s, const char *what) {
        for (const std::string &e : s.errors)
            errors.push_back(std::string(what) + ": " + e);
    };

    // Measured serves. Every serve must reproduce the first one's
    // simulated outcome exactly; with --trace 1 traced and untraced
    // serves alternate and must agree too.
    const Serve reference = serve_once(false);
    check(reference, "serve");
    sample_set_ups();
    const std::vector<double> fingerprint = reference.sim.fingerprint();
    std::vector<double> untraced_seconds = {reference.hostSeconds};
    std::vector<double> traced_seconds;
    std::vector<LayerTimes> layer_times;
    long attempted = reference.sim.sent;
    long failed = reference.sim.failed + reference.sim.timedOut;
    if (opts.trace)
        registerTracedLayers(kAlgorithm, w.policy);
    for (int rep = 1;
         secondsSince(run_start) < opts.seconds
         || untraced_seconds.size() < 2
         || (opts.trace && traced_seconds.size() < 2);
         ++rep) {
        const bool traced = opts.trace && rep % 2 == 1;
        if (traced)
            tracer().begin();
        const Serve s = serve_once(traced);
        if (traced) {
            tracer().end();
            layer_times.push_back(tracer().reduce());
            if (traced_seconds.empty() && !opts.traceOut.empty()
                && !tracer().write(opts.traceOut))
                errors.push_back("cannot write " + opts.traceOut);
        }
        check(s, traced ? "traced serve" : "serve");
        sample_set_ups();
        if (s.sim.fingerprint() != fingerprint)
            errors.push_back(traced ? "traced serve differs from untraced"
                                    : "repeated serve differs");
        (traced ? traced_seconds : untraced_seconds)
            .push_back(s.hostSeconds);
        attempted += s.sim.sent;
        failed += s.sim.failed + s.sim.timedOut;
    }

    // Accuracy preservation (Fig. 14): the baseline engine reaches the
    // same top-1 accuracy with the same verified tokens.
    const SimOutcome &sim = reference.sim;
    if (w.closedLoop) {
        const Serve base = serveClosedLoop(w, seed, "baseline", false, {});
        check(base, "baseline serve");
        if (base.sim.top1Correct != sim.top1Correct
            || base.sim.verifiedTokens != sim.verifiedTokens)
            errors.push_back("fasttts and baseline disagree on top-1 "
                             "accuracy or verified tokens");
    }
    if (sim.completed == 0)
        errors.push_back("no request completed");

    std::vector<Metric> metrics;
    if (opts.trace) {
        const double overhead =
            ratio(sampleQuantile(traced_seconds, 0.5),
                  sampleQuantile(untraced_seconds, 0.5))
            - 1.0;
        metrics = perLayerMetrics(sim, layer_times, overhead);
    } else {
        metrics = endToEndMetrics(sim, untraced_seconds, setup_seconds,
                                  host_speed.scale(),
                                  double(reference.heapBytes)
                                      / (1024.0 * 1024.0));
    }
    for (const Metric &m : metrics)
        if (!std::isfinite(m.value))
            errors.push_back(m.name + " is not finite");

    std::printf("workload %s seed %llu: sent %ld completed %ld shed %ld "
                "cancelled %ld failed %ld timed_out %ld; latency samples "
                "%zu (%ld censored at the horizon); serves %zu untraced + "
                "%zu traced\n",
                w.name, static_cast<unsigned long long>(seed), sim.sent,
                sim.completed, sim.shed, sim.cancelled, sim.failed,
                sim.timedOut, sim.latencies.size(), sim.censored,
                untraced_seconds.size(), traced_seconds.size());
    if (w.closedLoop)
        std::printf("top1_accuracy %.4f (checked against the baseline "
                    "engine)\n",
                    ratio(double(sim.top1Correct), double(sim.completed)));
    std::printf("serve host CPU seconds:");
    for (double t : untraced_seconds)
        std::printf(" %.4f", t);
    std::printf("\nhost speed: %.4f reference seconds per CPU second\n",
                host_speed.scale());
    for (const std::string &e : errors)
        std::printf("check failed: %s\n", e.c_str());

    // Hand-formatted so every value keeps all 17 significant digits.
    std::string metric_doc;
    for (const Metric &m : metrics) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g",
                      std::isfinite(m.value) ? m.value : -1.0);
        metric_doc += (metric_doc.empty() ? "" : ", ") + Json(m.name).dump()
            + ": {\"value\": " + value + ", \"unit\": "
            + Json(m.unit).dump() + "}";
    }
    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                "\"metrics\": {%s}}\n",
                errors.empty() ? "true" : "false", attempted, failed,
                metric_doc.c_str());
    return 0;
}
