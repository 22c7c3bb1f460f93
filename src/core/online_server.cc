#include "core/online_server.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>

#include "util/rng.h"
#include "util/units.h"

namespace fasttts
{

namespace
{

/** Preemption modes of OnlineServerOptions::preempt. */
enum class PreemptMode { Off, Slice, Policy };

/** Parse a preempt-mode name; nullopt-style via ok flag. */
bool
parsePreemptMode(const std::string &name, PreemptMode *mode)
{
    if (name == "off")
        *mode = PreemptMode::Off;
    else if (name == "slice")
        *mode = PreemptMode::Slice;
    else if (name == "policy")
        *mode = PreemptMode::Policy;
    else
        return false;
    return true;
}

/**
 * Rolling fault-rate window driving graceful degradation. Every
 * wave-step probe outcome (fault or clean) is recorded; when the rate
 * over the last kWindow probes crosses kEnter (with at least
 * kMinSamples observed, so one early fault cannot trip it) the server
 * degrades — speculation off, admission halved — and it recovers only
 * when the rate falls below kExit. The enter/exit gap is hysteresis:
 * without it a rate hovering at the threshold would toggle the engine
 * mode every few waves.
 */
class DegradeTracker
{
  public:
    void record(bool fault)
    {
        if (count_ == kWindow)
            faults_ -= window_[head_] ? 1 : 0;
        else
            ++count_;
        window_[head_] = fault;
        faults_ += fault ? 1 : 0;
        head_ = (head_ + 1) % kWindow;
    }

    /** Re-evaluate the degraded state after a batch of record()s. */
    bool update()
    {
        const double rate = count_ > 0
            ? static_cast<double>(faults_) / count_
            : 0.0;
        if (!degraded_ && count_ >= kMinSamples && rate >= kEnter)
            degraded_ = true;
        else if (degraded_ && rate < kExit)
            degraded_ = false;
        return degraded_;
    }

    [[nodiscard]] bool degraded() const { return degraded_; }

    static constexpr int kWindow = 64;
    static constexpr int kMinSamples = 32;
    static constexpr double kEnter = 0.03;
    static constexpr double kExit = 0.015;

  private:
    bool window_[kWindow] = {};
    int head_ = 0;
    int count_ = 0;
    int faults_ = 0;
    bool degraded_ = false;
};

} // namespace

OnlineServer::OnlineServer(ServingSystem system,
                           std::unique_ptr<KvBudgetLedger> ledger,
                           std::unique_ptr<HostKvTier> tier,
                           std::unique_ptr<FaultInjector> faults,
                           OnlineServerOptions online,
                           std::unique_ptr<QueuePolicy> policy,
                           RooflineModel roofline, DatasetProfile profile)
    : faults_(std::move(faults)), ledger_(std::move(ledger)),
      hostTier_(std::move(tier)), system_(std::move(system)),
      online_(std::move(online)), policy_(std::move(policy)),
      roofline_(std::move(roofline)), profile_(std::move(profile))
{
}

StatusOr<OnlineServer>
OnlineServer::create(const ServingOptions &options)
{
    return create(options, OnlineServerOptions());
}

Status
validateOnlineOptions(const OnlineServerOptions &online, FaultPlan *plan)
{
    using Options = OnlineServerOptions;
    if (online.maxInflight < 1 || online.maxInflight > Options::kMaxInflight)
        return Status::invalidArgument(
            "max_inflight must be in [1, "
            + std::to_string(Options::kMaxInflight) + "], got "
            + std::to_string(online.maxInflight));
    if (!(online.slo >= 0) || !std::isfinite(online.slo))
        return Status::invalidArgument(
            "slo must be >= 0 seconds (0 disables SLO tracking)");
    if (PreemptMode mode; !parsePreemptMode(online.preempt, &mode))
        return Status::invalidArgument(
            "preempt must be 'off', 'slice' or 'policy', got '"
            + online.preempt + "'");
    if (!(online.kvBudgetGiB >= 0) || !std::isfinite(online.kvBudgetGiB))
        return Status::invalidArgument(
            "kv_budget must be >= 0 GiB (0 keeps the legacy "
            "per-slot accounting)");
    if (online.kvTier != "off" && online.kvTier != "host")
        return Status::invalidArgument(
            "kv_tier must be 'off' or 'host', got '" + online.kvTier
            + "'");
    if (!(online.hostKvBudgetGiB >= 0)
        || !std::isfinite(online.hostKvBudgetGiB))
        return Status::invalidArgument(
            "host_kv_budget must be >= 0 GiB (0 defaults to twice "
            "the device KV budget)");
    if (!(online.hostBandwidthGBs > 0)
        || !std::isfinite(online.hostBandwidthGBs))
        return Status::invalidArgument(
            "host_bandwidth must be a positive, finite GB/s figure");
    if (online.victimSelect != "admission"
        && online.victimSelect != "cost")
        return Status::invalidArgument(
            "victim_select must be 'admission' or 'cost', got '"
            + online.victimSelect + "'");
    if (online.batching != "off" && online.batching != "continuous")
        return Status::invalidArgument(
            "batching must be 'off' or 'continuous', got '"
            + online.batching + "'");
    if (online.maxBatchedTokens < 1
        || online.maxBatchedTokens > Options::kMaxBatchedTokens)
        return Status::invalidArgument(
            "max_batched_tokens must be in [1, "
            + std::to_string(Options::kMaxBatchedTokens) + "], got "
            + std::to_string(online.maxBatchedTokens));
    if (online.prefillChunk < 1
        || online.prefillChunk > Options::kMaxPrefillChunk)
        return Status::invalidArgument(
            "prefill_chunk must be in [1, "
            + std::to_string(Options::kMaxPrefillChunk) + "], got "
            + std::to_string(online.prefillChunk));
    if (online.prefixCache != "off" && online.prefixCache != "on")
        return Status::invalidArgument(
            "prefix_cache must be 'off' or 'on', got '"
            + online.prefixCache + "'");
    if (!(online.prefixCacheBudgetGiB >= 0)
        || !std::isfinite(online.prefixCacheBudgetGiB))
        return Status::invalidArgument(
            "prefix_cache_budget must be >= 0 GiB (0 defaults to "
            "1/8 of the shared KV budget)");
    if (online.faults != "off" && online.faults != "plan")
        return Status::invalidArgument(
            "faults must be 'off' or 'plan', got '" + online.faults
            + "'");
    if (online.retryMax < 0 || online.retryMax > Options::kMaxRetries)
        return Status::invalidArgument(
            "retry_max must be in [0, "
            + std::to_string(Options::kMaxRetries) + "], got "
            + std::to_string(online.retryMax));
    if (!(online.retryBackoff >= 0) || !std::isfinite(online.retryBackoff))
        return Status::invalidArgument(
            "retry_backoff must be >= 0 seconds");
    if (!(online.requestTimeout >= 0)
        || !std::isfinite(online.requestTimeout))
        return Status::invalidArgument(
            "request_timeout must be >= 0 seconds (0 disables the "
            "watchdog)");
    if (online.faults == "plan") {
        if (online.faultPlan.empty())
            return Status::invalidArgument(
                "--faults plan requires a --fault-plan JSON schedule");
        auto parsed = FaultPlan::fromJsonText(online.faultPlan);
        if (!parsed.ok())
            return parsed.status();
        if (plan != nullptr)
            *plan = *std::move(parsed);
    }
    return okStatus();
}

StatusOr<OnlineServer>
OnlineServer::create(const ServingOptions &options,
                     const OnlineServerOptions &online)
{
    FaultPlan fault_plan;
    if (Status status = validateOnlineOptions(online, &fault_plan);
        !status.ok())
        return status;

    auto policy = makeQueuePolicy(online.policy);
    if (!policy.ok())
        return policy.status();

    // ONE serving system — engine, device, KV — shared by every
    // in-flight request; each is parked between the waves it runs in.
    auto system = ServingSystem::create(options);
    if (!system.ok())
        return system.status();

    // The shared KV budget. An explicit --kv-budget is the honest
    // single-device pool all in-flight requests contend for; 0 keeps
    // the legacy PR3 accounting where every in-flight slot enjoyed a
    // full engine budget (2x covers the offload planner, which grants
    // each model the whole budget), so pre-existing traces replay
    // bit-for-bit.
    const double budget_bytes = online.kvBudgetGiB > 0
        ? online.kvBudgetGiB * GiB
        : 2.0 * online.maxInflight * system->engine().kvBudgetBytes();
    auto ledger = std::make_unique<KvBudgetLedger>(budget_bytes);
    system->attachKvLedger(ledger.get());

    // Host KV tier: a budgeted host-side store behind a finite-
    // bandwidth link. Attaching alone changes nothing — the engine
    // only offers KV to the tier on the preemption-eviction path, so
    // a trace that never preempts replays bit-identically.
    std::unique_ptr<HostKvTier> tier;
    if (online.kvTier == "host") {
        const double host_budget = online.hostKvBudgetGiB > 0
            ? online.hostKvBudgetGiB * GiB
            : 2.0 * budget_bytes;
        tier = std::make_unique<HostKvTier>(
            host_budget, online.hostBandwidthGBs * GBps);
        system->attachHostTier(tier.get());
    }

    // Cross-request prefix cache: cached bytes are charged to the
    // SAME ledger as in-flight KV, so a full cache shows up as
    // admission pressure instead of invisible extra memory.
    if (online.prefixCache == "on") {
        const double cache_budget = online.prefixCacheBudgetGiB > 0
            ? online.prefixCacheBudgetGiB * GiB
            : 0.125 * budget_bytes;
        system->enablePrefixCache(cache_budget, ledger.get());
    }

    // The fault injector exists ONLY under faults == "plan": with it
    // absent no site holds a pointer, no probe consumes randomness and
    // every trace replays bit-identically to a fault-free build. The
    // injector derives its stream from the serving seed, so reruns at
    // the same seed inject the same fault sequence.
    std::unique_ptr<FaultInjector> injector;
    if (online.faults == "plan") {
        injector = std::make_unique<FaultInjector>(
            std::move(fault_plan), options.seed);
        ledger->attachFaultInjector(injector.get());
        system->attachFaultInjector(injector.get());
    }

    // The SJF predictor's inputs; names were just validated by
    // ServingSystem::create, so the lookups cannot fail.
    auto device = deviceByName(options.deviceName);
    auto profile = datasetByName(options.datasetName);
    return OnlineServer(*std::move(system), std::move(ledger),
                        std::move(tier), std::move(injector), online,
                        *std::move(policy), RooflineModel(*device),
                        *std::move(profile));
}

OnlineTraceResult
OnlineServer::serveTrace(int num_requests, double arrival_rate,
                         uint64_t seed)
{
    return serveArrivals(
        poissonArrivalTrace(num_requests, arrival_rate, seed));
}

OnlineTraceResult
OnlineServer::serveArrivals(const std::vector<double> &arrivals)
{
    std::vector<OnlineRequest> requests;
    requests.reserve(arrivals.size());
    for (const double arrival : arrivals) {
        OnlineRequest request;
        request.arrival = arrival;
        requests.push_back(request);
    }
    // Problem ids are in range by construction, so the only way
    // serveRequests can reject this input is a non-finite arrival
    // time; degrade that to the empty trace instead of serving
    // garbage timings.
    auto result = serveRequests(requests);
    if (!result.ok())
        return aggregateTrace({}, 0.0);
    return *std::move(result);
}

StatusOr<OnlineTraceResult>
OnlineServer::serveRequests(const std::vector<OnlineRequest> &requests)
{
    return serveRequestsImpl(requests, nullptr);
}

BatchResult
OnlineServer::serveProblems(int num_problems)
{
    const int count = std::min<int>(
        num_problems, static_cast<int>(system_.problems().size()));
    std::vector<OnlineRequest> requests;
    requests.reserve(static_cast<size_t>(std::max(0, count)));
    for (int i = 0; i < count; ++i) {
        OnlineRequest request;
        request.problemId = i;
        request.arrival = 0;
        request.slo = 0; // Batch serving carries no deadline.
        requests.push_back(request);
    }
    std::vector<RequestResult> results;
    // Arrivals are finite and ids in range by construction, so the
    // one serve loop cannot reject this input.
    auto trace = serveRequestsImpl(requests, &results);
    (void)trace;
    return aggregateResults(std::move(results),
                            system_.options().numBeams);
}

StatusOr<OnlineTraceResult>
OnlineServer::serveRequestsImpl(const std::vector<OnlineRequest> &requests,
                                std::vector<RequestResult> *results_sink)
{
    const ProblemSet &problems = system_.problems();
    if (requests.empty() || problems.empty())
        return aggregateTrace({}, 0.0);

    constexpr double kInfinity = std::numeric_limits<double>::infinity();
    PreemptMode mode = PreemptMode::Slice;
    parsePreemptMode(online_.preempt, &mode); // Validated at create().
    const bool memory_aware = online_.kvBudgetGiB > 0;

    // --- Tiering / cost-aware victim state. All of it is inert at
    //     the defaults (kvTier "off", victimSelect "admission"):
    //     tier is null, cost_victims is false and kv_scale stays
    //     pinned at 1.0, so the legacy sweeps and admission gate run
    //     bit-for-bit. ---
    const HostKvTier *tier = hostTier_.get();
    const bool cost_victims = online_.victimSelect == "cost";
    // Restore-cost model of the cost-aware sweep: re-prefill is
    // exactly linear in tokens (chunkedRecomputeTime is a max of two
    // linear terms plus a constant), so seconds-per-byte is the
    // generator's per-token slope over its per-token KV footprint — a
    // ranking heuristic that treats a victim's bytes as generator KV
    // (the dominant tree).
    const ModelSpec &gen_model = system_.options().models.generator;
    const double recompute_per_byte =
        (roofline_.chunkedRecomputeTime(gen_model, 2)
         - roofline_.chunkedRecomputeTime(gen_model, 1))
        / gen_model.kvBytesPerToken();
    // Working-set calibration: predictKvWorkingSetBytes is a
    // pre-serving heuristic; under tiering or cost-aware eviction the
    // admission gate steers real memory decisions, so its predictions
    // are rescaled by a rolling EWMA of observed/predicted residency
    // across this trace's completions.
    const bool calibrate_kv = tier != nullptr || cost_victims;
    double kv_scale = 1.0;
    const auto effectiveKv = [&](double predicted_bytes) {
        return calibrate_kv ? predicted_bytes * kv_scale
                            : predicted_bytes;
    };
    const auto calibrateKv = [&](double predicted_bytes,
                                 double observed_bytes) {
        if (!calibrate_kv || predicted_bytes <= 0
            || observed_bytes <= 0)
            return;
        kv_scale = 0.8 * kv_scale
            + 0.2 * (observed_bytes / predicted_bytes);
    };
    // Victim cost estimate from a suspended request's actual resident
    // bytes: restoring costs the host-link copy when a tier is
    // attached (and the engine chose to swap), the re-prefill
    // otherwise.
    const auto victimCost = [&](double resident_bytes,
                                double last_run_at) {
        VictimCandidate candidate;
        candidate.kvBytes = resident_bytes;
        candidate.lastRunAt = last_run_at;
        candidate.recomputeSeconds =
            recompute_per_byte * resident_bytes;
        if (tier != nullptr)
            candidate.transferSeconds =
                tier->transferSeconds(resident_bytes);
        return candidate;
    };

    // --- Build and validate tickets in submission order. A ticket's
    //     meta.id is its request's index in `requests`, which outlives
    //     the serve, so a prompt override is read from there rather
    //     than copied into every ticket. ---
    struct Ticket
    {
        QueuedRequest meta;
        double cancelAt = -1;
        double kvBytes = 0; //!< Predicted working set (admission).
        int attempts = 0;   //!< Fault-killed attempts so far (retry).
    };
    std::vector<Ticket> tickets;
    tickets.reserve(requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
        const OnlineRequest &request = requests[i];
        // Negative arrivals are served as "queued since before the
        // trace began" (legacy max(arrival, device_free) semantics);
        // only non-finite times are meaningless.
        if (!std::isfinite(request.arrival))
            return Status::invalidArgument(
                "request arrival times must be finite");
        int problem_id = request.problemId;
        if (problem_id < 0)
            problem_id = static_cast<int>(i % problems.size());
        if (problem_id >= static_cast<int>(problems.size()))
            return Status::invalidArgument(
                "problemId " + std::to_string(problem_id)
                + " is out of range; the problem set has "
                + std::to_string(problems.size()) + " problems");

        Ticket ticket;
        ticket.meta.id = static_cast<uint64_t>(i);
        ticket.meta.problemId = problem_id;
        ticket.meta.arrival = request.arrival;
        ticket.meta.priority = request.priority;
        const double slo =
            request.slo < 0 ? online_.slo : request.slo;
        ticket.meta.deadline =
            slo > 0 ? request.arrival + slo : kInfinity;
        // The predictors read the prompt's length, never its token
        // identities, so an override only reshapes promptTokens here.
        Problem shaped = problems[static_cast<size_t>(problem_id)];
        if (!request.promptIds.empty())
            shaped.promptTokens =
                static_cast<int>(request.promptIds.size());
        ticket.meta.predictedCost =
            predictServiceTime(roofline_, system_.options().models,
                               profile_, shaped, system_.options().numBeams);
        ticket.kvBytes = predictKvWorkingSetBytes(
            system_.options().models, profile_, shaped,
            system_.options().numBeams);
        ticket.cancelAt = request.cancelAt;
        tickets.push_back(ticket);
    }
    std::stable_sort(tickets.begin(), tickets.end(),
                     [](const Ticket &a, const Ticket &b) {
                         return a.meta.arrival < b.meta.arrival;
                     });

    // The problem a ticket is actually served against: the request's
    // prompt override (multi-turn prefix-cache traces) reshapes a
    // copy; without one the drawn problem is used unchanged. Only the
    // request being admitted pays for the prompt copy.
    const auto ticketProblem = [&problems, &requests](const Ticket &ticket) {
        Problem problem =
            problems[static_cast<size_t>(ticket.meta.problemId)];
        const std::vector<int32_t> &prompt_ids =
            requests[static_cast<size_t>(ticket.meta.id)].promptIds;
        if (!prompt_ids.empty()) {
            problem.promptIds = prompt_ids;
            problem.promptTokens = static_cast<int>(prompt_ids.size());
        }
        return problem;
    };

    // --- Fault-tolerance state. All of it is inert when faults ==
    //     "off": the injector is null, the watchdog is disabled by
    //     default and the retry queue never gains an entry, so the loop
    //     runs its legacy schedules bit-for-bit. ---
    FaultInjector *injector = faults_.get();
    const long faults_before =
        injector != nullptr ? injector->injectedCount() : 0;
    struct RetryEntry
    {
        Ticket ticket;
        double eligibleAt = 0; //!< Backoff expiry (sim seconds).
    };
    std::vector<RetryEntry> retry_queue;
    int retries = 0;
    int timeouts = 0;
    int failed = 0;
    int failed_with_deadline = 0; //!< Never-completed requests that
                                  //!< carried a deadline (SLO misses).
    long fault_wasted = 0;
    long degraded_waves = 0;
    double degraded_time = 0;
    int degraded_episodes = 0;
    DegradeTracker degrade;
    // Degradation trades speculation throughput for stability, which
    // only pays off when kills are survivable — without a retry budget
    // the fault already failed the request, so there is nothing left
    // to protect (and the bench's no-retry arm measures exactly that).
    const bool degrade_enabled =
        injector != nullptr && online_.retryMax > 0;
    const double watchdog = online_.requestTimeout;

    // Kill verdict for a retryable fault: re-queue the attempt after
    // a capped exponential backoff, or fail the request for good once
    // its retry budget is spent.
    const auto scheduleRetry = [&](const Ticket &ticket, double at) {
        if (ticket.attempts >= online_.retryMax) {
            ++failed;
            if (std::isfinite(ticket.meta.deadline))
                ++failed_with_deadline;
            return;
        }
        RetryEntry entry;
        entry.ticket = ticket;
        ++entry.ticket.attempts;
        const int shift = std::min(entry.ticket.attempts - 1, 3);
        entry.eligibleAt =
            at + online_.retryBackoff * static_cast<double>(1 << shift);
        retry_queue.push_back(std::move(entry));
        ++retries;
    };

    // Backed-off attempts whose timer expired rejoin the policy queue
    // (their original arrival intact, so backoff reads as queueing).
    const auto drainRetryQueue = [&](std::vector<Ticket> &queued,
                                     double at) {
        for (size_t i = 0; i < retry_queue.size();) {
            if (retry_queue[i].eligibleAt <= at) {
                queued.push_back(std::move(retry_queue[i].ticket));
                retry_queue.erase(retry_queue.begin()
                                  + static_cast<long>(i));
            } else {
                ++i;
            }
        }
    };

    // Watchdog sweep over requests not yet in flight: queued and
    // backing-off requests older than the timeout are dropped (their
    // in-flight counterparts must also unwind engine state).
    const auto sweepWaiting = [&](std::vector<Ticket> &queued,
                                  double at) {
        if (watchdog <= 0)
            return;
        for (size_t i = queued.size(); i > 0; --i) {
            const Ticket &ticket = queued[i - 1];
            if (at - ticket.meta.arrival <= watchdog)
                continue;
            ++timeouts;
            if (std::isfinite(ticket.meta.deadline))
                ++failed_with_deadline;
            queued.erase(queued.begin() + static_cast<long>(i - 1));
        }
        for (size_t i = retry_queue.size(); i > 0; --i) {
            const Ticket &ticket = retry_queue[i - 1].ticket;
            if (at - ticket.meta.arrival <= watchdog)
                continue;
            ++timeouts;
            if (std::isfinite(ticket.meta.deadline))
                ++failed_with_deadline;
            retry_queue.erase(retry_queue.begin()
                              + static_cast<long>(i - 1));
        }
    };

    // Flip the engine's degraded mode on a window-state change.
    const auto updateDegraded = [&]() {
        if (!degrade_enabled)
            return;
        const bool was = degrade.degraded();
        const bool is = degrade.update();
        if (is == was)
            return;
        system_.engine().setDegraded(is);
        if (is)
            ++degraded_episodes;
    };

    // A wave of `seconds` device time ran; count it if degraded.
    const auto countWave = [&](double seconds) {
        if (degrade_enabled && degrade.degraded()) {
            ++degraded_waves;
            degraded_time += seconds;
        }
    };

    // --- The serve loop. Both batching modes share arrival intake,
    //     the watchdog, admission, idling, the cost-aware victim sweep,
    //     completion accounting and the epilogue, and both run every
    //     wave through stepBatch(): every in-flight request stays
    //     parked between waves, and a request's KV leaves the shared
    //     ledger in the wave it completes. They differ only in what a
    //     wave holds — continuous batching plans one fused wave over
    //     every in-flight request (long prompts fed in prefillChunk
    //     slices, sched/batch_scheduler.h); time slicing chooses one
    //     request by preempt mode and runs it as a one-member plan —
    //     and in the admission-order eviction sweep. ---
    const bool continuous = online_.batching == "continuous";
    const BatchScheduler scheduler(online_.maxBatchedTokens,
                                   online_.prefillChunk);
    const double step_tokens =
        std::max(1.0, system_.engine().expectedStepTokens());

    struct Flight
    {
        Ticket ticket;
        RequestId sysId = 0;  //!< 0 until submitted to the engine.
        bool started = false; //!< rec.start stamped at the first wave
                              //!< that scheduled the request
                              //!< (continuous batching).
        bool benched = false; //!< KV force-evicted under memory
                              //!< pressure and not run since; under
                              //!< continuous batching it sits waves
                              //!< out until the ledger can hold its
                              //!< predicted working set again.
        long decoded = 0;     //!< Decode tokens this attempt has
                              //!< produced (wasted if killed).
        double clock = 0;     //!< Engine clock after its last slice
                              //!< (time slicing).
        double wallBase = 0;  //!< Wall time of the request's engine
                              //!< clock zero: start + slices the device
                              //!< spent on other requests since (time
                              //!< slicing).
        double lastRunAt = 0; //!< End of its last wave (cost-aware
                              //!< victim recency).
        double peakKvBytes = 0; //!< Largest observed residency
                                //!< (EWMA calibration).
        OnlineRequestRecord rec;
    };

    constexpr size_t kNone = static_cast<size_t>(-1);
    std::vector<Ticket> queued;
    std::vector<Flight> inflight;
    std::vector<OnlineRequestRecord> records;
    records.reserve(tickets.size());
    std::vector<QueuedRequest> view;          // pick() scratch.
    std::vector<RequestId> ids;               // stepBatch() scratch.
    std::vector<BatchCandidate> candidates;   // plan() scratch.
    std::vector<std::pair<bool, double>> bench_view; // pickBenchReturn().
    size_t next_ticket = 0;
    size_t rr = 0;          //!< Round-robin cursor (slice mode).
    size_t current = kNone; //!< In-flight index that ran the last
                            //!< slice (time slicing).
    double now = 0;
    double busy = 0;          //!< Device time of every wave run.
    double last_wave_end = 0; //!< Utilization's span.
    int cancelled = 0;
    int shed = 0;
    int context_switches = 0;
    int preemptions = 0;
    long recomputed_tokens = 0;
    long reprefilled_tokens = 0;
    long preempt_evicted = 0;
    long verified_tokens = 0;
    long prefix_hit_tokens = 0;
    long swapped_out_tokens = 0;
    long swapped_in_tokens = 0;
    double swap_transfer_time = 0;
    long waves = 0;
    long decode_members = 0;
    long generation_stalls = 0;
    const size_t max_inflight =
        static_cast<size_t>(online_.maxInflight);

    // Take a flight out of the in-flight set, keeping the current and
    // round-robin cursors on the same requests.
    const auto removeFlight = [&](size_t idx) {
        inflight.erase(inflight.begin() + static_cast<long>(idx));
        if (current != kNone) {
            if (idx == current)
                current = kNone;
            else if (idx < current)
                --current;
        }
        if (idx < rr)
            --rr;
        if (rr >= inflight.size())
            rr = 0;
    };

    // Kill a flight's attempt (watchdog or injected fault): its decode
    // so far is wasted recompute, and cancelWith refunds its KV charge
    // and prefix pins exactly (the abnormal-exit path never publishes
    // its prompt). A flight admitted but never submitted has no engine
    // state.
    const auto abortFlight = [&](size_t idx, Status reason) {
        Flight &flight = inflight[idx];
        fault_wasted += flight.decoded;
        if (flight.sysId != 0) {
            checkOk(system_.cancelWith(flight.sysId, std::move(reason)));
            checkOk(system_.release(flight.sysId));
        }
        removeFlight(idx);
    };

    // Wave-step fault probe of a flight about to decode. A faulted
    // attempt dies before the wave runs — it consumes no device time
    // and is re-queued or failed by its retry budget.
    const auto faultedBeforeWave = [&](size_t idx) {
        const bool fault = injector->shouldFault(
            FaultSite::kWaveStep,
            static_cast<long>(inflight[idx].ticket.meta.id));
        if (degrade_enabled)
            degrade.record(fault);
        if (fault) {
            scheduleRetry(inflight[idx].ticket, now);
            abortFlight(idx, Status::unavailable(
                                 "injected transient device error"));
        }
        return fault;
    };

    // Make room under an explicit shared budget: force-evict the KV of
    // flights other than `keep` (the one that always runs this wave)
    // until the ledger has headroom again, and bench them. Returns
    // whether `keep` entered the wave benched.
    const double headroom = 0.10 * ledger_->totalBytes();
    const auto relieveMemoryPressure = [&](size_t keep) {
        const bool keep_was_benched = inflight[keep].benched;
        inflight[keep].benched = false;
        const auto evictable = [&](size_t i) {
            return i != keep && !inflight[i].benched
                && inflight[i].sysId != 0;
        };
        const auto benchVictim = [&](Flight &victim) {
            auto evicted = system_.evictSuspendedKv(victim.sysId);
            if (evicted.ok()) {
                preempt_evicted += *evicted;
                victim.benched = true;
            }
        };
        if (!cost_victims) {
            // Admission order: continuous batching benches the
            // youngest member first (the oldest always runs); time
            // slicing evicts the oldest suspended request first.
            const size_t n = inflight.size();
            for (size_t k = 0; k < n && ledger_->freeBytes() < headroom;
                 ++k) {
                const size_t i = continuous ? n - 1 - k : k;
                if (evictable(i))
                    benchVictim(inflight[i]);
            }
        } else if (ledger_->freeBytes() < headroom) {
            // Cost-aware: evict where re-admission costs least.
            std::vector<size_t> victims;
            std::vector<VictimCandidate> costs;
            for (size_t i = 0; i < inflight.size(); ++i) {
                if (!evictable(i))
                    continue;
                auto info = system_.suspendedInfo(inflight[i].sysId);
                if (!info.ok() || info->residentKvBytes <= 0)
                    continue;
                victims.push_back(i);
                costs.push_back(victimCost(info->residentKvBytes,
                                           inflight[i].lastRunAt));
            }
            for (const size_t k : rankEvictionVictims(costs)) {
                if (ledger_->freeBytes() >= headroom)
                    break;
                benchVictim(inflight[victims[k]]);
            }
        }
        return keep_was_benched;
    };

    // A flight whose request completed this wave: fold its engine
    // result into the trace counters, record it and release it.
    const auto completeFlight = [&](size_t idx) {
        Flight &flight = inflight[idx];
        flight.rec.finish = now;
        auto result = system_.result(flight.sysId);
        if (result.ok()) {
            verified_tokens += result->verifiedTokens;
            recomputed_tokens +=
                static_cast<long>(result->kvStats.recomputedTokens);
            reprefilled_tokens +=
                static_cast<long>(result->kvStats.reprefilledTokens);
            prefix_hit_tokens +=
                static_cast<long>(result->kvStats.prefixHitTokens);
            swapped_out_tokens +=
                static_cast<long>(result->kvStats.swappedOutTokens);
            swapped_in_tokens +=
                static_cast<long>(result->kvStats.swappedInTokens);
            swap_transfer_time += result->kvStats.swapTransferTime;
            calibrateKv(flight.ticket.kvBytes, flight.peakKvBytes);
            if (results_sink)
                results_sink->push_back(*std::move(result));
        }
        records.push_back(flight.rec);
        checkOk(system_.release(flight.sysId));
        removeFlight(idx);
    };

    // The batch scheduler's view of in-flight request i, parked with
    // `info`.
    const auto candidateFor = [&](size_t i,
                                  const SuspendedRequestInfo &info) {
        BatchCandidate candidate;
        candidate.member = i;
        candidate.promptRemaining = info.promptTokensPending;
        candidate.prefixKey = info.prefixKey;
        candidate.decodeTokens = std::max(
            1, static_cast<int>(std::max(1, info.activeBeams) * step_tokens));
        return candidate;
    };

    while (true) {
        if (injector != nullptr)
            injector->setNow(now);
        // Requests whose arrival has passed join the policy's queue.
        while (next_ticket < tickets.size()
               && tickets[next_ticket].meta.arrival <= now)
            queued.push_back(tickets[next_ticket++]);
        drainRetryQueue(queued, now);

        // Clients that gave up while queued leave it.
        for (size_t i = queued.size(); i > 0; --i) {
            const double cancel_at = queued[i - 1].cancelAt;
            if (cancel_at >= 0 && cancel_at <= now) {
                queued.erase(queued.begin()
                             + static_cast<long>(i - 1));
                ++cancelled;
            }
        }

        // Watchdog: abort requests older than the timeout, whether
        // queued, backing off, running or parked.
        sweepWaiting(queued, now);
        if (watchdog > 0) {
            for (size_t i = inflight.size(); i > 0; --i) {
                const Flight &flight = inflight[i - 1];
                if (now - flight.rec.arrival <= watchdog)
                    continue;
                ++timeouts;
                if (std::isfinite(flight.rec.deadline))
                    ++failed_with_deadline;
                abortFlight(i - 1,
                            Status::deadlineExceeded(
                                "request exceeded --request-timeout"));
            }
        }

        // Degraded mode halves the admission ceiling: fewer
        // co-resident requests means each kill wastes less decode
        // work and retries re-enter a calmer batch.
        const size_t effective_inflight =
            degrade_enabled && degrade.degraded()
                ? std::max<size_t>(1, max_inflight / 2)
                : max_inflight;
        // The policy fills free in-flight slots (work conservation:
        // the device never idles while a request is queued).
        while (!queued.empty() && inflight.size() < effective_inflight) {
            view.clear();
            for (const Ticket &ticket : queued)
                view.push_back(ticket.meta);
            size_t pick = policy_->pick(view, now);
            if (pick >= queued.size())
                pick = 0; // Defensive against custom policies.

            const Ticket ticket = queued[pick];

            // Doomed-request shedding: when the predicted finish
            // already exceeds the deadline, admitting it only burns
            // device time another request could meet its SLO with.
            if (online_.shedDoomed && std::isfinite(ticket.meta.deadline)
                && now + ticket.meta.predictedCost
                    > ticket.meta.deadline) {
                queued.erase(queued.begin() + static_cast<long>(pick));
                ++shed;
                continue;
            }

            // Memory-aware admission: never admit a request the
            // shared budget cannot hold alongside the in-flight
            // working sets (an always-thrashing mix helps nobody).
            // A lone request is always admitted — the engine degrades
            // gracefully under budget pressure.
            if (memory_aware && !inflight.empty()) {
                double inflight_kv = 0;
                for (const Flight &f : inflight)
                    inflight_kv += effectiveKv(f.ticket.kvBytes);
                if (inflight_kv + effectiveKv(ticket.kvBytes)
                    > ledger_->totalBytes())
                    break; // Wait for completions.
            }

            queued.erase(queued.begin() + static_cast<long>(pick));
            Flight flight;
            flight.ticket = ticket;
            flight.wallBase = std::max(ticket.meta.arrival, now);
            flight.lastRunAt = flight.wallBase;
            flight.rec.problemId = ticket.meta.problemId;
            flight.rec.arrival = ticket.meta.arrival;
            flight.rec.start = flight.wallBase;
            flight.rec.priority = ticket.meta.priority;
            flight.rec.deadline = ticket.meta.deadline;
            inflight.push_back(std::move(flight));
        }

        if (inflight.empty()) {
            // All slots are free, so the admission loop above drained
            // the queue; the device idles until the next arrival OR
            // the next retry becomes eligible, whichever is sooner.
            if (next_ticket >= tickets.size() && retry_queue.empty()
                && queued.empty())
                break; // Trace drained.
            double next_event = kInfinity;
            if (next_ticket < tickets.size())
                next_event = tickets[next_ticket].meta.arrival;
            for (const RetryEntry &entry : retry_queue)
                next_event = std::min(next_event, entry.eligibleAt);
            if (!std::isfinite(next_event))
                break; // Defensive: nothing can ever run.
            now = std::max(now, next_event);
            continue;
        }

        if (continuous) {
            // --- One fused wave over every in-flight request. ---
            // Newly admitted requests are parked at once with a
            // deferred prompt: the scheduler feeds the prompt in
            // chunks so it never stalls the decoders already in the
            // batch.
            for (Flight &flight : inflight) {
                if (flight.sysId != 0)
                    continue;
                flight.sysId = system_.submit(ticketProblem(flight.ticket));
                checkOk(system_.startSuspended(flight.sysId,
                                               /*defer_prompt=*/true));
            }

            // Under budget pressure the later-admitted members are
            // force-evicted and benched. Benching is sticky with
            // hysteresis: a member returns only when the ledger can
            // hold its predicted working set on top of double the
            // pressure threshold — re-admitting it the moment its own
            // eviction freed the room would lazily re-prefill its KV,
            // re-create the pressure and evict it again, paying the
            // recompute forever. The oldest member always runs (a
            // benched member that becomes oldest after a completion
            // is force-returned — the progress guarantee, so nobody
            // starves), so a thrashing batch degenerates to the
            // time-sliced server's one-resident-working-set shape
            // instead of deadlocking or ping-ponging.
            if (memory_aware) {
                const bool front_returned = relieveMemoryPressure(0);
                // At most one return per wave, oldest benched first
                // (pickBenchReturn holds the unit-tested contract).
                bench_view.clear();
                for (const Flight &flight : inflight)
                    bench_view.emplace_back(
                        flight.benched, effectiveKv(flight.ticket.kvBytes));
                const int back = pickBenchReturn(bench_view,
                                                 ledger_->freeBytes(),
                                                 headroom, front_returned);
                if (back >= 0)
                    inflight[static_cast<size_t>(back)].benched = false;
            }

            // Every member about to decode this wave is at risk;
            // benched members sit the wave out.
            if (injector != nullptr) {
                for (size_t i = inflight.size(); i > 0; --i) {
                    if (!inflight[i - 1].benched)
                        faultedBeforeWave(i - 1);
                }
                updateDegraded();
                if (inflight.empty())
                    continue; // Loop top re-admits / idles.
            }

            ids.clear();
            candidates.clear();
            for (size_t i = 0; i < inflight.size(); ++i) {
                ids.push_back(inflight[i].sysId);
                if (inflight[i].benched)
                    continue;
                const auto info =
                    system_.suspendedInfo(inflight[i].sysId);
                if (calibrate_kv)
                    inflight[i].peakKvBytes =
                        std::max(inflight[i].peakKvBytes,
                                 info->residentKvBytes);
                candidates.push_back(candidateFor(i, *info));
            }

            const BatchPlan plan = scheduler.plan(candidates);
            auto outcome = system_.stepBatch(ids, plan);
            if (!outcome.ok())
                return outcome.status(); // Unreachable: all suspended.

            ++waves;
            decode_members += plan.decodeMembers();
            const double wave_start = now;
            now += outcome->schedule.waveTime;
            busy += outcome->schedule.waveTime;
            last_wave_end = now;
            countWave(outcome->schedule.waveTime);

            for (size_t i = inflight.size(); i > 0; --i) {
                const size_t idx = i - 1;
                const BatchMemberOutcome &member =
                    outcome->members[idx];
                if (!member.participated)
                    continue;
                Flight &flight = inflight[idx];
                if (!flight.started) {
                    flight.rec.start = wave_start;
                    flight.started = true;
                }
                flight.rec.activeTime += member.activeDelta;
                flight.decoded += member.decodedTokens;
                generation_stalls += member.generationStalls;
                flight.lastRunAt = now;
                if (!member.moreWork)
                    completeFlight(idx); // stepBatch completed it.
            }
            continue;
        }

        // --- One time slice: choose the request that runs. ---
        size_t chosen;
        switch (mode) {
        case PreemptMode::Off:
            // Run-to-completion: stick with the current request;
            // otherwise take the earliest admitted.
            chosen = current != kNone ? current : 0;
            break;
        case PreemptMode::Slice:
            // Round-robin, one engine iteration per turn (continuous
            // batching at the request level).
            if (rr >= inflight.size())
                rr = 0;
            chosen = rr;
            break;
        case PreemptMode::Policy:
        default: {
            // The policy ranks the in-flight set every slice; it may
            // take the engine from the running victim, but only when
            // its preemption predicate says the challenger is
            // strictly more urgent (no thrash on ties). predictedCost
            // is discounted by the device time each request has
            // already consumed, so "sjf" preempts on *remaining* work
            // (SRPT) rather than yanking a nearly finished victim for
            // a shorter total job.
            view.clear();
            for (const Flight &f : inflight) {
                QueuedRequest meta = f.ticket.meta;
                meta.predictedCost =
                    std::max(0.0, meta.predictedCost - f.clock);
                view.push_back(meta);
            }
            size_t best = policy_->pick(view, now);
            if (best >= inflight.size())
                best = 0;
            if (current == kNone)
                chosen = best;
            else if (best != current
                     && policy_->shouldPreempt(view[current],
                                               view[best], now))
                chosen = best;
            else
                chosen = current;
            break;
        }
        }

        // --- Switch to the chosen request. ---
        if (current != chosen) {
            if (current != kNone) {
                if (calibrate_kv) {
                    // A freshly switched-out victim's residency is the
                    // trace's only honest observation of its real
                    // working set.
                    auto info = system_.suspendedInfo(
                        inflight[current].sysId);
                    if (info.ok())
                        inflight[current].peakKvBytes = std::max(
                            inflight[current].peakKvBytes,
                            info->residentKvBytes);
                }
                ++inflight[current].rec.preemptions;
                ++context_switches;
                // Mid-run switches only happen through slice-mode
                // rotation or the policy's shouldPreempt; only the
                // latter is a preemption in the scheduling sense.
                if (mode == PreemptMode::Policy)
                    ++preemptions;
            }
            // In the non-slicing modes an admitted request may wait
            // behind run-to-completion predecessors (or a policy that
            // ranks it low); that wait is queueing, not service, so
            // service starts at its first slice. wallBase has been
            // advanced by every intervening slice, so it equals "now"
            // here. Slice mode keeps the admission stamp: rotation
            // reaches a new request within one round, and the legacy
            // traces are defined that way.
            Flight &f = inflight[chosen];
            if (f.sysId == 0 && mode != PreemptMode::Slice)
                f.rec.start = f.wallBase;
            current = chosen;
        }

        // Make room for the running request before the suspended
        // victims' caches squeeze it into thrashing.
        if (memory_aware)
            relieveMemoryPressure(current);

        // The chosen request alone is at risk this slice.
        if (injector != nullptr) {
            const bool killed = faultedBeforeWave(current);
            updateDegraded();
            if (killed)
                continue;
        }

        // A request starts parked at its first slice, prompt prefilled
        // up front: after the sweep and the fault probe, so neither
        // sees its prompt's KV charge.
        Flight &flight = inflight[current];
        if (flight.sysId == 0) {
            flight.sysId = system_.submit(ticketProblem(flight.ticket));
            checkOk(system_.startSuspended(flight.sysId,
                                           /*defer_prompt=*/false));
        }
        ids.assign(1, flight.sysId);
        candidates.assign(
            1, candidateFor(0, *system_.suspendedInfo(flight.sysId)));
        auto outcome = system_.stepBatch(ids, scheduler.plan(candidates));
        if (!outcome.ok())
            return outcome.status(); // Unreachable: it is suspended.
        const BatchMemberOutcome &member = outcome->members[0];
        ++waves;
        ++decode_members;
        flight.decoded += member.decodedTokens;
        generation_stalls += member.generationStalls;
        // The member's clock is cumulative device time for this
        // request: it survives parking and includes any post-eviction
        // recompute.
        flight.clock = member.clock;

        // The request's wall clock is its engine clock offset by every
        // slice the device spent elsewhere; computed this way (rather
        // than by accumulating deltas) the fifo/maxInflight=1 path
        // reproduces the legacy run-to-completion times bit-for-bit.
        const double slice_end = flight.wallBase + flight.clock;
        for (Flight &other : inflight) {
            if (&other != &flight)
                other.wallBase += slice_end - now;
        }
        countWave(slice_end - now);
        // Counted as it runs: a slice of an attempt that a fault or the
        // watchdog kills later still kept the device busy.
        busy += slice_end - now;
        now = slice_end;
        last_wave_end = now;
        flight.lastRunAt = now;

        if (!member.moreWork) {
            // The engine clock at completion IS the active time.
            flight.rec.activeTime = flight.clock;
            completeFlight(current); // stepBatch completed it.
        } else if (mode == PreemptMode::Slice) {
            rr = (rr + 1) % inflight.size();
        }
    }

    OnlineTraceResult out =
        aggregateTrace(std::move(records), busy, last_wave_end);
    out.cancelled = cancelled;
    out.shedRequests = shed;
    out.contextSwitches = context_switches;
    out.preemptions = preemptions;
    out.recomputedTokens = recomputed_tokens;
    out.reprefilledTokens = reprefilled_tokens;
    out.preemptEvictedTokens = preempt_evicted;
    out.verifiedTokens = verified_tokens;
    out.prefixHitTokens = prefix_hit_tokens;
    out.swappedOutTokens = swapped_out_tokens;
    out.swappedInTokens = swapped_in_tokens;
    out.swapTransferTime = swap_transfer_time;
    out.batchOccupancy = waves > 0 ? static_cast<double>(decode_members)
                                         / static_cast<double>(waves)
                                   : 0.0;

    // Fold fault accounting into the aggregated trace. Completed-only
    // population stands for latency statistics, but SLO attainment
    // must charge deadline-bearing requests that never completed as
    // misses — a fault that silently removed its victim from the
    // denominator would otherwise IMPROVE attainment.
    if (injector != nullptr)
        out.injectedFaults = injector->injectedCount() - faults_before;
    out.retries = retries;
    out.timeouts = timeouts;
    out.failedRequests = failed;
    out.faultWastedTokens = fault_wasted;
    out.degradedWaves = degraded_waves;
    out.degradedTime = degraded_time;
    out.degradedEpisodes = degraded_episodes;
    out.generationStalls = generation_stalls;
    if (failed_with_deadline > 0) {
        int completed_with_deadline = 0;
        for (const OnlineRequestRecord &rec : out.records)
            if (rec.hasDeadline())
                ++completed_with_deadline;
        const int met = completed_with_deadline - out.deadlineMisses;
        out.deadlineMisses += failed_with_deadline;
        out.sloAttainment = static_cast<double>(met)
            / (completed_with_deadline + failed_with_deadline);
    }
    // The degraded engine mode must not leak into the next trace
    // served by this server.
    if (degrade_enabled)
        system_.engine().setDegraded(false);
    return out;
}

std::vector<size_t>
rankEvictionVictims(const std::vector<VictimCandidate> &candidates)
{
    std::vector<size_t> order(candidates.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    // min(transfer, recompute) is the restore price actually paid:
    // the engine swaps exactly when the host-link copy is strictly
    // cheaper than re-prefill, so whichever is smaller is what the
    // victim's next run costs. stable_sort keeps the admission-order
    // tiebreak after recency.
    std::stable_sort(
        order.begin(), order.end(), [&](size_t a, size_t b) {
            const double cost_a =
                std::min(candidates[a].transferSeconds,
                         candidates[a].recomputeSeconds);
            const double cost_b =
                std::min(candidates[b].transferSeconds,
                         candidates[b].recomputeSeconds);
            if (cost_a != cost_b)
                return cost_a < cost_b;
            return candidates[a].lastRunAt < candidates[b].lastRunAt;
        });
    return order;
}

int
pickBenchReturn(const std::vector<std::pair<bool, double>> &members,
                double free_bytes, double headroom, bool front_returned)
{
    // When the front entered the wave benched (the oldest member
    // completed and promoted it), its forced return is the progress
    // guarantee, NOT a hysteresis return — but its flag must be
    // cleared exactly once, so the hysteresis rule below must never
    // pick the front again.
    for (size_t i = front_returned ? 1 : 0; i < members.size(); ++i) {
        if (!members[i].first)
            continue;
        // Only the OLDEST benched member is considered — a younger
        // one skipping ahead would starve it behind perpetual
        // re-eviction (the eviction sweep walks youngest-first) —
        // and it returns at most once per wave, only with restore
        // headroom to spare.
        if (free_bytes >= members[i].second + 2 * headroom)
            return static_cast<int>(i);
        return -1;
    }
    return -1;
}

OnlineTraceResult
aggregateTrace(std::vector<OnlineRequestRecord> records, double busy_time,
               double busy_span)
{
    OnlineTraceResult out;
    out.records = std::move(records);
    if (out.records.empty())
        return out;

    std::vector<double> latencies;
    latencies.reserve(out.records.size());
    double lat_total = 0;
    double queue_total = 0;
    int with_deadline = 0;
    int missed = 0;
    for (const auto &rec : out.records) {
        latencies.push_back(rec.latency());
        lat_total += rec.latency();
        queue_total += rec.queueDelay();
        if (rec.hasDeadline()) {
            ++with_deadline;
            if (rec.missedDeadline())
                ++missed;
        }
    }
    std::sort(latencies.begin(), latencies.end());
    const double n = static_cast<double>(out.records.size());
    out.meanLatency = lat_total / n;
    out.meanQueueDelay = queue_total / n;
    out.p50Latency = ceilRankPercentile(latencies, 0.50);
    out.p95Latency = ceilRankPercentile(latencies, 0.95);
    out.p99Latency = ceilRankPercentile(latencies, 0.99);
    out.deadlineMisses = missed;
    out.sloAttainment = with_deadline > 0
        ? 1.0 - static_cast<double>(missed) / with_deadline
        : 1.0;
    double makespan = 0;
    for (const auto &rec : out.records)
        makespan = std::max(makespan, rec.finish);
    out.makespan = makespan;
    const double span = std::max(makespan, busy_span);
    out.utilization = span > 0 ? busy_time / span : 0;
    return out;
}

std::vector<double>
poissonArrivalTrace(int n, double rate, uint64_t seed)
{
    Rng rng = Rng(seed).fork(0xa881);
    std::vector<double> arrivals;
    arrivals.reserve(static_cast<size_t>(std::max(0, n)));
    double t = 0;
    for (int i = 0; i < n; ++i) {
        t += rng.exponential(rate);
        arrivals.push_back(t);
    }
    return arrivals;
}

std::vector<double>
burstyArrivalTrace(int n, double rate, uint64_t seed)
{
    // Pareto(alpha, xm) inter-arrival gaps with mean 1/rate: the
    // shape keeps most gaps tiny (bursts) and a heavy tail of long
    // silences, unlike the memoryless exponential.
    constexpr double kAlpha = 1.5;
    const double xm = (kAlpha - 1.0) / (kAlpha * rate);
    Rng rng = Rng(seed).fork(0xb117);
    std::vector<double> arrivals;
    arrivals.reserve(static_cast<size_t>(std::max(0, n)));
    double t = 0;
    for (int i = 0; i < n; ++i) {
        const double u = 1.0 - rng.uniform(); // (0, 1].
        t += xm * std::pow(u, -1.0 / kAlpha);
        arrivals.push_back(t);
    }
    return arrivals;
}

StatusOr<std::vector<double>>
makeArrivalTrace(const std::string &mode, int n, double rate,
                 uint64_t seed)
{
    if (n < 0)
        return Status::invalidArgument(
            "arrival trace length must be >= 0, got "
            + std::to_string(n));
    if (!(rate > 0) || !std::isfinite(rate))
        return Status::invalidArgument(
            "arrival rate must be a positive, finite number");
    if (mode == "poisson")
        return poissonArrivalTrace(n, rate, seed);
    if (mode == "bursty")
        return burstyArrivalTrace(n, rate, seed);
    return Status::invalidArgument(
        "unknown arrival mode '" + mode
        + "'; valid modes: poisson, bursty");
}

} // namespace fasttts
