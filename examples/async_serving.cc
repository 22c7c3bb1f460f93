/**
 * @file
 * Request-level async serving: submit / step / callbacks / cancel,
 * plus true preemption (park / evict / continue).
 *
 * Shows the facade OnlineServer is built on. Three requests are
 * submitted up front; the caller pumps the engine one TTS iteration at
 * a time with step(), watching per-iteration progress through onStep
 * and collecting results through onComplete. A fourth request is
 * cancelled mid-flight from its own onStep callback — the engine
 * abandons its beams immediately and moves on to queued work.
 * Finally, a request is preempted mid-flight: startSuspended() parks
 * its entire engine state and stepBatch() runs it one time slice (a
 * one-member plan) at a time; after two slices evictSuspendedKv()
 * drops its KV back to the pool, an intervening request runs to
 * completion, and the victim's further slices continue it — the
 * evicted paths come back as recompute, visible in the request's own
 * KvStats.
 *
 *   ./build/examples/example_async_serving [--problems N] [--help]
 */

#include <algorithm>
#include <iostream>

#include "api/engine_args.h"
#include "core/serving.h"
#include "util/table.h"

int
main(int argc, char **argv)
{
    using namespace fasttts;

    EngineArgs defaults;
    defaults.dataset = "AMC";
    defaults.numBeams = 16;
    defaults.numProblems = 3;
    const EngineArgs args = EngineArgs::parseOrExit(
        argc, argv, defaults,
        "Async serving demo: submit / step / callbacks / cancel");

    ServingOptions opts = args.toServingOptions().value();
    // One extra problem beyond --problems: the cancellation demo.
    opts.problemCount = std::max(opts.problemCount, args.numProblems + 1);
    ServingSystem system = ServingSystem::create(opts).value();

    std::cout << "Async serving demo: " << args.dataset << ", n="
              << args.numBeams << ", " << args.numProblems
              << " requests + 1 cancelled\n\n";

    Table table("Completed requests (async submit/step)");
    table.setHeader({"request", "iterations", "latency s",
                     "goodput tok/s", "beams"});

    int iterations_seen = 0;
    for (int i = 0; i < args.numProblems; ++i) {
        RequestCallbacks callbacks;
        callbacks.onStep = [&iterations_seen](const StepEvent &event) {
            (void)event;
            ++iterations_seen;
        };
        callbacks.onComplete = [&table](RequestId id,
                                        const RequestResult &r) {
            table.addRow({"#" + std::to_string(id),
                          "-",
                          formatDouble(r.completionTime, 1),
                          formatDouble(r.preciseGoodput(), 1),
                          std::to_string(r.completedBeams)});
        };
        // Results are consumed through onComplete; the id is unused.
        (void)system.submit(system.problems()[static_cast<size_t>(i)],
                            callbacks);
    }

    // One more request that cancels itself after two iterations.
    RequestCallbacks cancelling;
    cancelling.onStep = [&system](const StepEvent &event) {
        if (event.iteration == 2)
            checkOk(system.cancel(event.id));
    };
    const RequestId doomed = system.submit(
        system.problems()[static_cast<size_t>(args.numProblems)],
        cancelling);

    // Pump the engine one iteration at a time. Each step() advances
    // the in-flight request and admits queued work as it drains.
    int steps = 0;
    while (system.step())
        ++steps;

    const bool cancelled =
        *system.requestState(doomed) == RequestState::Cancelled;
    table.setCaption("Request #" + std::to_string(doomed)
                     + " was cancelled after 2 iterations; state = "
                     + (cancelled ? "Cancelled" : "?"));
    table.print(std::cout);

    std::cout << "\nPumped " << steps << " engine steps, observed "
              << iterations_seen << " onStep events, "
              << system.pendingRequests() << " requests pending\n";

    // --- Preemption: one engine, two requests, zero extra devices ---
    // Park a victim and run two slices of it, evict its KV to the
    // shared pool, serve an "urgent" request on the same engine, then
    // continue the victim.
    BatchPlan slice; // One member (index 0) decoding one iteration.
    slice.entries.emplace_back();
    const auto runToCompletion = [&](RequestId id) {
        while (*system.requestState(id) != RequestState::Completed)
            checkOk(system.stepBatch({id}, slice).status());
    };
    const RequestId victim = system.submit(system.problems()[0]);
    checkOk(system.startSuspended(victim, /*defer_prompt=*/false));
    checkOk(system.stepBatch({victim}, slice).status());
    checkOk(system.stepBatch({victim}, slice).status());
    const long evicted = system.evictSuspendedKv(victim).value();

    const RequestId urgent = system.submit(system.problems()[1]);
    checkOk(system.startSuspended(urgent, /*defer_prompt=*/false));
    runToCompletion(urgent);
    runToCompletion(victim);
    const RequestResult after = *system.result(victim);
    std::cout << "\nPreemption demo: request #" << victim
              << " was parked and " << evicted
              << " KV tokens force-evicted for #" << urgent
              << "; continued, it recomputed "
              << after.kvStats.recomputedTokens
              << " tokens (prompt re-prefill included) and still "
              << "completed " << after.completedBeams << " beams in "
              << formatDouble(after.completionTime, 1) << " s\n";
    return 0;
}
