/**
 * @file
 * Golden pins of the generation event loop.
 *
 * Serves a handful of fixed requests under the configurations that
 * steer the event loop down its different paths — wide-beam
 * speculation, a shared KV ledger that binds, host-tier swapping under
 * preemption, KV allocation faults, speculation off and the prefix
 * cache — and compares each request's counters, its completion time
 * (as a hex-float, so every bit counts) and every iteration's
 * unique/unshared working set against tests/golden/event_loop.txt.
 *
 * After every engine iteration both KV trees must also pass
 * KvCacheManager::checkInvariants(): the event loop defers KV appends
 * that fit the held blocks, and every deferred token must be applied
 * by the time an iteration returns.
 *
 * The simulation is deterministic, so any difference is a behaviour
 * change of the engine. A deliberate change regenerates the file from
 * the "actual" lines this test prints on mismatch.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "kv/kv_session.h"
#include "kv/kv_tier.h"
#include "kv/prefix_index.h"
#include "util/fault_injector.h"

namespace fasttts
{
namespace
{

std::string
hexFloat(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

/** One golden line: the request's counters and per-iteration sets. */
std::string
render(const std::string &config, int request, const RequestResult &r,
       const std::vector<IterationStats> &iterations)
{
    std::ostringstream out;
    out << config << " req=" << request << " gen=" << r.generatedTokens
        << " spec=" << r.speculativeTokens
        << " wasted=" << r.wastedSpecTokens
        << " verified=" << r.verifiedTokens
        << " t=" << hexFloat(r.completionTime) << " iters=";
    for (size_t i = 0; i < iterations.size(); ++i) {
        if (i > 0)
            out << ',';
        out << iterations[i].uniqueTokens << '/'
            << iterations[i].unsharedTokens;
    }
    return out.str();
}

/** Both KV trees of the mounted request are internally consistent. */
void
expectConsistentTrees(const FastTtsEngine &engine, const std::string &where)
{
    EXPECT_EQ(engine.generatorKv().checkInvariants(), "")
        << "generator tree, " << where;
    EXPECT_EQ(engine.verifierKv().checkInvariants(), "")
        << "verifier tree, " << where;
}

/** One request served to completion, trees checked every iteration
 *  (the same calls as FastTtsEngine::runRequest). */
RequestResult
serveChecked(FastTtsEngine &engine, const Problem &problem,
             const std::string &where)
{
    engine.beginRequest(problem);
    while (engine.stepRequest())
        expectConsistentTrees(engine, where);
    expectConsistentTrees(engine, where);
    return engine.finishRequest();
}

/** An engine plus the search algorithm and dataset it borrows. */
struct Rig
{
    DatasetProfile profile;
    std::unique_ptr<SearchAlgorithm> algorithm;
    std::unique_ptr<FastTtsEngine> engine;
    std::vector<Problem> problems;

    Rig(const FastTtsConfig &config, const std::string &dataset, int beams,
        int problem_count, const ModelConfig &models = config1_5Bplus1_5B())
        : profile(*datasetByName(dataset)),
          algorithm(*makeAlgorithm("beam_search", beams, 4))
    {
        engine = std::make_unique<FastTtsEngine>(
            config, models, rtx4090(), profile, *algorithm);
        problems = makeProblems(profile, problem_count, 2026);
    }

    /** Serve `order` (problem indices) back to back, one line each. */
    void
    serveSequential(const std::string &config, const std::vector<int> &order,
                    std::vector<std::string> &lines)
    {
        for (size_t i = 0; i < order.size(); ++i) {
            const RequestResult r = serveChecked(
                *engine, problems[static_cast<size_t>(order[i])],
                config + " request " + std::to_string(i));
            lines.push_back(render(config, static_cast<int>(i), r,
                                   engine->iterationStats()));
        }
    }
};

std::vector<std::string>
actualLines()
{
    std::vector<std::string> lines;

    {   // Wide-beam speculation: the paper's edge deployment.
        Rig rig(FastTtsConfig::fastTts(), "AIME", 64, 3);
        rig.serveSequential("aime64", {0, 1, 2}, lines);
    }
    {   // A shared ledger at half the engine's budget binds.
        Rig rig(FastTtsConfig::fastTts(), "AMC", 32, 3);
        KvBudgetLedger ledger(0.5 * rig.engine->kvBudgetBytes());
        rig.engine->attachKvLedger(&ledger);
        rig.serveSequential("amc32_ledger_half", {0, 1, 2}, lines);
    }
    {   // Host tier: two requests interleaved step by step, the parked
        // one's KV evicted every turn, on a half-size shared ledger.
        Rig rig(FastTtsConfig::fastTts(), "AIME", 32, 2);
        const double budget = rig.engine->kvBudgetBytes();
        KvBudgetLedger ledger(0.5 * budget);
        HostKvTier tier(2.0 * budget, 16e9);
        rig.engine->attachKvLedger(&ledger);
        rig.engine->attachHostTier(&tier);
        FastTtsEngine &engine = *rig.engine;
        SuspendedEngineRequest parked[2];
        std::string served[2];
        for (int r = 0; r < 2; ++r) {
            engine.beginRequest(rig.problems[static_cast<size_t>(r)]);
            parked[r] = engine.suspendRequest();
        }
        for (int live = 2; live > 0;) {
            for (int r = 0; r < 2; ++r) {
                if (!parked[r].valid())
                    continue; // Finished.
                engine.resumeRequest(std::move(parked[r]));
                const bool more = engine.stepRequest();
                expectConsistentTrees(engine, "aime32_host_tier request "
                                                  + std::to_string(r));
                if (more) {
                    parked[r] = engine.suspendRequest();
                    parked[r].evictKv();
                    continue;
                }
                const RequestResult result = engine.finishRequest();
                served[r] = render("aime32_host_tier", r, result,
                                   engine.iterationStats());
                engine.releaseFinishedKv();
                --live;
            }
        }
        lines.push_back(served[0]);
        lines.push_back(served[1]);
    }
    {   // 5% KV allocation faults on a full-size ledger.
        Rig rig(FastTtsConfig::fastTts(), "AMC", 32, 3);
        const auto plan = FaultPlan::fromJsonText(
            R"({"rules": [{"site": "kv_alloc", "rate": 0.05}]})");
        FaultInjector injector(*plan, 11);
        KvBudgetLedger ledger(rig.engine->kvBudgetBytes());
        ledger.attachFaultInjector(&injector);
        rig.engine->attachKvLedger(&ledger);
        rig.serveSequential("amc32_kv_alloc_faults", {0, 1, 2}, lines);
    }
    {   // Speculation off: only the standard-beam path runs.
        FastTtsConfig config = FastTtsConfig::fastTts();
        config.speculativeExtension = false;
        config.lookaheadVerification = false;
        Rig rig(config, "AIME", 64, 2);
        rig.serveSequential("aime64_spec_off", {0, 1}, lines);
    }
    {   // Prefix cache on: repeats mount the cached prompt.
        Rig rig(FastTtsConfig::fastTts(), "AMC", 16, 2);
        PrefixIndex index(rig.engine->kvBudgetBytes() / 8,
                          rig.engine->promptKvBytesPerToken());
        rig.engine->attachPrefixIndex(&index);
        rig.serveSequential("amc16_prefix_cache", {0, 1, 0, 1}, lines);
    }
    return lines;
}

/**
 * Configurations where the generator pool is oversubscribed, so waves
 * evict, speculation is killed mid-phase and preempted beams re-queue.
 * The LRU order there depends on the tick every KV node was last
 * touched at, so these lines pin the deferred appends' ticks too.
 */
std::vector<std::string>
pressureLines()
{
    std::vector<std::string> lines;
    {   // A 7B verifier squeezes the generator's share of the budget.
        Rig rig(FastTtsConfig::fastTts(), "AIME", 48, 2,
                config1_5Bplus7B());
        rig.serveSequential("aime48_7b_verifier", {0, 1}, lines);
    }
    {   // A wide search outgrows the generator pool.
        Rig rig(FastTtsConfig::fastTts(), "AIME", 96, 2);
        rig.serveSequential("aime96", {0, 1}, lines);
    }
    return lines;
}

std::vector<std::string>
goldenLines(const char *path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty() && line[0] != '#')
            lines.push_back(line);
    }
    return lines;
}

void
expectGolden(const char *path, const std::vector<std::string> &actual)
{
    const std::vector<std::string> golden = goldenLines(path);
    ASSERT_FALSE(golden.empty()) << "missing golden file " << path;
    EXPECT_EQ(golden.size(), actual.size());
    for (size_t i = 0; i < actual.size(); ++i) {
        const std::string expected = i < golden.size() ? golden[i] : "";
        EXPECT_EQ(expected, actual[i]) << "actual line " << i << ":\n"
                                       << actual[i];
    }
}

TEST(EventLoopGolden, RequestResultsMatchGoldenFile)
{
    expectGolden(FASTTTS_GOLDEN_DIR "/event_loop.txt", actualLines());
}

TEST(EventLoopGolden, MemoryPressureResultsMatchGoldenFile)
{
    expectGolden(FASTTTS_GOLDEN_DIR "/event_loop_pressure.txt",
                 pressureLines());
}

TEST(EventLoopGolden, ServingTwiceIsBitIdentical)
{
    EXPECT_EQ(actualLines(), actualLines());
}

} // namespace
} // namespace fasttts
