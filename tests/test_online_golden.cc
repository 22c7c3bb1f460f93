/**
 * @file
 * Golden pins of the online serve loop.
 *
 * Serves one fixed 24-request trace through every combination of the
 * serve loop's modes — batching (time-sliced or continuous), preempt
 * mode (off, slice or policy; continuous batching ignores it, so it
 * runs under "slice" only), victim selection, host KV tier, prefix
 * cache, fault injection with retries, and the request watchdog — and
 * compares every OnlineTraceResult scalar and every completed
 * request's times (as hex-floats, so every bit counts) against
 * tests/golden/online_serve.txt.
 *
 * Every cell must also balance its books: each sent request ends
 * exactly one way (completed, shed, cancelled, failed or timed out),
 * and once the trace drains the shared KV ledger holds nothing but the
 * prefix cache's own resident bytes.
 *
 * The simulation is deterministic, so any difference is a behaviour
 * change of the serve loop. A deliberate change regenerates the file
 * from the "actual" lines this test prints on mismatch.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/online_server.h"
#include "kv/prefix_index.h"

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

/** One cell of the mode matrix. */
struct Cell
{
    std::string batching;
    std::string preempt;
    std::string victimSelect;
    std::string kvTier;
    std::string prefixCache;
    bool faults = false;
    bool timeout = false;

    [[nodiscard]] std::string name() const
    {
        return "b=" + batching + " p=" + preempt + " v=" + victimSelect
            + " t=" + kvTier + " c=" + prefixCache
            + " f=" + (faults ? "on" : "off")
            + " w=" + (timeout ? "on" : "off");
    }
};

std::vector<Cell>
matrix()
{
    std::vector<Cell> cells;
    const std::pair<std::string, std::string> waves[] = {
        {"off", "off"},
        {"off", "slice"},
        {"off", "policy"},
        {"continuous", "slice"},
    };
    for (const auto &[batching, preempt] : waves)
        for (const char *victims : {"admission", "cost"})
            for (const char *tier : {"off", "host"})
                for (const char *cache : {"off", "on"})
                    for (const bool faults : {false, true})
                        for (const bool timeout : {false, true}) {
                            Cell cell;
                            cell.batching = batching;
                            cell.preempt = preempt;
                            cell.victimSelect = victims;
                            cell.kvTier = tier;
                            cell.prefixCache = cache;
                            cell.faults = faults;
                            cell.timeout = timeout;
                            cells.push_back(cell);
                        }
    return cells;
}

/** 24 requests in bursts: mixed priorities and SLOs (some too tight
 *  to meet, so shedding fires), some abandoned while queued, and half
 *  of them multi-turn prompts sharing a per-session prefix. */
std::vector<OnlineRequest>
trace()
{
    std::vector<OnlineRequest> requests;
    for (int i = 0; i < 24; ++i) {
        OnlineRequest r;
        r.problemId = i % 6;
        r.arrival = 4.0 * (i / 4) + 0.05 * (i % 4);
        r.priority = i % 3;
        r.slo = i % 4 == 1 ? 2.0
            : i % 4 == 3 ? 40.0 : 150.0 + 30.0 * (i % 5);
        if (i % 7 == 5)
            r.cancelAt = r.arrival + 0.5;
        if (i % 2 == 0) {
            const int session = i % 3;
            for (int j = 0; j < 48 + 16 * (i % 4); ++j)
                r.promptIds.push_back(
                    static_cast<int32_t>(9000 + 100 * session + j));
        }
        requests.push_back(r);
    }
    return requests;
}

/** Serve the trace under one cell; lines get the scalar line and the
 *  record line, and the cell's books are checked. */
void
serveCell(const Cell &cell, std::vector<std::string> &lines)
{
    ServingOptions opts;
    opts.config = FastTtsConfig::fastTts();
    opts.numBeams = 4;
    OnlineServerOptions online;
    online.policy = "edf";
    online.maxInflight = 4;
    online.shedDoomed = true;
    online.kvBudgetGiB = 0.25;
    online.batching = cell.batching;
    online.preempt = cell.preempt;
    online.victimSelect = cell.victimSelect;
    online.kvTier = cell.kvTier;
    online.prefixCache = cell.prefixCache;
    if (cell.faults) {
        online.faults = "plan";
        online.faultPlan = R"({"rules": [)"
                           R"({"site": "wave_step", "rate": 0.05},)"
                           R"({"site": "kv_alloc", "rate": 0.02}]})";
        online.retryMax = 2;
    }
    if (cell.timeout)
        online.requestTimeout = 60.0;

    const std::string name = cell.name();
    auto server = OnlineServer::create(opts, online);
    ASSERT_TRUE(server.ok()) << name;
    const std::vector<OnlineRequest> requests = trace();
    const auto served = server->serveRequests(requests);
    ASSERT_TRUE(served.ok()) << name;
    const OnlineTraceResult &r = *served;

    std::ostringstream scalars;
    scalars << name << " mean=" << hexFloat(r.meanLatency)
            << " p50=" << hexFloat(r.p50Latency)
            << " p95=" << hexFloat(r.p95Latency)
            << " p99=" << hexFloat(r.p99Latency)
            << " queue=" << hexFloat(r.meanQueueDelay)
            << " makespan=" << hexFloat(r.makespan)
            << " util=" << hexFloat(r.utilization)
            << " slo=" << hexFloat(r.sloAttainment)
            << " misses=" << r.deadlineMisses
            << " cancelled=" << r.cancelled
            << " shed=" << r.shedRequests
            << " switches=" << r.contextSwitches
            << " preemptions=" << r.preemptions
            << " recomputed=" << r.recomputedTokens
            << " evicted=" << r.preemptEvictedTokens
            << " verified=" << r.verifiedTokens
            << " prefixHit=" << r.prefixHitTokens
            << " occupancy=" << hexFloat(r.batchOccupancy)
            << " reprefilled=" << r.reprefilledTokens
            << " swappedOut=" << r.swappedOutTokens
            << " swappedIn=" << r.swappedInTokens
            << " swapTime=" << hexFloat(r.swapTransferTime)
            << " injected=" << r.injectedFaults
            << " retries=" << r.retries
            << " timeouts=" << r.timeouts
            << " failed=" << r.failedRequests
            << " wasted=" << r.faultWastedTokens
            << " degradedWaves=" << r.degradedWaves
            << " degradedTime=" << hexFloat(r.degradedTime)
            << " degradedEpisodes=" << r.degradedEpisodes
            << " stalls=" << r.generationStalls;
    lines.push_back(scalars.str());

    std::ostringstream records;
    records << name << " records=";
    for (size_t i = 0; i < r.records.size(); ++i) {
        const OnlineRequestRecord &rec = r.records[i];
        if (i > 0)
            records << ';';
        records << rec.problemId << ':' << hexFloat(rec.start) << ','
                << hexFloat(rec.finish) << ','
                << hexFloat(rec.activeTime) << ',' << rec.preemptions;
    }
    lines.push_back(records.str());

    // Every sent request ends exactly one way.
    EXPECT_EQ(static_cast<int>(r.records.size()) + r.shedRequests
                  + r.cancelled + r.failedRequests + r.timeouts,
              static_cast<int>(requests.size()))
        << name;
    // The device is busy at most the whole trace, including attempts
    // killed after the last completion.
    EXPECT_GE(r.utilization, 0.0) << name;
    EXPECT_LE(r.utilization, 1.0 + 1e-12) << name;
    // The drained ledger holds only the prefix cache's residency.
    const PrefixIndex *index = server->system().prefixIndex();
    EXPECT_DOUBLE_EQ(server->kvLedger().usedBytes(),
                     index != nullptr ? index->residentBytes() : 0.0)
        << name;
}

std::vector<std::string>
actualLines()
{
    std::vector<std::string> lines;
    for (const Cell &cell : matrix())
        serveCell(cell, lines);
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

TEST(OnlineGolden, ServeMatrixMatchesGoldenFile)
{
    const char *path = FASTTTS_GOLDEN_DIR "/online_serve.txt";
    const std::vector<std::string> golden = goldenLines(path);
    ASSERT_FALSE(golden.empty()) << "missing golden file " << path;
    const std::vector<std::string> actual = actualLines();
    EXPECT_EQ(golden.size(), actual.size());
    for (size_t i = 0; i < actual.size(); ++i) {
        const std::string expected = i < golden.size() ? golden[i] : "";
        EXPECT_EQ(expected, actual[i]) << "actual line " << i << ":\n"
                                       << actual[i];
    }
}

} // namespace
} // namespace fasttts
