/**
 * @file
 * Tests for the public API subsystem: Status/StatusOr, the generic
 * Registry, and EngineArgs parsing (argv and JSON) including every
 * error path.
 */

#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/engine_args.h"
#include "api/registry.h"
#include "api/status.h"
#include "core/online_server.h"
#include "core/serving.h"
#include "util/json.h"

namespace fasttts
{
namespace
{

// ---------------------------------------------------------------------
// Status / StatusOr
// ---------------------------------------------------------------------

TEST(Status, DefaultIsOk)
{
    EXPECT_TRUE(Status().ok());
    EXPECT_TRUE(okStatus().ok());
    EXPECT_EQ(okStatus().toString(), "ok");
}

TEST(Status, FactoriesCarryCodeAndMessage)
{
    const Status s = Status::notFound("missing thing");
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kNotFound);
    EXPECT_EQ(s.message(), "missing thing");
    EXPECT_EQ(s.toString(), "not_found: missing thing");
    EXPECT_EQ(Status::invalidArgument("x").code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(Status::alreadyExists("x").code(),
              StatusCode::kAlreadyExists);
    EXPECT_EQ(Status::failedPrecondition("x").code(),
              StatusCode::kFailedPrecondition);
}

TEST(StatusOr, HoldsValueOrStatus)
{
    StatusOr<int> good(7);
    ASSERT_TRUE(good.ok());
    EXPECT_EQ(*good, 7);
    EXPECT_TRUE(good.status().ok());

    StatusOr<int> bad(Status::invalidArgument("no"));
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(StatusOr, SupportsMoveOnlyTypes)
{
    StatusOr<std::unique_ptr<int>> holder(std::make_unique<int>(3));
    ASSERT_TRUE(holder.ok());
    std::unique_ptr<int> taken = *std::move(holder);
    EXPECT_EQ(*taken, 3);
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

TEST(Registry, RegisterLookupListRoundTrip)
{
    Registry<int> reg("widget");
    EXPECT_TRUE(reg.add("one", [] { return 1; }).ok());
    EXPECT_TRUE(reg.add("two", [] { return 2; }).ok());

    EXPECT_TRUE(reg.contains("one"));
    EXPECT_FALSE(reg.contains("three"));
    EXPECT_EQ(reg.size(), 2u);
    EXPECT_EQ(reg.list(), (std::vector<std::string>{"one", "two"}));
    EXPECT_EQ(*reg.create("two"), 2);
}

TEST(Registry, DuplicateAndEmptyNamesRejected)
{
    Registry<int> reg("widget");
    EXPECT_TRUE(reg.add("one", [] { return 1; }).ok());
    EXPECT_EQ(reg.add("one", [] { return 9; }).code(),
              StatusCode::kAlreadyExists);
    EXPECT_EQ(reg.add("", [] { return 0; }).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(reg.add("null", nullptr).code(),
              StatusCode::kInvalidArgument);
    // The failed registrations must not have changed the contents.
    EXPECT_EQ(reg.size(), 1u);
    EXPECT_EQ(*reg.create("one"), 1);
}

TEST(Registry, UnknownNameListsValidNames)
{
    Registry<int> reg("widget");
    checkOk(reg.add("alpha", [] { return 1; }));
    checkOk(reg.add("beta", [] { return 2; }));
    const auto missing = reg.create("gamma");
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
    EXPECT_NE(missing.status().message().find("alpha"),
              std::string::npos);
    EXPECT_NE(missing.status().message().find("beta"),
              std::string::npos);
}

TEST(Registry, RemoveDropsEntries)
{
    Registry<int> reg("widget");
    checkOk(reg.add("one", [] { return 1; }));
    EXPECT_TRUE(reg.remove("one").ok());
    EXPECT_FALSE(reg.contains("one"));
    EXPECT_EQ(reg.remove("one").code(), StatusCode::kNotFound);
}

TEST(Registry, FactoryArgumentsForwarded)
{
    Registry<int, int, int> reg("adder");
    checkOk(reg.add("sum", [](int a, int b) { return a + b; }));
    EXPECT_EQ(*reg.create("sum", 3, 4), 7);
}

TEST(Registry, CustomDeviceRegistrationIsServable)
{
    const std::string name = "TestGPU-registry-roundtrip";
    ASSERT_TRUE(deviceRegistry()
                    .add(name,
                         [name] {
                             DeviceSpec d = rtx4090();
                             d.name = name;
                             return d;
                         })
                    .ok());
    EXPECT_EQ(deviceByName(name)->name, name);

    ServingOptions opts;
    opts.deviceName = name;
    opts.numBeams = 4;
    auto system = ServingSystem::create(opts);
    ASSERT_TRUE(system.ok());
    EXPECT_GT(system->serveProblems(1).meanGoodput, 0);

    EXPECT_TRUE(deviceRegistry().remove(name).ok());
    EXPECT_FALSE(deviceByName(name).ok());
}

TEST(Registry, BuiltInsPresent)
{
    EXPECT_GE(deviceRegistry().size(), 4u);
    EXPECT_GE(datasetRegistry().size(), 4u);
    EXPECT_GE(algorithmRegistry().size(), 5u);
    EXPECT_GE(modelConfigRegistry().size(), 3u);
    EXPECT_GE(modelRegistry().size(), 4u);
    EXPECT_EQ((*modelByName("qwen7b")).numLayers, 28);
    EXPECT_FALSE(modelByName("gpt5").ok());
}

// ---------------------------------------------------------------------
// EngineArgs: argv parsing
// ---------------------------------------------------------------------

StatusOr<EngineArgs>
parse(std::vector<const char *> argv)
{
    argv.insert(argv.begin(), "prog");
    return EngineArgs::fromArgv(static_cast<int>(argv.size()),
                                argv.data());
}

TEST(EngineArgsArgv, DefaultsSurviveEmptyCommandLine)
{
    const auto args = parse({});
    ASSERT_TRUE(args.ok());
    EXPECT_EQ(args->device, "RTX4090");
    EXPECT_EQ(args->dataset, "AIME");
    EXPECT_EQ(args->algorithm, "beam_search");
    EXPECT_EQ(args->models, "1.5B+1.5B");
    EXPECT_EQ(args->mode, "fasttts");
    EXPECT_EQ(args->numBeams, 32);
    EXPECT_EQ(args->seed, 2026u);
    EXPECT_TRUE(args->validate().ok());
}

TEST(EngineArgsArgv, AllFlagsParse)
{
    const auto args = parse(
        {"--device", "RTX3070Ti", "--dataset", "AMC", "--algorithm",
         "dvts", "--models", "1.5B+7B", "--mode", "baseline", "--beams",
         "64", "--branch-factor", "8", "--problems", "3", "--seed",
         "42", "--offload", "--memory-fraction", "0.5",
         "--reserved-gib", "0.25"});
    ASSERT_TRUE(args.ok());
    EXPECT_EQ(args->device, "RTX3070Ti");
    EXPECT_EQ(args->dataset, "AMC");
    EXPECT_EQ(args->algorithm, "dvts");
    EXPECT_EQ(args->models, "1.5B+7B");
    EXPECT_EQ(args->mode, "baseline");
    EXPECT_EQ(args->numBeams, 64);
    EXPECT_EQ(args->branchFactor, 8);
    EXPECT_EQ(args->numProblems, 3);
    EXPECT_EQ(args->seed, 42u);
    EXPECT_TRUE(args->offload);
    EXPECT_DOUBLE_EQ(args->memoryFraction, 0.5);
    EXPECT_DOUBLE_EQ(args->reservedGiB, 0.25);
    EXPECT_TRUE(args->validate().ok());
}

TEST(EngineArgsArgv, EqualsFormAndNoOffload)
{
    const auto args =
        parse({"--beams=16", "--offload", "--no-offload"});
    ASSERT_TRUE(args.ok());
    EXPECT_EQ(args->numBeams, 16);
    EXPECT_FALSE(args->offload);
}

TEST(EngineArgsArgv, PositionalsAreRejected)
{
    // Bare positionals ([num_problems] [dataset]) completed their
    // one-release deprecation window and are now hard errors that
    // point at the replacement flags.
    const auto args = parse({"7", "MATH500"});
    EXPECT_EQ(args.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(args.status().message().find("--problems"),
              std::string::npos);

    EXPECT_EQ(parse({"7"}).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(parse({"seven"}).status().code(),
              StatusCode::kInvalidArgument);
}

TEST(EngineArgsArgv, HelpShortCircuits)
{
    const auto args = parse({"--help"});
    ASSERT_TRUE(args.ok());
    EXPECT_TRUE(args->helpRequested);
    const auto short_form = parse({"-h"});
    ASSERT_TRUE(short_form.ok());
    EXPECT_TRUE(short_form->helpRequested);
}

TEST(EngineArgsArgv, ErrorPaths)
{
    // Unknown flag.
    EXPECT_EQ(parse({"--bogus"}).status().code(),
              StatusCode::kInvalidArgument);
    // Missing value.
    EXPECT_EQ(parse({"--beams"}).status().code(),
              StatusCode::kInvalidArgument);
    // Non-numeric and out-of-range numbers.
    EXPECT_EQ(parse({"--beams", "ten"}).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(parse({"--beams", "0"}).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(parse({"--beams", "12x"}).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(parse({"--problems", "-1"}).status().code(),
              StatusCode::kInvalidArgument);
    // Seed must be unsigned.
    EXPECT_EQ(parse({"--seed", "-3"}).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(parse({"--seed", "1.5"}).status().code(),
              StatusCode::kInvalidArgument);
    // Malformed doubles.
    EXPECT_EQ(parse({"--memory-fraction", "half"}).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(parse({"--reserved-gib", "1.0gib"}).status().code(),
              StatusCode::kInvalidArgument);
}

/** One int field of EngineArgs and the range its flag accepts. */
struct IntFieldRange
{
    const char *test;  //!< Test-name suffix.
    const char *flag;
    const char *key;
    int EngineArgs::*field;
    int min;
    int max;
};

class EngineArgsIntRange : public ::testing::TestWithParam<IntFieldRange>
{
};

TEST_P(EngineArgsIntRange, ValidateAgreesWithTheFlagTable)
{
    // A value set in code is held to the range --flag and the JSON key
    // accept: out of range is refused on all three paths, the bounds
    // themselves pass the range check.
    const IntFieldRange &row = GetParam();
    const std::string range_error =
        std::string(row.key) + " must be in [";
    for (const long long value :
         {static_cast<long long>(row.min) - 1,
          static_cast<long long>(row.max) + 1}) {
        SCOPED_TRACE(value);
        const std::string text = std::to_string(value);
        EXPECT_EQ(parse({row.flag, text.c_str()}).status().code(),
                  StatusCode::kInvalidArgument);
        EXPECT_EQ(EngineArgs::fromJsonText("{\"" + std::string(row.key)
                                           + "\": " + text + "}")
                      .status()
                      .code(),
                  StatusCode::kInvalidArgument);
        EngineArgs args;
        args.*row.field = static_cast<int>(value);
        const Status status = args.validate();
        EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
        EXPECT_NE(status.message().find(range_error), std::string::npos)
            << status.message();
    }
    for (const int value : {row.min, row.max}) {
        SCOPED_TRACE(value);
        const std::string text = std::to_string(value);
        EXPECT_TRUE(parse({row.flag, text.c_str()}).ok());
        EngineArgs args;
        args.*row.field = value;
        EXPECT_EQ(args.validate().message().find(range_error),
                  std::string::npos);
    }
}

INSTANTIATE_TEST_SUITE_P(
    EveryIntFlag, EngineArgsIntRange,
    ::testing::Values(
        IntFieldRange{"Beams", "--beams", "num_beams", &EngineArgs::numBeams,
                      1, 1 << 20},
        IntFieldRange{"BranchFactor", "--branch-factor", "branch_factor",
                      &EngineArgs::branchFactor, 1, 1 << 20},
        IntFieldRange{"Problems", "--problems", "num_problems",
                      &EngineArgs::numProblems, 0, 1 << 20},
        IntFieldRange{"MaxInflight", "--max-inflight", "max_inflight",
                      &EngineArgs::maxInflight, 1, 64},
        IntFieldRange{"MaxBatchedTokens", "--max-batched-tokens",
                      "max_batched_tokens", &EngineArgs::maxBatchedTokens, 1,
                      1 << 20},
        IntFieldRange{"PrefillChunk", "--prefill-chunk", "prefill_chunk",
                      &EngineArgs::prefillChunk, 1, 1 << 20},
        IntFieldRange{"RetryMax", "--retry-max", "retry_max",
                      &EngineArgs::retryMax, 0, 16}),
    [](const ::testing::TestParamInfo<IntFieldRange> &info) {
        return std::string(info.param.test);
    });

TEST(EngineArgsValidate, OnlineRangeErrorsMatchOnlineServerCreate)
{
    // An online int field is checked by one function: validate() and
    // OnlineServer::create() refuse it with the same message, at the
    // bound its flag row uses.
    using Online = OnlineServerOptions;
    struct Case
    {
        int Online::*field;
        int bad;
    };
    for (const Case c :
         {Case{&Online::maxBatchedTokens, 0},
          Case{&Online::maxBatchedTokens, Online::kMaxBatchedTokens + 1},
          Case{&Online::prefillChunk, 0},
          Case{&Online::prefillChunk, Online::kMaxPrefillChunk + 1},
          Case{&Online::maxInflight, Online::kMaxInflight + 1},
          Case{&Online::retryMax, -1}}) {
        EngineArgs args;
        args.*c.field = c.bad;
        const Status validated = args.validate();
        const auto created = OnlineServer::create(ServingOptions(), args);
        SCOPED_TRACE(validated.message());
        EXPECT_EQ(validated.code(), StatusCode::kInvalidArgument);
        ASSERT_FALSE(created.ok());
        EXPECT_EQ(created.status().message(), validated.message());
    }
}

TEST(EngineArgsValidate, RegistryMembershipEnforced)
{
    EngineArgs args;
    args.device = "RTX409O";
    EXPECT_EQ(args.validate().code(), StatusCode::kNotFound);

    args = EngineArgs();
    args.dataset = "AIME2025";
    EXPECT_EQ(args.validate().code(), StatusCode::kNotFound);

    args = EngineArgs();
    args.algorithm = "mcts";
    EXPECT_EQ(args.validate().code(), StatusCode::kNotFound);

    args = EngineArgs();
    args.models = "70B+70B";
    EXPECT_EQ(args.validate().code(), StatusCode::kNotFound);

    args = EngineArgs();
    args.mode = "turbo";
    EXPECT_EQ(args.validate().code(), StatusCode::kInvalidArgument);

    args = EngineArgs();
    args.memoryFraction = 1.5;
    EXPECT_EQ(args.validate().code(), StatusCode::kInvalidArgument);
}

TEST(EngineArgsConvert, ToServingOptionsRoundTrip)
{
    EngineArgs args;
    args.device = "RTX4070Ti";
    args.dataset = "AMC";
    args.algorithm = "dvts";
    args.models = "1.5B+7B";
    args.mode = "baseline";
    args.numBeams = 24;
    args.branchFactor = 6;
    args.seed = 777;
    args.offload = true;
    args.memoryFraction = 0.6;
    args.reservedGiB = 2.0;

    const auto opts = args.toServingOptions();
    ASSERT_TRUE(opts.ok());
    EXPECT_EQ(opts->deviceName, "RTX4070Ti");
    EXPECT_EQ(opts->datasetName, "AMC");
    EXPECT_EQ(opts->algorithmName, "dvts");
    EXPECT_EQ(opts->models.label, "1.5B+7B");
    EXPECT_DOUBLE_EQ(opts->models.memoryFraction, 0.6);
    EXPECT_EQ(opts->numBeams, 24);
    EXPECT_EQ(opts->branchFactor, 6);
    EXPECT_EQ(opts->seed, 777u);
    EXPECT_FALSE(opts->config.speculativeExtension); // baseline
    EXPECT_TRUE(opts->config.offloadEnabled);
    EXPECT_DOUBLE_EQ(opts->config.reservedBytes, 2.0 * GiB);

    // Invalid args refuse to convert.
    args.algorithm = "nope";
    EXPECT_FALSE(args.toServingOptions().ok());
}

TEST(EngineArgsConvert, UnsetOverridesKeepDefaults)
{
    const EngineArgs args; // memoryFraction = 0, reservedGiB = -1.
    const auto opts = args.toServingOptions();
    ASSERT_TRUE(opts.ok());
    EXPECT_DOUBLE_EQ(opts->models.memoryFraction,
                     config1_5Bplus1_5B().memoryFraction);
    EXPECT_DOUBLE_EQ(opts->config.reservedBytes,
                     FastTtsConfig().reservedBytes);
}

TEST(EngineArgsHelp, ListsRegistriesAndFlags)
{
    const std::string text = EngineArgs::help("tool");
    for (const char *needle :
         {"--device", "--dataset", "--algorithm", "--models", "--beams",
          "--seed", "RTX4090", "AIME", "beam_search", "1.5B+1.5B"}) {
        EXPECT_NE(text.find(needle), std::string::npos) << needle;
    }
}

TEST(EngineArgsArgv, OffloadRejectsAttachedValue)
{
    EXPECT_EQ(parse({"--offload=false"}).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(parse({"--no-offload=1"}).status().code(),
              StatusCode::kInvalidArgument);
}

TEST(EngineArgsArgv, ParsedFlagsRecorded)
{
    const auto args = parse({"--beams", "16", "--offload",
                             "--problems", "3", "--dataset", "AMC"});
    ASSERT_TRUE(args.ok());
    EXPECT_EQ(args->parsedFlags,
              (std::vector<std::string>{"--beams", "--offload",
                                        "--problems", "--dataset"}));
}

TEST(EngineArgsArgv, UnsupportedFlagsRejected)
{
    const auto args = parse({"--beams", "16", "--problems", "2"});
    ASSERT_TRUE(args.ok());
    EXPECT_TRUE(args->rejectUnsupportedFlags({"--beams", "--problems"})
                    .ok());
    const Status narrow =
        args->rejectUnsupportedFlags({"--problems"});
    EXPECT_EQ(narrow.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(narrow.message().find("--beams"), std::string::npos);
    // A fully fixed tool accepts an empty command line only.
    EXPECT_TRUE(parse({})->rejectUnsupportedFlags({}).ok());
    EXPECT_FALSE(
        parse({"--problems", "4"})->rejectUnsupportedFlags({}).ok());
}

TEST(EngineArgsConvert, ProblemCountGrowsWithNumProblems)
{
    EngineArgs args;
    args.numProblems = 4;
    EXPECT_EQ(args.toServingOptions()->problemCount, 256); // Default.
    args.numProblems = 1000;
    const auto opts = args.toServingOptions();
    ASSERT_TRUE(opts.ok());
    EXPECT_EQ(opts->problemCount, 1000);
    // serveProblems(numProblems) therefore never silently clamps.
    auto system = ServingSystem::create(*opts);
    ASSERT_TRUE(system.ok());
    EXPECT_EQ(system->problems().size(), 1000u);
}

// ---------------------------------------------------------------------
// EngineArgs: JSON parsing
// ---------------------------------------------------------------------

TEST(EngineArgsJson, FullDocumentParses)
{
    const auto args = EngineArgs::fromJsonText(R"({
        "device": "RTX3070Ti",
        "dataset": "HumanEval",
        "algorithm": "best_of_n",
        "models": "7B+1.5B",
        "mode": "fasttts",
        "num_beams": 48,
        "branch_factor": 2,
        "num_problems": 5,
        "seed": 99,
        "offload": true,
        "memory_fraction": 0.8,
        "reserved_gib": 0.5
    })");
    ASSERT_TRUE(args.ok());
    EXPECT_EQ(args->device, "RTX3070Ti");
    EXPECT_EQ(args->dataset, "HumanEval");
    EXPECT_EQ(args->algorithm, "best_of_n");
    EXPECT_EQ(args->models, "7B+1.5B");
    EXPECT_EQ(args->numBeams, 48);
    EXPECT_EQ(args->branchFactor, 2);
    EXPECT_EQ(args->numProblems, 5);
    EXPECT_EQ(args->seed, 99u);
    EXPECT_TRUE(args->offload);
    EXPECT_DOUBLE_EQ(args->memoryFraction, 0.8);
    EXPECT_DOUBLE_EQ(args->reservedGiB, 0.5);
    EXPECT_TRUE(args->validate().ok());
}

TEST(EngineArgsJson, PartialDocumentKeepsDefaults)
{
    const auto args =
        EngineArgs::fromJsonText(R"({"num_beams": 8})");
    ASSERT_TRUE(args.ok());
    EXPECT_EQ(args->numBeams, 8);
    EXPECT_EQ(args->device, "RTX4090");
}

TEST(EngineArgsJson, ErrorPaths)
{
    // Malformed document.
    EXPECT_EQ(EngineArgs::fromJsonText("{nope").status().code(),
              StatusCode::kInvalidArgument);
    // Root must be an object.
    EXPECT_EQ(EngineArgs::fromJsonText("[1,2]").status().code(),
              StatusCode::kInvalidArgument);
    // Unknown key.
    EXPECT_EQ(
        EngineArgs::fromJsonText(R"({"beam_count": 4})").status().code(),
        StatusCode::kInvalidArgument);
    // Type mismatches.
    EXPECT_EQ(
        EngineArgs::fromJsonText(R"({"device": 4090})").status().code(),
        StatusCode::kInvalidArgument);
    EXPECT_EQ(EngineArgs::fromJsonText(R"({"num_beams": "32"})")
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(EngineArgs::fromJsonText(R"({"num_beams": 2.5})")
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(EngineArgs::fromJsonText(R"({"offload": "yes"})")
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(EngineArgs::fromJsonText(R"({"seed": -1})")
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(EngineArgs::fromJsonText(R"({"num_beams": 0})")
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------
// EngineArgs: online serving flags (--policy / --max-inflight / --slo /
// --arrivals)
// ---------------------------------------------------------------------

TEST(EngineArgsOnline, DefaultsMatchLegacyServer)
{
    const EngineArgs args;
    EXPECT_EQ(args.policy, "fifo");
    EXPECT_EQ(args.maxInflight, 1);
    EXPECT_DOUBLE_EQ(args.slo, 0);
    EXPECT_EQ(args.arrivals, "poisson");
    EXPECT_EQ(args.preempt, "slice");
    EXPECT_DOUBLE_EQ(args.kvBudgetGiB, 0);
    EXPECT_FALSE(args.shedDoomed);
    const OnlineServerOptions online = args.toOnlineOptions();
    EXPECT_EQ(online.policy, "fifo");
    EXPECT_EQ(online.maxInflight, 1);
    EXPECT_DOUBLE_EQ(online.slo, 0);
    EXPECT_EQ(online.preempt, "slice");
    EXPECT_DOUBLE_EQ(online.kvBudgetGiB, 0);
    EXPECT_FALSE(online.shedDoomed);
}

TEST(EngineArgsOnline, PreemptionFlagsArgvAndJsonAgree)
{
    const auto via_argv =
        parse({"--preempt", "policy", "--kv-budget", "1.5",
               "--shed-doomed"});
    ASSERT_TRUE(via_argv.ok());
    const auto via_json = EngineArgs::fromJsonText(R"({
        "preempt": "policy",
        "kv_budget_gib": 1.5,
        "shed_doomed": true
    })");
    ASSERT_TRUE(via_json.ok());
    for (const EngineArgs *args : {&*via_argv, &*via_json}) {
        EXPECT_EQ(args->preempt, "policy");
        EXPECT_DOUBLE_EQ(args->kvBudgetGiB, 1.5);
        EXPECT_TRUE(args->shedDoomed);
        EXPECT_TRUE(args->validate().ok());
        const OnlineServerOptions online = args->toOnlineOptions();
        EXPECT_EQ(online.preempt, "policy");
        EXPECT_DOUBLE_EQ(online.kvBudgetGiB, 1.5);
        EXPECT_TRUE(online.shedDoomed);
    }
    // The equals and negation forms work too.
    const auto negated =
        parse({"--preempt=off", "--kv-budget=0", "--no-shed-doomed"});
    ASSERT_TRUE(negated.ok());
    EXPECT_EQ(negated->preempt, "off");
    EXPECT_FALSE(negated->shedDoomed);
    EXPECT_TRUE(negated->wasSet("--shed-doomed"));
    EXPECT_TRUE(negated->wasSet("--preempt"));
}

TEST(EngineArgsOnline, PreemptionFlagValidation)
{
    EngineArgs args;
    args.preempt = "sometimes";
    EXPECT_EQ(args.validate().code(), StatusCode::kInvalidArgument);

    args = EngineArgs();
    args.kvBudgetGiB = -2;
    EXPECT_EQ(args.validate().code(), StatusCode::kInvalidArgument);

    EXPECT_EQ(parse({"--shed-doomed=yes"}).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(EngineArgs::fromJsonText(R"({"preempt": 1})")
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(EngineArgs::fromJsonText(R"({"shed_doomed": "yes"})")
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(EngineArgs::fromJsonText(R"({"kv_budget_gib": "big"})")
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
}

TEST(EngineArgsOnline, ArgvAndJsonAgree)
{
    const auto via_argv =
        parse({"--policy", "sjf", "--max-inflight", "8", "--slo",
               "30.5", "--arrivals", "bursty"});
    ASSERT_TRUE(via_argv.ok());
    const auto via_json = EngineArgs::fromJsonText(R"({
        "policy": "sjf",
        "max_inflight": 8,
        "slo": 30.5,
        "arrivals": "bursty"
    })");
    ASSERT_TRUE(via_json.ok());
    for (const EngineArgs *args : {&*via_argv, &*via_json}) {
        EXPECT_EQ(args->policy, "sjf");
        EXPECT_EQ(args->maxInflight, 8);
        EXPECT_DOUBLE_EQ(args->slo, 30.5);
        EXPECT_EQ(args->arrivals, "bursty");
        EXPECT_TRUE(args->validate().ok());
        const OnlineServerOptions online = args->toOnlineOptions();
        EXPECT_EQ(online.policy, "sjf");
        EXPECT_EQ(online.maxInflight, 8);
        EXPECT_DOUBLE_EQ(online.slo, 30.5);
    }
    // The equals form works for the new flags too.
    const auto equals_form =
        parse({"--policy=edf", "--max-inflight=2", "--slo=1.5",
               "--arrivals=poisson"});
    ASSERT_TRUE(equals_form.ok());
    EXPECT_EQ(equals_form->policy, "edf");
    EXPECT_EQ(equals_form->maxInflight, 2);
}

TEST(EngineArgsOnline, UnknownPolicyListsRegisteredNames)
{
    const auto args = parse({"--policy", "round_robin"});
    ASSERT_TRUE(args.ok()); // Names resolve at validate() time.
    const Status status = args->validate();
    EXPECT_EQ(status.code(), StatusCode::kNotFound);
    for (const char *known : {"fifo", "priority", "sjf", "edf"})
        EXPECT_NE(status.message().find(known), std::string::npos)
            << "policy listing should mention " << known;
}

TEST(EngineArgsOnline, RangeAndModeValidation)
{
    // max_inflight range is enforced at parse time for argv/JSON and
    // at validate() time for programmatic construction.
    EXPECT_EQ(parse({"--max-inflight", "0"}).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(parse({"--max-inflight", "65"}).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(EngineArgs::fromJsonText(R"({"max_inflight": 0})")
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    EngineArgs args;
    args.maxInflight = 100;
    EXPECT_EQ(args.validate().code(), StatusCode::kInvalidArgument);

    args = EngineArgs();
    args.slo = -1;
    EXPECT_EQ(args.validate().code(), StatusCode::kInvalidArgument);

    args = EngineArgs();
    args.arrivals = "steady";
    EXPECT_EQ(args.validate().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(EngineArgs::fromJsonText(R"({"arrivals": 3})")
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(EngineArgs::fromJsonText(R"({"slo": "fast"})")
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
}

TEST(EngineArgsOnline, FixedConfigToolsRejectOnlineFlags)
{
    // A tool whose queueing discipline is figure-fixed must reject the
    // new flags rather than silently ignore them.
    const auto args = parse({"--policy", "sjf"});
    ASSERT_TRUE(args.ok());
    const Status status =
        args->rejectUnsupportedFlags({"--problems", "--seed"});
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("--policy"), std::string::npos);

    // And tools that do support them accept.
    EXPECT_TRUE(args->rejectUnsupportedFlags({"--policy"}).ok());
}

TEST(EngineArgsOnline, WasSetDistinguishesExplicitFromDefault)
{
    const auto args = parse({"--slo", "0", "--problems", "4"});
    ASSERT_TRUE(args.ok());
    EXPECT_TRUE(args->wasSet("--slo"));
    EXPECT_TRUE(args->wasSet("--problems"));
    EXPECT_FALSE(args->wasSet("--policy"));
    EXPECT_FALSE(EngineArgs().wasSet("--slo"));
}

TEST(EngineArgsOnline, HelpAndRegistryListingCoverPolicies)
{
    const std::string help = EngineArgs::help("prog");
    for (const char *needle :
         {"--policy", "--max-inflight", "--slo", "--arrivals"})
        EXPECT_NE(help.find(needle), std::string::npos) << needle;
    const std::string listing = EngineArgs::registryListing();
    EXPECT_NE(listing.find("queue policies"), std::string::npos);
    EXPECT_NE(listing.find("sjf"), std::string::npos);
}

TEST(EngineArgsOnline, BatchingFlagsArgvAndJsonAgree)
{
    const auto via_argv =
        parse({"--batching", "continuous", "--max-batched-tokens",
               "4096", "--prefill-chunk", "256"});
    ASSERT_TRUE(via_argv.ok());
    const auto via_json = EngineArgs::fromJsonText(R"({
        "batching": "continuous",
        "max_batched_tokens": 4096,
        "prefill_chunk": 256
    })");
    ASSERT_TRUE(via_json.ok());
    for (const EngineArgs *args : {&*via_argv, &*via_json}) {
        EXPECT_EQ(args->batching, "continuous");
        EXPECT_EQ(args->maxBatchedTokens, 4096);
        EXPECT_EQ(args->prefillChunk, 256);
        EXPECT_TRUE(args->validate().ok());
        const OnlineServerOptions online = args->toOnlineOptions();
        EXPECT_EQ(online.batching, "continuous");
        EXPECT_EQ(online.maxBatchedTokens, 4096);
        EXPECT_EQ(online.prefillChunk, 256);
    }
    EXPECT_TRUE(via_argv->wasSet("--batching"));
    EXPECT_TRUE(via_argv->wasSet("--max-batched-tokens"));
    EXPECT_TRUE(via_argv->wasSet("--prefill-chunk"));

    // Defaults keep batching off.
    const auto defaults = parse({});
    ASSERT_TRUE(defaults.ok());
    EXPECT_EQ(defaults->batching, "off");
    EXPECT_EQ(defaults->toOnlineOptions().batching, "off");
}

TEST(EngineArgsOnline, BatchingFlagValidation)
{
    EngineArgs args;
    args.batching = "dynamic";
    EXPECT_EQ(args.validate().code(), StatusCode::kInvalidArgument);

    args = EngineArgs();
    args.maxBatchedTokens = 0;
    EXPECT_EQ(args.validate().code(), StatusCode::kInvalidArgument);

    args = EngineArgs();
    args.prefillChunk = -1;
    EXPECT_EQ(args.validate().code(), StatusCode::kInvalidArgument);

    // The parser rejects out-of-range values up front.
    EXPECT_EQ(parse({"--max-batched-tokens", "0"}).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(parse({"--prefill-chunk", "0"}).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(EngineArgs::fromJsonText(R"({"batching": 1})")
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);

    // Fixed-config tools reject the batching flags too.
    const auto set = parse({"--batching", "continuous"});
    ASSERT_TRUE(set.ok());
    const Status status = set->rejectUnsupportedFlags({"--problems"});
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("--batching"), std::string::npos);
}

TEST(EngineArgsOnline, PrefixCacheFlagsArgvAndJsonAgree)
{
    const auto via_argv = parse(
        {"--prefix-cache", "on", "--prefix-cache-budget", "0.25"});
    ASSERT_TRUE(via_argv.ok());
    const auto via_json = EngineArgs::fromJsonText(R"({
        "prefix_cache": "on",
        "prefix_cache_budget_gib": 0.25
    })");
    ASSERT_TRUE(via_json.ok());
    for (const EngineArgs *args : {&*via_argv, &*via_json}) {
        EXPECT_EQ(args->prefixCache, "on");
        EXPECT_DOUBLE_EQ(args->prefixCacheBudgetGiB, 0.25);
        EXPECT_TRUE(args->validate().ok());
        const OnlineServerOptions online = args->toOnlineOptions();
        EXPECT_EQ(online.prefixCache, "on");
        EXPECT_DOUBLE_EQ(online.prefixCacheBudgetGiB, 0.25);
    }
    EXPECT_TRUE(via_argv->wasSet("--prefix-cache"));
    EXPECT_TRUE(via_argv->wasSet("--prefix-cache-budget"));

    // The equals form parses too.
    const auto equals = parse({"--prefix-cache=on"});
    ASSERT_TRUE(equals.ok());
    EXPECT_EQ(equals->prefixCache, "on");

    // Defaults keep the cache off with the derived (0) budget, so
    // legacy invocations stay bit-identical.
    const auto defaults = parse({});
    ASSERT_TRUE(defaults.ok());
    EXPECT_EQ(defaults->prefixCache, "off");
    EXPECT_DOUBLE_EQ(defaults->prefixCacheBudgetGiB, 0.0);
    EXPECT_FALSE(defaults->wasSet("--prefix-cache"));
    EXPECT_EQ(defaults->toOnlineOptions().prefixCache, "off");
}

TEST(EngineArgsOnline, PrefixCacheFlagValidation)
{
    EngineArgs args;
    args.prefixCache = "maybe";
    EXPECT_EQ(args.validate().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(args.validate().message().find("off"),
              std::string::npos);

    args = EngineArgs();
    args.prefixCacheBudgetGiB = -0.5;
    EXPECT_EQ(args.validate().code(), StatusCode::kInvalidArgument);

    // Wrong JSON types are rejected up front.
    EXPECT_EQ(EngineArgs::fromJsonText(R"({"prefix_cache": true})")
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(EngineArgs::fromJsonText(
                  R"({"prefix_cache_budget_gib": "big"})")
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);

    // Fixed-config tools reject the prefix-cache flags too.
    const auto set = parse({"--prefix-cache", "on"});
    ASSERT_TRUE(set.ok());
    const Status status = set->rejectUnsupportedFlags({"--problems"});
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("--prefix-cache"),
              std::string::npos);
}

TEST(EngineArgsOnline, KvTierFlagsArgvAndJsonAgree)
{
    const auto via_argv =
        parse({"--kv-tier", "host", "--host-kv-budget", "1.5",
               "--host-bandwidth", "8", "--victim-select", "cost"});
    ASSERT_TRUE(via_argv.ok());
    const auto via_json = EngineArgs::fromJsonText(R"({
        "kv_tier": "host",
        "host_kv_budget_gib": 1.5,
        "host_bandwidth_gbs": 8,
        "victim_select": "cost"
    })");
    ASSERT_TRUE(via_json.ok());
    for (const EngineArgs *args : {&*via_argv, &*via_json}) {
        EXPECT_EQ(args->kvTier, "host");
        EXPECT_DOUBLE_EQ(args->hostKvBudgetGiB, 1.5);
        EXPECT_DOUBLE_EQ(args->hostBandwidthGBs, 8);
        EXPECT_EQ(args->victimSelect, "cost");
        EXPECT_TRUE(args->validate().ok());
        const OnlineServerOptions online = args->toOnlineOptions();
        EXPECT_EQ(online.kvTier, "host");
        EXPECT_DOUBLE_EQ(online.hostKvBudgetGiB, 1.5);
        EXPECT_DOUBLE_EQ(online.hostBandwidthGBs, 8);
        EXPECT_EQ(online.victimSelect, "cost");
    }
    EXPECT_TRUE(via_argv->wasSet("--kv-tier"));
    EXPECT_TRUE(via_argv->wasSet("--host-kv-budget"));
    EXPECT_TRUE(via_argv->wasSet("--host-bandwidth"));
    EXPECT_TRUE(via_argv->wasSet("--victim-select"));

    // The equals form parses too.
    const auto equals = parse({"--kv-tier=host"});
    ASSERT_TRUE(equals.ok());
    EXPECT_EQ(equals->kvTier, "host");

    // Defaults keep the tier off with the legacy sweep order and the
    // derived (0 => 2x device) host budget, so existing invocations
    // stay bit-identical.
    const auto defaults = parse({});
    ASSERT_TRUE(defaults.ok());
    EXPECT_EQ(defaults->kvTier, "off");
    EXPECT_DOUBLE_EQ(defaults->hostKvBudgetGiB, 0.0);
    EXPECT_DOUBLE_EQ(defaults->hostBandwidthGBs, 16.0);
    EXPECT_EQ(defaults->victimSelect, "admission");
    EXPECT_FALSE(defaults->wasSet("--kv-tier"));
    EXPECT_EQ(defaults->toOnlineOptions().kvTier, "off");
}

TEST(EngineArgsOnline, KvTierFlagValidation)
{
    EngineArgs args;
    args.kvTier = "nvme";
    EXPECT_EQ(args.validate().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(args.validate().message().find("host"),
              std::string::npos);

    args = EngineArgs();
    args.hostKvBudgetGiB = -1;
    EXPECT_EQ(args.validate().code(), StatusCode::kInvalidArgument);

    args = EngineArgs();
    args.hostBandwidthGBs = 0;
    EXPECT_EQ(args.validate().code(), StatusCode::kInvalidArgument);

    args = EngineArgs();
    args.victimSelect = "random";
    EXPECT_EQ(args.validate().code(), StatusCode::kInvalidArgument);

    // Wrong JSON types are rejected up front.
    EXPECT_EQ(EngineArgs::fromJsonText(R"({"kv_tier": 1})")
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(
        EngineArgs::fromJsonText(R"({"host_kv_budget_gib": "lots"})")
            .status()
            .code(),
        StatusCode::kInvalidArgument);
    EXPECT_EQ(
        EngineArgs::fromJsonText(R"({"host_bandwidth_gbs": true})")
            .status()
            .code(),
        StatusCode::kInvalidArgument);

    // Fixed-config tools reject the tiering flags too.
    const auto set = parse({"--kv-tier", "host"});
    ASSERT_TRUE(set.ok());
    const Status status = set->rejectUnsupportedFlags({"--problems"});
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("--kv-tier"), std::string::npos);
}

// ---------------------------------------------------------------------
// Fault tolerance: retryable status codes and the fault flags
// ---------------------------------------------------------------------

TEST(Status, RetryableCodesCarryNamesAndRetryability)
{
    const Status deadline = Status::deadlineExceeded("too slow");
    EXPECT_EQ(deadline.code(), StatusCode::kDeadlineExceeded);
    EXPECT_EQ(deadline.toString(), "deadline_exceeded: too slow");
    // Deliberately terminal: the deadline has passed; a retry would
    // just miss it again later.
    EXPECT_FALSE(deadline.isRetryable());

    const Status transient = Status::unavailable("device hiccup");
    EXPECT_EQ(transient.code(), StatusCode::kUnavailable);
    EXPECT_EQ(transient.toString(), "unavailable: device hiccup");
    EXPECT_TRUE(transient.isRetryable());

    // Every other code is non-retryable.
    EXPECT_FALSE(okStatus().isRetryable());
    EXPECT_FALSE(Status::invalidArgument("x").isRetryable());
    EXPECT_FALSE(Status::notFound("x").isRetryable());
    EXPECT_FALSE(Status::alreadyExists("x").isRetryable());
    EXPECT_FALSE(Status::failedPrecondition("x").isRetryable());
}

TEST(EngineArgsOnline, FaultFlagsArgvAndJsonAgree)
{
    const char *kPlan =
        R"({"rules": [{"site": "wave_step", "rate": 0.05}]})";
    const auto via_argv = parse({"--faults", "plan", "--fault-plan",
                                 kPlan, "--retry-max", "3",
                                 "--retry-backoff", "0.125",
                                 "--request-timeout", "90"});
    ASSERT_TRUE(via_argv.ok());
    const auto via_json = EngineArgs::fromJsonText(std::string(R"({
        "faults": "plan",
        "fault_plan": ")")
        + R"({\"rules\": [{\"site\": \"wave_step\", \"rate\": 0.05}]})"
        + R"(",
        "retry_max": 3,
        "retry_backoff": 0.125,
        "request_timeout": 90
    })");
    ASSERT_TRUE(via_json.ok()) << via_json.status().toString();
    for (const EngineArgs *args : {&*via_argv, &*via_json}) {
        EXPECT_EQ(args->faults, "plan");
        EXPECT_EQ(args->faultPlan, kPlan);
        EXPECT_EQ(args->retryMax, 3);
        EXPECT_DOUBLE_EQ(args->retryBackoff, 0.125);
        EXPECT_DOUBLE_EQ(args->requestTimeout, 90.0);
        EXPECT_TRUE(args->validate().ok())
            << args->validate().toString();
        const OnlineServerOptions online = args->toOnlineOptions();
        EXPECT_EQ(online.faults, "plan");
        EXPECT_EQ(online.faultPlan, kPlan);
        EXPECT_EQ(online.retryMax, 3);
        EXPECT_DOUBLE_EQ(online.retryBackoff, 0.125);
        EXPECT_DOUBLE_EQ(online.requestTimeout, 90.0);
    }
    for (const char *flag : {"--faults", "--fault-plan", "--retry-max",
                             "--retry-backoff", "--request-timeout"})
        EXPECT_TRUE(via_argv->wasSet(flag)) << flag;

    // Defaults keep injection off with no retry/watchdog machinery,
    // so legacy invocations stay bit-identical.
    const auto defaults = parse({});
    ASSERT_TRUE(defaults.ok());
    EXPECT_EQ(defaults->faults, "off");
    EXPECT_TRUE(defaults->faultPlan.empty());
    EXPECT_EQ(defaults->retryMax, 0);
    EXPECT_DOUBLE_EQ(defaults->requestTimeout, 0.0);
    EXPECT_EQ(defaults->toOnlineOptions().faults, "off");
}

TEST(EngineArgsOnline, FaultFlagValidation)
{
    EngineArgs args;
    args.faults = "chaos";
    EXPECT_EQ(args.validate().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(args.validate().message().find("off"),
              std::string::npos);

    // plan mode demands a parseable schedule.
    args = EngineArgs();
    args.faults = "plan";
    EXPECT_EQ(args.validate().code(), StatusCode::kInvalidArgument);
    args.faultPlan = "{\"rules\": [{\"site\": \"wave_step\"}]}";
    EXPECT_FALSE(args.validate().ok());

    args = EngineArgs();
    args.retryMax = 17;
    EXPECT_EQ(args.validate().code(), StatusCode::kInvalidArgument);

    args = EngineArgs();
    args.retryBackoff = -1.0;
    EXPECT_EQ(args.validate().code(), StatusCode::kInvalidArgument);

    args = EngineArgs();
    args.requestTimeout = -5.0;
    EXPECT_EQ(args.validate().code(), StatusCode::kInvalidArgument);

    // argv range enforcement and JSON type enforcement.
    EXPECT_FALSE(parse({"--retry-max", "17"}).ok());
    EXPECT_FALSE(parse({"--retry-max", "-1"}).ok());
    EXPECT_EQ(EngineArgs::fromJsonText(R"({"faults": 1})")
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(EngineArgs::fromJsonText(R"({"retry_max": "three"})")
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(EngineArgs::fromJsonText(R"({"retry_max": 17})")
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);

    // Fixed-config tools reject the fault flags like any other.
    const auto set = parse({"--request-timeout", "10"});
    ASSERT_TRUE(set.ok());
    const Status status = set->rejectUnsupportedFlags({"--problems"});
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("--request-timeout"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// EngineArgs: the command-line surface, pinned flag by flag
// ---------------------------------------------------------------------

/** Every EngineArgs field, printed; two args are equal iff these are. */
std::string
describe(const EngineArgs &a)
{
    std::ostringstream out;
    out << a.device << '|' << a.dataset << '|' << a.algorithm << '|'
        << a.models << '|' << a.mode << '|' << a.numBeams << '|'
        << a.branchFactor << '|' << a.numProblems << '|' << a.seed << '|'
        << a.offload << '|' << a.memoryFraction << '|' << a.reservedGiB
        << '|' << a.policy << '|' << a.maxInflight << '|' << a.slo << '|'
        << a.arrivals << '|' << a.preempt << '|' << a.kvBudgetGiB << '|'
        << a.shedDoomed << '|' << a.batching << '|' << a.maxBatchedTokens
        << '|' << a.prefillChunk << '|' << a.prefixCache << '|'
        << a.prefixCacheBudgetGiB << '|' << a.faults << '|' << a.faultPlan
        << '|' << a.retryMax << '|' << a.retryBackoff << '|'
        << a.requestTimeout << '|' << a.kvTier << '|' << a.hostKvBudgetGiB
        << '|' << a.hostBandwidthGBs << '|' << a.victimSelect;
    return out.str();
}

/** The frozen command-line surface: each flag, its JSON key, and one
 *  non-default value in both spellings (nullptr: a bare bool flag). */
struct FlagSpelling
{
    const char *flag;
    const char *key;
    const char *argvValue;
    const char *jsonValue;
};

constexpr FlagSpelling kFlagSurface[] = {
    {"--device", "device", "RTX3070Ti", "\"RTX3070Ti\""},
    {"--dataset", "dataset", "AMC", "\"AMC\""},
    {"--algorithm", "algorithm", "dvts", "\"dvts\""},
    {"--models", "models", "1.5B+7B", "\"1.5B+7B\""},
    {"--mode", "mode", "baseline", "\"baseline\""},
    {"--beams", "num_beams", "16", "16"},
    {"--branch-factor", "branch_factor", "8", "8"},
    {"--problems", "num_problems", "3", "3"},
    {"--seed", "seed", "42", "42"},
    {"--offload", "offload", nullptr, "true"},
    {"--memory-fraction", "memory_fraction", "0.5", "0.5"},
    {"--reserved-gib", "reserved_gib", "0.25", "0.25"},
    {"--policy", "policy", "sjf", "\"sjf\""},
    {"--max-inflight", "max_inflight", "8", "8"},
    {"--slo", "slo", "30.5", "30.5"},
    {"--arrivals", "arrivals", "bursty", "\"bursty\""},
    {"--preempt", "preempt", "policy", "\"policy\""},
    {"--kv-budget", "kv_budget_gib", "1.5", "1.5"},
    {"--shed-doomed", "shed_doomed", nullptr, "true"},
    {"--batching", "batching", "continuous", "\"continuous\""},
    {"--max-batched-tokens", "max_batched_tokens", "4096", "4096"},
    {"--prefill-chunk", "prefill_chunk", "256", "256"},
    {"--prefix-cache", "prefix_cache", "on", "\"on\""},
    {"--prefix-cache-budget", "prefix_cache_budget_gib", "0.25", "0.25"},
    {"--faults", "faults", "plan", "\"plan\""},
    {"--fault-plan", "fault_plan", "{}", "\"{}\""},
    {"--retry-max", "retry_max", "3", "3"},
    {"--retry-backoff", "retry_backoff", "0.125", "0.125"},
    {"--request-timeout", "request_timeout", "90", "90"},
    {"--kv-tier", "kv_tier", "host", "\"host\""},
    {"--host-kv-budget", "host_kv_budget_gib", "1.5", "1.5"},
    {"--host-bandwidth", "host_bandwidth_gbs", "8", "8"},
    {"--victim-select", "victim_select", "cost", "\"cost\""},
};

TEST(EngineArgsSurface, EveryFlagAndKeySetTheSameField)
{
    ASSERT_EQ(std::size(kFlagSurface), 33u);
    const std::string defaults = describe(EngineArgs());
    const std::string help = EngineArgs::help("prog");
    for (const FlagSpelling &row : kFlagSurface) {
        SCOPED_TRACE(row.flag);
        const auto via_argv =
            row.argvValue != nullptr ? parse({row.flag, row.argvValue})
                                     : parse({row.flag});
        ASSERT_TRUE(via_argv.ok()) << via_argv.status().toString();
        const auto via_json = EngineArgs::fromJsonText(
            std::string("{\"") + row.key + "\": " + row.jsonValue + "}");
        ASSERT_TRUE(via_json.ok()) << via_json.status().toString();

        EXPECT_NE(describe(*via_argv), defaults);
        EXPECT_EQ(describe(*via_argv), describe(*via_json));
        EXPECT_EQ(via_argv->parsedFlags,
                  std::vector<std::string>{row.flag});
        EXPECT_NE(help.find(std::string("  ") + row.flag + " "),
                  std::string::npos);

        // The equals form agrees; a bool flag's --no- form undoes it.
        if (row.argvValue != nullptr) {
            const std::string equals =
                std::string(row.flag) + "=" + row.argvValue;
            const auto via_equals = parse({equals.c_str()});
            ASSERT_TRUE(via_equals.ok());
            EXPECT_EQ(describe(*via_equals), describe(*via_argv));
        } else {
            const std::string negated =
                std::string("--no-") + (row.flag + 2);
            const auto undone = parse({row.flag, negated.c_str()});
            ASSERT_TRUE(undone.ok());
            EXPECT_EQ(describe(*undone), defaults);
            EXPECT_TRUE(undone->wasSet(row.flag));
            EXPECT_NE(help.find("  " + negated + " "), std::string::npos);
        }
    }
}

TEST(EngineArgsArgv, HelpNoLongerAdvertisesPositionals)
{
    // The replacement flags keep working, and help() no longer
    // documents the removed positional form.
    const auto flagged =
        parse({"--problems", "7", "--dataset", "MATH500"});
    ASSERT_TRUE(flagged.ok());
    EXPECT_EQ(flagged->numProblems, 7);
    EXPECT_EQ(flagged->dataset, "MATH500");

    const std::string help = EngineArgs::help("prog");
    EXPECT_EQ(help.find("DEPRECATED"), std::string::npos);
    EXPECT_EQ(help.find("positional"), std::string::npos);
}

} // namespace
} // namespace fasttts
