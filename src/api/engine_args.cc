#include "api/engine_args.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <type_traits>
#include <utility>
#include <variant>

#include "util/json.h"
#include "util/units.h"

namespace fasttts
{

namespace
{

using E = EngineArgs;

/** The field a flag sets. Its type decides how argv and JSON spell the
 *  value; a bool flag takes none, and "--no-<name>" clears it. An int
 *  field declared by OnlineServerOptions keeps its own alternative:
 *  validateOnlineOptions() owns its range, validate() the others. */
using Field =
    std::variant<std::string E::*, int E::*, int OnlineServerOptions::*,
                 uint64_t E::*, double E::*, bool E::*>;

/**
 * One row of the flag table: all that fromArgv(), fromJson(), help()
 * and the all-flags list know about a flag. Static data only — string
 * literals and a member pointer — so the table allocates nothing.
 */
struct Flag
{
    const char *name;    //!< Command-line spelling ("--beams").
    const char *key;     //!< JSON key ("num_beams").
    Field field;
    const char *metavar; //!< Value placeholder in help ("" for a bool).
    const char *help;    //!< Help text; '\n' starts an indented line.
    int min = 0; //!< Inclusive range of an int flag.
    int max = 0;

    [[nodiscard]] bool isBool() const
    {
        return std::holds_alternative<bool E::*>(field);
    }
};

/** Every EngineArgs flag, in help() order. */
constexpr Flag kFlags[] = {
    {"--device", "device", &E::device, "NAME", "accelerator to serve on"},
    {"--dataset", "dataset", &E::dataset, "NAME", "workload profile"},
    {"--algorithm", "algorithm", &E::algorithm, "NAME",
     "TTS search method"},
    {"--models", "models", &E::models, "LABEL",
     "generator+verifier configuration"},
    {"--mode", "mode", &E::mode, "MODE",
     "'fasttts' (optimised) or 'baseline'"},
    {"--beams", "num_beams", &E::numBeams, "N", "search width n (>= 1)", 1,
     ServingOptions::kMaxBeams},
    {"--branch-factor", "branch_factor", &E::branchFactor, "N",
     "branch factor B (>= 1)", 1, ServingOptions::kMaxBranchFactor},
    {"--problems", "num_problems", &E::numProblems, "N",
     "problems to serve (>= 0)", 0, ServingOptions::kMaxProblems},
    {"--seed", "seed", &E::seed, "N", "master problem-set seed"},
    {"--offload", "offload", &E::offload, "",
     "enable KV offloading (Sec. 4.3.2)"},
    {"--memory-fraction", "memory_fraction", &E::memoryFraction, "F",
     "GPU memory fraction in (0, 1]"},
    {"--reserved-gib", "reserved_gib", &E::reservedGiB, "F",
     "reserved VRAM (GiB) outside serving"},
    {"--policy", "policy", &E::policy, "NAME", "online admission policy"},
    {"--max-inflight", "max_inflight", &E::maxInflight, "N",
     "interleaved online requests (1-64)", 1, E::kMaxInflight},
    {"--slo", "slo", &E::slo, "SECONDS",
     "per-request latency SLO (0 disables)"},
    {"--arrivals", "arrivals", &E::arrivals, "MODE",
     "arrival process: 'poisson' or 'bursty'"},
    {"--preempt", "preempt", &E::preempt, "MODE",
     "online preemption: 'off' (run to\ncompletion), 'slice' (round-robin "
     "time\nslices) or 'policy' (the queue policy\npreempts the running "
     "victim)"},
    {"--kv-budget", "kv_budget_gib", &E::kvBudgetGiB, "GIB",
     "shared KV budget all in-flight online\nrequests contend for (0 = "
     "legacy\nper-slot accounting)"},
    {"--shed-doomed", "shed_doomed", &E::shedDoomed, "",
     "shed queued requests whose predicted\nfinish already misses their "
     "deadline"},
    {"--batching", "batching", &E::batching, "MODE",
     "online wave scheduling: 'off' (time-\nsliced; default) or "
     "'continuous' (co-\nscheduled decode across requests)"},
    {"--max-batched-tokens", "max_batched_tokens", &E::maxBatchedTokens, "N",
     "per-wave token budget for continuous\nbatching (default 2048)", 1,
     E::kMaxBatchedTokens},
    {"--prefill-chunk", "prefill_chunk", &E::prefillChunk, "N",
     "largest prompt slice per request per\nwave under continuous "
     "batching\n(default 512)",
     1, E::kMaxPrefillChunk},
    {"--prefix-cache", "prefix_cache", &E::prefixCache, "MODE",
     "cross-request prefix KV reuse: 'off'\n(default; bit-identical to "
     "legacy\nserving) or 'on' (mount cached prompt\nprefixes instead of "
     "re-prefilling)"},
    {"--prefix-cache-budget", "prefix_cache_budget_gib",
     &E::prefixCacheBudgetGiB, "GIB",
     "prefix-cache byte budget (0 = 1/8 of\nthe shared KV budget); cached "
     "bytes\nare charged to the --kv-budget ledger"},
    {"--faults", "faults", &E::faults, "MODE",
     "deterministic fault injection: 'off'\n(default; bit-identical "
     "fault-free\nserving) or 'plan' (inject per the\n--fault-plan "
     "schedule)"},
    {"--fault-plan", "fault_plan", &E::faultPlan, "JSON",
     "fault schedule (required with\n--faults plan); schema "
     "in\nutil/fault_injector.h"},
    {"--retry-max", "retry_max", &E::retryMax, "N",
     "retries per fault-killed request\n(0-16; default 0 = fail on "
     "first\nfault)",
     0, E::kMaxRetries},
    {"--retry-backoff", "retry_backoff", &E::retryBackoff, "S",
     "base retry backoff in sim seconds\n(capped exponential per attempt)"},
    {"--request-timeout", "request_timeout", &E::requestTimeout, "S",
     "watchdog: abort requests older than\nS sim seconds (0 disables)"},
    {"--kv-tier", "kv_tier", &E::kvTier, "MODE",
     "host KV offload: 'off' (default;\nbit-identical device-only serving) "
     "or\n'host' (preemption swaps KV to a\nbudgeted host tier when the "
     "copy beats\nthe recompute)"},
    {"--host-kv-budget", "host_kv_budget_gib", &E::hostKvBudgetGiB, "GIB",
     "host tier byte budget (0 = twice the\ndevice KV budget)"},
    {"--host-bandwidth", "host_bandwidth_gbs", &E::hostBandwidthGBs, "GBS",
     "host link bandwidth in GB/s\n(default 16)"},
    {"--victim-select", "victim_select", &E::victimSelect, "MODE",
     "memory-pressure eviction order:\n'admission' (default) or "
     "'cost'\n(cheapest-to-restore first)"},
};

/** The row whose `column` (Flag::name or Flag::key) spells `text`. */
const Flag *
findFlag(const char *Flag::*column, const std::string &text)
{
    for (const Flag &row : kFlags)
        if (text == row.*column)
            return &row;
    return nullptr;
}

/** Strict finite double; rejects trailing junk. */
StatusOr<double>
parseDouble(const std::string &flag, const std::string &token)
{
    if (token.empty())
        return Status::invalidArgument(flag + " expects a number");
    errno = 0;
    char *end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (errno == ERANGE || end != token.c_str() + token.size()
        || end == token.c_str())
        return Status::invalidArgument(flag + " expects a number, got '"
                                       + token + "'");
    return value;
}

/** JSON number that must be an integer in [min, max]. */
StatusOr<long long>
jsonInt(const std::string &key, const Json &value, long long min,
        long long max)
{
    if (!value.isNumber())
        return Status::invalidArgument("\"" + key
                                       + "\" must be a number");
    const double number = value.asNumber();
    const long long integral = static_cast<long long>(number);
    if (static_cast<double>(integral) != number)
        return Status::invalidArgument("\"" + key
                                       + "\" must be an integer");
    if (integral < min || integral > max)
        return Status::invalidArgument(
            "\"" + key + "\" must be in [" + std::to_string(min) + ", "
            + std::to_string(max) + "]");
    return integral;
}

/** Store a parsed value in `member`, or pass the parse error on. */
template <typename T, typename U>
Status
store(T &member, const StatusOr<U> &parsed)
{
    if (!parsed.ok())
        return parsed.status();
    member = static_cast<T>(*parsed);
    return okStatus();
}

/** Set a valued flag's field from its command-line token. */
Status
setFromToken(EngineArgs &args, const Flag &row, const std::string &token)
{
    return std::visit(
        [&](auto field) -> Status {
            auto &member = args.*field;
            using T = std::decay_t<decltype(member)>;
            if constexpr (std::is_same_v<T, int>)
                return store(member,
                             parseIntFlag(row.name, token, row.min, row.max));
            else if constexpr (std::is_same_v<T, uint64_t>)
                return store(member, parseUnsignedFlag(row.name, token));
            else if constexpr (std::is_same_v<T, double>)
                return store(member, parseDouble(row.name, token));
            else if constexpr (std::is_same_v<T, std::string>)
                member = token;
            return okStatus();
        },
        row.field);
}

/** Set a flag's field from its JSON value. */
Status
setFromJson(EngineArgs &args, const Flag &row, const Json &value)
{
    const std::string key = row.key;
    const auto mismatch = [&](const char *type) {
        return Status::invalidArgument("\"" + key + "\" must be " + type);
    };
    return std::visit(
        [&](auto field) -> Status {
            auto &member = args.*field;
            using T = std::decay_t<decltype(member)>;
            if constexpr (std::is_same_v<T, int>) {
                return store(member, jsonInt(key, value, row.min, row.max));
            } else if constexpr (std::is_same_v<T, uint64_t>) {
                // Doubles round-trip integers through 2^53.
                return store(member, jsonInt(key, value, 0, 1LL << 53));
            } else if constexpr (std::is_same_v<T, std::string>) {
                if (!value.isString())
                    return mismatch("a string");
                member = value.asString();
            } else if constexpr (std::is_same_v<T, double>) {
                if (!value.isNumber())
                    return mismatch("a number");
                member = value.asNumber();
            } else {
                if (!value.isBool())
                    return mismatch("a boolean");
                member = value.asBool();
            }
            return okStatus();
        },
        row.field);
}

/** One help() entry: the flag column, then the text from column 23. */
void
appendHelp(std::string &text, const std::string &head, const char *body)
{
    constexpr size_t kTextColumn = 23;
    text += "  " + head;
    size_t width = 2 + head.size();
    if (width >= kTextColumn) {
        text += '\n';
        width = 0;
    }
    text.append(kTextColumn - width, ' ');
    for (const char *c = body; *c != '\0'; ++c) {
        text += *c;
        if (*c == '\n')
            text.append(kTextColumn, ' ');
    }
    text += '\n';
}

std::string
joinNames(const std::vector<std::string> &names)
{
    std::string joined;
    for (size_t i = 0; i < names.size(); ++i) {
        if (i > 0)
            joined += ", ";
        joined += names[i];
    }
    return joined;
}

} // namespace

StatusOr<long long>
parseIntFlag(const std::string &flag, const std::string &token,
             long long min, long long max)
{
    if (token.empty())
        return Status::invalidArgument(flag + " expects an integer");
    errno = 0;
    char *end = nullptr;
    const long long value = std::strtoll(token.c_str(), &end, 10);
    if (errno == ERANGE || end != token.c_str() + token.size()
        || end == token.c_str())
        return Status::invalidArgument(flag + " expects an integer, got '"
                                       + token + "'");
    if (value < min || value > max)
        return Status::invalidArgument(
            flag + " must be in [" + std::to_string(min) + ", "
            + std::to_string(max) + "], got " + token);
    return value;
}

StatusOr<uint64_t>
parseUnsignedFlag(const std::string &flag, const std::string &token)
{
    if (token.empty() || token[0] == '-' || token[0] == '+')
        return Status::invalidArgument(
            flag + " expects an unsigned integer, got '" + token + "'");
    errno = 0;
    char *end = nullptr;
    const unsigned long long value =
        std::strtoull(token.c_str(), &end, 10);
    if (errno == ERANGE || end != token.c_str() + token.size()
        || end == token.c_str())
        return Status::invalidArgument(
            flag + " expects an unsigned integer, got '" + token + "'");
    return static_cast<uint64_t>(value);
}

StatusOr<EngineArgs>
EngineArgs::fromArgv(int argc, const char *const *argv,
                     const EngineArgs &defaults)
{
    EngineArgs args = defaults;

    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        std::string value;
        bool has_value = false;

        const size_t eq = flag.find('=');
        if (flag.size() > 2 && flag[0] == '-' && flag[1] == '-'
            && eq != std::string::npos) {
            value = flag.substr(eq + 1);
            flag = flag.substr(0, eq);
            has_value = true;
        }

        if (flag == "--help" || flag == "-h") {
            args.helpRequested = true;
            return args;
        }

        // A bool flag's "--no-" spelling sets it false.
        const Flag *row = findFlag(&Flag::name, flag);
        bool negated = false;
        if (row == nullptr && flag.rfind("--no-", 0) == 0) {
            row = findFlag(&Flag::name, "--" + flag.substr(5));
            negated = row != nullptr && row->isBool();
            if (!negated)
                row = nullptr;
        }

        if (row == nullptr) {
            if (!flag.empty() && flag[0] == '-')
                return Status::invalidArgument("unknown flag '" + flag
                                               + "' (see --help)");
            // Bare positionals ([num_problems] [dataset]) were
            // deprecated in favour of --problems/--dataset and removed
            // after their one-release grace period.
            return Status::invalidArgument(
                "unexpected positional argument '" + flag
                + "' (bare positionals were removed; use "
                  "--problems/--dataset)");
        }

        if (row->isBool()) {
            if (has_value)
                return Status::invalidArgument(
                    flag + " does not take a value (use " + row->name
                    + " or --no-" + (row->name + 2) + ")");
            args.*std::get<bool E::*>(row->field) = !negated;
        } else {
            if (!has_value) {
                if (i + 1 >= argc)
                    return Status::invalidArgument(flag
                                                   + " expects a value");
                value = argv[++i];
            }
            if (Status s = setFromToken(args, *row, value); !s.ok())
                return s;
        }
        args.parsedFlags.emplace_back(row->name);
    }
    return args;
}

StatusOr<EngineArgs>
EngineArgs::fromArgv(int argc, const char *const *argv)
{
    return fromArgv(argc, argv, EngineArgs());
}

StatusOr<EngineArgs>
EngineArgs::fromJson(const Json &doc, const EngineArgs &defaults)
{
    if (!doc.isObject())
        return Status::invalidArgument(
            "EngineArgs JSON must be an object");

    EngineArgs args = defaults;
    for (const auto &[key, value] : doc.members()) {
        const Flag *row = findFlag(&Flag::key, key);
        if (row == nullptr)
            return Status::invalidArgument("unknown EngineArgs key \""
                                           + key + "\"");
        if (Status s = setFromJson(args, *row, value); !s.ok())
            return s;
    }
    return args;
}

StatusOr<EngineArgs>
EngineArgs::fromJsonText(const std::string &text,
                         const EngineArgs &defaults)
{
    std::string error;
    const Json doc = Json::parse(text, &error);
    if (!error.empty())
        return Status::invalidArgument("EngineArgs JSON parse error: "
                                       + error);
    return fromJson(doc, defaults);
}

StatusOr<EngineArgs>
EngineArgs::fromJsonText(const std::string &text)
{
    return fromJsonText(text, EngineArgs());
}

Status
EngineArgs::validate() const
{
    if (auto device_spec = deviceByName(device); !device_spec.ok())
        return device_spec.status();
    if (auto profile = datasetByName(dataset); !profile.ok())
        return profile.status();
    if (!modelConfigRegistry().contains(models))
        return modelConfigByLabel(models).status();
    // Every int field EngineArgs declares against its flag-table range,
    // so a value built in code is held to the same bounds as one parsed
    // from argv/JSON. The online int fields are validateOnlineOptions'
    // (below): their rows use the bounds it checks.
    for (const Flag &row : kFlags) {
        const auto *field = std::get_if<int E::*>(&row.field);
        if (field == nullptr)
            continue;
        const int value = this->**field;
        if (value < row.min || value > row.max)
            return Status::invalidArgument(
                std::string(row.key) + " must be in ["
                + std::to_string(row.min) + ", " + std::to_string(row.max)
                + "], got " + std::to_string(value));
    }
    if (auto algo = makeAlgorithm(algorithm, numBeams, branchFactor);
        !algo.ok())
        return algo.status();
    if (mode != "fasttts" && mode != "baseline")
        return Status::invalidArgument(
            "mode must be 'fasttts' or 'baseline', got '" + mode + "'");
    if (!std::isfinite(memoryFraction) || memoryFraction < 0
        || memoryFraction > 1)
        return Status::invalidArgument(
            "memory_fraction must be in (0, 1] (or 0 for the model "
            "config default)");
    if (!std::isfinite(reservedGiB))
        return Status::invalidArgument(
            "reserved_gib must be finite (negative keeps the engine "
            "default)");
    if (!queuePolicyRegistry().contains(policy))
        return makeQueuePolicy(policy).status();
    if (arrivals != "poisson" && arrivals != "bursty")
        return Status::invalidArgument(
            "arrivals must be 'poisson' or 'bursty', got '" + arrivals
            + "'");
    return validateOnlineOptions(*this);
}

Status
EngineArgs::rejectUnsupportedFlags(
    const std::vector<std::string> &supported) const
{
    for (const std::string &flag : parsedFlags) {
        bool found = false;
        for (const std::string &ok_flag : supported)
            found = found || ok_flag == flag;
        if (!found) {
            std::string message = flag
                + " is not supported by this tool (its configuration "
                  "is fixed); supported flags: ";
            if (supported.empty()) {
                message += "none (only --help)";
            } else {
                for (size_t i = 0; i < supported.size(); ++i)
                    message += (i == 0 ? "" : ", ") + supported[i];
            }
            return Status::invalidArgument(message);
        }
    }
    return okStatus();
}

bool
EngineArgs::wasSet(const std::string &flag) const
{
    return std::find(parsedFlags.begin(), parsedFlags.end(), flag)
        != parsedFlags.end();
}

StatusOr<ServingOptions>
EngineArgs::toServingOptions() const
{
    if (Status status = validate(); !status.ok())
        return status;

    ServingOptions opts;
    opts.config = mode == "baseline" ? FastTtsConfig::baseline()
                                     : FastTtsConfig::fastTts();
    opts.config.offloadEnabled = offload;
    if (reservedGiB >= 0)
        opts.config.reservedBytes = reservedGiB * GiB;
    opts.models = *modelConfigByLabel(models);
    if (memoryFraction > 0)
        opts.models.memoryFraction = memoryFraction;
    opts.deviceName = device;
    opts.datasetName = dataset;
    opts.algorithmName = algorithm;
    opts.numBeams = numBeams;
    opts.branchFactor = branchFactor;
    opts.seed = seed;
    // Keep the deterministic 256-problem set (a prefix is identical
    // for any larger count) but grow it when more problems were asked
    // for, so serveProblems(numProblems) never silently clamps.
    opts.problemCount = std::max(opts.problemCount, numProblems);
    return opts;
}

const std::vector<std::string> &
EngineArgs::allFlags()
{
    static const std::vector<std::string> flags = [] {
        std::vector<std::string> names;
        for (const Flag &row : kFlags)
            names.emplace_back(row.name);
        return names;
    }();
    return flags;
}

std::string
EngineArgs::help(const std::string &program,
                 const std::vector<std::string> &supported)
{
    std::string text = "usage: " + program + " [flags]\n\n";
    for (const Flag &row : kFlags) {
        if (std::find(supported.begin(), supported.end(), row.name)
            == supported.end())
            continue;
        if (row.isBool()) {
            appendHelp(text, row.name, row.help);
            appendHelp(text, std::string("--no-") + (row.name + 2),
                       ("turn " + std::string(row.name) + " off").c_str());
        } else {
            appendHelp(text, std::string(row.name) + " " + row.metavar,
                       row.help);
        }
    }
    appendHelp(text, "--help", "print this text and exit");
    text += "\nRegistered names (extensible; see the README's Extending "
            "FastTTS):\n";
    text += registryListing();
    return text;
}

std::string
EngineArgs::registryListing()
{
    std::string text;
    text += "  devices:       " + joinNames(deviceRegistry().list()) + "\n";
    text +=
        "  datasets:      " + joinNames(datasetRegistry().list()) + "\n";
    text += "  algorithms:    " + joinNames(algorithmRegistry().list())
        + "\n";
    text += "  model configs: " + joinNames(modelConfigRegistry().list())
        + "\n";
    text += "  queue policies: " + joinNames(queuePolicyRegistry().list())
        + "\n";
    return text;
}

EngineArgs
EngineArgs::parseOrExit(int argc, const char *const *argv,
                        const EngineArgs &defaults,
                        const std::string &description,
                        const std::vector<std::string> &supported)
{
    const std::string program = argc > 0 ? argv[0] : "fasttts";
    auto parsed = fromArgv(argc, argv, defaults);
    if (parsed.ok() && parsed->helpRequested) {
        if (!description.empty())
            std::printf("%s\n\n", description.c_str());
        std::fputs(help(program, supported).c_str(), stdout);
        std::exit(0);
    }
    Status status = parsed.ok() ? parsed->validate() : parsed.status();
    if (status.ok())
        status = parsed->rejectUnsupportedFlags(supported);
    if (!status.ok()) {
        std::fprintf(stderr, "%s: %s\n", program.c_str(),
                     status.toString().c_str());
        std::fprintf(stderr, "try '%s --help'\n", program.c_str());
        std::exit(2);
    }
    return *std::move(parsed);
}

} // namespace fasttts
