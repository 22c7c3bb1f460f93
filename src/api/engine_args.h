/**
 * @file
 * EngineArgs: flat, string-friendly serving configuration.
 *
 * The vLLM-style front door of the library: every knob a CLI flag or
 * JSON key away, with full validation against the registries and an
 * explicit conversion into ServingOptions. The bench binaries and
 * examples all parse their command line through fromArgv() (so they
 * share one flag vocabulary and a --help that prints the registry
 * contents), and services embedding the library can load the same
 * configuration from a JSON document via fromJson().
 *
 *   EngineArgs defaults;
 *   defaults.dataset = "AMC";
 *   const EngineArgs args =
 *       EngineArgs::parseOrExit(argc, argv, defaults, "my tool");
 *   auto system = ServingSystem::create(args.toServingOptions().value());
 */

#ifndef FASTTTS_API_ENGINE_ARGS_H
#define FASTTTS_API_ENGINE_ARGS_H

#include <cstdint>
#include <string>
#include <vector>

#include "api/status.h"
#include "core/online_server.h"
#include "core/serving.h"

namespace fasttts
{

class Json;

/**
 * One serving configuration in string-friendly form. The online
 * serving fields (policy, maxInflight, slo, ...) are inherited from
 * OnlineServerOptions, which declares them and their defaults once.
 * Every field maps 1:1 to a CLI flag and a JSON key through the flag
 * table in engine_args.cc: fromArgv(), fromJson() and help() are loops
 * over it, so adding a flag means adding one table row. Names are
 * resolved through the registries only at validate() /
 * toServingOptions() time, so custom registrations made before parsing
 * are honoured.
 */
struct EngineArgs : OnlineServerOptions
{
    std::string device = "RTX4090";        //!< deviceRegistry() name.
    std::string dataset = "AIME";          //!< datasetRegistry() name.
    std::string algorithm = "beam_search"; //!< algorithmRegistry() name.
    std::string models = "1.5B+1.5B";      //!< modelConfigRegistry() label.
    std::string mode = "fasttts";          //!< "fasttts" | "baseline".
    int numBeams = 32;     //!< Search width n.
    int branchFactor = 4;  //!< Branch factor B.
    int numProblems = 8;   //!< Problems to serve.
    uint64_t seed = 2026;  //!< Master problem-set seed.
    bool offload = false;       //!< KV offloading (Sec. 4.3.2).
    double memoryFraction = 0;  //!< 0 keeps the model configuration's
                                //!< default.
    double reservedGiB = -1;    //!< Negative keeps the engine default.
    std::string arrivals = "poisson"; //!< Online arrival process:
                                      //!< 'poisson' or 'bursty'.

    bool helpRequested = false; //!< --help seen; see parseOrExit().

    /**
     * Canonical names of the flags the command line explicitly set
     * ("--problems", "--dataset", ...). Lets tools with figure-fixed
     * configurations reject flags they would otherwise silently
     * ignore.
     */
    std::vector<std::string> parsedFlags;

    /**
     * Parse a command line on top of the given defaults. Recognised
     * flags are listed by help(); "--flag value" and "--flag=value"
     * both work. Bare positional arguments (the old bench CLI
     * form) are rejected with kInvalidArgument after their
     * one-release deprecation window. Syntax and number-format errors
     * are kInvalidArgument; names are NOT resolved here (call
     * validate()).
     */
    static StatusOr<EngineArgs> fromArgv(int argc, const char *const *argv,
                                         const EngineArgs &defaults);

    static StatusOr<EngineArgs> fromArgv(int argc,
                                         const char *const *argv);

    /**
     * Load from a JSON object on top of the given defaults. Keys are
     * the flag table's JSON keys ("device", "num_beams", ...);
     * unknown keys and type mismatches are kInvalidArgument.
     */
    static StatusOr<EngineArgs> fromJson(const Json &doc,
                                         const EngineArgs &defaults);

    /** Parse a JSON document text, then load as above. */
    static StatusOr<EngineArgs> fromJsonText(const std::string &text,
                                             const EngineArgs &defaults);

    static StatusOr<EngineArgs> fromJsonText(const std::string &text);

    /**
     * Full validation: every name must exist in its registry, numeric
     * fields must be in range (an int field in exactly the range its
     * flag accepts from argv or JSON), mode must be "fasttts" or
     * "baseline".
     * The online fields are checked by validateOnlineOptions(), the
     * same function OnlineServer::create() calls.
     */
    Status validate() const;

    /** Validate, then build the equivalent ServingOptions. */
    StatusOr<ServingOptions> toServingOptions() const;

    /** The OnlineServer queueing configuration (policy, max-inflight,
     *  SLO, ...) these arguments describe: the OnlineServerOptions
     *  slice of this object. Pair with toServingOptions() for
     *  OnlineServer::create(). */
    [[nodiscard]] OnlineServerOptions toOnlineOptions() const
    {
        return *this;
    }

    /**
     * kInvalidArgument when the command line explicitly set a flag
     * outside the supported set — for tools whose configuration is
     * (partly) fixed, so an ignored flag is an error rather than a
     * silently wrong run.
     */
    Status
    rejectUnsupportedFlags(const std::vector<std::string> &supported) const;

    /**
     * Whether the command line explicitly set
     * the given canonical flag ("--slo", "--problems", ...). Lets
     * tools distinguish "left at default" from "explicitly set to the
     * default value" (e.g. --slo 0 meaning "disable SLOs").
     */
    [[nodiscard]] bool wasSet(const std::string &flag) const;

    /** Every flag fromArgv() knows, in help() order. */
    [[nodiscard]] static const std::vector<std::string> &allFlags();

    /**
     * The reference of the `supported` flags plus the current registry
     * contents (devices, datasets, algorithms, model configs) — the
     * discoverability surface of the CLI.
     */
    [[nodiscard]] static std::string
    help(const std::string &program,
         const std::vector<std::string> &supported = allFlags());

    /** Just the registered-names block of help() (shared by tools
     *  with their own usage text, e.g. bench_runner). */
    [[nodiscard]] static std::string registryListing();

    /**
     * fromArgv + validate for command-line tools: prints help (of the
     * supported flags) and exits 0 on --help, prints the error and
     * exits 2 on bad input or on an explicitly-set flag outside
     * `supported` (pass {} for a tool with a fully fixed configuration
     * that only takes --help), otherwise returns the validated
     * arguments.
     * @param description One-line tool description printed atop help.
     */
    [[nodiscard]] static EngineArgs
    parseOrExit(int argc, const char *const *argv,
                const EngineArgs &defaults, const std::string &description,
                const std::vector<std::string> &supported = allFlags());
};

/** Strict decimal integer in [min, max] for `flag`; rejects trailing
 *  junk. The integer grammar of every EngineArgs flag, shared with
 *  tools that parse flags of their own. */
StatusOr<long long> parseIntFlag(const std::string &flag,
                                 const std::string &token, long long min,
                                 long long max);

/** Strict unsigned decimal integer for `flag` (the --seed grammar);
 *  rejects a sign and trailing junk. */
StatusOr<uint64_t> parseUnsignedFlag(const std::string &flag,
                                     const std::string &token);

} // namespace fasttts

#endif // FASTTTS_API_ENGINE_ARGS_H
