/**
 * @file
 * The solver knob table: one entry per HybridConfig setting a user
 * can reach from outside the library, holding its name, value syntax,
 * a validating apply function and a format-effective-value function.
 * It drives CLI parsing and usage (`--name`), the SUBMIT/OPEN wire
 * tokens (`key=value`, key = name with '-' -> '_'), the scheduler's
 * per-job overrides and the report echo, so a new knob is one entry
 * in options.cpp.
 */

#ifndef HYQSAT_CORE_OPTIONS_H
#define HYQSAT_CORE_OPTIONS_H

#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/hybrid_solver.h"
#include "util/cli.h"

namespace hyqsat::core {

/** One user-settable solver knob. */
struct Knob
{
    /** Value shape: drives CLI arity and report quoting. */
    enum class Kind {
        Word,   ///< one of a set of names (JSON string)
        Number, ///< an integer in a range (JSON number)
        Switch, ///< 0|1; the bare CLI flag means 1 (JSON number)
    };

    /** Where it can be set; a surface takes the scopes up to its own. */
    enum class Scope {
        Session, ///< SUBMIT, OPEN and every CLI
        Job,     ///< SUBMIT and every CLI; echoed in reports
        Cli,     ///< every CLI
        Solo,    ///< the single-instance dimacs_solver only
    };

    std::string name;   ///< CLI flag without the leading "--"
    Kind kind;
    Scope scope;
    std::string syntax; ///< accepted values, e.g. "off|light|full"
    std::string bare;   ///< meaning of the flag given alone
                        ///< ("" = a value is required)

    /** Validate @p value and set it; false leaves @p config as is. */
    std::function<bool(HybridConfig &, std::string_view)> apply;

    /** Effective value (empty function: never echoed). */
    std::function<std::string(const HybridConfig &)> format;

    /** Wire key and report column: the name with '-' -> '_'. */
    std::string key() const;
};

/** The table entries of @p scope or below, in report-column order. */
std::vector<const Knob *> knobs(Knob::Scope scope = Knob::Scope::Solo);

/** (key, value) knob settings, applied in order (last one wins). */
using KnobValues = std::vector<std::pair<std::string, std::string>>;

/** The value @p values gives @p key (the last one wins; "" = unset). */
std::string knobValue(const KnobValues &values, std::string_view key);

/** Register the knobs of @p scope on @p cli, applying to @p config. */
void addKnobFlags(CommandLine &cli, HybridConfig &config,
                  Knob::Scope scope);

/** Validate a `key=value` token of @p scope and append it to @p out. */
bool parseKnobSetting(std::string_view token, Knob::Scope scope,
                      KnobValues &out);

/** `[key=<syntax>] ...` for the knobs of @p scope. */
std::string knobSettingUsage(Knob::Scope scope);

/** Apply @p values in order; one that does not validate is skipped. */
void applyKnobs(const KnobValues &values, HybridConfig &config);

/** Effective values of the echoed knobs of @p scope. */
KnobValues echoKnobs(const HybridConfig &config,
                     Knob::Scope scope = Knob::Scope::Job);

/**
 * The noise-free simulator of §VI-B: a noise-free device model that
 * ends in a zero-temperature descent, best of 2 attempts.
 */
void useNoiseFreeDevice(HybridConfig &config);

/**
 * The noisy D-Wave 2000Q-like device of §VI-C: control noise and
 * readout errors, then a zero-temperature descent (a physical
 * annealer relaxes into a local minimum of its noise-perturbed final
 * Hamiltonian), 1 attempt.
 */
void useNoisyDevice(HybridConfig &config);

} // namespace hyqsat::core

#endif // HYQSAT_CORE_OPTIONS_H
