/**
 * @file
 * Declarative command-line parsing for the bundled CLIs. A program
 * registers each flag once (name, value syntax, validating setter);
 * parse() accepts `--name value` and `--name=value` and rejects
 * unknown flags and malformed values, and usage() renders the same
 * registrations, so the help text cannot drift from the parser. The
 * solver knobs register through core::addKnobFlags (core/options.h).
 */

#ifndef HYQSAT_UTIL_CLI_H
#define HYQSAT_UTIL_CLI_H

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/metrics.h"
#include "util/parse.h"

namespace hyqsat {

/** The flag table and parser of one program. */
class CommandLine
{
  public:
    /** Validates and stores one value; false = malformed. */
    using Setter = std::function<bool(std::string_view)>;

    /** How a flag takes its value. */
    enum class Arity {
        Value,    ///< `--name V` or `--name=V`
        Optional, ///< as Value, or alone (meaning its bare value);
                  ///< an argument starting with '-' is never a value
        Switch,   ///< alone (meaning its bare value) or `--name=V`
    };

    /**
     * @p operands names the non-flag arguments in the usage line;
     * @p on_operand receives each in command-line order and returns
     * false to refuse it (null: the program takes none).
     */
    explicit CommandLine(std::string operands = "",
                         Setter on_operand = nullptr)
        : operands_(std::move(operands)), on_operand_(std::move(on_operand))
    {
    }

    /** Register `--name`; @p bare is the value it means alone. */
    void
    add(std::string name, std::string syntax, Setter set,
        Arity arity = Arity::Value, std::string bare = "")
    {
        flags_.push_back({std::move(name), std::move(syntax),
                          std::move(set), arity, std::move(bare)});
    }

    /** `--name` (or `--name=1`) sets @p out, `--name=0` clears it. */
    void toggle(std::string name, bool &out);

    /** `--name TEXT`, stored verbatim. */
    void text(std::string name, std::string syntax, std::string &out);

    /** `--name N`, an integer in [@p lo, @p hi]. */
    template <class T>
    void
    number(std::string name, T &out, T lo, T hi)
    {
        add(std::move(name), "N", [&out, lo, hi](std::string_view v) {
            return parseNumber(v, lo, hi, out);
        });
    }

    /** `--name X`, a non-negative real. */
    void
    real(std::string name, double &out)
    {
        add(std::move(name), "X", [&out](std::string_view v) {
            return parseNumber(v, 0.0, std::numeric_limits<double>::max(),
                               out);
        });
    }

    /**
     * Apply argv[1..] in order. On an unknown flag, a missing or
     * malformed value or a refused operand, print why and the usage
     * line to stderr and return false (the CLIs then exit 2).
     */
    bool parse(int argc, char **argv) const;

    /** `usage: <program> <operands> [--flag SYNTAX] ...`. */
    std::string usage(const char *program) const;

  private:
    struct Flag
    {
        std::string name;
        std::string syntax;
        Setter set;
        Arity arity;
        std::string bare;
    };

    std::string operands_;
    Setter on_operand_;
    std::vector<Flag> flags_;
};

/**
 * The `--metrics FILE` / `--trace FILE` pair every CLI offers: the
 * trace file streams the registry's JSONL events live, the metrics
 * file receives its JSON snapshot at the end.
 */
class MetricsFiles
{
  public:
    /** Register both flags; @p prefix starts every message line. */
    explicit MetricsFiles(CommandLine &cli, std::string prefix = "");

    // The registered setters write into this object's members.
    MetricsFiles(const MetricsFiles &) = delete;
    MetricsFiles &operator=(const MetricsFiles &) = delete;

    bool
    requested() const
    {
        return !metrics_path_.empty() || !trace_path_.empty();
    }

    /** Attach the trace file to @p registry; false if unopenable. */
    bool open(MetricsRegistry &registry);

    /** Write the metrics file, if any; @p announce says so. */
    void write(const MetricsRegistry &registry,
               bool announce = true) const;

  private:
    std::string prefix_;
    std::string metrics_path_;
    std::string trace_path_;
    std::unique_ptr<TraceSink> sink_;
};

} // namespace hyqsat

#endif // HYQSAT_UTIL_CLI_H
