#include "util/cli.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace hyqsat {

void
CommandLine::toggle(std::string name, bool &out)
{
    add(
        std::move(name), "0|1",
        [&out](std::string_view v) {
            out = v == "1";
            return v == "0" || v == "1";
        },
        Arity::Switch, "1");
}

void
CommandLine::text(std::string name, std::string syntax, std::string &out)
{
    add(std::move(name), std::move(syntax), [&out](std::string_view v) {
        out = std::string(v);
        return true;
    });
}

bool
CommandLine::parse(int argc, char **argv) const
{
    const auto fail = [&](const std::string &why) {
        std::fprintf(stderr, "%s: %s\n%s\n", argv[0], why.c_str(),
                     usage(argv[0]).c_str());
        return false;
    };
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            if (arg.rfind('-', 0) == 0)
                return fail("unknown option " + std::string(arg));
            if (!on_operand_ || !on_operand_(arg))
                return fail("unexpected argument " + std::string(arg));
            continue;
        }
        const std::size_t eq = arg.find('=');
        const std::string_view name = arg.substr(2, eq - 2);
        const auto flag =
            std::find_if(flags_.begin(), flags_.end(),
                         [&](const Flag &f) { return f.name == name; });
        if (flag == flags_.end())
            return fail("unknown option --" + std::string(name));
        std::string_view value = flag->bare;
        if (eq != std::string_view::npos) {
            value = arg.substr(eq + 1);
        } else if (flag->arity == Arity::Value) {
            if (i + 1 >= argc)
                return fail("--" + flag->name + " needs a value (" +
                            flag->syntax + ")");
            value = argv[++i];
        } else if (flag->arity == Arity::Optional && i + 1 < argc &&
                   argv[i + 1][0] != '-') {
            value = argv[++i];
        }
        if (!flag->set(value))
            return fail("bad value for --" + flag->name + ": '" +
                        std::string(value) + "' (expected " +
                        flag->syntax + ")");
    }
    return true;
}

std::string
CommandLine::usage(const char *program) const
{
    std::string out = std::string("usage: ") + program;
    if (!operands_.empty())
        out += ' ' + operands_;
    for (const Flag &f : flags_) {
        out += " [--" + f.name;
        if (f.arity == Arity::Value)
            out += ' ' + f.syntax;
        else if (f.arity == Arity::Optional)
            out += "[=" + f.syntax + ']';
        out += ']';
    }
    return out;
}

MetricsFiles::MetricsFiles(CommandLine &cli, std::string prefix)
    : prefix_(std::move(prefix))
{
    cli.text("metrics", "FILE", metrics_path_);
    cli.text("trace", "FILE", trace_path_);
}

bool
MetricsFiles::open(MetricsRegistry &registry)
{
    if (trace_path_.empty())
        return true;
    sink_ = std::make_unique<TraceSink>(trace_path_);
    if (!sink_->ok()) {
        std::fprintf(stderr, "%scannot open trace file %s\n",
                     prefix_.c_str(), trace_path_.c_str());
        return false;
    }
    registry.setTrace(sink_.get());
    return true;
}

void
MetricsFiles::write(const MetricsRegistry &registry, bool announce) const
{
    if (metrics_path_.empty())
        return;
    std::ofstream out(metrics_path_);
    if (!out) {
        std::fprintf(stderr, "%scannot open metrics file %s\n",
                     prefix_.c_str(), metrics_path_.c_str());
        return;
    }
    registry.writeJson(out);
    if (announce)
        std::printf("%swrote %s\n", prefix_.c_str(),
                    metrics_path_.c_str());
}

} // namespace hyqsat
