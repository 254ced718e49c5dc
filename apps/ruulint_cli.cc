/**
 * @file
 * ruulint — static program verifier for the model ISA.
 *
 *   ruulint [options] <prog.s|lllNN|suite>...
 *   ruulint --catalog
 *
 * Targets are textual-assembly files, built-in Livermore kernel names
 * (lll01..lll14), or "suite" for all fourteen. Exit status: 0 when no
 * diagnostics of Error severity were produced (warnings allowed),
 * 1 when at least one target has errors (or any diagnostic at all
 * under --Werror), 2 on malformed input: usage errors, unreadable
 * files, and programs that fail to assemble.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/file.hh"
#include "lint/analyze.hh"
#include "sim/job.hh"

using namespace ruu;

namespace
{

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage:\n"
        "  ruulint [options] <prog.s|lllNN|suite>...\n"
        "  ruulint --catalog\n"
        "options:\n"
        "  --Werror           treat warnings and style notes as errors\n"
        "  --show-suppressed  report diagnostics hidden by .lint "
        "allow\n"
        "  --catalog          print the diagnostic catalog and exit\n");
    std::exit(2);
}

void
printCatalog()
{
    std::printf("%-10s %-22s %-8s %s\n", "id", "name", "severity",
                "summary");
    for (unsigned c = 0; c < lint::kNumChecks; ++c) {
        const lint::CheckInfo &info =
            lint::checkInfo(static_cast<lint::Check>(c));
        const char *severity =
            info.severity == lint::Severity::Error     ? "error"
            : info.severity == lint::Severity::Warning ? "warning"
                                                       : "style";
        std::printf("%-10s %-22s %-8s %s\n", info.id, info.name,
                    severity, info.summary);
    }
}

/** Programs to lint for one target argument, with display names. */
std::vector<std::pair<std::string, Program>>
resolveTargets(const std::string &name)
{
    std::vector<std::pair<std::string, Program>> targets;
    for (const std::string &target : expandSuite(name)) {
        // Malformed input — an unreadable file or a program that fails
        // to assemble — exits 2, matching the ruusim CLI contract.
        auto job = jobFor(target, {}, readTextFile);
        Expected<Program> program =
            job ? resolveProgram(*job) : Expected<Program>(job.error());
        if (!program) {
            std::fprintf(stderr, "ruulint: %s\n",
                         program.error().message().c_str());
            std::exit(2);
        }
        targets.emplace_back(target, program.take());
    }
    return targets;
}

} // namespace

int
main(int argc, char **argv)
{
    bool warnings_as_errors = false;
    lint::Options options;
    std::vector<std::string> names;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--Werror") {
            warnings_as_errors = true;
        } else if (arg == "--show-suppressed") {
            options.includeSuppressed = true;
        } else if (arg == "--catalog") {
            printCatalog();
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            usage();
        } else {
            names.push_back(arg);
        }
    }
    if (names.empty())
        usage();

    unsigned programs = 0, errors = 0, warnings = 0;
    for (const std::string &name : names) {
        for (auto &[subject, program] : resolveTargets(name)) {
            ++programs;
            auto diags = lint::analyze(program, options);
            std::printf("%s",
                        lint::formatDiagnostics(subject, diags).c_str());
            for (const auto &diag : diags) {
                if (diag.severity == lint::Severity::Error)
                    ++errors;
                else
                    ++warnings;
            }
        }
    }
    std::printf("%u program(s): %u error(s), %u warning(s)\n", programs,
                errors, warnings);
    return errors || (warnings_as_errors && warnings) ? 1 : 0;
}
