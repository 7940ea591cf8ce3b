/**
 * @file
 * adaptsim-lint CLI: walk the source tree and report every project-
 * invariant violation.
 *
 *     adaptsim_lint [--root DIR] [--format=plain|github]
 *                   [--list-rules] [SUBDIR...]
 *
 * DIR defaults to the current directory; SUBDIRs default to
 * `src bench tests examples`; the unused-api rule also reads, without
 * linting them, perfbench/ and tools/ for uses.  --format=github
 * renders violations as GitHub Actions `::error` workflow commands so
 * CI annotates the offending lines in pull-request diffs;
 * --list-rules prints the rule catalogue and exits.  Unreadable files are reported but do
 * not stop the scan.  Exit status: 0 clean, 1 violations found,
 * 2 usage or I/O error (I/O takes precedence over violations).
 * Registered as the ctest test `lint`.
 */

#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "lint_engine.hh"

int
main(int argc, char **argv)
{
    std::string root = ".";
    std::string format = "plain";
    std::vector<std::string> subdirs;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--root") {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "adaptsim_lint: --root needs a value\n");
                return 2;
            }
            root = argv[++i];
        } else if (arg.rfind("--format=", 0) == 0) {
            format = arg.substr(std::string("--format=").size());
            if (format != "plain" && format != "github") {
                std::fprintf(
                    stderr,
                    "adaptsim_lint: unknown format %s "
                    "(expected plain or github)\n",
                    format.c_str());
                return 2;
            }
        } else if (arg == "--list-rules") {
            for (const auto &r : adaptsim::lint::ruleCatalogue())
                std::printf("%-24s %s\n", r.name.c_str(),
                            r.description.c_str());
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            std::printf("usage: adaptsim_lint [--root DIR] "
                        "[--format=plain|github] [--list-rules] "
                        "[SUBDIR...]\n");
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr,
                         "adaptsim_lint: unknown option %s\n",
                         arg.c_str());
            return 2;
        } else {
            subdirs.push_back(arg);
        }
    }
    if (subdirs.empty())
        subdirs = {"src", "bench", "tests", "examples"};

    adaptsim::lint::TreeResult res;
    try {
        res = adaptsim::lint::lintTree(root, subdirs);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "adaptsim_lint: %s\n", e.what());
        return 2;
    }
    for (const auto &d : res.diagnostics) {
        const std::string line =
            format == "github" ? adaptsim::lint::renderGithub(d)
                               : adaptsim::lint::render(d);
        std::printf("%s\n", line.c_str());
    }
    for (const auto &err : res.errors)
        std::fprintf(stderr, "adaptsim_lint: %s\n", err.c_str());
    std::printf("adaptsim_lint: %zu violation(s) in %zu file(s) "
                "scanned, %zu read error(s)\n",
                res.diagnostics.size(), res.filesScanned,
                res.errors.size());
    if (!res.errors.empty())
        return 2;
    return res.diagnostics.empty() ? 0 : 1;
}
