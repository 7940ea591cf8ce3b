/**
 * @file
 * adaptsim-lint rule engine.
 *
 * A self-contained (no dependency on the adaptsim library) C++20
 * source scanner enforcing the project invariants that keep
 * simulation bit-reproducible and the logs clean:
 *
 *   determinism             no rand()/srand()/std::random_device/
 *                           time()/system_clock/std::mt19937 inside
 *                           the simulation and experiment core
 *                           (src/uarch, src/ml, src/workload,
 *                           src/phase, src/sim, src/harness,
 *                           src/control) — all randomness must flow
 *                           through common/rng
 *   env                     std::getenv only inside src/common/env.cc;
 *                           everything else goes through the helpers
 *   logging                 no raw stderr writes (std::cerr,
 *                           fprintf/fputs/fputc to stderr) outside
 *                           common/logging.hh — use panic/fatal/warn/
 *                           inform or lockedWrite
 *   header-guard            every header starts with #pragma once or
 *                           a matching #ifndef/#define pair
 *   header-using-namespace  no `using namespace` at namespace scope
 *                           in a header
 *   mutex-annotated         no raw std::mutex / std::shared_mutex /
 *                           std::condition_variable declarations
 *                           under src/ — use the annotated wrappers
 *                           in common/sync.hh so the clang
 *                           thread-safety build can see the lock
 *   condvar-predicate       condition-variable wait() must use the
 *                           predicate overload; a bare wait(lock)
 *                           invites lost/spurious-wakeup bugs
 *   unused-api              (tree-level) every function declared in
 *                           a src/ header has a use in src/, bench/,
 *                           examples/, perfbench/ or tools/ besides
 *                           its own declaration and its column-0
 *                           out-of-line definition (`Class::name(`);
 *                           a use in tests/ keeps nothing
 *
 * Scanning is comment- and string-literal-aware: banned tokens inside
 * comments, string literals, char literals, and raw strings are never
 * flagged.  A violation is suppressed by putting
 *
 *     // lint:allow(<rule>[, <rule>...])
 *
 * in a comment on the offending line (for header-guard: on the line
 * the diagnostic points at, i.e. the first non-comment line).  An
 * unused-api exemption must also say why the function stays.
 */

#ifndef ADAPTSIM_TOOLS_LINT_ENGINE_HH
#define ADAPTSIM_TOOLS_LINT_ENGINE_HH

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace adaptsim::lint
{

/** One rule violation at a source location. */
struct Diagnostic
{
    std::string file;    ///< path as handed to lintSource()
    std::size_t line;    ///< 1-based line number
    std::string rule;    ///< rule identifier (e.g. "determinism")
    std::string message; ///< human-readable explanation
};

/** Render as the canonical "file:line: [rule] message" form. */
std::string render(const Diagnostic &d);

/** Render as a GitHub Actions workflow command
 *  (::error file=...,line=...::message) so violations annotate the
 *  offending lines in pull-request diffs. */
std::string renderGithub(const Diagnostic &d);

/** One entry of the rule catalogue (--list-rules). */
struct RuleInfo
{
    std::string name;        ///< rule identifier
    std::string description; ///< one-line summary
};

/** Every rule the engine enforces, in stable display order. */
const std::vector<RuleInfo> &ruleCatalogue();

/**
 * Lint one translation unit.  @p path must be repo-relative with
 * forward slashes (it selects which rules apply and which exemptions
 * hold); @p text is the file's full contents.
 */
std::vector<Diagnostic> lintSource(const std::string &path,
                                   const std::string &text);

/** An in-memory source tree: repo-relative path → file contents. */
using SourceTree = std::map<std::string, std::string>;

/**
 * The tree-level unused-api rule.  Flags each function declared in a
 * src/ header of @p tree whose name has no use in the tree's src/,
 * bench/, examples/, perfbench/ or tools/ files other than its
 * declarations and the column-0 out-of-line definition heads
 * (`Class::name(`) that carry its name.  The match is by name, so an
 * overload shares its siblings' uses.  A same-line
 * `// lint:allow(unused-api) <reason>` keeps a function.
 */
std::vector<Diagnostic> lintUnusedApi(const SourceTree &tree);

/** Result of walking a source tree. */
struct TreeResult
{
    std::vector<Diagnostic> diagnostics;
    std::size_t filesScanned = 0;
    /** I/O failures ("cannot read <path>"); scanning continued past
     *  them but the run as a whole must fail. */
    std::vector<std::string> errors;
};

/**
 * Lint the single file @p rel (relative to @p root), appending its
 * per-file diagnostics to @p res, and return its contents for the
 * tree-level rule.  An unreadable file is recorded in res.errors
 * (and std::nullopt returned) rather than thrown, so one bad file
 * cannot mask violations in the rest of the tree.
 */
std::optional<std::string> lintFileInto(const std::string &root,
                                        const std::string &rel,
                                        TreeResult &res);

/**
 * Walk @p subdirs (relative to @p root) recursively and lint every
 * .cc/.hh/.cpp/.hpp file, in sorted path order for deterministic
 * output.  The unused-api rule also reads, without linting, those of
 * src/ bench/ examples/ perfbench/ tools/ that exist under @p root.
 * Missing subdirs are an error (throws std::runtime_error), as a
 * misspelt directory would otherwise pass vacuously; an unreadable
 * *file* is reported in TreeResult::errors and scanning continues.
 */
TreeResult lintTree(const std::string &root,
                    const std::vector<std::string> &subdirs);

} // namespace adaptsim::lint

#endif // ADAPTSIM_TOOLS_LINT_ENGINE_HH
