/**
 * @file
 * Tests of the adaptsim-lint rule engine: each rule on violating and
 * clean snippets, the lint:allow escape hatch, comment/string-literal
 * awareness, the tree-level unused-api rule on in-memory trees, and
 * the tree walker.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/thread_annotations.hh"
#include "lint_engine.hh"
#include "scratch_dir.hh"

using adaptsim::lint::Diagnostic;
using adaptsim::lint::lintFileInto;
using adaptsim::lint::lintSource;
using adaptsim::lint::lintTree;
using adaptsim::lint::lintUnusedApi;
using adaptsim::lint::render;
using adaptsim::lint::renderGithub;
using adaptsim::lint::ruleCatalogue;
using adaptsim::lint::SourceTree;
using adaptsim::lint::TreeResult;

namespace
{

std::vector<Diagnostic>
lint(const std::string &path, const std::string &text)
{
    return lintSource(path, text);
}

/** A header declaring one accessor, and its house-style column-0
 *  out-of-line definition. */
SourceTree
cacheTree()
{
    return {
        {"src/uarch/cache.hh", "#pragma once\n"
                               "class Cache\n"
                               "{\n"
                               "  public:\n"
                               "    int lineBytes() const;\n"
                               "};\n"},
        {"src/uarch/cache.cc", "#include \"uarch/cache.hh\"\n"
                               "\n"
                               "int\n"
                               "Cache::lineBytes() const\n"
                               "{\n"
                               "    return 64;\n"
                               "}\n"},
    };
}

/** Names of the functions unused-api flags in @p tree. */
std::vector<std::string>
flagged(const SourceTree &tree)
{
    std::vector<std::string> names;
    for (const auto &d : lintUnusedApi(tree)) {
        EXPECT_EQ(d.rule, "unused-api");
        names.push_back(d.message.substr(0, d.message.find("()")));
    }
    return names;
}

} // namespace

TEST(Lint, DeterminismBansEntropyInCore)
{
    const auto d = lint("src/uarch/x.cc", "int f() { return rand(); }\n");
    ASSERT_EQ(d.size(), 1u);
    EXPECT_EQ(d[0].file, "src/uarch/x.cc");
    EXPECT_EQ(d[0].line, 1u);
    EXPECT_EQ(d[0].rule, "determinism");

    EXPECT_EQ(lint("src/ml/x.cc", "std::mt19937 g;\n").size(), 1u);
    EXPECT_EQ(lint("src/ml/x.cc", "std::mt19937_64 g(7);\n").size(), 1u);
    EXPECT_EQ(lint("src/phase/x.cc", "std::random_device rd;\n").size(),
              1u);
    EXPECT_EQ(lint("src/workload/x.cc", "auto t = time(nullptr);\n")
                  .size(),
              1u);
    EXPECT_EQ(
        lint("src/uarch/x.cc",
             "auto n = std::chrono::system_clock::now();\n")
            .size(),
        1u);
    EXPECT_EQ(lint("src/uarch/x.cc", "srand(42);\n").size(), 1u);

    // The performance-model backends (src/sim) replay traces through
    // the simulation core, so they sit inside the same scope.
    const auto s =
        lint("src/sim/x.cc", "std::mt19937 g(seed);\n");
    ASSERT_EQ(s.size(), 1u);
    EXPECT_EQ(s[0].rule, "determinism");
    EXPECT_EQ(lint("src/sim/x.cc", "auto t = time(nullptr);\n").size(),
              1u);
}

TEST(Lint, DeterminismScopedToCoreDirs)
{
    // The harness and controller drive reproducible experiments
    // (shared eval cache, paper tables), so they sit inside the
    // determinism scope too.
    const auto h = lint("src/harness/x.cc", "int x = rand();\n");
    ASSERT_EQ(h.size(), 1u);
    EXPECT_EQ(h[0].rule, "determinism");
    EXPECT_EQ(
        lint("src/control/x.cc", "auto t = time(nullptr);\n").size(),
        1u);
    // The gather scheduler's memo index (src/harness) must stay
    // deterministic too: warm re-gathers promise bit-exact replays.
    EXPECT_EQ(lint("src/harness/gather_scheduler.cc",
                   "std::mt19937 g;\n")
                  .size(),
              1u);

    // The same entropy sources are legal outside the simulation and
    // experiment core (obs, bench, tests)...
    EXPECT_TRUE(lint("src/obs/x.cc", "int x = rand();\n").empty());
    EXPECT_TRUE(lint("tests/x.cc", "std::mt19937 g;\n").empty());
    // ...and identifiers merely *containing* a banned token never
    // trip the word-boundary matcher.
    EXPECT_TRUE(
        lint("src/uarch/x.cc", "int operand(int grand);\n").empty());
    EXPECT_TRUE(
        lint("src/uarch/x.cc", "Cycles readyTime(int i);\n").empty());
}

TEST(Lint, EnvOnlyInsideEnvCc)
{
    const auto d =
        lint("src/control/x.cc", "const char *v = std::getenv(\"A\");\n");
    ASSERT_EQ(d.size(), 1u);
    EXPECT_EQ(d[0].rule, "env");
    EXPECT_EQ(d[0].line, 1u);
    EXPECT_TRUE(
        lint("src/common/env.cc", "const char *v = std::getenv(\"A\");\n")
            .empty());
}

TEST(Lint, LoggingBansRawStderr)
{
    EXPECT_EQ(lint("src/uarch/x.cc", "std::cerr << \"x\";\n")[0].rule,
              "logging");
    EXPECT_EQ(
        lint("bench/x.cc", "std::fprintf(stderr, \"x\");\n")[0].rule,
        "logging");
    EXPECT_EQ(lint("tests/x.cc", "fputs(\"x\", stderr);\n")[0].rule,
              "logging");
    // stdout and file streams are fine; so is the sanctioned
    // lockedWrite(stderr, ...) since it is not a ban-listed call.
    EXPECT_TRUE(lint("bench/x.cc", "std::printf(\"x\");\n").empty());
    EXPECT_TRUE(
        lint("src/obs/x.cc", "std::fprintf(out, \"x\");\n").empty());
    EXPECT_TRUE(
        lint("src/uarch/x.cc", "lockedWrite(stderr, buf);\n").empty());
    // The logging layer itself is exempt.
    EXPECT_TRUE(
        lint("src/common/logging.hh",
             "#pragma once\nstd::fputs(t, stderr);\n")
            .empty());
}

TEST(Lint, HeaderGuardRequired)
{
    const auto d = lint("src/a/x.hh", "int f();\n");
    ASSERT_EQ(d.size(), 1u);
    EXPECT_EQ(d[0].rule, "header-guard");
    EXPECT_EQ(d[0].line, 1u);

    EXPECT_TRUE(lint("src/a/x.hh", "#pragma once\nint f();\n").empty());
    EXPECT_TRUE(lint("src/a/x.hh",
                     "/** doc */\n#ifndef A_X_HH\n#define A_X_HH\n"
                     "int f();\n#endif\n")
                    .empty());
    // #ifndef whose #define does not match is still unguarded.
    const auto mismatch = lint(
        "src/a/x.hh", "#ifndef A_X_HH\n#define OTHER\nint f();\n#endif\n");
    ASSERT_EQ(mismatch.size(), 1u);
    EXPECT_EQ(mismatch[0].rule, "header-guard");
}

TEST(Lint, UsingNamespaceOnlyAtNamespaceScopeInHeaders)
{
    const std::string bad =
        "#pragma once\nnamespace a\n{\nusing namespace std;\n}\n";
    const auto d = lint("src/a/x.hh", bad);
    ASSERT_EQ(d.size(), 1u);
    EXPECT_EQ(d[0].rule, "header-using-namespace");
    EXPECT_EQ(d[0].line, 4u);

    // Inside a function body it does not leak into includers.
    EXPECT_TRUE(lint("src/a/x.hh",
                     "#pragma once\ninline void f()\n{\n"
                     "    using namespace std;\n}\n")
                    .empty());
    // In a .cc it is the file's own business.
    EXPECT_TRUE(lint("src/a/x.cc", "using namespace std;\n").empty());
}

TEST(Lint, AllowEscapeHatch)
{
    EXPECT_TRUE(
        lint("src/uarch/x.cc",
             "int x = rand(); // lint:allow(determinism)\n")
            .empty());
    // Allowing a different rule does not suppress.
    EXPECT_EQ(lint("src/uarch/x.cc",
                   "int x = rand(); // lint:allow(logging)\n")
                  .size(),
              1u);
    // Multiple rules in one allow.
    EXPECT_TRUE(
        lint("src/uarch/x.cc",
             "int x = rand(); auto v = std::getenv(\"A\"); "
             "// lint:allow(determinism, env)\n")
            .empty());
}

TEST(Lint, CommentsAndStringsNeverTrip)
{
    EXPECT_TRUE(lint("src/uarch/x.cc", "// calls rand() once\n").empty());
    EXPECT_TRUE(lint("src/uarch/x.cc", "/* srand(1) */ int x;\n").empty());
    EXPECT_TRUE(
        lint("src/uarch/x.cc", "const char *s = \"rand()\";\n").empty());
    EXPECT_TRUE(lint("src/uarch/x.cc",
                     "const char *s = R\"(time(nullptr))\";\n")
                    .empty());
}

TEST(Lint, DigitSeparatorIsNotACharLiteral)
{
    // A digit separator must not open a char literal and blank the
    // rest of the line — the violation after it is still seen.
    const auto d = lint("src/uarch/x.cc",
                        "Addr a = 0x1000'0000ULL; int b = rand();\n");
    ASSERT_EQ(d.size(), 1u);
    EXPECT_EQ(d[0].rule, "determinism");
}

TEST(Lint, MutexAnnotatedFlagsRawSyncDeclarations)
{
    const auto d = lint("src/obs/x.cc", "std::mutex mutex_;\n");
    ASSERT_EQ(d.size(), 1u);
    EXPECT_EQ(d[0].rule, "mutex-annotated");
    EXPECT_EQ(d[0].line, 1u);

    EXPECT_EQ(lint("src/harness/x.hh",
                   "#pragma once\nstd::shared_mutex rw_;\n")[0]
                  .rule,
              "mutex-annotated");
    EXPECT_EQ(lint("src/harness/x.cc",
                   "std::condition_variable cv_;\n")[0]
                  .rule,
              "mutex-annotated");
    EXPECT_EQ(lint("src/harness/x.cc",
                   "std::condition_variable_any cv_;\n")[0]
                  .rule,
              "mutex-annotated");
    EXPECT_EQ(lint("src/a/x.cc", "mutable std::mutex m_;\n")[0].rule,
              "mutex-annotated");
}

TEST(Lint, MutexAnnotatedNegatives)
{
    // Template arguments and references are uses, not declarations.
    EXPECT_TRUE(lint("src/a/x.cc",
                     "std::unique_lock<std::mutex> lock(m_);\n")
                    .empty());
    EXPECT_TRUE(
        lint("src/a/x.cc", "std::lock_guard<std::mutex> g(m_);\n")
            .empty());
    EXPECT_TRUE(lint("src/a/x.cc", "std::mutex &ref = m_;\n").empty());
    // Only src/** is in scope: tests and bench may use raw types.
    EXPECT_TRUE(lint("tests/x.cc", "std::mutex m_;\n").empty());
    EXPECT_TRUE(lint("bench/x.cc", "std::condition_variable cv_;\n")
                    .empty());
    // A declaration carrying a thread-safety annotation is the
    // documented escape for types the wrappers cannot cover.
    EXPECT_TRUE(lint("src/a/x.cc",
                     "std::mutex m_ ADAPTSIM_GUARDED_BY(x_);\n")
                    .empty());
    // lint:allow on the declaration line (the wrappers' own raw
    // members in common/sync.hh use this).
    EXPECT_TRUE(
        lint("src/common/sync.hh",
             "#pragma once\n"
             "mutable std::mutex raw_; // lint:allow(mutex-annotated)\n")
            .empty());
}

TEST(Lint, CondvarPredicateFlagsBareWait)
{
    const auto d =
        lint("src/a/x.cc", "cv_.wait(lock);\n");
    ASSERT_EQ(d.size(), 1u);
    EXPECT_EQ(d[0].rule, "condvar-predicate");
    EXPECT_EQ(d[0].line, 1u);

    // Arrow calls, lock-ish argument spellings, cv-ish receivers.
    EXPECT_EQ(lint("src/a/x.cc", "queueCv_->wait(lk);\n")[0].rule,
              "condvar-predicate");
    EXPECT_EQ(lint("tests/x.cc", "cond.wait(guard);\n")[0].rule,
              "condvar-predicate");
    // A cv-ish receiver flags even with an unrecognised argument.
    EXPECT_EQ(lint("src/a/x.cc", "stopCv_.wait(x);\n")[0].rule,
              "condvar-predicate");
    // Argument lists spanning lines are still one call.
    const auto multi = lint("src/a/x.cc", "done_.wait(\n    lock);\n");
    ASSERT_EQ(multi.size(), 1u);
    EXPECT_EQ(multi[0].line, 1u);
}

TEST(Lint, CondvarPredicateNegatives)
{
    // The predicate overload has two arguments.
    EXPECT_TRUE(
        lint("src/a/x.cc",
             "cv_.wait(lock, [&] { return ready_; });\n")
            .empty());
    EXPECT_TRUE(lint("src/a/x.cc",
                     "wake_.wait(lock, [&] {\n"
                     "    return stopping_ || generation_ != seen;\n"
                     "});\n")
                    .empty());
    // Unrelated wait() members: no argument, or an argument that is
    // neither a lock nor on a cv-ish receiver.
    EXPECT_TRUE(lint("src/a/x.cc", "server.wait();\n").empty());
    EXPECT_TRUE(lint("src/a/x.cc", "client.wait(id);\n").empty());
    // Free functions and different member names don't match.
    EXPECT_TRUE(lint("src/a/x.cc", "wait(lock);\n").empty());
    EXPECT_TRUE(
        lint("src/a/x.cc", "cv_.wait_for(lock, 1ms);\n").empty());
    // Suppressible like any other rule.
    EXPECT_TRUE(
        lint("src/a/x.cc",
             "cv_.wait(lock); // lint:allow(condvar-predicate)\n")
            .empty());
}

TEST(Lint, RenderFormat)
{
    const Diagnostic d{"src/a.cc", 12, "env", "msg"};
    EXPECT_EQ(render(d), "src/a.cc:12: [env] msg");
}

TEST(Lint, RenderGithubFormat)
{
    const Diagnostic d{"src/a.cc", 12, "env", "msg"};
    EXPECT_EQ(renderGithub(d),
              "::error file=src/a.cc,line=12,title=env::[env] msg");
    // Workflow-command escaping: % and newlines in the data, plus
    // ':' and ',' in property values.
    const Diagnostic tricky{"src/a,b.cc", 3, "env", "50% done\n"};
    EXPECT_EQ(renderGithub(tricky),
              "::error file=src/a%2Cb.cc,line=3,title=env::"
              "[env] 50%25 done%0A");
}

TEST(Lint, RuleCatalogueListsEveryRule)
{
    const auto &rules = ruleCatalogue();
    std::vector<std::string> names;
    for (const auto &r : rules) {
        names.push_back(r.name);
        EXPECT_FALSE(r.description.empty()) << r.name;
    }
    const std::vector<std::string> expected = {
        "determinism",        "env",
        "logging",            "header-guard",
        "header-using-namespace", "mutex-annotated",
        "condvar-predicate",  "unused-api",
    };
    EXPECT_EQ(names, expected);
}

TEST(Lint, MultipleViolationsReportedInLineOrder)
{
    const std::string text = "int a = rand();\n"
                             "int b = 0;\n"
                             "std::cerr << b;\n";
    const auto d = lint("src/uarch/x.cc", text);
    ASSERT_EQ(d.size(), 2u);
    EXPECT_EQ(d[0].line, 1u);
    EXPECT_EQ(d[0].rule, "determinism");
    EXPECT_EQ(d[1].line, 3u);
    EXPECT_EQ(d[1].rule, "logging");
}

TEST(Lint, TreeWalkFindsViolationsAndCounts)
{
    namespace fs = std::filesystem;
    const fs::path root =
        adaptsim::test::scratchDir("adaptsim_lint_tree");
    fs::remove_all(root);
    fs::create_directories(root / "src" / "uarch");
    std::ofstream(root / "src" / "uarch" / "bad.cc")
        << "int f() { return rand(); }\n";
    std::ofstream(root / "src" / "uarch" / "good.cc")
        << "int f() { return 4; }\n";
    std::ofstream(root / "src" / "uarch" / "notes.txt")
        << "rand() here is ignored: not a source file\n";

    const auto res = lintTree(root.string(), {"src"});
    EXPECT_EQ(res.filesScanned, 2u);
    ASSERT_EQ(res.diagnostics.size(), 1u);
    EXPECT_EQ(res.diagnostics[0].file, "src/uarch/bad.cc");
    EXPECT_EQ(res.diagnostics[0].rule, "determinism");
    fs::remove_all(root);
}

TEST(Lint, TreeWalkRejectsMissingSubdir)
{
    EXPECT_THROW(lintTree("/nonexistent-root-xyz", {"src"}),
                 std::runtime_error);
}

TEST(Lint, UnreadableFileIsReportedAndScanContinues)
{
    // An unreadable file must not abort the scan: lintFileInto
    // records the path in TreeResult::errors and later files still
    // get linted.  (Exercised via a vanished path, which fails the
    // same open; permission bits are unreliable when running as
    // root.)
    namespace fs = std::filesystem;
    const fs::path root =
        adaptsim::test::scratchDir("adaptsim_lint_unreadable");
    fs::remove_all(root);
    fs::create_directories(root / "src" / "uarch");
    std::ofstream(root / "src" / "uarch" / "bad.cc")
        << "int f() { return rand(); }\n";

    TreeResult res;
    lintFileInto(root.string(), "src/uarch/gone.cc", res);
    lintFileInto(root.string(), "src/uarch/bad.cc", res);
    ASSERT_EQ(res.errors.size(), 1u);
    EXPECT_NE(res.errors[0].find("src/uarch/gone.cc"),
              std::string::npos);
    EXPECT_EQ(res.filesScanned, 1u);
    ASSERT_EQ(res.diagnostics.size(), 1u);
    EXPECT_EQ(res.diagnostics[0].file, "src/uarch/bad.cc");
    fs::remove_all(root);
}

TEST(Lint, UnusedApiFlagsAFunctionOnlyItsDefinitionNames)
{
    const auto d = lintUnusedApi(cacheTree());
    ASSERT_EQ(d.size(), 1u);
    EXPECT_EQ(d[0].file, "src/uarch/cache.hh");
    EXPECT_EQ(d[0].line, 5u);
    EXPECT_EQ(d[0].rule, "unused-api");
    EXPECT_EQ(d[0].message.rfind("lineBytes()", 0), 0u) << d[0].message;
}

TEST(Lint, UnusedApiColumnZeroDefinitionIsNotAUse)
{
    // The definition head names the function at column 0; the same
    // name indented in a body is a call.
    auto tree = cacheTree();
    tree["src/uarch/other.cc"] = "int\n"
                                 "Other::lineBytes() const\n"
                                 "{\n"
                                 "    return 1;\n"
                                 "}\n";
    EXPECT_EQ(flagged(tree), std::vector<std::string>{"lineBytes"});
    tree["src/uarch/other.cc"] = "int\n"
                                 "twice(const Cache &c)\n"
                                 "{\n"
                                 "    return 2 * c.lineBytes();\n"
                                 "}\n";
    EXPECT_TRUE(flagged(tree).empty());
}

TEST(Lint, UnusedApiUseInAnyReferenceDirClears)
{
    for (const char *dir : {"bench", "perfbench", "examples", "tools"}) {
        auto tree = cacheTree();
        tree[std::string(dir) + "/main.cc"] =
            "int f(const Cache &c) { return c.lineBytes(); }\n";
        EXPECT_TRUE(lintUnusedApi(tree).empty()) << dir;
    }
}

TEST(Lint, UnusedApiUseOnlyInTestsIsStillFlagged)
{
    auto tree = cacheTree();
    tree["tests/test_cache.cc"] =
        "TEST(Cache, Line) { EXPECT_EQ(Cache().lineBytes(), 64); }\n";
    EXPECT_EQ(flagged(tree), std::vector<std::string>{"lineBytes"});
}

TEST(Lint, UnusedApiPrivateHelperCalledFromItsOwnCcIsUsed)
{
    SourceTree tree = {
        {"src/a/pool.hh", "#pragma once\n"
                          "class Pool\n"
                          "{\n"
                          "  public:\n"
                          "    int run();\n"
                          "    int size() const { return grow(); }\n"
                          "  private:\n"
                          "    int helper() const;\n"
                          "    int grow() const;\n"
                          "};\n"},
        {"src/a/pool.cc", "int\n"
                          "Pool::run()\n"
                          "{\n"
                          "    return helper();\n"
                          "}\n"
                          "\n"
                          "int\n"
                          "Pool::helper() const\n"
                          "{\n"
                          "    return 1;\n"
                          "}\n"},
        {"bench/main.cc", "int main() { return Pool().run(); }\n"},
    };
    // helper() is called from pool.cc and grow() from an inline body
    // in the header; only size() has no caller.
    EXPECT_EQ(flagged(tree), std::vector<std::string>{"size"});
}

TEST(Lint, UnusedApiSkipsWhatIsNotANamedFunction)
{
    const SourceTree tree = {
        {"src/a/x.hh",
         "#pragma once\n"
         "#define ADAPTSIM_WRAP(x) wrap(x)\n"
         "namespace a\n"
         "{\n"
         "template <class T> int pick(T t);\n"
         "class ADAPTSIM_CAPABILITY(\"mutex\") X : public Base\n"
         "{\n"
         "  public:\n"
         "    explicit X(int n) : n_{n}, m_(n) {}\n"
         "    ~X();\n"
         "    X(const X &) = delete;\n"
         "    bool operator==(const X &) const = default;\n"
         "    void reset(int) = delete;\n"
         "    std::function<void(int)> cb_;\n"
         "    int n_ ADAPTSIM_GUARDED_BY(mu_);\n"
         "    int m_ = compute(3);\n"
         "    using Fn = void (*)(int);\n"
         "};\n"
         "} // namespace a\n"},
    };
    // Constructors, destructors, operators, deleted functions, macros,
    // members and initializers are no declarations; the template is.
    EXPECT_EQ(flagged(tree), std::vector<std::string>{"pick"});
}

TEST(Lint, UnusedApiAllowNeedsAReason)
{
    auto tree = cacheTree();
    auto &header = tree["src/uarch/cache.hh"];
    const std::string decl = "    int lineBytes() const;\n";
    header.replace(header.find(decl), decl.size(),
                   "    int lineBytes() const; "
                   "// lint:allow(unused-api) debugging aid\n");
    EXPECT_TRUE(lintUnusedApi(tree).empty());

    header.replace(header.find(" debugging aid"),
                   std::string(" debugging aid").size(), "");
    const auto d = lintUnusedApi(tree);
    ASSERT_EQ(d.size(), 1u);
    EXPECT_NE(d[0].message.find("must say why"), std::string::npos)
        << d[0].message;
}

TEST(Lint, TreeWalkReadsTheReferenceSetWithoutLintingIt)
{
    // perfbench/ and tools/ supply uses for unused-api but are not
    // linted: their raw stderr write and getenv stay unreported.
    namespace fs = std::filesystem;
    const fs::path root =
        adaptsim::test::scratchDir("adaptsim_lint_reference");
    fs::remove_all(root);
    fs::create_directories(root / "src" / "a");
    fs::create_directories(root / "perfbench");
    fs::create_directories(root / "tools");
    std::ofstream(root / "src" / "a" / "x.hh")
        << "#pragma once\nint used();\nint unused();\n";
    std::ofstream(root / "perfbench" / "bench.cc")
        << "void f() { std::cerr << used(); }\n";
    std::ofstream(root / "tools" / "tool.cc")
        << "const char *v = getenv(\"X\");\n";

    const auto res = lintTree(root.string(), {"src"});
    EXPECT_EQ(res.filesScanned, 1u);
    EXPECT_TRUE(res.errors.empty());
    ASSERT_EQ(res.diagnostics.size(), 1u);
    EXPECT_EQ(res.diagnostics[0].file, "src/a/x.hh");
    EXPECT_EQ(res.diagnostics[0].line, 3u);
    EXPECT_EQ(res.diagnostics[0].rule, "unused-api");
    fs::remove_all(root);
}

// thread_annotations.hh must compile to *nothing* without clang, so
// the GCC build is byte-identical to an unannotated tree.  Stringify
// after expansion: an empty expansion stringifies to "" (sizeof 1).
#define ADAPTSIM_TEST_STR2(x) #x
#define ADAPTSIM_TEST_STR(x) ADAPTSIM_TEST_STR2(x)

TEST(ThreadAnnotations, MacrosCompileOutWithoutClang)
{
#if defined(__clang__)
    // Under clang the macros expand to real attributes.
    EXPECT_GT(
        sizeof(ADAPTSIM_TEST_STR(ADAPTSIM_GUARDED_BY(m))), 1u);
#else
    EXPECT_EQ(
        sizeof(ADAPTSIM_TEST_STR(ADAPTSIM_GUARDED_BY(m))), 1u);
    EXPECT_EQ(sizeof(ADAPTSIM_TEST_STR(ADAPTSIM_REQUIRES(m))), 1u);
    EXPECT_EQ(sizeof(ADAPTSIM_TEST_STR(ADAPTSIM_EXCLUDES(m))), 1u);
    EXPECT_EQ(sizeof(ADAPTSIM_TEST_STR(ADAPTSIM_CAPABILITY("x"))),
              1u);
    EXPECT_EQ(sizeof(ADAPTSIM_TEST_STR(ADAPTSIM_SCOPED_CAPABILITY)),
              1u);
    EXPECT_EQ(sizeof(ADAPTSIM_TEST_STR(ADAPTSIM_ACQUIRE(m))), 1u);
    EXPECT_EQ(sizeof(ADAPTSIM_TEST_STR(ADAPTSIM_RELEASE(m))), 1u);
    EXPECT_EQ(
        sizeof(ADAPTSIM_TEST_STR(ADAPTSIM_ACQUIRED_BEFORE(m))), 1u);
    EXPECT_EQ(
        sizeof(ADAPTSIM_TEST_STR(ADAPTSIM_ASSERT_CAPABILITY(m))),
        1u);
    EXPECT_EQ(sizeof(ADAPTSIM_TEST_STR(
                  ADAPTSIM_NO_THREAD_SAFETY_ANALYSIS)),
              1u);
#endif
}

TEST(Lint, DeterminismCoversTheChipModelFiles)
{
    // The multi-core chip layer must stay inside the determinism
    // scope file by file: a stray entropy source in the shared LLC
    // would silently break co-run cache keys.
    const char *files[] = {
        "src/uarch/shared_llc.cc",
        "src/uarch/chip.cc",
        "src/uarch/cache_hierarchy.cc",
        "src/control/chip_controller.cc",
        "src/control/core_policy.cc",
    };
    for (const char *f : files) {
        const auto d = lint(f, "int f() { return rand(); }\n");
        ASSERT_EQ(d.size(), 1u) << f;
        EXPECT_EQ(d[0].rule, "determinism") << f;
    }
}
