#include "lint_engine.hh"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace adaptsim::lint
{

namespace
{

/** One physical source line after literal/comment separation. */
struct ScanLine
{
    std::string code;    ///< code with literal contents blanked
    std::string comment; ///< concatenated comment text on this line
};

bool
isIdent(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/**
 * Split @p text into lines, routing comment text into .comment and
 * everything else into .code with string/char/raw-string literal
 * *contents* blanked out (the delimiting quotes stay, so token
 * boundaries are preserved).  Tokens inside literals or comments can
 * therefore never trip a rule.
 */
std::vector<ScanLine>
scan(const std::string &text)
{
    enum class St { Code, LineComment, BlockComment, Str, Chr, Raw };
    std::vector<ScanLine> lines(1);
    St st = St::Code;
    std::string rawDelim; // for Raw: the ")delim" closer
    bool escaped = false;

    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        if (c == '\n') {
            if (st == St::LineComment)
                st = St::Code;
            // Plain string/char literals cannot span lines; recover
            // rather than corrupt the rest of the file.
            if (st == St::Str || st == St::Chr)
                st = St::Code;
            escaped = false;
            lines.emplace_back();
            continue;
        }
        ScanLine &ln = lines.back();
        switch (st) {
          case St::Code:
            if (c == '/' && i + 1 < text.size() &&
                text[i + 1] == '/') {
                st = St::LineComment;
                ++i;
            } else if (c == '/' && i + 1 < text.size() &&
                       text[i + 1] == '*') {
                st = St::BlockComment;
                ++i;
            } else if (c == '"' && i > 0 && text[i - 1] == 'R') {
                // Raw string: R"delim( ... )delim"
                std::string delim;
                std::size_t j = i + 1;
                while (j < text.size() && text[j] != '(')
                    delim += text[j++];
                rawDelim = ")" + delim + "\"";
                st = St::Raw;
                ln.code += '"';
                i = j; // consume up to and including '('
            } else if (c == '"') {
                st = St::Str;
                ln.code += '"';
            } else if (c == '\'' && i > 0 &&
                       std::isalnum(
                           static_cast<unsigned char>(text[i - 1]))) {
                // C++14 digit separator (0x1000'0000), not a char
                // literal: an opening quote never directly follows
                // an alphanumeric character.
                ln.code += c;
            } else if (c == '\'') {
                st = St::Chr;
                ln.code += '\'';
            } else {
                ln.code += c;
            }
            break;
          case St::LineComment:
            ln.comment += c;
            break;
          case St::BlockComment:
            if (c == '*' && i + 1 < text.size() &&
                text[i + 1] == '/') {
                st = St::Code;
                ++i;
            } else {
                ln.comment += c;
            }
            break;
          case St::Str:
          case St::Chr:
            if (escaped) {
                escaped = false;
            } else if (c == '\\') {
                escaped = true;
            } else if ((st == St::Str && c == '"') ||
                       (st == St::Chr && c == '\'')) {
                ln.code += c;
                st = St::Code;
            }
            break;
          case St::Raw:
            if (text.compare(i, rawDelim.size(), rawDelim) == 0) {
                ln.code += '"';
                i += rawDelim.size() - 1;
                st = St::Code;
            }
            break;
        }
    }
    return lines;
}

/** True when @p tok occurs in @p s as a whole identifier. */
bool
hasToken(const std::string &s, const std::string &tok)
{
    std::size_t pos = 0;
    while ((pos = s.find(tok, pos)) != std::string::npos) {
        const bool pre = pos == 0 || !isIdent(s[pos - 1]);
        const std::size_t end = pos + tok.size();
        const bool post = end >= s.size() || !isIdent(s[end]);
        if (pre && post)
            return true;
        pos = end;
    }
    return false;
}

/** True when @p tok occurs as an identifier called like `tok(`. */
bool
hasCallToken(const std::string &s, const std::string &tok)
{
    std::size_t pos = 0;
    while ((pos = s.find(tok, pos)) != std::string::npos) {
        const bool pre = pos == 0 || !isIdent(s[pos - 1]);
        std::size_t end = pos + tok.size();
        if (pre && (end >= s.size() || !isIdent(s[end]))) {
            while (end < s.size() && s[end] == ' ')
                ++end;
            if (end < s.size() && s[end] == '(')
                return true;
        }
        pos = pos + tok.size();
    }
    return false;
}

std::string
trim(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t\r");
    if (b == std::string::npos)
        return "";
    std::size_t e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

/** Rules suppressed on this line via `lint:allow(a, b)`. */
std::vector<std::string>
allowedRules(const std::string &comment)
{
    std::vector<std::string> out;
    std::size_t pos = comment.find("lint:allow(");
    if (pos == std::string::npos)
        return out;
    pos += std::string("lint:allow(").size();
    const std::size_t close = comment.find(')', pos);
    if (close == std::string::npos)
        return out;
    std::string inside = comment.substr(pos, close - pos);
    std::istringstream ss(inside);
    std::string rule;
    while (std::getline(ss, rule, ','))
        if (!trim(rule).empty())
            out.push_back(trim(rule));
    return out;
}

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.compare(0, prefix.size(), prefix) == 0;
}

/** Path-derived rule applicability. */
struct FileClass
{
    bool header = false;             ///< .hh / .hpp
    bool deterministicScope = false; ///< simulation core dirs
    bool envExempt = false;          ///< the one sanctioned getenv site
    bool loggingExempt = false;      ///< the logging layer + this tool
    bool syncScope = false;          ///< src/** (annotated wrappers)
};

FileClass
classify(const std::string &path)
{
    FileClass fc;
    fc.header = path.ends_with(".hh") || path.ends_with(".hpp");
    fc.syncScope = startsWith(path, "src/");
    fc.deterministicScope = startsWith(path, "src/uarch/") ||
                            startsWith(path, "src/ml/") ||
                            startsWith(path, "src/workload/") ||
                            startsWith(path, "src/phase/") ||
                            startsWith(path, "src/sim/") ||
                            startsWith(path, "src/harness/") ||
                            startsWith(path, "src/control/");
    fc.envExempt = path == "src/common/env.cc";
    fc.loggingExempt = path == "src/common/logging.hh" ||
                       startsWith(path, "tools/lint/");
    return fc;
}

/** Determinism: banned source-of-entropy tokens in the core. */
const struct { const char *token; bool call; const char *what; }
kDeterminismBans[] = {
    {"rand", true, "rand()"},
    {"srand", true, "srand()"},
    {"random_device", false, "std::random_device"},
    {"time", true, "wall-clock time()"},
    {"system_clock", false, "std::chrono::system_clock"},
    {"mt19937", false, "std::mt19937"},
    {"mt19937_64", false, "std::mt19937_64"},
};

/** True when ADAPTSIM_ appears at an identifier boundary — i.e. the
 *  line carries some thread-safety annotation macro. */
bool
hasAnnotationToken(const std::string &code)
{
    std::size_t pos = 0;
    while ((pos = code.find("ADAPTSIM_", pos)) != std::string::npos) {
        if (pos == 0 || !isIdent(code[pos - 1]))
            return true;
        pos += 1;
    }
    return false;
}

/** Raw synchronisation types that must come from common/sync.hh. */
const char *kRawSyncTypes[] = {
    "mutex",
    "shared_mutex",
    "condition_variable",
    "condition_variable_any",
};

/**
 * True when @p code declares a variable/member of a raw std:: sync
 * type: `std::<type>` at an identifier boundary with a declarator
 * (identifier start) as the next non-space character.  Template
 * arguments (`std::unique_lock<std::mutex>`) and references are
 * therefore never matched — only actual storage declarations.
 */
bool
declaresRawSync(const std::string &code, std::string &type)
{
    for (const char *t : kRawSyncTypes) {
        const std::string needle = std::string("std::") + t;
        std::size_t pos = 0;
        while ((pos = code.find(needle, pos)) != std::string::npos) {
            const bool pre =
                pos == 0 ||
                (!isIdent(code[pos - 1]) && code[pos - 1] != ':');
            std::size_t end = pos + needle.size();
            const bool post = end >= code.size() || !isIdent(code[end]);
            if (pre && post) {
                std::size_t j = end;
                while (j < code.size() &&
                       (code[j] == ' ' || code[j] == '\t'))
                    ++j;
                if (j < code.size() &&
                    (std::isalpha(
                         static_cast<unsigned char>(code[j])) ||
                     code[j] == '_')) {
                    type = needle;
                    return true;
                }
            }
            pos = end;
        }
    }
    return false;
}

std::string
toLower(std::string s)
{
    for (char &c : s)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    return s;
}

/**
 * condvar-predicate: flag member calls `recv.wait(single-arg)` /
 * `recv->wait(single-arg)` that look like condition-variable waits —
 * the receiver name smells like a condvar ("cv"/"cond") or the lone
 * argument smells like a lock ("lock"/"guard"/`lk`).  The predicate
 * overload takes two arguments and so never matches; unrelated
 * waits (`server.wait()`, `client.wait(id)`) don't either.
 * Argument lists may span lines.
 */
void
checkCondvarPredicate(const std::string &path,
                      const std::vector<ScanLine> &lines,
                      std::vector<Diagnostic> &out)
{
    for (std::size_t li = 0; li < lines.size(); ++li) {
        const std::string &code = lines[li].code;
        std::size_t pos = 0;
        while ((pos = code.find("wait", pos)) != std::string::npos) {
            const std::size_t end = pos + 4;
            if ((end < code.size() && isIdent(code[end])) ||
                (pos > 0 && isIdent(code[pos - 1]))) {
                pos = end;
                continue;
            }
            // Must be a member call: receiver then `.` or `->`.
            std::size_t recvEnd; // one past the receiver's last char
            if (pos >= 1 && code[pos - 1] == '.')
                recvEnd = pos - 1;
            else if (pos >= 2 && code[pos - 2] == '-' &&
                     code[pos - 1] == '>')
                recvEnd = pos - 2;
            else {
                pos = end;
                continue;
            }
            std::size_t j = end;
            while (j < code.size() && code[j] == ' ')
                ++j;
            if (j >= code.size() || code[j] != '(') {
                pos = end;
                continue;
            }
            std::size_t recvBegin = recvEnd;
            while (recvBegin > 0 && isIdent(code[recvBegin - 1]))
                --recvBegin;
            const std::string recv =
                code.substr(recvBegin, recvEnd - recvBegin);

            // Collect the argument list, possibly across lines,
            // counting top-level commas.
            std::string args;
            int depth = 1;
            std::size_t commas = 0;
            bool closed = false;
            std::size_t ci = j + 1;
            for (std::size_t cli = li;
                 cli < lines.size() && !closed; ++cli, ci = 0) {
                const std::string &c2 = lines[cli].code;
                for (; ci < c2.size() && !closed; ++ci) {
                    const char ch = c2[ci];
                    if (ch == '(' || ch == '[' || ch == '{') {
                        ++depth;
                    } else if (ch == ')' || ch == ']' || ch == '}') {
                        if (--depth == 0) {
                            closed = true;
                            break;
                        }
                    } else if (ch == ',' && depth == 1) {
                        ++commas;
                    }
                    args += ch;
                }
                args += ' '; // line break separates tokens
            }

            const std::string argText = trim(args);
            if (closed && commas == 0 && !argText.empty()) {
                const std::string recvL = toLower(recv);
                const std::string argL = toLower(argText);
                const bool cvish =
                    recvL.find("cv") != std::string::npos ||
                    recvL.find("cond") != std::string::npos;
                const bool lockish =
                    argL.find("lock") != std::string::npos ||
                    argL.find("guard") != std::string::npos ||
                    hasToken(argText, "lk");
                if (cvish || lockish)
                    out.push_back(
                        {path, li + 1, "condvar-predicate",
                         "condition-variable wait without a "
                         "predicate is prone to lost and spurious "
                         "wakeups; use the predicate overload "
                         "(CondVar::wait(lock, pred))"});
            }
            pos = end;
        }
    }
}

void
checkHeaderGuard(const std::string &path,
                 const std::vector<ScanLine> &lines,
                 std::vector<Diagnostic> &out)
{
    // Find the first two non-blank *code* lines.
    std::size_t firstLn = 0;
    std::string first, second;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::string t = trim(lines[i].code);
        if (t.empty())
            continue;
        if (first.empty()) {
            first = t;
            firstLn = i + 1;
        } else {
            second = t;
            break;
        }
    }
    if (first.empty())
        return; // nothing to protect in an empty header
    if (startsWith(first, "#pragma once"))
        return;
    if (startsWith(first, "#ifndef ")) {
        const std::string name = trim(first.substr(8));
        if (startsWith(second, "#define ") &&
            trim(second.substr(8)) == name)
            return;
        out.push_back({path, firstLn, "header-guard",
                       "#ifndef " + name +
                           " is not followed by #define " + name});
        return;
    }
    out.push_back({path, firstLn, "header-guard",
                   "header must start with #pragma once or an "
                   "#ifndef/#define include guard"});
}

void
checkUsingNamespace(const std::string &path,
                    const std::vector<ScanLine> &lines,
                    std::vector<Diagnostic> &out)
{
    // Brace stack: 'n' = namespace-like (namespace / extern block,
    // transparent scopes), 'o' = anything else (function, class,
    // initializer).  `using namespace` is flagged only when every
    // open brace is namespace-like, i.e. at namespace/global scope.
    std::vector<char> braces;
    std::string stmt; // statement text since the last ; { or }
    for (std::size_t li = 0; li < lines.size(); ++li) {
        const std::string &code = lines[li].code;
        for (std::size_t i = 0; i < code.size(); ++i) {
            const char c = code[i];
            if (c == '{') {
                const bool ns = hasToken(stmt, "namespace") ||
                                hasToken(stmt, "extern");
                braces.push_back(ns ? 'n' : 'o');
                stmt.clear();
            } else if (c == '}') {
                if (!braces.empty())
                    braces.pop_back();
                stmt.clear();
            } else if (c == ';') {
                stmt.clear();
            } else {
                stmt += c;
            }
            static const std::string kUsingNs = "using namespace";
            if (c == 'u' &&
                code.compare(i, kUsingNs.size(), kUsingNs) == 0 &&
                (i == 0 || !isIdent(code[i - 1])) &&
                (i + kUsingNs.size() >= code.size() ||
                 !isIdent(code[i + kUsingNs.size()]))) {
                const bool nsScope =
                    std::all_of(braces.begin(), braces.end(),
                                [](char b) { return b == 'n'; });
                if (nsScope)
                    out.push_back(
                        {path, li + 1, "header-using-namespace",
                         "`using namespace` at namespace scope in a "
                         "header leaks into every includer"});
            }
        }
        stmt += ' '; // line break separates tokens
    }
}

} // namespace

std::string
render(const Diagnostic &d)
{
    return d.file + ":" + std::to_string(d.line) + ": [" + d.rule +
           "] " + d.message;
}

namespace
{

/** Escape a workflow-command message (data part after ::). */
std::string
githubEscapeData(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        if (c == '%')
            out += "%25";
        else if (c == '\r')
            out += "%0D";
        else if (c == '\n')
            out += "%0A";
        else
            out += c;
    }
    return out;
}

/** Escape a workflow-command property value (file=, title=). */
std::string
githubEscapeProp(const std::string &s)
{
    std::string out;
    for (const char c : githubEscapeData(s)) {
        if (c == ':')
            out += "%3A";
        else if (c == ',')
            out += "%2C";
        else
            out += c;
    }
    return out;
}

} // namespace

std::string
renderGithub(const Diagnostic &d)
{
    return "::error file=" + githubEscapeProp(d.file) +
           ",line=" + std::to_string(d.line) +
           ",title=" + githubEscapeProp(d.rule) +
           "::" + githubEscapeData("[" + d.rule + "] " + d.message);
}

const std::vector<RuleInfo> &
ruleCatalogue()
{
    static const std::vector<RuleInfo> rules = {
        {"determinism",
         "no rand()/srand()/std::random_device/time()/system_clock/"
         "std::mt19937 in the simulation core; randomness flows "
         "through common/rng"},
        {"env",
         "std::getenv only inside src/common/env.cc; everything else "
         "reads the environment through the common/env helpers"},
        {"logging",
         "no raw stderr writes outside common/logging.hh; use "
         "panic/fatal/warn/inform or lockedWrite"},
        {"header-guard",
         "every header starts with #pragma once or a matching "
         "#ifndef/#define pair"},
        {"header-using-namespace",
         "no `using namespace` at namespace scope in a header"},
        {"mutex-annotated",
         "no raw std::mutex/std::shared_mutex/std::condition_variable "
         "declarations under src/; use the annotated wrappers in "
         "common/sync.hh"},
        {"condvar-predicate",
         "condition-variable wait() must use the predicate overload"},
    };
    return rules;
}

std::vector<Diagnostic>
lintSource(const std::string &path, const std::string &text)
{
    const FileClass fc = classify(path);
    const std::vector<ScanLine> lines = scan(text);
    std::vector<Diagnostic> diags;

    for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::string &code = lines[i].code;
        const std::size_t ln = i + 1;
        if (fc.deterministicScope) {
            for (const auto &ban : kDeterminismBans) {
                const bool hit = ban.call
                                     ? hasCallToken(code, ban.token)
                                     : hasToken(code, ban.token);
                if (hit)
                    diags.push_back(
                        {path, ln, "determinism",
                         std::string(ban.what) +
                             " breaks bit-reproducible simulation; "
                             "all randomness/time must flow through "
                             "common/rng"});
            }
        }
        if (!fc.envExempt && hasToken(code, "getenv")) {
            diags.push_back(
                {path, ln, "env",
                 "raw getenv; read the environment through the "
                 "common/env helpers (src/common/env.cc is the only "
                 "sanctioned getenv site)"});
        }
        if (!fc.loggingExempt) {
            const bool cerrHit = hasToken(code, "cerr");
            const bool stderrWrite =
                hasToken(code, "stderr") &&
                (hasToken(code, "fprintf") ||
                 hasToken(code, "fputs") || hasToken(code, "fputc"));
            if (cerrHit || stderrWrite)
                diags.push_back(
                    {path, ln, "logging",
                     "raw stderr write; use panic/fatal/warn/inform "
                     "or lockedWrite from common/logging.hh"});
        }
        if (fc.syncScope) {
            std::string type;
            if (declaresRawSync(code, type) &&
                !hasAnnotationToken(code))
                diags.push_back(
                    {path, ln, "mutex-annotated",
                     "raw " + type +
                         " declaration; use the annotated wrappers "
                         "from common/sync.hh (Mutex / CondVar) so the "
                         "clang thread-safety build can see the lock"});
        }
    }

    checkCondvarPredicate(path, lines, diags);

    if (fc.header) {
        checkHeaderGuard(path, lines, diags);
        checkUsingNamespace(path, lines, diags);
    }

    // Apply same-line `lint:allow(rule)` suppressions.
    std::vector<Diagnostic> kept;
    for (auto &d : diags) {
        const auto allowed =
            d.line <= lines.size()
                ? allowedRules(lines[d.line - 1].comment)
                : std::vector<std::string>{};
        if (std::find(allowed.begin(), allowed.end(), d.rule) ==
            allowed.end())
            kept.push_back(std::move(d));
    }
    std::stable_sort(kept.begin(), kept.end(),
                     [](const Diagnostic &a, const Diagnostic &b) {
                         return a.line < b.line;
                     });
    return kept;
}

void
lintFileInto(const std::string &root, const std::string &rel,
             TreeResult &res)
{
    namespace fs = std::filesystem;
    std::ifstream in(fs::path(root) / rel, std::ios::binary);
    if (!in) {
        res.errors.push_back("cannot read " + rel);
        return;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    ++res.filesScanned;
    auto diags = lintSource(rel, ss.str());
    res.diagnostics.insert(res.diagnostics.end(),
                           std::make_move_iterator(diags.begin()),
                           std::make_move_iterator(diags.end()));
}

TreeResult
lintTree(const std::string &root,
         const std::vector<std::string> &subdirs)
{
    namespace fs = std::filesystem;
    TreeResult res;
    std::vector<std::string> files;
    for (const std::string &sub : subdirs) {
        const fs::path dir = fs::path(root) / sub;
        if (!fs::is_directory(dir))
            throw std::runtime_error("lint: no such directory: " +
                                     dir.string());
        for (const auto &ent :
             fs::recursive_directory_iterator(dir)) {
            if (!ent.is_regular_file())
                continue;
            const std::string ext = ent.path().extension().string();
            if (ext != ".cc" && ext != ".hh" && ext != ".cpp" &&
                ext != ".hpp")
                continue;
            files.push_back(
                fs::relative(ent.path(), root).generic_string());
        }
    }
    std::sort(files.begin(), files.end());
    for (const std::string &rel : files)
        lintFileInto(root, rel, res);
    return res;
}

} // namespace adaptsim::lint
