#include "lint_engine.hh"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <tuple>

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

/** The directories whose files can use a src/ header's functions.
 *  tests/ is absent on purpose: a test-only caller keeps nothing. */
const char *const kApiReferenceDirs[] = {"src", "bench", "examples",
                                         "perfbench", "tools"};

bool
inApiReferenceSet(const std::string &path)
{
    return std::any_of(std::begin(kApiReferenceDirs),
                       std::end(kApiReferenceDirs),
                       [&](const char *dir) {
                           return startsWith(path,
                                             std::string(dir) + "/");
                       });
}

/** Words that can precede a declaration's `(` without naming it:
 *  keywords, builtin types, attributes and macros. */
bool
isNonFunctionWord(const std::string &w)
{
    static const std::set<std::string> kWords = {
        "__attribute__", "alignas",  "alignof",  "auto",
        "bool",          "char",     "decltype", "deprecated",
        "double",        "explicit", "float",    "int",
        "long",          "noexcept", "requires", "short",
        "signed",        "sizeof",   "static_assert",
        "unsigned",      "void",
    };
    // No lower-case letter: a macro (ADAPTSIM_REQUIRES(m), ...).
    return kWords.count(w) != 0 ||
           std::none_of(w.begin(), w.end(), [](char c) {
               return std::islower(static_cast<unsigned char>(c));
           });
}

/** The identifier ending just before @p pos in @p s (spaces
 *  skipped); @p begin receives its first column. */
std::string
identBefore(const std::string &s, std::size_t pos, std::size_t &begin)
{
    std::size_t end = pos;
    while (end > 0 && s[end - 1] == ' ')
        --end;
    begin = end;
    while (begin > 0 && isIdent(s[begin - 1]))
        --begin;
    return s.substr(begin, end - begin);
}

/** @p stmt without its leading `template <...>` headers, whose
 *  `class T` parameters would otherwise read as a class head. */
std::string
stripTemplateHeads(std::string stmt)
{
    for (;;) {
        stmt = trim(stmt);
        if (!startsWith(stmt, "template") || stmt.size() == 8 ||
            isIdent(stmt[8]))
            return stmt;
        const std::size_t open = stmt.find('<');
        if (open == std::string::npos)
            return stmt;
        int depth = 0;
        std::size_t i = open;
        for (; i < stmt.size(); ++i) {
            if (stmt[i] == '<')
                ++depth;
            else if (stmt[i] == '>' && --depth == 0)
                break;
        }
        stmt.erase(0, i + 1);
    }
}

/** True when @p stmt opens a class, struct, union or enum body. */
bool
isClassHead(const std::string &stmt)
{
    const std::string s = stripTemplateHeads(stmt);
    const std::string head = s.substr(0, s.find('('));
    return hasToken(head, "class") || hasToken(head, "struct") ||
           hasToken(head, "union") || hasToken(head, "enum");
}

/** The first code character after column @p col of line @p li that
 *  is not blank, or '\0' at the end of the file. */
char
nextCodeChar(const std::vector<ScanLine> &lines, std::size_t li,
             std::size_t col)
{
    for (; li < lines.size(); ++li, col = 0) {
        const std::string &code = lines[li].code;
        for (; col < code.size(); ++col)
            if (code[col] != ' ' && code[col] != '\t')
                return code[col];
    }
    return '\0';
}

/** A function declared in a header: its name and the 0-based line
 *  and column of the declaring token. */
struct ApiDecl
{
    std::string name;
    std::size_t line;
    std::size_t col;
};

/**
 * The functions a header declares at namespace or class scope.  Each
 * statement's first `name(` that is not a keyword, macro, type,
 * operator, alias or initializer is a declaration; function bodies
 * are skipped, and `= delete`d declarations do not count.  House
 * style names functions in lowerCamelCase, so a capitalised name
 * before `(` is a constructor, a destructor or a function type.
 */
std::vector<ApiDecl>
declaredFunctions(const std::vector<ScanLine> &lines)
{
    // One open brace.  A body brace (function, initializer) opened at
    // declaration scope remembers the statement it interrupted, so a
    // constructor's `a_{x}, b_(y)` initializer list resumes it.
    struct Brace
    {
        bool body;
        std::string stmt;
        bool taken;
    };
    std::vector<Brace> braces;
    std::vector<ApiDecl> out;
    std::optional<ApiDecl> pending;
    std::string stmt; // declaration-scope text since ; { or }
    bool taken = false;    // the statement's name( is already decided
    bool assigned = false; // a top-level `=` precedes: an initializer
    int paren = 0;
    int angle = 0;
    bool continued = false; // inside a multi-line preprocessor line

    const auto endStatement = [&] {
        stmt.clear();
        taken = assigned = false;
        paren = angle = 0;
    };

    for (std::size_t li = 0; li < lines.size(); ++li) {
        const std::string &code = lines[li].code;
        const std::string t = trim(code);
        if (continued || startsWith(t, "#")) {
            continued = !t.empty() && t.back() == '\\';
            continue;
        }
        for (std::size_t i = 0; i < code.size(); ++i) {
            const char c = code[i];
            if (!braces.empty() && braces.back().body) {
                if (c == '{') {
                    braces.push_back({true, "", false});
                } else if (c == '}') {
                    const Brace closed = braces.back();
                    braces.pop_back();
                    if (braces.empty() || !braces.back().body) {
                        const char next = nextCodeChar(lines, li, i + 1);
                        if (next == ',' || next == '{') {
                            stmt = closed.stmt;
                            taken = closed.taken;
                        } else {
                            endStatement();
                        }
                    }
                }
                continue;
            }
            if (c == '{' && paren == 0) {
                const bool scope = hasToken(stmt, "namespace") ||
                                   hasToken(stmt, "extern") ||
                                   (!assigned && isClassHead(stmt));
                if (!scope) {
                    if (pending)
                        out.push_back(*pending);
                    pending.reset();
                }
                braces.push_back({!scope, stmt, taken});
                if (scope)
                    endStatement();
            } else if (c == '}' && paren == 0) {
                if (!braces.empty())
                    braces.pop_back();
                endStatement();
            } else if (c == ';' && paren == 0) {
                const bool deleted =
                    assigned && hasToken(stmt, "delete");
                if (pending && !deleted)
                    out.push_back(*pending);
                pending.reset();
                endStatement();
            } else {
                if (c == '(' && paren == 0 && !taken) {
                    std::size_t begin;
                    const std::string name = identBefore(code, i, begin);
                    // A keyword or macro defers to the next `(`.
                    if (name.empty() || !isNonFunctionWord(name)) {
                        taken = true;
                        if (!name.empty() &&
                            !std::isupper(
                                static_cast<unsigned char>(name[0])) &&
                            !assigned && !hasToken(stmt, "operator") &&
                            !hasToken(stmt, "using") &&
                            !hasToken(stmt, "typedef"))
                            pending = ApiDecl{name, li, begin};
                    }
                }
                if (c == '(')
                    ++paren;
                else if (c == ')' && paren > 0)
                    --paren;
                else if (paren == 0 && c == '<')
                    ++angle;
                else if (paren == 0 && c == '>' && angle > 0 &&
                         (i == 0 || code[i - 1] != '-'))
                    --angle;
                else if (paren == 0 && angle == 0 && c == '=')
                    assigned = true;
                stmt += c;
            }
        }
        if (braces.empty() || !braces.back().body)
            stmt += ' '; // line break separates tokens
    }
    return out;
}

/**
 * The column of the function name when line @p code is a column-0
 * out-of-line definition head (`Class::name(`, `name(` or
 * `Tmpl<T>::name(`), std::string::npos otherwise.
 */
std::size_t
columnZeroDefinition(const std::string &code)
{
    if (code.empty() ||
        !(std::isalpha(static_cast<unsigned char>(code[0])) ||
          code[0] == '_'))
        return std::string::npos;
    const std::size_t open = code.find('(');
    if (open == std::string::npos)
        return std::string::npos;
    int angle = 0;
    for (std::size_t i = 0; i < open; ++i) {
        const char c = code[i];
        if (c == '<')
            ++angle;
        else if (c == '>')
            --angle;
        else if (c == ' ' ? angle == 0
                          : !(isIdent(c) || c == ':' || c == ',' ||
                              c == '~'))
            return std::string::npos;
    }
    std::size_t begin = open;
    while (begin > 0 && isIdent(code[begin - 1]))
        --begin;
    return begin == open ? std::string::npos : begin;
}

/** True when a `lint:allow(...)` comment says something besides the
 *  marker itself: the reason an exemption holds. */
bool
allowGivesReason(const std::string &comment)
{
    std::string rest = comment;
    const std::size_t pos = rest.find("lint:allow(");
    if (pos != std::string::npos)
        rest.erase(pos, rest.find(')', pos) - pos + 1);
    return std::any_of(rest.begin(), rest.end(), [](char c) {
        return std::isalnum(static_cast<unsigned char>(c));
    });
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
        {"unused-api",
         "every function a src/ header declares has a use in src/, "
         "bench/, examples/, perfbench/ or tools/ besides its "
         "declaration and column-0 definition; tests/ do not count"},
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

std::vector<Diagnostic>
lintUnusedApi(const SourceTree &tree)
{
    std::map<std::string, std::vector<ScanLine>> scanned;
    for (const auto &[path, text] : tree)
        if (inApiReferenceSet(path))
            scanned.emplace(path, scan(text));

    struct Site
    {
        std::string file;
        ApiDecl decl;
    };
    std::vector<Site> decls;
    std::set<std::string> names;
    std::set<std::tuple<std::string, std::size_t, std::size_t>>
        declTokens;
    for (const auto &[path, lines] : scanned) {
        if (!startsWith(path, "src/") || !classify(path).header)
            continue;
        for (ApiDecl &d : declaredFunctions(lines)) {
            names.insert(d.name);
            declTokens.insert({path, d.line, d.col});
            decls.push_back({path, std::move(d)});
        }
    }

    // A use is any code token naming a declared function, except the
    // declaring tokens and the names of column-0 definition heads.
    std::set<std::string> used;
    for (const auto &[path, lines] : scanned) {
        for (std::size_t li = 0; li < lines.size(); ++li) {
            const std::string &code = lines[li].code;
            const std::size_t defCol = columnZeroDefinition(code);
            for (std::size_t i = 0; i < code.size(); ++i) {
                if (!isIdent(code[i]) || (i > 0 && isIdent(code[i - 1])))
                    continue;
                std::size_t end = i;
                while (end < code.size() && isIdent(code[end]))
                    ++end;
                const std::string tok = code.substr(i, end - i);
                if (i != defCol && names.count(tok) != 0 &&
                    declTokens.count({path, li, i}) == 0)
                    used.insert(tok);
                i = end;
            }
        }
    }

    std::vector<Diagnostic> out;
    for (const Site &s : decls) {
        if (used.count(s.decl.name) != 0)
            continue;
        const std::string &comment =
            scanned.at(s.file)[s.decl.line].comment;
        const auto allowed = allowedRules(comment);
        const bool allow = std::find(allowed.begin(), allowed.end(),
                                     "unused-api") != allowed.end();
        if (allow && allowGivesReason(comment))
            continue;
        out.push_back(
            {s.file, s.decl.line + 1, "unused-api",
             allow ? "lint:allow(unused-api) must say why " +
                         s.decl.name + "() is kept"
                   : s.decl.name +
                         "() has no use outside its declaration, "
                         "its definition and tests/; delete it, or "
                         "keep it with `// lint:allow(unused-api) "
                         "<reason>`"});
    }
    return out;
}

namespace
{

/** The contents of @p rel under @p root, or std::nullopt (recorded
 *  in res.errors) when it cannot be read. */
std::optional<std::string>
readSource(const std::string &root, const std::string &rel,
           TreeResult &res)
{
    std::ifstream in(std::filesystem::path(root) / rel,
                     std::ios::binary);
    if (!in) {
        res.errors.push_back("cannot read " + rel);
        return std::nullopt;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Every .cc/.hh/.cpp/.hpp file under @p dir (relative to @p root),
 *  as sorted repo-relative paths. */
std::vector<std::string>
listSources(const std::string &root, const std::string &dir)
{
    namespace fs = std::filesystem;
    std::vector<std::string> files;
    for (const auto &ent :
         fs::recursive_directory_iterator(fs::path(root) / dir)) {
        if (!ent.is_regular_file())
            continue;
        const std::string ext = ent.path().extension().string();
        if (ext != ".cc" && ext != ".hh" && ext != ".cpp" &&
            ext != ".hpp")
            continue;
        files.push_back(fs::relative(ent.path(), root).generic_string());
    }
    std::sort(files.begin(), files.end());
    return files;
}

} // namespace

std::optional<std::string>
lintFileInto(const std::string &root, const std::string &rel,
             TreeResult &res)
{
    auto text = readSource(root, rel, res);
    if (!text)
        return std::nullopt;
    ++res.filesScanned;
    auto diags = lintSource(rel, *text);
    res.diagnostics.insert(res.diagnostics.end(),
                           std::make_move_iterator(diags.begin()),
                           std::make_move_iterator(diags.end()));
    return text;
}

TreeResult
lintTree(const std::string &root,
         const std::vector<std::string> &subdirs)
{
    namespace fs = std::filesystem;
    std::vector<std::string> linted;
    for (const std::string &sub : subdirs) {
        if (!fs::is_directory(fs::path(root) / sub))
            throw std::runtime_error(
                "lint: no such directory: " +
                (fs::path(root) / sub).string());
        const auto files = listSources(root, sub);
        linted.insert(linted.end(), files.begin(), files.end());
    }
    std::sort(linted.begin(), linted.end());

    TreeResult res;
    SourceTree tree;
    for (const std::string &rel : linted)
        if (auto text = lintFileInto(root, rel, res))
            tree.emplace(rel, std::move(*text));
    // The unused-api reference set is read, not linted.
    for (const char *dir : kApiReferenceDirs) {
        if (!fs::is_directory(fs::path(root) / dir))
            continue;
        for (const std::string &rel : listSources(root, dir))
            if (!std::binary_search(linted.begin(), linted.end(), rel))
                if (auto text = readSource(root, rel, res))
                    tree.emplace(rel, std::move(*text));
    }
    for (Diagnostic &d : lintUnusedApi(tree))
        if (std::binary_search(linted.begin(), linted.end(), d.file))
            res.diagnostics.push_back(std::move(d));
    std::stable_sort(res.diagnostics.begin(), res.diagnostics.end(),
                     [](const Diagnostic &a, const Diagnostic &b) {
                         return std::tie(a.file, a.line) <
                                std::tie(b.file, b.line);
                     });
    return res;
}

} // namespace adaptsim::lint
