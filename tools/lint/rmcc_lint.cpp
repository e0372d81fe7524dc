/**
 * @file
 * rmcc-lint: token-level enforcement of project invariants that neither
 * the compiler nor the test suite can see (docs/STATIC_ANALYSIS.md).
 *
 * Usage:  rmcc-lint <repo-root>
 *
 * Scans src/, bench/, and examples/ (extensions .cpp/.hpp/.h/.cc) after
 * blanking comments and string literals, so matches are real code
 * tokens.  Rules:
 *
 *   getenv       std::getenv only inside src/util/env.cpp — every
 *                RMCC_* knob goes through the strict util::env parsers.
 *   env-docs     every RMCC_* env var named in a code string literal
 *                must appear in README.md or docs/<name>.md, and vice versa
 *                (stale docs are as misleading as missing ones).
 *   determinism  no rand()/srand()/time()/std::random_device in src/ —
 *                results are reproducible from the seed alone.
 *   hot-path     no new/malloc/std::string construction/std::cout|cerr
 *                inside a function whose definition is preceded by a
 *                `// rmcc-lint: hot-path` marker line (replay loops,
 *                cache probes, SecureMc::read).
 *   mutex-guard  no naked std::mutex in src/ — concurrency state uses
 *                util::Mutex with RMCC_GUARDED_BY so Clang's
 *                -Wthread-safety can prove lock discipline.
 *
 * A violation line may carry `// rmcc-lint: allow(<rule>)` to suppress
 * that rule on that line; escapes are budgeted and reviewed
 * (docs/STATIC_ANALYSIS.md).  Output is one `path:line: rule(<name>):
 * message` per finding; exit 0 clean, 1 findings, 2 usage/IO error.
 *
 * Deliberately token/regex level — no libclang, no compile_commands —
 * so it builds in seconds anywhere the repo builds and runs in CI
 * before the first object file exists.
 */

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace
{

namespace fs = std::filesystem;

struct Finding
{
    std::string path; // repo-relative
    std::size_t line; // 1-based
    std::string rule;
    std::string message;
};

std::vector<Finding> g_findings;

void
report(const std::string &path, std::size_t line, const std::string &rule,
       const std::string &message)
{
    g_findings.push_back({path, line, rule, message});
}

//! Is c part of an identifier ([A-Za-z0-9_])?
bool
identChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/**
 * One scanned source file: the raw text split into lines, a "blanked"
 * copy with comments and string/char literals replaced by spaces, the
 * set of per-line lint directives, and every RMCC_* token found inside
 * string literals (the env-docs inventory).
 */
struct SourceFile
{
    std::string rel_path;
    std::vector<std::string> raw;     //!< Original lines.
    std::vector<std::string> blank;   //!< Comments/strings blanked.
    //! line (1-based) -> rules allowed on that line.
    std::map<std::size_t, std::set<std::string>> allows;
    std::vector<std::size_t> hot_markers; //!< Marker lines (1-based).
    //! RMCC_* tokens in string literals: token -> first line seen.
    std::map<std::string, std::size_t> env_tokens;
};

/** Collect RMCC_[A-Z0-9_]+ tokens from text into out (first line wins). */
void
collectEnvTokens(const std::string &text, std::size_t line,
                 std::map<std::string, std::size_t> &out)
{
    for (std::size_t i = 0; i + 5 <= text.size(); ++i) {
        if (text.compare(i, 5, "RMCC_") != 0)
            continue;
        if (i > 0 && identChar(text[i - 1]))
            continue;
        std::size_t j = i + 5;
        while (j < text.size() &&
               ((text[j] >= 'A' && text[j] <= 'Z') ||
                (text[j] >= '0' && text[j] <= '9') || text[j] == '_'))
            ++j;
        const std::string tok = text.substr(i, j - i);
        // Trailing '_' marks a deliberate wildcard/prefix mention
        // ("the RMCC_TRACE_ knobs"), not a variable name.
        if (tok.size() > 5 && tok.back() != '_')
            out.emplace(tok, line);
        i = j - 1;
    }
}

/**
 * Parse lint directives out of a comment body ("rmcc-lint: ..." text).
 */
void
parseDirective(const std::string &comment, std::size_t line, SourceFile &sf)
{
    const std::size_t at = comment.find("rmcc-lint:");
    if (at == std::string::npos)
        return;
    std::string rest = comment.substr(at + 10);
    // allow(rule[, rule...]) — consume (erase) these first so the
    // rule name inside allow(hot-path) is not mistaken for a marker.
    std::size_t pos = 0;
    while ((pos = rest.find("allow(", pos)) != std::string::npos) {
        const std::size_t close = rest.find(')', pos);
        if (close == std::string::npos)
            break;
        std::string inner = rest.substr(pos + 6, close - pos - 6);
        std::istringstream ss(inner);
        std::string rule;
        while (std::getline(ss, rule, ',')) {
            rule.erase(0, rule.find_first_not_of(" \t"));
            rule.erase(rule.find_last_not_of(" \t") + 1);
            if (!rule.empty())
                sf.allows[line].insert(rule);
        }
        rest.erase(pos, close + 1 - pos);
    }
    // hot-path marker
    if (rest.find("hot-path") != std::string::npos)
        sf.hot_markers.push_back(line);
}

/**
 * Load a file and produce the blanked view.  State machine over the
 * whole text: code, // comment, block comment, "string", 'char'.
 * Escapes inside literals are honoured; literal bodies become spaces in
 * the blanked view (so token scans never match inside them) but are
 * mined for RMCC_* names first.
 */
bool
loadSource(const fs::path &abs, const std::string &rel, SourceFile &sf)
{
    std::ifstream in(abs, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    sf.rel_path = rel;

    enum class St
    {
        Code,
        Line,   // //...
        Block,  // /*...*/
        Str,    // "..."
        Chr,    // '...'
    };
    St st = St::Code;
    std::string raw_line, blank_line, literal, comment;
    std::size_t line_no = 1;

    auto endLine = [&] {
        sf.raw.push_back(raw_line);
        sf.blank.push_back(blank_line);
        raw_line.clear();
        blank_line.clear();
        ++line_no;
    };

    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        const char n = i + 1 < text.size() ? text[i + 1] : '\0';
        if (c == '\n') {
            if (st == St::Line) {
                parseDirective(comment, line_no, sf);
                comment.clear();
                st = St::Code;
            }
            // Unterminated string/char at end of line: revert to code
            // (the compiler would reject it anyway).
            if (st == St::Str || st == St::Chr)
                st = St::Code;
            endLine();
            continue;
        }
        raw_line.push_back(c);
        switch (st) {
        case St::Code:
            if (c == '/' && n == '/') {
                st = St::Line;
                comment.clear();
                blank_line.push_back(' ');
            } else if (c == '/' && n == '*') {
                st = St::Block;
                blank_line.push_back(' ');
                ++i;
                raw_line.push_back('*');
                blank_line.push_back(' ');
            } else if (c == '"') {
                st = St::Str;
                literal.clear();
                blank_line.push_back(' ');
            } else if (c == '\'') {
                st = St::Chr;
                blank_line.push_back(' ');
            } else {
                blank_line.push_back(c);
            }
            break;
        case St::Line:
            comment.push_back(c);
            blank_line.push_back(' ');
            break;
        case St::Block:
            blank_line.push_back(' ');
            if (c == '*' && n == '/') {
                ++i;
                raw_line.push_back('/');
                blank_line.push_back(' ');
                st = St::Code;
            }
            break;
        case St::Str:
            blank_line.push_back(' ');
            if (c == '\\' && n != '\0') {
                ++i;
                raw_line.push_back(n);
                blank_line.push_back(' ');
            } else if (c == '"') {
                collectEnvTokens(literal, line_no, sf.env_tokens);
                literal.clear();
                st = St::Code;
            } else {
                literal.push_back(c);
            }
            break;
        case St::Chr:
            blank_line.push_back(' ');
            if (c == '\\' && n != '\0') {
                ++i;
                raw_line.push_back(n);
                blank_line.push_back(' ');
            } else if (c == '\'') {
                st = St::Code;
            }
            break;
        }
    }
    if (st == St::Line)
        parseDirective(comment, line_no, sf);
    if (!raw_line.empty() || !blank_line.empty())
        endLine();
    return true;
}

bool
allowed(const SourceFile &sf, std::size_t line, const std::string &rule)
{
    const auto it = sf.allows.find(line);
    return it != sf.allows.end() && it->second.count(rule) > 0;
}

/**
 * Find `token` as a standalone occurrence in `hay`: the character
 * before must not be an identifier char (so `time(` never matches
 * xtime( or localtime_r( but does match std::time(, whose ':' prefix
 * is not an identifier char), and — when the token ends in an
 * identifier char — the character after must not extend the identifier
 * (so `std::string` never matches std::stringstream).
 */
std::size_t
findToken(const std::string &hay, const std::string &token,
          std::size_t from)
{
    std::size_t pos = from;
    while ((pos = hay.find(token, pos)) != std::string::npos) {
        const bool pre_ok = pos == 0 || !identChar(hay[pos - 1]);
        const std::size_t end = pos + token.size();
        const bool post_ok = !identChar(token.back()) ||
                             end >= hay.size() || !identChar(hay[end]);
        if (pre_ok && post_ok)
            return pos;
        ++pos;
    }
    return std::string::npos;
}

/** Report the first standalone occurrence of token per line. */
void
scanToken(const SourceFile &sf, const std::string &token,
          const std::string &rule, const std::string &message)
{
    for (std::size_t l = 0; l < sf.blank.size(); ++l) {
        if (findToken(sf.blank[l], token, 0) == std::string::npos)
            continue;
        if (!allowed(sf, l + 1, rule))
            report(sf.rel_path, l + 1, rule, message);
    }
}

// --- hot-path rule ---------------------------------------------------------

struct HotToken
{
    const char *token;
    const char *what;
};

constexpr HotToken kHotTokens[] = {
    {"new", "operator new allocates"},
    {"malloc", "malloc allocates"},
    {"calloc", "calloc allocates"},
    {"realloc", "realloc allocates"},
    {"std::string", "std::string may allocate"},
    {"std::cout", "iostream output"},
    {"std::cerr", "iostream output"},
};

/**
 * Enforce the allocation/IO ban inside the function following each
 * `// rmcc-lint: hot-path` marker.  The extent starts at the first `{`
 * after the marker with all parentheses since the marker closed (i.e.
 * the function body, skipping the signature — a `const std::string &`
 * parameter is not a construction) and ends at the matching `}`.
 */
void
checkHotPaths(const SourceFile &sf)
{
    for (const std::size_t marker : sf.hot_markers) {
        int paren = 0;
        int brace = 0;
        bool in_body = false;
        bool found_body = false;
        for (std::size_t l = marker; l < sf.blank.size(); ++l) {
            const std::string &s = sf.blank[l];
            for (std::size_t i = 0; i < s.size(); ++i) {
                const char c = s[i];
                if (c == '(')
                    ++paren;
                else if (c == ')')
                    --paren;
                else if (c == '{') {
                    if (!in_body && paren == 0) {
                        in_body = true;
                        found_body = true;
                    }
                    if (in_body)
                        ++brace;
                } else if (c == '}') {
                    if (in_body && --brace == 0) {
                        in_body = false;
                        l = sf.blank.size(); // done with this marker
                        break;
                    }
                }
            }
            if (!in_body && found_body)
                break;
            if (!in_body)
                continue;
            // Scan this body line for banned tokens.
            for (const HotToken &t : kHotTokens) {
                if (findToken(s, t.token, 0) == std::string::npos)
                    continue;
                if (!allowed(sf, l + 1, "hot-path"))
                    report(sf.rel_path, l + 1, "hot-path",
                           std::string(t.what) +
                               " in a hot-path function (marked at line " +
                               std::to_string(marker) + ")");
            }
        }
        if (!found_body)
            report(sf.rel_path, marker, "hot-path",
                   "hot-path marker with no function body following it");
    }
}

// --- env-docs rule ---------------------------------------------------------

//! RMCC_* identifiers that are macros/tool knobs, not runtime env vars.
const std::set<std::string> kEnvIgnore = {
    "RMCC_CAPABILITY", "RMCC_SCOPED_CAPABILITY", "RMCC_GUARDED_BY",
    "RMCC_PT_GUARDED_BY", "RMCC_ACQUIRE", "RMCC_RELEASE",
    "RMCC_TRY_ACQUIRE", "RMCC_REQUIRES", "RMCC_EXCLUDES",
    "RMCC_ASSERT_CAPABILITY", "RMCC_RETURN_CAPABILITY",
    "RMCC_NO_THREAD_SAFETY_ANALYSIS", "RMCC_THREAD_ATTR",
    "RMCC_LINT_BIN", "RMCC_LINT_ROOT",
};

void
checkEnvDocs(const std::vector<SourceFile> &sources, const fs::path &root)
{
    // Inventory of documented names: README.md + docs/*.md, raw text.
    std::map<std::string, std::pair<std::string, std::size_t>> documented;
    auto scanDoc = [&](const fs::path &p, const std::string &rel) {
        std::ifstream in(p);
        if (!in)
            return;
        std::string line;
        std::size_t n = 0;
        while (std::getline(in, line)) {
            ++n;
            std::map<std::string, std::size_t> toks;
            collectEnvTokens(line, n, toks);
            for (const auto &kv : toks)
                documented.emplace(kv.first, std::make_pair(rel, n));
        }
    };
    scanDoc(root / "README.md", "README.md");
    if (fs::is_directory(root / "docs"))
        for (const auto &e : fs::directory_iterator(root / "docs"))
            if (e.is_regular_file() && e.path().extension() == ".md")
                scanDoc(e.path(), "docs/" + e.path().filename().string());

    // Code -> docs: every env var a code string literal names must be
    // documented.
    std::set<std::string> used;
    for (const SourceFile &sf : sources) {
        for (const auto &kv : sf.env_tokens) {
            if (kEnvIgnore.count(kv.first) > 0)
                continue;
            used.insert(kv.first);
            if (documented.count(kv.first) == 0 &&
                !allowed(sf, kv.second, "env-docs"))
                report(sf.rel_path, kv.second, "env-docs",
                       kv.first +
                           " is referenced in code but documented in "
                           "neither README.md nor docs/*.md");
        }
    }

    // Docs -> code: a documented variable nothing reads is stale docs.
    for (const auto &kv : documented) {
        if (kEnvIgnore.count(kv.first) > 0)
            continue;
        if (used.count(kv.first) == 0)
            report(kv.second.first, kv.second.second, "env-docs",
                   kv.first +
                       " is documented but no code string literal "
                       "references it (stale docs?)");
    }
}

// --- driver ----------------------------------------------------------------

bool
sourceExt(const fs::path &p)
{
    const std::string e = p.extension().string();
    return e == ".cpp" || e == ".hpp" || e == ".h" || e == ".cc";
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 2) {
        std::fprintf(stderr, "usage: rmcc-lint <repo-root>\n");
        return 2;
    }
    const fs::path root = argv[1];
    if (!fs::is_directory(root)) {
        std::fprintf(stderr, "rmcc-lint: '%s' is not a directory\n",
                     argv[1]);
        return 2;
    }

    std::vector<SourceFile> sources;
    for (const char *top : {"src", "bench", "examples"}) {
        const fs::path dir = root / top;
        if (!fs::is_directory(dir))
            continue;
        std::vector<fs::path> files;
        for (const auto &e : fs::recursive_directory_iterator(dir))
            if (e.is_regular_file() && sourceExt(e.path()))
                files.push_back(e.path());
        std::sort(files.begin(), files.end());
        for (const fs::path &p : files) {
            SourceFile sf;
            const std::string rel =
                fs::relative(p, root).generic_string();
            if (!loadSource(p, rel, sf)) {
                std::fprintf(stderr, "rmcc-lint: cannot read %s\n",
                             rel.c_str());
                return 2;
            }
            sources.push_back(std::move(sf));
        }
    }

    for (const SourceFile &sf : sources) {
        const bool in_src = sf.rel_path.rfind("src/", 0) == 0;

        // getenv: strict parsing lives in exactly one place.
        if (sf.rel_path != "src/util/env.cpp")
            scanToken(sf, "getenv",
                      "getenv",
                      "raw getenv: use the strict util::env accessors "
                      "(envString/envUnsigned/envChoice)");

        if (in_src) {
            // determinism: seeded RNG only; no wall-clock in results.
            scanToken(sf, "rand(",
                      "determinism",
                      "rand(): use the seeded util RNG");
            scanToken(sf, "srand(",
                      "determinism",
                      "srand(): use the seeded util RNG");
            scanToken(sf, "time(",
                      "determinism",
                      "time(): results must not depend on wall clock "
                      "(std::chrono for diagnostics only)");
            scanToken(sf, "std::random_device",
                      "determinism",
                      "std::random_device is non-deterministic: use the "
                      "seeded util RNG");

            // mutex-guard: annotated wrappers only.
            scanToken(sf, "std::mutex",
                      "mutex-guard",
                      "naked std::mutex: use util::Mutex with "
                      "RMCC_GUARDED_BY so -Wthread-safety can prove "
                      "lock discipline");

            // A util::Mutex in a file with no RMCC_GUARDED_BY guards
            // nothing the analysis can check.
            bool has_mutex = false, has_guard = false;
            std::size_t mutex_line = 0;
            for (std::size_t l = 0; l < sf.blank.size(); ++l) {
                if (!has_mutex &&
                    findToken(sf.blank[l], "util::Mutex", 0) !=
                        std::string::npos) {
                    has_mutex = true;
                    mutex_line = l + 1;
                }
                if (sf.blank[l].find("RMCC_GUARDED_BY") !=
                    std::string::npos)
                    has_guard = true;
            }
            if (has_mutex && !has_guard &&
                sf.rel_path != "src/util/mutex.hpp" &&
                !allowed(sf, mutex_line, "mutex-guard"))
                report(sf.rel_path, mutex_line, "mutex-guard",
                       "util::Mutex declared but nothing in this file "
                       "is RMCC_GUARDED_BY it");
        }

        checkHotPaths(sf);
    }

    checkEnvDocs(sources, root);

    std::sort(g_findings.begin(), g_findings.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.path != b.path)
                      return a.path < b.path;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });
    for (const Finding &f : g_findings)
        std::printf("%s:%zu: rule(%s): %s\n", f.path.c_str(), f.line,
                    f.rule.c_str(), f.message.c_str());
    if (!g_findings.empty()) {
        std::printf("rmcc-lint: %zu finding(s)\n", g_findings.size());
        return 1;
    }
    return 0;
}
