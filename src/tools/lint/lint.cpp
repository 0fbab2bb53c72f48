// pcflow-lint driver: file discovery, suppression handling, report
// formatting and the CLI. The rules themselves live in rules.cpp.
#include "tools/lint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <tuple>
#include <utility>

#include "support/check.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"
#include "support/lexer.hpp"
#include "tools/lint/rules.hpp"

namespace pcf::lint {
namespace {

using lex::Token;
using lex::TokenKind;

constexpr std::string_view kMarker = "pcflow-lint";

/// One parsed `pcflow-lint: allow(RULE[,RULE...]) reason` annotation.
struct Suppression {
  Rule rule;
  std::size_t target_line = 0;  ///< the source line whose diagnostics it covers
  std::size_t comment_line = 0;
  std::size_t comment_col = 0;
  bool used = false;
};

[[nodiscard]] std::string_view trim(std::string_view s) noexcept {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\n' ||
                        s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

[[nodiscard]] std::vector<std::string_view> split_commas(std::string_view s) {
  std::vector<std::string_view> out;
  while (!s.empty()) {
    const std::size_t comma = s.find(',');
    const std::string_view piece = trim(s.substr(0, comma));
    if (!piece.empty()) out.push_back(piece);
    if (comma == std::string_view::npos) break;
    s.remove_prefix(comma + 1);
  }
  return out;
}

/// The source line a standalone comment annotates: the next line holding any
/// code token. A trailing comment (code before it on its own line) annotates
/// its own line.
[[nodiscard]] std::size_t suppression_target(const std::vector<Token>& code,
                                             const Token& comment) {
  for (const Token& tok : code) {
    if (tok.line == comment.line && tok.col < comment.col) return comment.line;
  }
  std::size_t best = comment.line;  // covers nothing if no code follows
  for (const Token& tok : code) {
    if (tok.line > comment.line) {
      best = tok.line;
      break;
    }
  }
  return best;
}

/// Parses the annotations out of one comment token. Emits LNT diagnostics
/// for malformed annotations (unknown rule, missing reason) directly.
/// The marker must be the comment's first content (`// pcflow-lint: ...`) —
/// prose that merely *mentions* the syntax mid-comment is not an annotation.
void parse_suppressions(std::string_view path, const Token& comment,
                        const std::vector<Token>& code, const Options& options,
                        std::vector<Suppression>& suppressions,
                        std::vector<Diagnostic>& out) {
  std::string_view text = comment.text;
  if (text.substr(0, 2) == "//" || text.substr(0, 2) == "/*") text.remove_prefix(2);
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) text.remove_prefix(1);
  if (text.substr(0, kMarker.size()) != kMarker) return;
  text.remove_prefix(kMarker.size());
  text = trim(text);
  // Only `pcflow-lint:` is an annotation — prose that happens to lead with
  // the tool's name (file headers, usage examples) is not.
  if (text.empty() || text.front() != ':') return;
  text = trim(text.substr(1));
  if (text.substr(0, 6) != "allow(" ) {
    out.push_back({std::string(path), comment.line, comment.col, Rule::kLnt,
                   "malformed pcflow-lint annotation: only `allow(<rule>) <reason>` is "
                   "recognized"});
    return;
  }
  text.remove_prefix(6);
  const std::size_t close = text.find(')');
  if (close == std::string_view::npos) {
    out.push_back({std::string(path), comment.line, comment.col, Rule::kLnt,
                   "malformed pcflow-lint annotation: missing `)`"});
    return;
  }
  const std::vector<std::string_view> names = split_commas(text.substr(0, close));
  std::string_view reason = trim(text.substr(close + 1));
  if (comment.text.substr(0, 2) == "/*" && reason.size() >= 2 &&
      reason.substr(reason.size() - 2) == "*/") {
    reason = trim(reason.substr(0, reason.size() - 2));
  }
  if (names.empty()) {
    out.push_back({std::string(path), comment.line, comment.col, Rule::kLnt,
                   "suppression names no rule"});
    return;
  }
  const std::size_t target = suppression_target(code, comment);
  for (const std::string_view name : names) {
    Rule rule = Rule::kLnt;
    try {
      rule = parse_rule(name);
    } catch (const ContractViolation&) {
      std::ostringstream os;
      os << "suppression names unknown rule `" << name << "`";
      out.push_back({std::string(path), comment.line, comment.col, Rule::kLnt, os.str()});
      continue;
    }
    if (rule == Rule::kLnt) {
      out.push_back({std::string(path), comment.line, comment.col, Rule::kLnt,
                     "LNT (suppression hygiene) cannot itself be suppressed"});
      continue;
    }
    if (reason.empty()) {
      std::ostringstream os;
      os << "suppression of " << to_string(rule)
         << " carries no reason — every allow(...) must explain why the violation is safe";
      out.push_back({std::string(path), comment.line, comment.col, Rule::kLnt, os.str()});
      // Deliberately NOT registered: an unexplained suppression suppresses
      // nothing, so the underlying diagnostic still fires too.
      continue;
    }
    suppressions.push_back({rule, target, comment.line, comment.col, false});
  }
  (void)options;
}

void sort_diagnostics(std::vector<Diagnostic>& diagnostics) {
  std::sort(diagnostics.begin(), diagnostics.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return std::tie(a.file, a.line, a.col, a.rule, a.message) <
                     std::tie(b.file, b.line, b.col, b.rule, b.message);
            });
}

[[nodiscard]] std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  PCF_CHECK_MSG(in.good(), "pcflow-lint: cannot read " << path.string());
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

[[nodiscard]] bool lintable_extension(const std::filesystem::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc";
}

}  // namespace

bool Options::rule_enabled(Rule rule) const noexcept {
  return enabled.empty() || std::find(enabled.begin(), enabled.end(), rule) != enabled.end();
}

std::string_view to_string(Rule rule) noexcept {
  switch (rule) {
    case Rule::kD1: return "D1";
    case Rule::kD2: return "D2";
    case Rule::kD3: return "D3";
    case Rule::kD4: return "D4";
    case Rule::kF1: return "F1";
    case Rule::kS1: return "S1";
    case Rule::kL1: return "L1";
    case Rule::kT1: return "T1";
    case Rule::kLnt: return "LNT";
  }
  return "?";
}

std::string_view describe(Rule rule) noexcept {
  switch (rule) {
    case Rule::kD1:
      return "no nondeterminism sources (rand/time/clocks/getenv) in src/{core,sim,net,bench}";
    case Rule::kD2:
      return "no std::unordered_{map,set,...} in deterministic paths (order leaks into traces)";
    case Rule::kD3:
      return "std random engines/distributions and <random> only inside src/support/rng";
    case Rule::kD4:
      return "no std::thread/jthread/async in deterministic paths — use support/parallel.hpp";
    case Rule::kF1:
      return "no `float` in src/{core,linalg}; no ==/!= against nonzero float literals";
    case Rule::kS1:
      return "socket/process syscalls only inside src/runtime/{udp,socket_runtime} — "
             "everything else stays transport-agnostic";
    case Rule::kL1:
      return "layer DAG: includes follow support -> net.graph -> core -> "
             "{net.transport,sim,linalg} -> {runtime,bench,tools}; include cycles are errors";
    case Rule::kT1:
      return "members within 40 tokens of a mutex/condition_variable member need "
             "PCF_GUARDED_BY (src/runtime + support/parallel.hpp)";
    case Rule::kLnt:
      return "suppression hygiene: allow(...) must name a known rule, carry a reason, and fire";
  }
  return "?";
}

Rule parse_rule(std::string_view name) {
  std::string upper(name);
  for (char& c : upper) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  for (const Rule rule : kAllRules) {
    if (upper == to_string(rule)) return rule;
  }
  throw ContractViolation("pcflow-lint: unknown rule '" + std::string(name) +
                          "' (known: D1 D2 D3 D4 F1 S1 L1 T1 LNT)");
}

std::vector<Diagnostic> lint_source(std::string_view virtual_path, std::string_view source,
                                    const Options& options) {
  const std::vector<Token> tokens = lex::tokenize(source);
  std::vector<Token> code;
  code.reserve(tokens.size());
  std::vector<Token> comments;
  for (const Token& tok : tokens) {
    (tok.kind == TokenKind::kComment ? comments : code).push_back(tok);
  }

  std::vector<Diagnostic> raw;
  detail::run_rules(virtual_path, code, options, raw);

  std::vector<Diagnostic> out;
  std::vector<Suppression> suppressions;
  for (const Token& comment : comments) {
    parse_suppressions(virtual_path, comment, code, options, suppressions, out);
  }
  if (!options.rule_enabled(Rule::kLnt)) out.clear();

  for (Diagnostic& diag : raw) {
    const auto match = std::find_if(
        suppressions.begin(), suppressions.end(), [&](const Suppression& s) {
          return s.rule == diag.rule && s.target_line == diag.line;
        });
    if (match != suppressions.end()) {
      match->used = true;
    } else {
      out.push_back(std::move(diag));
    }
  }

  if (options.rule_enabled(Rule::kLnt)) {
    for (const Suppression& s : suppressions) {
      if (!s.used && options.rule_enabled(s.rule)) {
        std::ostringstream os;
        os << "unused suppression: no " << to_string(s.rule) << " diagnostic on line "
           << s.target_line << " — stale allows hide future violations; delete it";
        out.push_back({std::string(virtual_path), s.comment_line, s.comment_col, Rule::kLnt,
                       os.str()});
      }
    }
  }

  sort_diagnostics(out);
  return out;
}

RunResult run_files(const std::filesystem::path& root, const std::vector<std::string>& files,
                    const Options& options) {
  RunResult result;
  std::vector<std::pair<std::string, std::filesystem::path>> work;  // virtual path, disk path
  for (const std::string& file : files) {
    std::filesystem::path disk(file);
    if (disk.is_relative()) disk = root / disk;
    std::filesystem::path rel = disk.lexically_relative(root).lexically_normal();
    if (rel.empty() || rel.native().starts_with("..")) rel = disk.filename();
    work.emplace_back(rel.generic_string(), disk);
  }
  std::sort(work.begin(), work.end());
  std::vector<std::pair<std::string, std::vector<detail::IncludeRef>>> include_graph;
  for (const auto& [virtual_path, disk] : work) {
    const std::string source = read_file(disk);
    auto diags = lint_source(virtual_path, source, options);
    result.diagnostics.insert(result.diagnostics.end(),
                              std::make_move_iterator(diags.begin()),
                              std::make_move_iterator(diags.end()));
    if (options.rule_enabled(Rule::kL1)) {
      include_graph.emplace_back(virtual_path, detail::collect_includes(lex::tokenize(source)));
    }
    ++result.files_scanned;
  }
  if (options.rule_enabled(Rule::kL1)) {
    detail::check_include_cycles(include_graph, result.diagnostics);
  }
  sort_diagnostics(result.diagnostics);
  return result;
}

RunResult run_directory(const std::filesystem::path& root, const Options& options) {
  PCF_CHECK_MSG(std::filesystem::is_directory(root),
                "pcflow-lint: --root " << root.string() << " is not a directory");
  std::vector<std::string> files;
  for (const std::string_view top : {"src", "bench", "examples"}) {
    const std::filesystem::path dir = root / top;
    if (!std::filesystem::is_directory(dir)) continue;
    for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
      if (entry.is_regular_file() && lintable_extension(entry.path())) {
        files.push_back(entry.path().lexically_relative(root).generic_string());
      }
    }
  }
  std::sort(files.begin(), files.end());
  return run_files(root, files, options);
}

std::string format_report(const RunResult& result, bool quiet) {
  std::ostringstream os;
  for (const Diagnostic& diag : result.diagnostics) {
    os << diag.file << ':' << diag.line << ':' << diag.col << ": " << to_string(diag.rule)
       << ": " << diag.message << '\n';
  }
  if (!quiet) {
    os << "pcflow-lint: " << result.files_scanned << " file(s) scanned, "
       << result.diagnostics.size() << " diagnostic(s)\n";
  }
  return os.str();
}

std::string format_report_json(const RunResult& result) {
  JsonWriter json;
  json.begin_object();
  json.field("schema", "pcflow-lint");
  json.field("schema_version", std::int64_t{1});
  json.field("files_scanned", static_cast<std::uint64_t>(result.files_scanned));
  json.field("diagnostic_count", static_cast<std::uint64_t>(result.diagnostics.size()));
  json.key("diagnostics");
  json.begin_array();
  for (const Diagnostic& diag : result.diagnostics) {
    json.begin_object();
    json.field("file", diag.file);
    json.field("line", static_cast<std::uint64_t>(diag.line));
    json.field("col", static_cast<std::uint64_t>(diag.col));
    json.field("rule", to_string(diag.rule));
    json.field("message", diag.message);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str() + "\n";
}

int run_cli(int argc, const char* const* argv) {
  try {
    CliFlags flags;
    flags.define("root", std::string("."), "project root to scan (src/, bench/, examples/)");
    flags.define("rules", std::string{},
                 "comma-separated rules to enable (default: all; see --list-rules)");
    flags.define("rule", std::string{}, "alias for --rules (merged with it)");
    flags.define("disable", std::string{}, "comma-separated rules to disable");
    flags.define("format", std::string("text"), "report format: text | json");
    flags.define("quiet", false, "omit the summary line (text format only)");
    flags.define("list-rules", false, "print the rule catalog and exit");
    if (!flags.parse(argc, argv)) return 0;

    const std::string format = flags.get_string("format");
    if (format != "text" && format != "json") {
      throw ContractViolation("pcflow-lint: unknown --format '" + format +
                              "' (known: text json)");
    }

    if (flags.get_bool("list-rules")) {
      for (const Rule rule : kAllRules) {
        std::printf("%-4s %s\n", std::string(to_string(rule)).c_str(),
                    std::string(describe(rule)).c_str());
      }
      return 0;
    }

    Options options;
    for (const std::string_view name : split_commas(flags.get_string("rules"))) {
      options.enabled.push_back(parse_rule(name));
    }
    for (const std::string_view name : split_commas(flags.get_string("rule"))) {
      const Rule rule = parse_rule(name);
      if (std::find(options.enabled.begin(), options.enabled.end(), rule) ==
          options.enabled.end()) {
        options.enabled.push_back(rule);
      }
    }
    const auto disabled = split_commas(flags.get_string("disable"));
    if (!disabled.empty()) {
      if (options.enabled.empty()) {
        options.enabled.assign(std::begin(kAllRules), std::end(kAllRules));
      }
      for (const std::string_view name : disabled) {
        const Rule rule = parse_rule(name);
        options.enabled.erase(std::remove(options.enabled.begin(), options.enabled.end(), rule),
                              options.enabled.end());
      }
    }

    const std::filesystem::path root(flags.get_string("root"));
    const RunResult result = flags.positional().empty()
                                 ? run_directory(root, options)
                                 : run_files(root, flags.positional(), options);
    const std::string report = format == "json"
                                   ? format_report_json(result)
                                   : format_report(result, flags.get_bool("quiet"));
    std::fputs(report.c_str(), stdout);
    return result.diagnostics.empty() ? 0 : 1;
  } catch (const ContractViolation& e) {
    std::fprintf(stderr, "pcflow-lint: %s\n", e.what());
    return 2;
  } catch (const std::filesystem::filesystem_error& e) {
    std::fprintf(stderr, "pcflow-lint: %s\n", e.what());
    return 2;
  }
}

}  // namespace pcf::lint
