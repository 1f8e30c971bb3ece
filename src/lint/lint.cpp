#include "lint/lint.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <utility>

#include "obs/json.hpp"
#include "util/error.hpp"
#include "util/format.hpp"
#include "util/parallel.hpp"
#include "util/thread_pool.hpp"

namespace csb::lint {

namespace {

/// One file's parsed suppression comments: line -> rules silenced there,
/// plus the bad-suppression diagnostics found while parsing.
struct Suppressions {
  std::map<int, std::set<std::string>> by_line;
  std::vector<Diagnostic> errors;
};

bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n';
}

/// Strips comment delimiters and surrounding whitespace.
std::string comment_body(std::string_view text) {
  if (text.rfind("//", 0) == 0) {
    text.remove_prefix(2);
  } else if (text.rfind("/*", 0) == 0) {
    text.remove_prefix(2);
    if (text.size() >= 2 && text.substr(text.size() - 2) == "*/") {
      text.remove_suffix(2);
    }
  }
  while (!text.empty() && is_space(text.front())) text.remove_prefix(1);
  while (!text.empty() && is_space(text.back())) text.remove_suffix(1);
  return std::string(text);
}

Suppressions parse_suppressions(const SourceFile& file) {
  Suppressions result;
  for (std::size_t i = 0; i < file.tokens.size(); ++i) {
    const Token& tok = file.tokens[i];
    if (tok.kind != TokKind::kComment) continue;
    const std::string body = comment_body(tok.text);
    constexpr std::string_view kTag = "csblint:";
    if (body.rfind(kTag, 0) != 0) continue;

    // A trailing comment targets its own line; a standalone comment (or
    // comment block) the next code line — one line either way.
    int target = tok.line;
    if (tok.first_on_line) {
      std::size_t j = i + 1;
      while (j < file.tokens.size() &&
             file.tokens[j].kind == TokKind::kComment) {
        ++j;
      }
      target = j < file.tokens.size() ? file.tokens[j].line : tok.line + 1;
    }

    // Words while they end in "-ok" are rule suppressions; the first word
    // that does not ends the list (free-form justification).
    std::istringstream words(body.substr(kTag.size()));
    std::string word;
    std::size_t accepted = 0;
    while (words >> word) {
      while (!word.empty() && (word.back() == ',' || word.back() == ';')) {
        word.pop_back();
      }
      if (word.size() <= 3 ||
          word.compare(word.size() - 3, 3, "-ok") != 0) {
        break;
      }
      const std::string rule = word.substr(0, word.size() - 3);
      if (!is_known_rule(rule)) {
        result.errors.push_back(
            {file.path, tok.line, "bad-suppression", Severity::kError,
             "suppression names unknown rule '" + rule +
                 "' — run csblint --list-rules for the catalog"});
      } else {
        result.by_line[target].insert(rule);
      }
      ++accepted;
    }
    if (accepted == 0) {
      result.errors.push_back(
          {file.path, tok.line, "bad-suppression", Severity::kError,
           "csblint suppression comment names no '<rule>-ok' tokens"});
    }
  }
  return result;
}

bool diag_less(const Diagnostic& a, const Diagnostic& b) {
  return std::tie(a.file, a.line, a.rule) < std::tie(b.file, b.line, b.rule);
}

/// One file's scan output, produced independently of every other file so
/// the per-file pass can run on a pool; merged in file order afterwards.
struct FileScan {
  std::vector<Diagnostic> kept;
  std::size_t suppressed = 0;
};

}  // namespace

Linter::Linter(LintOptions options) : options_(std::move(options)) {
  for (const std::string& rule : options_.rules) {
    CSB_CHECK_MSG(is_known_rule(rule), "unknown lint rule '" << rule << "'");
  }
}

void Linter::add_file(std::string path, std::string content) {
  SourceFile file;
  file.path = std::move(path);
  file.content = std::move(content);
  files_.push_back(std::move(file));
}

LintResult Linter::run() {
  std::unique_ptr<ThreadPool> owned_pool;
  if (options_.jobs > 1) {
    owned_pool = std::make_unique<ThreadPool>(options_.jobs);
  }
  ThreadPool* pool = owned_pool.get();

  // Phase 1: tokenize every file (embarrassingly parallel, and the symbol
  // index below needs every token stream before any rule can run).
  {
    std::vector<std::function<void()>> tasks;
    tasks.reserve(files_.size());
    for (SourceFile& file : files_) {
      tasks.push_back([&file] { file.tokens = tokenize(file.content); });
    }
    parallel_tasks(pool, tasks);
  }

  const SymbolIndex symbols = build_symbol_index(files_);
  const auto selected = [&](std::string_view rule) {
    if (options_.rules.empty()) return true;
    return std::find(options_.rules.begin(), options_.rules.end(), rule) !=
           options_.rules.end();
  };

  // Phase 2: scan each file into its own slot. Slots are merged in file
  // order and then sorted by (file, line, rule), so the result is
  // byte-identical at any pool size.
  std::vector<FileScan> scans(files_.size());
  {
    std::vector<std::function<void()>> tasks;
    tasks.reserve(files_.size());
    for (std::size_t f = 0; f < files_.size(); ++f) {
      tasks.push_back([this, f, &symbols, &selected, &scans] {
        const SourceFile& file = files_[f];
        FileScan& scan = scans[f];
        const Suppressions suppressions = parse_suppressions(file);
        std::vector<Diagnostic> raw;
        if (selected("bad-suppression")) {
          raw.insert(raw.end(), suppressions.errors.begin(),
                     suppressions.errors.end());
        }
        const FileAnalysis analysis = analyze_file(file);
        for (const RuleInfo& rule : rule_catalog()) {
          if (rule.name == "bad-suppression") continue;
          if (!selected(rule.name) || !rule_applies(rule, file.path)) {
            continue;
          }
          std::set<int> seen_lines;  // one diagnostic per (rule, line)
          run_rule(rule.name, file, symbols, analysis,
                   [&](int line, std::string message) {
                     if (!seen_lines.insert(line).second) return;
                     raw.push_back({file.path, line, std::string(rule.name),
                                    rule.severity, std::move(message)});
                   });
        }
        for (Diagnostic& diag : raw) {
          const auto it = suppressions.by_line.find(diag.line);
          if (it != suppressions.by_line.end() &&
              it->second.count(diag.rule) != 0) {
            ++scan.suppressed;
            continue;
          }
          scan.kept.push_back(std::move(diag));
        }
      });
    }
    parallel_tasks(pool, tasks);
  }

  LintResult result;
  result.files_linted = files_.size();
  for (FileScan& scan : scans) {
    result.suppressed_count += scan.suppressed;
    result.diagnostics.insert(result.diagnostics.end(),
                              std::make_move_iterator(scan.kept.begin()),
                              std::make_move_iterator(scan.kept.end()));
  }
  std::sort(result.diagnostics.begin(), result.diagnostics.end(), diag_less);
  return result;
}

Baseline parse_baseline(std::string_view text) {
  Baseline baseline;
  std::size_t pos = 0;
  int line_no = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? std::string_view::npos
                                           : eol - pos);
    ++line_no;
    while (!line.empty() && is_space(line.back())) line.remove_suffix(1);
    while (!line.empty() && is_space(line.front())) line.remove_prefix(1);
    if (!line.empty() && line.front() != '#') {
      // file:line:rule, parsed from the right (paths never contain ':'
      // in this repo, but staying right-anchored costs nothing).
      const std::size_t rule_sep = line.rfind(':');
      CSB_CHECK_MSG(rule_sep != std::string_view::npos && rule_sep > 0,
                    "baseline line " << line_no
                                     << ": expected file:line:rule");
      const std::size_t line_sep = line.rfind(':', rule_sep - 1);
      CSB_CHECK_MSG(line_sep != std::string_view::npos && line_sep > 0 &&
                        rule_sep + 1 < line.size(),
                    "baseline line " << line_no
                                     << ": expected file:line:rule");
      const std::string_view num = line.substr(line_sep + 1,
                                               rule_sep - line_sep - 1);
      const auto value = parse_number<int>(num);
      CSB_CHECK_MSG(value, "baseline line " << line_no << ": bad line number '"
                                            << std::string(num) << "'");
      baseline.entries.emplace(std::string(line.substr(0, line_sep)), *value,
                               std::string(line.substr(rule_sep + 1)));
    }
    if (eol == std::string_view::npos) break;
    pos = eol + 1;
  }
  return baseline;
}

Baseline load_baseline(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  CSB_CHECK_MSG(in.good(), "cannot open baseline: " << path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_baseline(buffer.str());
}

std::string baseline_text(const LintResult& result) {
  std::string out =
      "# csblint baseline — accepted pre-existing findings, one\n"
      "# file:line:rule per line. Regenerate with --write-baseline after\n"
      "# deliberate changes; new findings must be fixed, not added here.\n";
  for (const Diagnostic& diag : result.diagnostics) {
    out += diag.file;
    out += ':';
    out += std::to_string(diag.line);
    out += ':';
    out += diag.rule;
    out += '\n';
  }
  return out;
}

void apply_baseline(LintResult& result, const Baseline& baseline) {
  const auto matched = std::remove_if(
      result.diagnostics.begin(), result.diagnostics.end(),
      [&](const Diagnostic& diag) {
        return baseline.entries.count(
                   {diag.file, diag.line, diag.rule}) != 0;
      });
  result.baselined_count +=
      static_cast<std::size_t>(result.diagnostics.end() - matched);
  result.diagnostics.erase(matched, result.diagnostics.end());
}

std::string list_rules_text() {
  std::string out;
  for (const RuleInfo& rule : rule_catalog()) {
    std::string line(rule.name);
    if (line.size() < 24) line.append(24 - line.size(), ' ');
    line += ' ';
    std::string sev(severity_name(rule.severity));
    if (sev.size() < 8) sev.append(8 - sev.size(), ' ');
    line += sev;
    line += rule.summary;
    if (!rule.scope.empty()) {
      line += " [scope:";
      for (const std::string_view dir : rule.scope) {
        line += ' ';
        line += dir;
      }
      line += ']';
    }
    out += line;
    out += '\n';
  }
  return out;
}

std::vector<std::string> load_compile_commands(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  CSB_CHECK_MSG(in.good(), "cannot open compile commands: " << path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const JsonValue db = parse_json(buffer.str());
  CSB_CHECK_MSG(db.is_array(), "compile commands must be a JSON array");
  std::set<std::string> unique;
  for (const JsonValue& entry : db.items()) {
    const JsonValue* file = entry.find("file");
    if (file == nullptr || !file->is_string()) continue;
    std::filesystem::path p(file->as_string());
    if (p.is_relative()) {
      if (const JsonValue* dir = entry.find("directory");
          dir != nullptr && dir->is_string()) {
        p = std::filesystem::path(dir->as_string()) / p;
      }
    }
    unique.insert(p.lexically_normal().generic_string());
  }
  return {unique.begin(), unique.end()};
}

}  // namespace csb::lint
