// csblint — determinism & concurrency static analysis for the csb tree.
//
// Enforces the repo's byte-identical-parallelism contract as typed lint
// rules (docs/static-analysis.md): banned nondeterminism sources, unordered
// container iteration in determinism-critical modules, raw parallel
// floating-point reductions, span-name grammar and balance, resource-safety
// rules (syscall results, lock discipline, detached threads, RNG stream
// reuse), and banned C functions.
//
// Usage:
//   csblint [--root=DIR] [--rules=a,b] [--compile-commands=FILE]
//           [--jobs=N] [--format=text|sarif] [--baseline=FILE]
//           [--write-baseline=FILE] [--changed-only] [path...]
//   csblint --list-rules
//
// Positional paths are files or directories (directories recurse over
// .cpp/.cc/.cxx/.hpp/.h, sorted, so output order is stable; directories
// named `data` are skipped — test fixtures contain deliberate violations).
// --changed-only keeps only files git reports as modified or untracked
// relative to HEAD. --baseline subtracts a checked-in file:line:rule list;
// --write-baseline regenerates that list from the current findings.
// Exit status: 0 clean, 1 unsuppressed findings, 2 usage or I/O error.
#include <cstdio>
#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "lint/lint.hpp"
#include "lint/sarif.hpp"
#include "util/error.hpp"
#include "util/format.hpp"

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kUsage =
    "usage: csblint [--root=DIR] [--rules=a,b] [--compile-commands=FILE]\n"
    "               [--jobs=N] [--format=text|sarif] [--baseline=FILE]\n"
    "               [--write-baseline=FILE] [--changed-only] [path...]\n"
    "       csblint --list-rules\n";

bool has_cpp_extension(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".cpp" || ext == ".cc" || ext == ".cxx" || ext == ".hpp" ||
         ext == ".h";
}

/// Expands files/directories into a sorted, deduplicated file list.
/// Directories named `data` are pruned: tests/data/** holds lint fixtures
/// whose violations are the fixtures' point.
std::vector<std::string> expand_paths(const std::vector<std::string>& paths) {
  std::set<std::string> files;
  for (const std::string& arg : paths) {
    const fs::path p(arg);
    if (fs::is_directory(p)) {
      auto it = fs::recursive_directory_iterator(p);
      const auto end = fs::recursive_directory_iterator();
      for (; it != end; ++it) {
        if (it->is_directory() && it->path().filename() == "data") {
          it.disable_recursion_pending();
          continue;
        }
        if (it->is_regular_file() && has_cpp_extension(it->path())) {
          files.insert(it->path().lexically_normal().generic_string());
        }
      }
    } else if (fs::is_regular_file(p)) {
      files.insert(p.lexically_normal().generic_string());
    } else {
      throw csb::CsbError("no such file or directory: " + arg);
    }
  }
  return {files.begin(), files.end()};
}

/// Root-relative display/scoping path with '/' separators.
std::string relativize(const std::string& file, const fs::path& root) {
  const fs::path abs = fs::absolute(file).lexically_normal();
  const fs::path rel = abs.lexically_relative(
      fs::absolute(root).lexically_normal());
  if (rel.empty() || rel.native().rfind("..", 0) == 0) {
    return abs.generic_string();
  }
  return rel.generic_string();
}

std::vector<std::string> split_csv(const std::string& value) {
  std::vector<std::string> out;
  std::stringstream stream(value);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// Root-relative paths git reports as changed vs HEAD (modified, staged,
/// or untracked-and-not-ignored).
std::set<std::string> git_changed_files(const std::string& root) {
  std::set<std::string> changed;
  const std::array<std::string, 2> commands = {
      "git -C \"" + root + "\" diff --name-only HEAD",
      "git -C \"" + root + "\" ls-files --others --exclude-standard"};
  for (const std::string& command : commands) {
    FILE* pipe = popen(command.c_str(), "r");
    if (pipe == nullptr) {
      throw csb::CsbError("--changed-only: cannot run: " + command);
    }
    std::string out;
    std::array<char, 4096> buffer{};
    std::size_t got = 0;
    while ((got = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
      out.append(buffer.data(), got);
    }
    const int status = pclose(pipe);
    if (status != 0) {
      throw csb::CsbError("--changed-only: git failed (is " + root +
                          " a git checkout?): " + command);
    }
    std::stringstream lines(out);
    std::string line;
    while (std::getline(lines, line)) {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (!line.empty()) changed.insert(line);
    }
  }
  return changed;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::string root = ".";
    std::string compile_commands;
    std::string format = "text";
    std::string baseline_path;
    std::string write_baseline_path;
    bool changed_only = false;
    csb::lint::LintOptions options;
    std::vector<std::string> paths;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--list-rules") {
        std::cout << csb::lint::list_rules_text();
        return 0;
      }
      if (arg == "--help" || arg == "-h") {
        std::cout << kUsage;
        return 0;
      }
      if (arg.rfind("--root=", 0) == 0) {
        root = arg.substr(7);
      } else if (arg.rfind("--rules=", 0) == 0) {
        options.rules = split_csv(arg.substr(8));
      } else if (arg.rfind("--compile-commands=", 0) == 0) {
        compile_commands = arg.substr(19);
      } else if (arg.rfind("--jobs=", 0) == 0) {
        const auto jobs = csb::parse_number<std::size_t>(arg.substr(7));
        if (!jobs) {
          std::cerr << "csblint: --jobs needs an unsigned integer, got '"
                    << arg.substr(7) << "'\n"
                    << kUsage;
          return 2;
        }
        options.jobs = *jobs;
      } else if (arg.rfind("--format=", 0) == 0) {
        format = arg.substr(9);
        if (format != "text" && format != "sarif") {
          std::cerr << "csblint: unknown format '" << format << "'\n"
                    << kUsage;
          return 2;
        }
      } else if (arg.rfind("--baseline=", 0) == 0) {
        baseline_path = arg.substr(11);
      } else if (arg.rfind("--write-baseline=", 0) == 0) {
        write_baseline_path = arg.substr(17);
      } else if (arg == "--changed-only") {
        changed_only = true;
      } else if (arg.rfind("--", 0) == 0) {
        std::cerr << "csblint: unknown flag " << arg << "\n" << kUsage;
        return 2;
      } else {
        paths.push_back(arg);
      }
    }

    std::vector<std::string> files = expand_paths(paths);
    if (!compile_commands.empty()) {
      for (const std::string& file :
           csb::lint::load_compile_commands(compile_commands)) {
        files.push_back(file);
      }
      std::sort(files.begin(), files.end());
      files.erase(std::unique(files.begin(), files.end()), files.end());
    }
    if (files.empty()) {
      std::cerr << "csblint: no input files\n" << kUsage;
      return 2;
    }

    // (absolute-ish path on disk, root-relative scoping path) pairs.
    std::vector<std::pair<std::string, std::string>> inputs;
    inputs.reserve(files.size());
    for (const std::string& file : files) {
      inputs.emplace_back(file, relativize(file, root));
    }
    if (changed_only) {
      const std::set<std::string> changed = git_changed_files(root);
      std::erase_if(inputs, [&](const auto& input) {
        return changed.count(input.second) == 0;
      });
      if (inputs.empty()) {
        if (format == "sarif") {
          std::cout << csb::lint::to_sarif(csb::lint::LintResult{});
        } else {
          std::cout << "csblint: clean (0 changed files)\n";
        }
        return 0;
      }
    }

    csb::lint::Linter linter(options);
    for (const auto& [file, rel] : inputs) {
      std::ifstream in(file, std::ios::binary);
      if (!in.good()) throw csb::CsbError("cannot read " + file);
      std::ostringstream buffer;
      buffer << in.rdbuf();
      linter.add_file(rel, buffer.str());
    }

    csb::lint::LintResult result = linter.run();
    if (!write_baseline_path.empty()) {
      std::ofstream out(write_baseline_path, std::ios::binary);
      if (!out.good()) {
        throw csb::CsbError("cannot write " + write_baseline_path);
      }
      out << csb::lint::baseline_text(result);
      std::cout << "csblint: wrote " << result.diagnostics.size()
                << " finding(s) to " << write_baseline_path << "\n";
      return 0;
    }
    if (!baseline_path.empty()) {
      csb::lint::apply_baseline(result,
                                csb::lint::load_baseline(baseline_path));
    }

    if (format == "sarif") {
      std::cout << csb::lint::to_sarif(result);
      return result.diagnostics.empty() ? 0 : 1;
    }
    for (const csb::lint::Diagnostic& d : result.diagnostics) {
      std::cout << d.file << ":" << d.line << ": "
                << csb::lint::severity_name(d.severity) << ": " << d.message
                << " [" << d.rule << "]\n";
    }
    const std::string tail =
        std::to_string(result.suppressed_count) + " suppressed, " +
        std::to_string(result.baselined_count) + " baselined)";
    if (result.diagnostics.empty()) {
      std::cout << "csblint: clean (" << result.files_linted << " files, "
                << tail << "\n";
      return 0;
    }
    std::cout << "csblint: " << result.diagnostics.size()
              << " finding(s) in " << result.files_linted << " files ("
              << tail << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "csblint: " << e.what() << "\n";
    return 2;
  }
}
