#include "tools/lint/sym_audit.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>

#if defined(__GNUG__)
#include <cxxabi.h>
#endif

namespace xlf::lint {
namespace {

bool is_type_char(const std::string& s) {
  return s.size() == 1 && std::isalpha(static_cast<unsigned char>(s[0])) != 0;
}

// A definition that can satisfy a cross-archive reference: any global
// (uppercase) type, or a weak/unique local-case one. Lowercase types
// (t, d, b) are archive-local and never resolve another archive's U.
bool defines(char type) {
  if (type == 'U') return false;
  return std::isupper(static_cast<unsigned char>(type)) != 0 || type == 'w' ||
         type == 'v' || type == 'u';
}

// Quote a path for the popen command line. Paths with single quotes
// are rejected rather than escaped — none exist in a build tree, and
// refusing is safer than composing shell metacharacters.
std::string shell_quote(const std::string& path) {
  if (path.find('\'') != std::string::npos) {
    throw std::runtime_error("path contains a quote: " + path);
  }
  return "'" + path + "'";
}

std::string run_command(const std::string& command) {
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) {
    throw std::runtime_error("cannot run: " + command);
  }
  std::string output;
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof buffer, pipe)) > 0) {
    output.append(buffer, got);
  }
  const int status = ::pclose(pipe);
  if (status != 0) {
    throw std::runtime_error("command failed (" + std::to_string(status) +
                             "): " + command);
  }
  return output;
}

}  // namespace

void parse_nm(const std::string& nm_output, ArchiveSyms& out) {
  std::istringstream stream(nm_output);
  std::string line;
  while (std::getline(stream, line)) {
    // "name type [value [size]]"; member headers ("lib.a[foo.o]:") and
    // blank lines have no type column.
    std::istringstream fields(line);
    std::string name;
    std::string type;
    if (!(fields >> name >> type) || !is_type_char(type)) continue;
    if (type[0] == 'U') {
      out.undefined.insert(name);
    } else if (defines(type[0])) {
      out.defined.insert(name);
    }
  }
}

std::vector<SymViolation> audit(const std::vector<ArchiveSyms>& archives,
                                const LayerGraph& graph) {
  std::map<std::string, std::set<std::string>> owners;
  for (const ArchiveSyms& a : archives) {
    for (const std::string& sym : a.defined) owners[sym].insert(a.layer);
  }
  std::vector<SymViolation> violations;
  for (const ArchiveSyms& a : archives) {
    const std::set<std::string>& allowed = graph.allowed(a.layer);
    for (const std::string& sym : a.undefined) {
      if (a.defined.count(sym) != 0) continue;  // satisfied in-archive
      const auto it = owners.find(sym);
      if (it == owners.end()) continue;  // external: libc++, gtest, ...
      std::set<std::string> definers = it->second;
      definers.erase(a.layer);
      if (definers.empty()) continue;
      const bool reachable =
          std::any_of(definers.begin(), definers.end(),
                      [&](const std::string& l) { return allowed.count(l); });
      if (reachable) continue;
      violations.push_back(SymViolation{a.layer, sym, demangle(sym),
                                        std::move(definers)});
    }
  }
  std::sort(violations.begin(), violations.end(),
            [](const SymViolation& x, const SymViolation& y) {
              if (x.layer != y.layer) return x.layer < y.layer;
              return x.symbol < y.symbol;
            });
  return violations;
}

std::string layer_of_archive(const std::string& path) {
  const std::string name = std::filesystem::path(path).filename().string();
  const std::string prefix = "libxlf_";
  const std::string suffix = ".a";
  if (name.size() <= prefix.size() + suffix.size()) return "";
  if (name.rfind(prefix, 0) != 0) return "";
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return "";
  }
  return name.substr(prefix.size(),
                     name.size() - prefix.size() - suffix.size());
}

std::string demangle(const std::string& symbol) {
#if defined(__GNUG__)
  int status = 0;
  char* text =
      abi::__cxa_demangle(symbol.c_str(), nullptr, nullptr, &status);
  if (status != 0 || text == nullptr) {
    std::free(text);
    return "";
  }
  std::string result(text);
  std::free(text);
  return result;
#else
  (void)symbol;
  return "";
#endif
}

std::string format_violation(const SymViolation& v) {
  std::string owners;
  for (const std::string& o : v.owners) {
    if (!owners.empty()) owners += ", ";
    owners += "'" + o + "'";
  }
  const std::string shown = v.demangled.empty() ? v.symbol : v.demangled;
  return "libxlf_" + v.layer + ".a: [sym-audit] layer '" + v.layer +
         "' references '" + shown + "' defined only in layer " + owners +
         ", outside its dependency closure (tools/lint/layers.txt); add "
         "the dependency there, or move the code to a layer both sides "
         "may use";
}

int run_sym_audit_cli(const std::vector<std::string>& args, std::ostream& out,
                      std::ostream& err) {
  std::string layers_path = "tools/lint/layers.txt";
  std::string nm_tool = "nm";
  std::vector<std::string> targets;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--help" || arg == "-h") {
      out << "usage: xlf_sym_audit [--layers FILE] [--nm TOOL] PATH...\n"
             "  --layers FILE   layer DAG (default tools/lint/layers.txt)\n"
             "  --nm TOOL       nm binary to run (default nm)\n"
             "  PATH            libxlf_<layer>.a archives, or directories\n"
             "                  searched recursively for them (typically\n"
             "                  the CMake build directory)\n"
             "exit codes: 0 clean, 1 violations, 2 usage or I/O error\n";
      return 0;
    }
    if (arg == "--layers" || arg == "--nm") {
      if (i + 1 >= args.size()) {
        err << "xlf_sym_audit: missing value for " << arg << "\n";
        return 2;
      }
      (arg == "--layers" ? layers_path : nm_tool) = args[++i];
      continue;
    }
    if (arg.rfind("--", 0) == 0) {
      err << "xlf_sym_audit: unknown flag '" << arg << "' (try --help)\n";
      return 2;
    }
    targets.push_back(arg);
  }
  if (targets.empty()) {
    err << "xlf_sym_audit: no paths given (try `xlf_sym_audit build`)\n";
    return 2;
  }
  try {
    const LayerGraph graph = LayerGraph::parse_file(layers_path);
    namespace fs = std::filesystem;
    std::vector<std::string> archive_paths;
    for (const std::string& target : targets) {
      if (!fs::exists(target)) {
        throw std::runtime_error("no such file or directory: " + target);
      }
      if (fs::is_directory(target)) {
        for (const auto& entry : fs::recursive_directory_iterator(target)) {
          if (!entry.is_regular_file()) continue;
          const std::string path = entry.path().generic_string();
          const std::string layer = layer_of_archive(path);
          // Helper archives (libxlf_lint_lib.a) are not layers; skip.
          if (!layer.empty() && graph.has_layer(layer)) {
            archive_paths.push_back(path);
          }
        }
      } else {
        const std::string layer = layer_of_archive(target);
        if (layer.empty() || !graph.has_layer(layer)) {
          throw std::runtime_error(
              "not a libxlf_<layer>.a archive of a declared layer: " +
              target);
        }
        archive_paths.push_back(target);
      }
    }
    std::sort(archive_paths.begin(), archive_paths.end());
    archive_paths.erase(
        std::unique(archive_paths.begin(), archive_paths.end()),
        archive_paths.end());
    if (archive_paths.empty()) {
      err << "xlf_sym_audit: no libxlf_<layer>.a archives found under the "
             "given paths (build first?)\n";
      return 2;
    }
    std::vector<ArchiveSyms> archives;
    for (const std::string& path : archive_paths) {
      ArchiveSyms syms;
      syms.layer = layer_of_archive(path);
      syms.path = path;
      parse_nm(run_command(nm_tool + " -P " + shell_quote(path) +
                           " 2>/dev/null"),
               syms);
      archives.push_back(std::move(syms));
    }
    const std::vector<SymViolation> violations = audit(archives, graph);
    for (const SymViolation& v : violations) {
      out << format_violation(v) << "\n";
    }
    err << "xlf_sym_audit: " << archives.size() << " archive"
        << (archives.size() == 1 ? "" : "s") << ", " << violations.size()
        << " violation" << (violations.size() == 1 ? "" : "s") << "\n";
    return violations.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    err << "xlf_sym_audit: " << e.what() << "\n";
    return 2;
  }
}

}  // namespace xlf::lint
