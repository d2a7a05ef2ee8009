#include "tools/lint/lint.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <ostream>
#include <regex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "tools/lint/callgraph.hpp"
#include "tools/lint/lexer.hpp"
#include "tools/lint/rules.hpp"

namespace xlf::lint {
namespace {

// ---------------------------------------------------------------- rules

constexpr const char* kLayering = "layering";
constexpr const char* kNoRandom = "no-ambient-random";
constexpr const char* kNoWallClock = "no-wall-clock";
constexpr const char* kNoUnorderedEmit = "no-unordered-emit";
constexpr const char* kNoPtrOrder = "no-ptr-order";
constexpr const char* kRawAssert = "raw-assert";
constexpr const char* kHotAlloc = "hot-alloc";
constexpr const char* kAckOrder = "ack-order";
constexpr const char* kUnusedAllow = "unused-allow";

const std::vector<RuleInfo> kRules = {
    {kLayering,
     "src/<layer>/ may only include its own layer plus the transitive "
     "closure of its layers.txt dependencies"},
    {kNoRandom,
     "ambient randomness (std::random_device, rand, srand) bypasses the "
     "seeded xlf::Rng streams and breaks reproducibility"},
    {kNoWallClock,
     "wall-clock reads (time(), clock(), gettimeofday, std::chrono "
     "system/steady/high_resolution clocks) make output run-dependent"},
    {kNoUnorderedEmit,
     "unordered_map/unordered_set in a report/*_csv/*_json emitter TU: "
     "hash iteration order is not part of the determinism contract"},
    {kNoPtrOrder,
     "ordering by pointer value (std::less<T*>, reinterpret_cast to "
     "uintptr_t) depends on allocation addresses, not logical state"},
    {kRawAssert,
     "raw assert() compiles out under NDEBUG; use XLF_EXPECT / "
     "XLF_EXPECT_MSG / XLF_ENSURE from src/util/expect.hpp"},
    {kHotAlloc,
     "allocation reachable from a '// xlf: hot' function: hot paths must "
     "run allocation-free after warm-up (arena and pool reuse only)"},
    {kAckOrder,
     "crash-ack ordering: no path from a '// xlf: ack' completion site "
     "may reach a NAND mutation (program_page / erase_block / "
     "write_page_meta) without passing a '// xlf: durable' commit "
     "function on the cross-TU call graph"},
    {kUnusedAllow,
     "stale suppression: an '// xlf-lint: allow(...)' comment that "
     "suppresses nothing, or names an unknown rule, hides nothing and "
     "rots; reported under --report-unused-allows"},
};

int rule_index(const std::string& rule) {
  for (std::size_t i = 0; i < kRules.size(); ++i) {
    if (rule == kRules[i].name) return static_cast<int>(i);
  }
  return static_cast<int>(kRules.size());
}

// `// xlf-lint: allow(rule)` (comma-separated rules accepted) on the
// finding's own line, or alone on the line directly above it.
const std::regex kAllowRe(R"(//\s*xlf-lint:\s*allow\(([^)]*)\))");

bool allow_matches(const std::string& raw_line, const std::string& rule) {
  std::smatch match;
  if (!std::regex_search(raw_line, match, kAllowRe)) return false;
  std::istringstream list(match[1].str());
  std::string name;
  while (std::getline(list, name, ',')) {
    const auto begin = name.find_first_not_of(" \t");
    if (begin == std::string::npos) continue;
    const auto end = name.find_last_not_of(" \t");
    if (name.substr(begin, end - begin + 1) == rule) return true;
  }
  return false;
}

// One lexed, split TU of a lint_files() call.
struct TuAnalysis {
  std::string path;
  std::string layer;
  bool emitter = false;
  LexedFile lx;
  std::vector<Token> code;      // structural tokens: no comments, no pp
  std::vector<Token> comments;  // comments, for the marker scans
};

// Shared state of one lint_files() call: every TU, plus the record of
// which allow comments actually suppressed a finding — keyed by
// (tu, 0-based line of the comment, rule) — so the
// --report-unused-allows pass can report the rest as stale.
struct LintState {
  std::vector<TuAnalysis> tus;
  std::set<std::tuple<std::size_t, std::size_t, std::string>> used_allows;
};

bool is_allowed(LintState& st, std::size_t tu, std::size_t line_index,
                const std::string& rule) {
  const std::vector<std::string>& raw = st.tus[tu].lx.raw;
  if (line_index >= raw.size()) return false;
  if (allow_matches(raw[line_index], rule)) {
    st.used_allows.emplace(tu, line_index, rule);
    return true;
  }
  if (line_index > 0) {
    const std::string& above = raw[line_index - 1];
    // Only a line that is nothing but the allow comment arms the next
    // line; an allow trailing other code covers that code alone.
    const auto first = above.find_first_not_of(" \t");
    if (first != std::string::npos && above.compare(first, 2, "//") == 0 &&
        allow_matches(above, rule)) {
      st.used_allows.emplace(tu, line_index - 1, rule);
      return true;
    }
  }
  return false;
}

// ------------------------------------------------------- rule patterns

const std::regex kIncludeRe(R"(^\s*#\s*include\s+"src/([A-Za-z0-9_]+)/)");
const std::regex kRandomRe(R"(\brandom_device\b|\bs?rand\s*\()");
const std::regex kWallClockRe(
    R"(\bsystem_clock\b|\bsteady_clock\b|\bhigh_resolution_clock\b|\btime\s*\(|\bclock\s*\(|\bgettimeofday\b)");
const std::regex kUnorderedRe(R"(\bunordered_(map|set|multimap|multiset)\b)");
const std::regex kPtrOrderRe(
    R"(std::(less|greater)\s*<[^<>;]*\*[^<>;]*>|reinterpret_cast<\s*(std::)?uintptr_t\s*>)");
const std::regex kAssertRe(R"(\bassert\s*\()");
const std::regex kHotMarkRe(R"(\bxlf:\s*hot\b)");
// The hot closure's barrier: a definition annotated `// xlf: cold` is
// setup/reconfiguration/error-path code by reviewed contract, so the
// hot BFS treats it as absent (like `durable` for ack-order). Without
// it, name-level resolution drags report and warm-up code into the
// closure through collisions on common member names (front, add,
// require, to_string).
const std::regex kColdMarkRe(R"(\bxlf:\s*cold\b)");

// ------------------------------------------------ structural analysis
//
// The hot-alloc and ack-order families work on the token stream, not
// on line patterns. The unit of analysis is the scope-qualified
// function definition from the whole-program call graph
// (tools/lint/callgraph.hpp); lambdas are deliberately NOT
// definitions — their tokens belong to the enclosing definition, so
// an allocation inside an event closure is charged to the function
// that builds the closure. Hot reachability is cross-TU: BFS from the
// `// xlf: hot` definitions over resolved edges, so a hot caller in
// src/sim taints the FTL entry points it calls in src/ftl.

// The allocation ban-list scanned inside hot bodies. Returns the
// construct's display name, or "" when the token is harmless.
std::string hot_banned(const std::vector<Token>& code, std::size_t t,
                       std::size_t limit) {
  const Token& tok = code[t];
  if (tok.kind != TokKind::kIdentifier) return "";
  const std::string& s = tok.text;
  const bool called = t + 1 < limit && code[t + 1].text == "(";
  const bool std_qualified = t >= 2 && code[t - 1].text == "::" &&
                             code[t - 2].text == "std";
  if (s == "new") return "new";
  if ((s == "malloc" || s == "calloc" || s == "realloc" || s == "strdup") &&
      called) {
    return s + "()";
  }
  if (s == "make_unique" || s == "make_shared") return "std::" + s;
  if ((s == "push_back" || s == "emplace_back" || s == "resize" ||
       s == "reserve") &&
      called) {
    return s + "()";
  }
  if (s == "function" && std_qualified) return "std::function";
  if (s == "string" && std_qualified) return "std::string";
  if (s == "to_string" && called && std_qualified) return "std::to_string";
  return "";
}

void scan_hot_allocs(LintState& st, const CallGraph& graph,
                     const CallGraph::Reach& reach,
                     std::vector<Finding>& findings) {
  const std::vector<Def>& defs = graph.defs();
  for (std::size_t d = 0; d < defs.size(); ++d) {
    if (reach.parent[d] == CallGraph::npos) continue;
    const Def& def = defs[d];
    const TuAnalysis& tu = st.tus[def.tu];
    const std::string& root = defs[reach.root[d]].qual;
    for (std::size_t t = def.open_tok + 1; t < def.close_tok; ++t) {
      const std::string what = hot_banned(tu.code, t, def.close_tok);
      if (what.empty()) continue;
      const std::size_t line_index = tu.code[t].line - 1;
      if (is_allowed(st, def.tu, line_index, kHotAlloc)) continue;
      findings.push_back(Finding{
          tu.path, tu.code[t].line, kHotAlloc,
          "'" + what + "' in '" + def.qual + "' (hot via '" + root +
              "'): hot paths must not allocate after warm-up; hoist the "
              "allocation into setup/arena code, or mark a documented "
              "arena-growth site with // xlf-lint: allow(hot-alloc)"});
    }
  }
}

// --report-unused-allows: every `// xlf-lint: allow(...)` comment must
// have suppressed at least one finding in this run (recorded by
// is_allowed), and every name in its list must be a real rule. Runs
// LAST so all analyses have had their chance to consume suppressions;
// its own findings are deliberately not suppressible — deleting the
// stale comment is the fix.
void scan_unused_allows(const LintState& st, std::vector<Finding>& findings) {
  for (std::size_t ti = 0; ti < st.tus.size(); ++ti) {
    const std::vector<std::string>& raw = st.tus[ti].lx.raw;
    for (std::size_t i = 0; i < raw.size(); ++i) {
      std::smatch match;
      if (!std::regex_search(raw[i], match, kAllowRe)) continue;
      std::istringstream list(match[1].str());
      std::string name;
      while (std::getline(list, name, ',')) {
        const auto begin = name.find_first_not_of(" \t");
        if (begin == std::string::npos) continue;
        const auto end = name.find_last_not_of(" \t");
        name = name.substr(begin, end - begin + 1);
        if (!is_rule_name(name)) {
          findings.push_back(Finding{
              st.tus[ti].path, static_cast<int>(i + 1), kUnusedAllow,
              "allow list names unknown rule '" + name +
                  "': the suppression is a no-op (see --list-rules for "
                  "valid names); fix the spelling or delete it"});
          continue;
        }
        if (st.used_allows.count({ti, i, name}) == 0) {
          findings.push_back(Finding{
              st.tus[ti].path, static_cast<int>(i + 1), kUnusedAllow,
              "stale suppression: allow(" + name +
                  ") matched no finding in this run; the code it excused "
                  "has moved or been fixed — delete the comment so future "
                  "findings are not silently absorbed"});
        }
      }
    }
  }
}

}  // namespace

const std::vector<RuleInfo>& rule_infos() { return kRules; }

bool is_rule_name(const std::string& name) {
  return std::any_of(kRules.begin(), kRules.end(),
                     [&](const RuleInfo& r) { return name == r.name; });
}

std::string format_finding(const Finding& finding) {
  return finding.file + ":" + std::to_string(finding.line) + ": [" +
         finding.rule + "] " + finding.message;
}

// ----------------------------------------------------------- LayerGraph

LayerGraph LayerGraph::parse(const std::string& text) {
  LayerGraph graph;
  std::istringstream stream(text);
  std::string line;
  int line_no = 0;
  while (std::getline(stream, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) {
      throw std::runtime_error("layers.txt line " + std::to_string(line_no) +
                               ": expected 'layer: dep dep ...'");
    }
    std::string layer = line.substr(first, colon - first);
    const auto layer_end = layer.find_last_not_of(" \t");
    layer = layer.substr(0, layer_end + 1);
    if (graph.direct_.count(layer) != 0) {
      throw std::runtime_error("layers.txt: duplicate layer '" + layer + "'");
    }
    std::vector<std::string> deps;
    std::istringstream rest(line.substr(colon + 1));
    std::string dep;
    while (rest >> dep) deps.push_back(dep);
    graph.direct_.emplace(layer, std::move(deps));
  }
  // Every dependency must itself be a declared layer.
  for (const auto& [layer, deps] : graph.direct_) {
    for (const std::string& dep : deps) {
      if (graph.direct_.count(dep) == 0) {
        throw std::runtime_error("layers.txt: layer '" + layer +
                                 "' depends on undeclared layer '" + dep +
                                 "'");
      }
    }
  }
  // Transitive closure by DFS; a layer revisited while still on the
  // stack is a cycle (a DAG is the whole point of the file).
  enum class Mark { kUnvisited, kOnStack, kDone };
  std::map<std::string, Mark> marks;
  for (const auto& [layer, deps] : graph.direct_) marks[layer] = Mark::kUnvisited;
  const std::function<void(const std::string&)> visit =
      [&](const std::string& layer) {
        if (marks[layer] == Mark::kDone) return;
        if (marks[layer] == Mark::kOnStack) {
          throw std::runtime_error("layers.txt: dependency cycle through '" +
                                   layer + "'");
        }
        marks[layer] = Mark::kOnStack;
        std::set<std::string>& allowed = graph.allowed_[layer];
        allowed.insert(layer);
        for (const std::string& dep : graph.direct_.at(layer)) {
          visit(dep);
          const std::set<std::string>& below = graph.allowed_.at(dep);
          allowed.insert(below.begin(), below.end());
        }
        marks[layer] = Mark::kDone;
      };
  for (const auto& [layer, deps] : graph.direct_) visit(layer);
  return graph;
}

LayerGraph LayerGraph::parse_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    throw std::runtime_error("cannot open layers file " + path);
  }
  std::ostringstream text;
  text << file.rdbuf();
  return parse(text.str());
}

const std::set<std::string>& LayerGraph::allowed(
    const std::string& layer) const {
  const auto it = allowed_.find(layer);
  if (it == allowed_.end()) {
    throw std::runtime_error("unknown layer '" + layer + "'");
  }
  return it->second;
}

bool LayerGraph::has_layer(const std::string& layer) const {
  return direct_.count(layer) != 0;
}

// -------------------------------------------------------------- linting

std::string layer_of(const std::string& path) {
  const std::string generic = std::filesystem::path(path).generic_string();
  std::smatch match;
  static const std::regex kLayerRe(R"((^|/)src/([A-Za-z0-9_]+)/)");
  if (std::regex_search(generic, match, kLayerRe)) return match[2].str();
  return "";
}

bool is_emitter_tu(const std::string& path) {
  const std::string stem = std::filesystem::path(path).stem().string();
  return stem.rfind("report", 0) == 0 ||
         stem.find("_csv") != std::string::npos ||
         stem.find("_json") != std::string::npos;
}

namespace {

// The six line rules, over the lexer's stripped view.
void lint_lines(LintState& st, std::size_t tu_index, const LayerGraph& graph,
                std::vector<Finding>& findings) {
  const TuAnalysis& tu = st.tus[tu_index];
  const auto report = [&](std::size_t index, const char* rule,
                          std::string message) {
    if (is_allowed(st, tu_index, index, rule)) return;
    findings.push_back(Finding{tu.path, static_cast<int>(index + 1), rule,
                               std::move(message)});
  };

  for (std::size_t i = 0; i < tu.lx.code.size(); ++i) {
    const std::string& code = tu.lx.code[i];
    std::smatch match;

    // Includes are matched on the RAW line: the lexer blanks string
    // literals, and the include path is lexically one.
    if (!tu.layer.empty() && graph.has_layer(tu.layer) &&
        std::regex_search(tu.lx.raw[i], match, kIncludeRe)) {
      const std::string target = match[1].str();
      if (graph.allowed(tu.layer).count(target) == 0) {
        report(i, kLayering,
               "layer '" + tu.layer + "' must not include \"src/" + target +
                   "/...\": '" + target +
                   "' is not in its dependency closure (see "
                   "tools/lint/layers.txt); move the shared code to a lower "
                   "layer or invert the dependency");
      }
    }
    if (std::regex_search(code, kRandomRe)) {
      report(i, kNoRandom,
             "ambient randomness breaks the seeded-stream reproducibility "
             "contract; draw from an xlf::Rng forked from the experiment "
             "seed instead");
    }
    if (std::regex_search(code, kWallClockRe)) {
      report(i, kNoWallClock,
             "wall-clock time makes output differ run to run; use the "
             "simulated clock (EventQueue time, FTL logical clock) or take "
             "the timestamp as a parameter");
    }
    if (tu.emitter && std::regex_search(code, kUnorderedRe)) {
      report(i, kNoUnorderedEmit,
             "emitter TUs must not touch unordered containers: hash "
             "iteration order varies across libstdc++ versions and seeds; "
             "use std::map or sort into a vector before emitting");
    }
    if (std::regex_search(code, kPtrOrderRe)) {
      report(i, kNoPtrOrder,
             "pointer-value ordering follows the allocator, not the model; "
             "sort by a stable id (block id, LBA, queue id) instead");
    }
    if (std::regex_search(code, kAssertRe)) {
      report(i, kRawAssert,
             "raw assert() is compiled out in NDEBUG/Release builds, where "
             "the determinism CI runs; use XLF_EXPECT / XLF_EXPECT_MSG / "
             "XLF_ENSURE (src/util/expect.hpp) so the contract always "
             "holds");
    }
  }
}

}  // namespace

std::vector<Finding> lint_files(const std::vector<FileInput>& files,
                                const LayerGraph& graph,
                                const LintOptions& options) {
  LintState st;
  st.tus.reserve(files.size());
  std::vector<Finding> findings;
  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    TuAnalysis tu;
    tu.path = files[fi].path;
    tu.layer = layer_of(tu.path);
    tu.emitter = is_emitter_tu(tu.path);
    tu.lx = lex(files[fi].contents);
    for (const Token& tok : tu.lx.tokens) {
      if (tok.kind == TokKind::kComment) {
        tu.comments.push_back(tok);
      } else if (!tok.preprocessor) {
        tu.code.push_back(tok);
      }
    }
    st.tus.push_back(std::move(tu));
  }

  for (std::size_t fi = 0; fi < st.tus.size(); ++fi) {
    lint_lines(st, fi, graph, findings);
  }

  // The whole-program passes: one call graph over every TU at once.
  std::vector<const std::vector<Token>*> codes;
  codes.reserve(st.tus.size());
  for (const TuAnalysis& tu : st.tus) codes.push_back(&tu.code);
  const CallGraph cg = CallGraph::build(codes);

  std::vector<std::size_t> hot_roots;
  std::vector<char> cold(cg.defs().size(), 0);
  for (std::size_t d = 0; d < cg.defs().size(); ++d) {
    const Def& def = cg.defs()[d];
    if (def_has_marker(def, st.tus[def.tu].comments, kColdMarkRe)) {
      cold[d] = 1;
    } else if (def_has_marker(def, st.tus[def.tu].comments, kHotMarkRe)) {
      hot_roots.push_back(d);
    }
  }
  scan_hot_allocs(st, cg, cg.reach(hot_roots, &cold), findings);

  std::vector<TuView> views;
  views.reserve(st.tus.size());
  for (const TuAnalysis& tu : st.tus) {
    views.push_back(TuView{&tu.path, &tu.code, &tu.comments});
  }
  const AllowFn allowed = [&st](std::size_t tu, std::size_t line,
                                const std::string& rule) {
    return is_allowed(st, tu, line, rule);
  };
  check_ack_order(views, cg, allowed, findings);

  if (options.report_unused_allows) scan_unused_allows(st, findings);

  // One global order regardless of which analysis produced a finding:
  // by file, then line, then the rule's --list-rules position.
  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.file != b.file) return a.file < b.file;
                     if (a.line != b.line) return a.line < b.line;
                     return rule_index(a.rule) < rule_index(b.rule);
                   });
  return findings;
}

std::vector<Finding> lint_files(const std::vector<FileInput>& files,
                                const LayerGraph& graph) {
  return lint_files(files, graph, LintOptions{});
}

std::vector<Finding> lint_file(const std::string& path,
                               const std::string& contents,
                               const LayerGraph& graph) {
  return lint_files({FileInput{path, contents}}, graph);
}

std::vector<Finding> lint_tree(const std::string& root,
                               const LayerGraph& graph,
                               const LintOptions& options) {
  namespace fs = std::filesystem;
  if (!fs::exists(root)) {
    throw std::runtime_error("no such file or directory: " + root);
  }
  std::vector<std::string> paths;
  if (fs::is_directory(root)) {
    for (const auto& entry : fs::recursive_directory_iterator(root)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc") {
        paths.push_back(entry.path().generic_string());
      }
    }
    // Directory iteration order is filesystem-dependent; finding order
    // is part of the CLI contract, so sort.
    std::sort(paths.begin(), paths.end());
  } else {
    paths.push_back(root);
  }
  std::vector<FileInput> inputs;
  inputs.reserve(paths.size());
  for (const std::string& path : paths) {
    std::ifstream file(path);
    if (!file) {
      throw std::runtime_error("cannot read " + path);
    }
    std::ostringstream contents;
    contents << file.rdbuf();
    inputs.push_back(FileInput{path, contents.str()});
  }
  return lint_files(inputs, graph, options);
}

std::vector<Finding> lint_tree(const std::string& root,
                               const LayerGraph& graph) {
  return lint_tree(root, graph, LintOptions{});
}

// ------------------------------------------------------------------ CLI

int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  std::string layers_path = "tools/lint/layers.txt";
  LintOptions options;
  std::vector<std::string> targets;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--help" || arg == "-h") {
      out << "usage: xlf_lint [--layers FILE] [--report-unused-allows]\n"
             "                [--list-rules] PATH...\n"
             "  --layers FILE   layer DAG (default tools/lint/layers.txt)\n"
             "  --report-unused-allows\n"
             "                  report stale or unknown-rule allow() "
             "comments\n"
             "  --list-rules    print every rule with its summary and exit\n"
             "  PATH            files or directories (typically src/)\n"
             "exit codes: 0 clean, 1 findings, 2 usage or I/O error\n"
             "suppress one finding: // xlf-lint: allow(<rule>)\n";
      return 0;
    }
    if (arg == "--list-rules") {
      for (const RuleInfo& rule : rule_infos()) {
        out << rule.name << ": " << rule.summary << "\n";
      }
      return 0;
    }
    if (arg == "--layers") {
      if (i + 1 >= args.size()) {
        err << "xlf_lint: missing value for --layers\n";
        return 2;
      }
      layers_path = args[++i];
      continue;
    }
    if (arg == "--report-unused-allows") {
      options.report_unused_allows = true;
      continue;
    }
    if (arg.rfind("--", 0) == 0) {
      err << "xlf_lint: unknown flag '" << arg << "' (try --help)\n";
      return 2;
    }
    targets.push_back(arg);
  }
  if (targets.empty()) {
    err << "xlf_lint: no paths given (try `xlf_lint src`)\n";
    return 2;
  }
  try {
    const LayerGraph graph = LayerGraph::parse_file(layers_path);
    std::vector<Finding> findings;
    for (const std::string& target : targets) {
      std::vector<Finding> tree = lint_tree(target, graph, options);
      findings.insert(findings.end(), std::make_move_iterator(tree.begin()),
                      std::make_move_iterator(tree.end()));
    }
    for (const Finding& finding : findings) {
      out << format_finding(finding) << "\n";
    }
    if (!findings.empty()) {
      err << "xlf_lint: " << findings.size() << " finding"
          << (findings.size() == 1 ? "" : "s") << "\n";
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    err << "xlf_lint: " << e.what() << "\n";
    return 2;
  }
}

}  // namespace xlf::lint
