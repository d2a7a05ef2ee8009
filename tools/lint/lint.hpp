// xlf_lint — in-repo static analyzer for the repo's machine-checkable
// invariants. Six rule families:
//
//  * layering       — the include-layer DAG. src/<layer>/ may include
//                     itself plus the transitive closure of its direct
//                     dependencies as declared in tools/lint/layers.txt,
//                     the same file the top-level CMakeLists.txt reads
//                     to declare each libxlf_<layer> and its link edges.
//                     The link-time half of the check is xlf_sym_audit
//                     (tools/lint/sym_audit.hpp).
//  * determinism    — ban-list of nondeterminism sources: ambient
//                     randomness (std::random_device, rand), wall-clock
//                     time (time(), C clocks, std::chrono clocks),
//                     unordered-container iteration in report/CSV/JSON
//                     emitter TUs, and pointer-value ordering in
//                     comparators. Every sweep/spec/torture cell must
//                     be byte-identical for any --threads; these are
//                     the constructs that break that contract silently.
//  * raw-assert     — assertion hygiene: raw assert() vanishes under
//                     NDEBUG; contracts must use XLF_EXPECT /
//                     XLF_EXPECT_MSG / XLF_ENSURE (src/util/expect.hpp)
//                     so they hold in Release builds too.
//  * hot-alloc      — allocation-freedom on hot paths. A function
//                     annotated `// xlf: hot` on its signature, and
//                     everything it reaches through the whole-program
//                     cross-TU call graph (tools/lint/callgraph.hpp),
//                     must not allocate: new, malloc,
//                     make_unique/make_shared, vector growth
//                     (push_back/emplace_back/resize/reserve),
//                     std::function and std::string construction are
//                     findings. Documented arena-growth sites escape
//                     with `// xlf-lint: allow(hot-alloc)`.
//  * ack-order      — crash-ack ordering: no path from a `// xlf: ack`
//                     completion site may reach a NAND mutation
//                     (program_page / erase_block / write_page_meta)
//                     on the call graph without passing a
//                     `// xlf: durable` commit function. The static
//                     half of the crash-recovery durability contract;
//                     see tools/lint/ack_order.cpp.
//  * unused-allow   — stale-suppression audit, opt-in via
//                     --report-unused-allows: every allow() comment
//                     must have suppressed at least one finding in the
//                     run, and every listed name must be a real rule.
//
// Escape hatch: a `// xlf-lint: allow(<rule>)` comment on the same
// line (or alone on the line directly above) suppresses that one rule
// at that one site. There is no file- or tree-wide suppression on
// purpose.
//
// The line-pattern rules run over the stripped code view produced by
// the token lexer (tools/lint/lexer.hpp): a banned construct in a
// comment, a string literal, a raw string spanning lines, or behind a
// backslash continuation is never a finding. The structural rules
// (hot-alloc, ack-order) run over the token stream itself.
#pragma once

#include <iosfwd>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace xlf::lint {

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

struct RuleInfo {
  const char* name;
  const char* summary;
};

// All rules, in the order --list-rules prints them.
const std::vector<RuleInfo>& rule_infos();
bool is_rule_name(const std::string& name);

// "file:line: [rule] message" — the one-line form the CLI prints.
std::string format_finding(const Finding& finding);

// The layer DAG from layers.txt. parse() throws std::runtime_error on
// syntax errors, references to undeclared layers, or cycles.
class LayerGraph {
 public:
  static LayerGraph parse(const std::string& text);
  static LayerGraph parse_file(const std::string& path);

  // Layers a file under src/<layer>/ may include from: the layer
  // itself plus the transitive closure of its declared dependencies.
  const std::set<std::string>& allowed(const std::string& layer) const;
  bool has_layer(const std::string& layer) const;

 private:
  std::map<std::string, std::vector<std::string>> direct_;
  std::map<std::string, std::set<std::string>> allowed_;
};

// Layer a path belongs to ("" when the path has no src/<layer>/
// component — such files skip the layering rule).
std::string layer_of(const std::string& path);

// True for TUs whose emitted bytes are report artifacts (basename
// starts with "report" or contains "_csv"/"_json"): the unordered-
// container rule applies only there.
bool is_emitter_tu(const std::string& path);

// Lint one file's contents. `path` provides the layer (layering rule)
// and the TU kind (emitter rule) and is echoed in findings.
std::vector<Finding> lint_file(const std::string& path,
                               const std::string& contents,
                               const LayerGraph& graph);

// Lint a set of files as one analysis scope. Per-file rules behave
// exactly as lint_file; the cross-TU analyses — the whole-program call
// graph behind hot-alloc and ack-order — only exist at this
// granularity. Findings are globally sorted by (file, line, rule
// position).
struct FileInput {
  std::string path;
  std::string contents;
};

struct LintOptions {
  // Report `// xlf-lint: allow(...)` comments that suppressed nothing
  // in this run, or that name unknown rules (rule: unused-allow).
  bool report_unused_allows = false;
};

std::vector<Finding> lint_files(const std::vector<FileInput>& files,
                                const LayerGraph& graph);
std::vector<Finding> lint_files(const std::vector<FileInput>& files,
                                const LayerGraph& graph,
                                const LintOptions& options);

// Recursively lint every .hpp/.cpp under `root` in sorted path order.
// Throws std::runtime_error if root does not exist.
std::vector<Finding> lint_tree(const std::string& root,
                               const LayerGraph& graph);
std::vector<Finding> lint_tree(const std::string& root,
                               const LayerGraph& graph,
                               const LintOptions& options);

// Full CLI (main() is a one-liner around this so the exit-code
// contract is unit-testable). Exit codes: 0 = clean, 1 = findings,
// 2 = usage or I/O error.
int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err);

}  // namespace xlf::lint
