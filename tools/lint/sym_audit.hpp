// xlf_sym_audit — the link-time half of the layering rule.
//
// xlf_lint checks the DAG at the #include level, but a TU can still
// reach up the stack without an include: a forward declaration plus a
// call compiles fine and only the linker sees the edge. This audit
// closes that hole. It runs `nm` over the built libxlf_<layer>.a
// archives, collects each archive's defined and undefined symbols,
// and checks every undefined symbol that some OTHER xlf layer defines
// against the referencing layer's allowed closure from
// tools/lint/layers.txt. A reference whose only definers are outside
// the closure is a violation — the CLI names the layer, the demangled
// symbol, and the owning layer(s).
//
// Symbols nothing in the xlf tree defines (libstdc++, libc, gtest)
// are ignored; a symbol defined by several layers is fine as long as
// at least one of them is in the closure.
#pragma once

#include <iosfwd>
#include <set>
#include <string>
#include <vector>

#include "tools/lint/lint.hpp"

namespace xlf::lint {

// One archive's linker-visible surface.
struct ArchiveSyms {
  std::string layer;                 // "ftl" for libxlf_ftl.a
  std::string path;                  // as given / discovered
  std::set<std::string> defined;     // global definitions (T, D, B, W, ...)
  std::set<std::string> undefined;   // U references
};

struct SymViolation {
  std::string layer;               // the referencing layer
  std::string symbol;              // mangled, as nm prints it
  std::string demangled;           // "" when demangling is unavailable
  std::set<std::string> owners;    // layers defining the symbol
};

// Parse `nm -P` output ("name type [value [size]]") into `out`;
// member headers ("lib.a[foo.o]:") and blank lines are skipped. A
// symbol both referenced and defined across an archive's members
// counts as defined (the archive satisfies itself).
void parse_nm(const std::string& nm_output, ArchiveSyms& out);

// Cross-check every archive's undefined symbols against the layer
// DAG. Archives whose layer is not declared in the graph are the
// caller's job to filter. Violations are sorted by (layer, symbol).
std::vector<SymViolation> audit(const std::vector<ArchiveSyms>& archives,
                                const LayerGraph& graph);

// "path/to/libxlf_ftl.a" -> "ftl"; "" when the basename does not
// match libxlf_<layer>.a.
std::string layer_of_archive(const std::string& path);

// Itanium-ABI demangle via <cxxabi.h>; returns "" on failure.
std::string demangle(const std::string& symbol);

// "libxlf_<layer>.a: [sym-audit] layer '<l>' references '<sym>' ..."
std::string format_violation(const SymViolation& v);

// CLI: xlf_sym_audit [--layers FILE] [--nm TOOL] PATH...
// PATH is an archive or a directory searched recursively for
// libxlf_<layer>.a files (undeclared layers are skipped, so helper
// archives like libxlf_lint_lib.a never trip the audit). Exit codes
// match xlf_lint: 0 clean, 1 violations, 2 usage or I/O error.
int run_sym_audit_cli(const std::vector<std::string>& args, std::ostream& out,
                      std::ostream& err);

}  // namespace xlf::lint
