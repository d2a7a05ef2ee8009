// Cross-TU rule entry points built on the call graph
// (tools/lint/callgraph.hpp): the crash-ordering audit (ack-order).
// It runs over the whole lint_files() set at once; lint.cpp wires it
// in after the per-TU passes and hands it the allow-comment predicate
// so the escape hatch (and its usage tracking) stays in one place.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "tools/lint/callgraph.hpp"
#include "tools/lint/lexer.hpp"

namespace xlf::lint {

struct Finding;

// Read-only view of one analyzed TU, indexed like the CallGraph's
// `tu` field.
struct TuView {
  const std::string* path = nullptr;
  const std::vector<Token>* code = nullptr;      // structural tokens
  const std::vector<Token>* comments = nullptr;  // for marker scans
};

// allowed(tu, line_index, rule): the `// xlf-lint: allow(<rule>)`
// check, 0-based line. Provided by lint.cpp so suppressions count as
// "used" for --report-unused-allows.
using AllowFn =
    std::function<bool(std::size_t, std::size_t, const std::string&)>;

// ack-order: no path from a `// xlf: ack` definition may reach a NAND
// mutation token (program_page / erase_block / write_page_meta)
// without passing through a `// xlf: durable` definition. See
// ack_order.cpp for the exact contract.
void check_ack_order(const std::vector<TuView>& tus, const CallGraph& graph,
                     const AllowFn& allowed, std::vector<Finding>& findings);

}  // namespace xlf::lint
