// Whole-program call graph for xlf_lint: the symbol-resolution layer
// the cross-TU analyses (hot-alloc propagation, ack-order) sit on.
//
// Definitions are qualified by lexical scope — `namespace a::b { void
// f() {...} }` and the out-of-line `void a::b::C::f() {...}` both
// yield a component list ending in "f" — using the lexer's token
// stream and brace tracking. Call sites inside each body resolve
// against every definition in the lint_files() set:
//
//  * a qualified call (`a::b::f(...)`) matches definitions whose
//    component list ends with the written qualifier chain + name;
//  * an unqualified call (`f(...)`, `obj.f(...)`, `ptr->f(...)`)
//    matches EVERY definition with the same bare name, in any TU.
//
// Resolution is name-level on purpose: no types, no overload
// selection. Every same-named overload (and every same-named method
// of an unrelated class) is an edge, so reachability over-
// approximates — a rule can report a site only spuriously, never
// miss one because a call crossed a TU boundary. The one narrowing:
// anonymous-namespace definitions have internal linkage, so they
// resolve only from their own TU. Function pointers, virtual dispatch
// through externally-defined interfaces, and macro-generated bodies
// stay invisible — callers document those limits per rule.
#pragma once

#include <cstddef>
#include <regex>
#include <string>
#include <vector>

#include "tools/lint/lexer.hpp"

namespace xlf::lint {

// One function definition with its scope qualification.
struct Def {
  std::string name;                     // bare name
  std::vector<std::string> components;  // enclosing scopes + written
                                        // qualifier chain + bare name
  std::string qual;                     // components joined with "::"
  int name_line = 0;                    // line of the name token
  int open_line = 0;                    // line of the body '{'
  std::size_t open_tok = 0;             // '{' index in the TU's code
  std::size_t close_tok = 0;            // matching '}' index
  std::size_t tu = 0;                   // index into the lint set
  bool tu_local = false;                // anonymous-namespace scope
};

// True when a comment matching `re` sits on the def's signature: up
// to three lines above the name (multi-line return types) through the
// line of the opening brace (trailing same-line markers).
bool def_has_marker(const Def& def, const std::vector<Token>& comments,
                    const std::regex& re);

class CallGraph {
 public:
  // codes[i] = TU i's structural token stream. Defs are discovered in
  // (tu, position) order; edges resolve across all TUs.
  static CallGraph build(const std::vector<const std::vector<Token>*>& codes);

  const std::vector<Def>& defs() const { return defs_; }
  // Resolved callee def indices of `def`, deduplicated, ascending.
  const std::vector<std::size_t>& callees(std::size_t def) const {
    return out_[def];
  }

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  // Deterministic multi-source BFS. parent[d] is d's predecessor on a
  // shortest path (a root is its own parent), root[d] the root that
  // reached it; both npos when unreached. Defs with stop[d] != 0 are
  // never visited — BFS treats them as absent (their bodies and
  // callees stay out of the closure).
  struct Reach {
    std::vector<std::size_t> parent;
    std::vector<std::size_t> root;
  };
  Reach reach(const std::vector<std::size_t>& roots,
              const std::vector<char>* stop = nullptr) const;

 private:
  std::vector<Def> defs_;
  std::vector<std::vector<std::size_t>> out_;  // per def, resolved
};

}  // namespace xlf::lint
