#include "tools/lint/callgraph.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <set>

namespace xlf::lint {
namespace {

// One call site inside a definition's body.
struct Call {
  std::string name;                // bare callee name
  std::vector<std::string> quals;  // explicit `a::b::` chain, if any
};

// Names that look like `name(` but never are a function — control
// flow, word operators, expression keywords.
bool never_a_function(const std::string& name) {
  static const std::set<std::string> kNames = {
      "if",       "for",      "while",   "switch",   "catch",
      "return",   "sizeof",   "alignof", "alignas",  "decltype",
      "typeid",   "throw",    "case",    "goto",     "operator",
      "and",      "or",       "not",     "defined",  "static_assert",
      "co_await", "co_return", "co_yield", "requires", "new",
      "delete",   "constexpr", "consteval"};
  return kNames.count(name) != 0;
}

// Index of the punct matching `open_text` at `open` (which must hold
// an `open_text` token), or npos when unbalanced.
std::size_t match_punct(const std::vector<Token>& code, std::size_t open,
                        const char* open_text, const char* close_text) {
  int depth = 0;
  for (std::size_t i = open; i < code.size(); ++i) {
    if (code[i].kind != TokKind::kPunct) continue;
    if (code[i].text == open_text) {
      ++depth;
    } else if (code[i].text == close_text) {
      if (--depth == 0) return i;
    }
  }
  return std::string::npos;
}

// Walk the tokens after a candidate's closing ')' looking for the
// body '{'. Accepts qualifier identifiers (const, noexcept, ...),
// trailing return types, and ctor-init lists; anything that proves
// the candidate is a call or declaration (';', '=', '?', ...) rejects
// it. Returns the '{' index or npos.
std::size_t find_body_open(const std::vector<Token>& code,
                           std::size_t after_params) {
  bool seen_colon = false;
  std::size_t k = after_params;
  while (k < code.size()) {
    const Token& t = code[k];
    if (t.kind != TokKind::kPunct) {  // qualifiers, return types, names
      ++k;
      continue;
    }
    const std::string& s = t.text;
    if (s == "{") {
      // After a ctor-init colon, `name{args}` is a member init brace,
      // not the body; the body brace follows ')' or '}'.
      if (seen_colon && k > after_params &&
          code[k - 1].kind == TokKind::kIdentifier) {
        const std::size_t close = match_punct(code, k, "{", "}");
        if (close == std::string::npos) return std::string::npos;
        k = close + 1;
        continue;
      }
      return k;
    }
    if (s == ":") {
      seen_colon = true;
      ++k;
      continue;
    }
    if (s == "(") {
      // Parens here only make sense inside a ctor-init list or a
      // noexcept(...) clause; a second call's argument list rejects.
      const bool after_noexcept =
          k > after_params && code[k - 1].text == "noexcept";
      if (!seen_colon && !after_noexcept) return std::string::npos;
      const std::size_t close = match_punct(code, k, "(", ")");
      if (close == std::string::npos) return std::string::npos;
      k = close + 1;
      continue;
    }
    if (s == "::" || s == "<" || s == ">" || s == "," || s == "&" ||
        s == "*" || s == "->" || s == "...") {
      ++k;
      continue;
    }
    return std::string::npos;  // ';' '=' '?' '}' '.' — not a definition
  }
  return std::string::npos;
}

// One open lexical scope and the components it contributes (one name
// for a class, one or more for `namespace a::b`, none for an
// anonymous namespace).
struct Scope {
  std::vector<std::string> names;
  int depth = 0;  // brace depth just after the scope's '{'
  bool anon = false;
};

// Skip a `template <...>` parameter list (so `class T` inside it
// opens no scope). Angle matching is a plain counter — good enough
// for declaration heads, where `>>` closes two.
std::size_t skip_template_params(const std::vector<Token>& code,
                                 std::size_t at_template) {
  std::size_t k = at_template + 1;
  if (k >= code.size() || code[k].text != "<") return at_template + 1;
  int angle = 0;
  for (; k < code.size(); ++k) {
    if (code[k].text == "<") ++angle;
    if (code[k].text == ">" && --angle == 0) return k + 1;
  }
  return code.size();
}

// Scope-qualified definition scan over one TU's structural tokens
// (comments and preprocessor tokens removed). `tu` is echoed into
// every Def. Function bodies are skipped (definitions do not nest;
// lambda tokens belong to the enclosing definition), but class and
// namespace bodies are walked so member definitions qualify.
std::vector<Def> find_defs_scoped(const std::vector<Token>& code,
                                  std::size_t tu) {
  std::vector<Def> defs;
  std::vector<Scope> scopes;
  int depth = 0;
  const std::size_t n = code.size();
  std::size_t i = 0;
  while (i < n) {
    const Token& t = code[i];
    if (t.kind == TokKind::kPunct) {
      if (t.text == "{") ++depth;
      if (t.text == "}") {
        --depth;
        while (!scopes.empty() && scopes.back().depth > depth) {
          scopes.pop_back();
        }
      }
      ++i;
      continue;
    }
    if (t.kind != TokKind::kIdentifier) {
      ++i;
      continue;
    }
    const std::string& s = t.text;

    if (s == "template") {
      i = skip_template_params(code, i);
      continue;
    }

    if (s == "namespace") {
      // `namespace a::b {`, `namespace {`, or an alias/using fragment.
      std::size_t k = i + 1;
      std::vector<std::string> names;
      while (k < n && code[k].kind == TokKind::kIdentifier) {
        names.push_back(code[k].text);
        if (k + 1 < n && code[k + 1].text == "::") {
          k += 2;
        } else {
          ++k;
          break;
        }
      }
      if (k < n && code[k].text == "{") {
        const bool anon = names.empty();
        scopes.push_back(Scope{std::move(names), depth + 1, anon});
        ++depth;  // consume the '{'
        i = k + 1;
        continue;
      }
      i = k;  // alias (`namespace x = y;`): no scope
      continue;
    }

    if (s == "class" || s == "struct" || s == "union") {
      // Opens a scope only when a braced body follows the name on this
      // declaration head (fwd decls, `struct X x;` vars do not).
      std::size_t k = i + 1;
      while (k < n && code[k].kind != TokKind::kIdentifier &&
             code[k].text != "{" && code[k].text != ";") {
        ++k;
      }
      if (k >= n || code[k].kind != TokKind::kIdentifier) {
        ++i;
        continue;
      }
      const std::string cname = code[k].text;
      int angle = 0;
      bool opens = false;
      std::size_t m = k + 1;
      for (; m < n; ++m) {
        if (code[m].kind != TokKind::kPunct) continue;
        const std::string& p = code[m].text;
        if (p == "<") ++angle;
        if (p == ">" && angle > 0) --angle;
        if (angle > 0) continue;
        if (p == "{") {
          opens = true;
          break;
        }
        // A declarator/parameter context: not a class body.
        if (p == ";" || p == "(" || p == ")" || p == "=" || p == ",") break;
      }
      if (opens) {
        scopes.push_back(Scope{{cname}, depth + 1, false});
        ++depth;
        i = m + 1;
        continue;
      }
      i = k + 1;
      continue;
    }

    if (s == "enum") {
      // Enumerator lists hold no definitions and their values may
      // contain arbitrary expressions; skip the whole block.
      std::size_t m = i + 1;
      while (m < n && code[m].text != "{" && code[m].text != ";") ++m;
      if (m < n && code[m].text == "{") {
        const std::size_t close = match_punct(code, m, "{", "}");
        if (close != std::string::npos) {
          i = close + 1;
          continue;
        }
      }
      i = m;
      continue;
    }

    const bool candidate =
        !never_a_function(s) && i + 1 < n && code[i + 1].text == "(" &&
        (i == 0 || (code[i - 1].text != "." && code[i - 1].text != "->"));
    if (!candidate) {
      ++i;
      continue;
    }
    const std::size_t params_close = match_punct(code, i + 1, "(", ")");
    if (params_close == std::string::npos) {
      ++i;
      continue;
    }
    const std::size_t open = find_body_open(code, params_close + 1);
    if (open == std::string::npos) {
      ++i;
      continue;
    }
    const std::size_t close = match_punct(code, open, "{", "}");
    if (close == std::string::npos) {
      ++i;
      continue;
    }
    Def def;
    def.name = s;
    def.name_line = t.line;
    def.open_line = code[open].line;
    def.open_tok = open;
    def.close_tok = close;
    def.tu = tu;
    // The written out-of-line qualifier chain, walked backwards over
    // `identifier ::` pairs (`void Ftl::flush(` → ["Ftl"]).
    std::vector<std::string> written;
    std::size_t q = i;
    while (q >= 2 && code[q - 1].text == "::" &&
           code[q - 2].kind == TokKind::kIdentifier) {
      written.insert(written.begin(), code[q - 2].text);
      q -= 2;
    }
    for (const Scope& sc : scopes) {
      if (sc.anon) def.tu_local = true;
      def.components.insert(def.components.end(), sc.names.begin(),
                            sc.names.end());
    }
    def.components.insert(def.components.end(), written.begin(),
                          written.end());
    def.components.push_back(def.name);
    for (std::size_t c = 0; c < def.components.size(); ++c) {
      if (c != 0) def.qual += "::";
      def.qual += def.components[c];
    }
    defs.push_back(std::move(def));
    i = close + 1;  // definitions do not nest; skip the body
  }
  return defs;
}

// Call sites in (def.open_tok, def.close_tok).
std::vector<Call> find_calls(const std::vector<Token>& code, const Def& def) {
  std::vector<Call> calls;
  for (std::size_t t = def.open_tok + 1; t < def.close_tok; ++t) {
    const Token& tok = code[t];
    if (tok.kind != TokKind::kIdentifier || never_a_function(tok.text)) {
      continue;
    }
    if (t + 1 >= def.close_tok || code[t + 1].text != "(") continue;
    Call call;
    call.name = tok.text;
    std::size_t q = t;
    while (q >= def.open_tok + 3 && code[q - 1].text == "::" &&
           code[q - 2].kind == TokKind::kIdentifier) {
      call.quals.insert(call.quals.begin(), code[q - 2].text);
      q -= 2;
    }
    calls.push_back(std::move(call));
  }
  return calls;
}

// Defs a call from TU `from_tu` can bind to (see the header comment
// for the matching rule), ascending def index.
std::vector<std::size_t> resolve(
    const std::vector<Def>& defs,
    const std::multimap<std::string, std::size_t>& by_name, const Call& call,
    std::size_t from_tu) {
  std::vector<std::size_t> out;
  const auto [begin, end] = by_name.equal_range(call.name);
  for (auto it = begin; it != end; ++it) {
    const Def& def = defs[it->second];
    if (def.tu_local && def.tu != from_tu) continue;
    if (!call.quals.empty()) {
      // The written chain + name must be a suffix of the def's
      // component list (`ftl::Ftl::flush` matches a `Ftl::flush` call).
      if (call.quals.size() + 1 > def.components.size()) continue;
      const std::size_t off =
          def.components.size() - (call.quals.size() + 1);
      bool match = true;
      for (std::size_t c = 0; c < call.quals.size(); ++c) {
        if (def.components[off + c] != call.quals[c]) {
          match = false;
          break;
        }
      }
      if (!match) continue;
    }
    out.push_back(it->second);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

bool def_has_marker(const Def& def, const std::vector<Token>& comments,
                    const std::regex& re) {
  for (const Token& c : comments) {
    if (c.line < def.name_line - 3 || c.line > def.open_line) continue;
    if (std::regex_search(c.text, re)) return true;
  }
  return false;
}

CallGraph CallGraph::build(
    const std::vector<const std::vector<Token>*>& codes) {
  CallGraph graph;
  for (std::size_t tu = 0; tu < codes.size(); ++tu) {
    std::vector<Def> defs = find_defs_scoped(*codes[tu], tu);
    for (Def& def : defs) graph.defs_.push_back(std::move(def));
  }
  std::multimap<std::string, std::size_t> by_name;
  for (std::size_t d = 0; d < graph.defs_.size(); ++d) {
    by_name.emplace(graph.defs_[d].name, d);
  }
  graph.out_.resize(graph.defs_.size());
  for (std::size_t d = 0; d < graph.defs_.size(); ++d) {
    const Def& def = graph.defs_[d];
    std::set<std::size_t> targets;
    for (const Call& call : find_calls(*codes[def.tu], def)) {
      const std::vector<std::size_t> hits =
          resolve(graph.defs_, by_name, call, def.tu);
      targets.insert(hits.begin(), hits.end());
    }
    graph.out_[d].assign(targets.begin(), targets.end());
  }
  return graph;
}

CallGraph::Reach CallGraph::reach(const std::vector<std::size_t>& roots,
                                  const std::vector<char>* stop) const {
  Reach r;
  r.parent.assign(defs_.size(), npos);
  r.root.assign(defs_.size(), npos);
  std::deque<std::size_t> queue;
  for (const std::size_t d : roots) {
    if (stop != nullptr && (*stop)[d] != 0) continue;
    if (r.parent[d] != npos) continue;
    r.parent[d] = d;
    r.root[d] = d;
    queue.push_back(d);
  }
  while (!queue.empty()) {
    const std::size_t d = queue.front();
    queue.pop_front();
    for (const std::size_t callee : out_[d]) {
      if (r.parent[callee] != npos) continue;
      if (stop != nullptr && (*stop)[callee] != 0) continue;
      r.parent[callee] = d;
      r.root[callee] = r.root[d];
      queue.push_back(callee);
    }
  }
  return r;
}

}  // namespace xlf::lint
