// Token lexer for xlf_lint: the analysis core the rule families sit
// on. One pass over a translation unit's text produces
//
//  * a token stream — identifiers, numbers, punctuators, string/char
//    literals, comments and preprocessor directives, each carrying its
//    1-based physical line and 0-based column — for the structural
//    rules (hot-path allocation and ack-order reachability), and
//
//  * a stripped per-line code view — comment text and literal
//    contents blanked to spaces, shape-identical to the raw lines —
//    for the line-pattern rules.
//
// The lexer carries state across physical lines:
//
//  * raw string literals — R"( ... )" and R"delim( ... )delim" — are
//    blanked across newlines, custom delimiters and embedded quotes;
//  * backslash line continuations splice the next physical line into
//    the current // comment, string literal or preprocessor
//    directive instead of resetting the state at the newline.
//
// Tokens lexed inside a preprocessor directive (from the introducing
// `#` to the unspliced end of line) are flagged so structural rules
// can skip macro bodies and header names. Conditionals are not
// evaluated: every arm of every `#if` is lexed as live code, so a
// banned token inside `#if 0` is still a finding.
#pragma once

#include <string>
#include <vector>

namespace xlf::lint {

enum class TokKind {
  kIdentifier,  // keywords are not distinguished; check .text
  kNumber,      // pp-number: 0xFF, 1'000, 1.5e-3 ...
  kString,      // ordinary, prefixed, or raw string literal
  kChar,        // character literal
  kPunct,       // one punctuator; "::" and "->" are single tokens
  kComment,     // // or /* */, full text kept for marker scans
};

struct Token {
  TokKind kind = TokKind::kPunct;
  // Identifier/number/punct: the exact spelling. Comment: the full
  // text including delimiters (and newlines, for multi-line blocks).
  // String/char: delimiters only ("" / ''), contents dropped.
  std::string text;
  int line = 0;  // 1-based physical line of the token's first char
  int col = 0;   // 0-based column on that line
  bool preprocessor = false;  // lexed inside a # directive
};

struct LexedFile {
  std::vector<Token> tokens;      // in source order, comments included
  std::vector<std::string> raw;   // physical lines, as read
  std::vector<std::string> code;  // stripped view, same line count and
                                  // per-line length as `raw`
};

LexedFile lex(const std::string& contents);

}  // namespace xlf::lint
