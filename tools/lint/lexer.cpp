#include "tools/lint/lexer.hpp"

#include <cctype>
#include <sstream>

namespace xlf::lint {
namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}
bool digit(char c) { return std::isdigit(static_cast<unsigned char>(c)) != 0; }

// String-literal prefixes: R"..." raw forms and their encoded
// variants, plus the encoded ordinary-literal prefixes.
bool raw_string_prefix(const std::string& id) {
  return id == "R" || id == "u8R" || id == "uR" || id == "UR" || id == "LR";
}
bool string_prefix(const std::string& id) {
  return id == "u8" || id == "u" || id == "U" || id == "L";
}

class Lexer {
 public:
  explicit Lexer(const std::string& contents) {
    // getline shape: a trailing newline does not create an empty final
    // line.
    std::istringstream stream(contents);
    std::string line;
    while (std::getline(stream, line)) {
      out_.code.emplace_back(line.size(), ' ');
      out_.raw.push_back(std::move(line));
    }
  }

  LexedFile run() {
    while (true) {
      skip_splices();
      if (at_end()) break;
      const char c = ch();
      if (c == '\n') {
        // An unspliced newline: the directive (if any) ends here.
        pp_ = false;
        fresh_line_ = true;
        bump();
        continue;
      }
      if (c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f') {
        bump();
        continue;
      }
      if (c == '/' && peek(1) == '/') {
        lex_line_comment();
        continue;
      }
      if (c == '/' && peek(1) == '*') {
        lex_block_comment();
        continue;
      }
      if (c == '#' && fresh_line_) {
        pp_ = true;
        emit_punct_char();
        continue;
      }
      if (ident_start(c)) {
        lex_identifier_or_literal_prefix();
        continue;
      }
      if (digit(c) || (c == '.' && digit(peek(1)))) {
        lex_number();
        continue;
      }
      if (c == '"') {
        lex_string('"', TokKind::kString);
        continue;
      }
      if (c == '\'') {
        lex_string('\'', TokKind::kChar);
        continue;
      }
      lex_punct();
    }
    return std::move(out_);
  }

 private:
  // ------------------------------------------------------ char cursor
  bool at_end() const { return line_ >= out_.raw.size(); }
  // Current char; '\n' at the end of each physical line.
  char ch() const {
    const std::string& l = out_.raw[line_];
    return col_ < l.size() ? l[col_] : '\n';
  }
  // Lookahead on the current physical line only ('\n' past its end).
  char peek(std::size_t ahead) const {
    const std::string& l = out_.raw[line_];
    return col_ + ahead < l.size() ? l[col_ + ahead] : '\n';
  }
  void bump() {
    if (at_end()) return;
    if (col_ < out_.raw[line_].size()) {
      ++col_;
      return;
    }
    ++line_;
    col_ = 0;
  }
  // A backslash immediately before the end of a physical line splices
  // the next line on (transparently — tokens, comments, strings and
  // directives all continue). Not applied inside raw strings.
  void skip_splices() {
    while (!at_end() && ch() == '\\' && peek(1) == '\n' &&
           col_ + 1 >= out_.raw[line_].size()) {
      ++line_;
      col_ = 0;
    }
  }

  void keep(char c) {  // copy a code char into the stripped view
    out_.code[line_][col_] = c;
    bump();
  }

  Token& start(TokKind kind) {
    out_.tokens.push_back(Token{kind, std::string(), int(line_) + 1,
                                int(col_), pp_});
    if (kind != TokKind::kComment) fresh_line_ = false;
    return out_.tokens.back();
  }

  // ------------------------------------------------------- token lexers
  void lex_line_comment() {
    Token& tok = start(TokKind::kComment);
    std::string text;
    while (!at_end()) {
      if (ch() == '\n') {
        // Spliced? Then the comment swallows the next physical line;
        // the check mirrors skip_splices (backslash was last char).
        if (!text.empty() && text.back() == '\\') {
          text.push_back('\n');
          bump();
          continue;
        }
        break;  // unspliced newline stays for the main loop
      }
      text.push_back(ch());
      bump();
    }
    tok.text = std::move(text);
  }

  void lex_block_comment() {
    Token& tok = start(TokKind::kComment);
    std::string text;
    text += ch();  // '/'
    bump();
    text += ch();  // '*'
    bump();
    while (!at_end()) {
      if (ch() == '*' && peek(1) == '/') {
        text += "*/";
        bump();
        bump();
        break;
      }
      text.push_back(ch());
      bump();
    }
    tok.text = std::move(text);
  }

  void lex_identifier_or_literal_prefix() {
    const std::size_t start_line = line_;
    const std::size_t start_col = col_;
    std::string text;
    while (!at_end()) {
      skip_splices();
      if (!ident_char(ch())) break;
      text.push_back(ch());
      keep(ch());
    }
    if (raw_string_prefix(text) && ch() == '"') {
      unkeep(start_line, start_col, text.size());
      lex_raw_string(start_line, start_col);
      return;
    }
    if (string_prefix(text) && (ch() == '"' || ch() == '\'')) {
      unkeep(start_line, start_col, text.size());
      lex_string(ch(), ch() == '"' ? TokKind::kString : TokKind::kChar);
      return;
    }
    Token& tok = start_at(TokKind::kIdentifier, start_line, start_col);
    tok.text = std::move(text);
  }

  void lex_number() {
    Token& tok = start(TokKind::kNumber);
    std::string text;
    char prev = '\0';
    while (!at_end()) {
      skip_splices();
      const char c = ch();
      const bool sep = c == '\'' && ident_char(peek(1));
      const bool exp_sign =
          (c == '+' || c == '-') &&
          (prev == 'e' || prev == 'E' || prev == 'p' || prev == 'P');
      if (!(ident_char(c) || c == '.' || sep || exp_sign)) break;
      text.push_back(c);
      prev = c;
      keep(c);
    }
    tok.text = std::move(text);
  }

  // Ordinary string or char literal. Contents (and delimiters) are
  // blanked; an escaped char is consumed blind; a backslash-newline
  // splices; an unspliced newline terminates the literal (it would be
  // ill-formed C++ — never let one stray quote blank the whole file).
  void lex_string(char delim, TokKind kind) {
    Token& tok = start(kind);
    tok.text = std::string(2, delim);
    bump();  // opening delimiter, blanked
    while (!at_end()) {
      const char c = ch();
      if (c == '\\') {
        if (peek(1) == '\n') {  // splice: literal continues next line
          skip_splices();
          if (ch() == '\\' && peek(1) != '\n') {
            bump();
            bump();
          }
          continue;
        }
        bump();  // the backslash
        bump();  // the escaped char
        continue;
      }
      if (c == delim || c == '\n') break;
      bump();
    }
    if (!at_end() && ch() == delim) bump();  // closing delimiter
  }

  // R"delim( ... )delim" — no escapes, no splices; the terminator is
  // the only way out. Contents blanked across any number of lines.
  void lex_raw_string(std::size_t start_line, std::size_t start_col) {
    Token& tok = start_at(TokKind::kString, start_line, start_col);
    tok.text = "\"\"";
    bump();  // opening quote
    std::string delim;
    while (!at_end() && ch() != '(' && ch() != '\n' && delim.size() < 20) {
      delim.push_back(ch());
      bump();
    }
    if (at_end() || ch() != '(') return;  // ill-formed; stop at the '('
    bump();
    const std::string terminator = ")" + delim + "\"";
    while (!at_end()) {
      const std::string& l = out_.raw[line_];
      const std::size_t hit = l.find(terminator, col_);
      if (hit != std::string::npos) {
        col_ = hit + terminator.size();
        return;
      }
      ++line_;
      col_ = 0;
    }
  }

  void lex_punct() {
    const char c = ch();
    if ((c == ':' && peek(1) == ':') || (c == '-' && peek(1) == '>')) {
      Token& tok = start(TokKind::kPunct);
      tok.text = {c, peek(1)};
      keep(c);
      keep(ch());
      return;
    }
    emit_punct_char();
  }

  void emit_punct_char() {
    Token& tok = start(TokKind::kPunct);
    tok.text = std::string(1, ch());
    keep(ch());
  }

  // A token started mid-scan (identifier that turned out to be a
  // string prefix) records its original position.
  Token& start_at(TokKind kind, std::size_t line, std::size_t col) {
    Token& tok = start(kind);
    tok.line = int(line) + 1;
    tok.col = int(col);
    return tok;
  }

  // Blank the already-kept chars of a literal prefix (R, u8, ...).
  // Prefixes never straddle a splice in practice; blank on their line.
  void unkeep(std::size_t line, std::size_t col, std::size_t count) {
    for (std::size_t i = 0; i < count && col + i < out_.code[line].size();
         ++i) {
      out_.code[line][col + i] = ' ';
    }
  }

  LexedFile out_;
  std::size_t line_ = 0;
  std::size_t col_ = 0;
  bool pp_ = false;
  bool fresh_line_ = true;
};

}  // namespace

LexedFile lex(const std::string& contents) { return Lexer(contents).run(); }

}  // namespace xlf::lint
