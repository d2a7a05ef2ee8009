#include "src/util/json.hpp"

#include <cctype>
#include <cstdlib>
#include <stdexcept>

namespace xlf {

const char* JsonValue::to_string(Type type) {
  switch (type) {
    case Type::kNull:
      return "null";
    case Type::kBool:
      return "bool";
    case Type::kNumber:
      return "number";
    case Type::kString:
      return "string";
    case Type::kArray:
      return "array";
    case Type::kObject:
      return "object";
  }
  return "?";
}

// xlf: cold — config-parse error path; throws, never returns to the
// event loop.
void JsonValue::require(Type type) const {
  if (type_ != type) {
    throw std::invalid_argument(std::string("JSON value is ") +
                                to_string(type_) + ", expected " +
                                to_string(type));
  }
}

bool JsonValue::as_bool() const {
  require(Type::kBool);
  return bool_;
}

double JsonValue::as_number() const {
  require(Type::kNumber);
  return number_;
}

const std::string& JsonValue::as_string() const {
  require(Type::kString);
  return string_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  require(Type::kArray);
  return items_;
}

const std::map<std::string, JsonValue>& JsonValue::members() const {
  require(Type::kObject);
  return members_;
}

bool JsonValue::has(const std::string& key) const {
  require(Type::kObject);
  return members_.count(key) != 0;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  require(Type::kObject);
  const auto it = members_.find(key);
  if (it == members_.end()) {
    throw std::invalid_argument("missing JSON key '" + key + "'");
  }
  return it->second;
}

std::vector<std::string> JsonValue::keys() const {
  require(Type::kObject);
  std::vector<std::string> out;
  out.reserve(members_.size());
  for (const auto& [key, value] : members_) out.push_back(key);
  return out;
}

// Recursive-descent parser over the raw text. Tracks position for
// error messages; all fail() throws carry line:column.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return value;
  }

 private:
  // xlf: cold — parse-error path, [[noreturn]].
  [[noreturn]] void fail(const std::string& what) const {
    std::size_t line = 1, column = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
    throw std::invalid_argument("JSON error at " + std::to_string(line) + ":" +
                                std::to_string(column) + ": " + what);
  }

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  char next() {
    if (eof()) fail("unexpected end of input");
    return text_[pos_++];
  }

  void skip_whitespace() {
    while (!eof() && (peek() == ' ' || peek() == '\t' || peek() == '\n' ||
                      peek() == '\r')) {
      ++pos_;
    }
  }

  void expect(char c) {
    if (eof() || peek() != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  void expect_literal(const char* literal) {
    for (const char* p = literal; *p != '\0'; ++p) {
      if (eof() || peek() != *p) {
        fail(std::string("expected literal '") + literal + "'");
      }
      ++pos_;
    }
  }

  JsonValue parse_value() {
    skip_whitespace();
    if (eof()) fail("unexpected end of input");
    switch (peek()) {
      case '{':
      case '[': {
        if (++depth_ > JsonValue::kMaxDepth) {
          fail("nesting depth " + std::to_string(depth_) +
               " exceeds the limit of " +
               std::to_string(JsonValue::kMaxDepth));
        }
        JsonValue v = peek() == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"':
        return parse_string_value();
      case 't': {
        expect_literal("true");
        JsonValue v;
        v.type_ = JsonValue::Type::kBool;
        v.bool_ = true;
        return v;
      }
      case 'f': {
        expect_literal("false");
        JsonValue v;
        v.type_ = JsonValue::Type::kBool;
        v.bool_ = false;
        return v;
      }
      case 'n': {
        expect_literal("null");
        JsonValue v;
        v.type_ = JsonValue::Type::kNull;
        return v;
      }
      default:
        return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.type_ = JsonValue::Type::kObject;
    skip_whitespace();
    if (!eof() && peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_whitespace();
      const std::string key = parse_string();
      skip_whitespace();
      expect(':');
      if (!v.members_.emplace(key, parse_value()).second) {
        fail("duplicate key '" + key + "'");
      }
      skip_whitespace();
      if (eof()) fail("unterminated object");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.type_ = JsonValue::Type::kArray;
    skip_whitespace();
    if (!eof() && peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.items_.push_back(parse_value());
      skip_whitespace();
      if (eof()) fail("unterminated array");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  JsonValue parse_string_value() {
    JsonValue v;
    v.type_ = JsonValue::Type::kString;
    v.string_ = parse_string();
    return v;
  }

  std::string parse_string() {
    if (eof() || peek() != '"') fail("expected string");
    ++pos_;
    std::string out;
    while (true) {
      const char c = next();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      const char escape = next();
      switch (escape) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = next();
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("invalid \\u escape");
            }
          }
          if (code >= 0xD800 && code <= 0xDFFF) {
            fail("surrogate pairs are not supported");
          }
          // UTF-8 encode the BMP code point.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail("invalid escape sequence");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) {
      fail("invalid value");
    }
    while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (!eof() && peek() == '.') {
      ++pos_;
      if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) {
        fail("digit expected after decimal point");
      }
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) {
        fail("digit expected in exponent");
      }
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    JsonValue v;
    v.type_ = JsonValue::Type::kNumber;
    v.number_ = std::strtod(text_.c_str() + start, nullptr);
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // open arrays/objects around pos_
};

JsonValue JsonValue::parse(const std::string& text) {
  return JsonParser(text).parse_document();
}

}  // namespace xlf
