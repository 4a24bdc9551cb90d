#include "src/common/json.h"

#include <cstdint>
#include <cstdlib>

#include "src/common/string_util.h"

namespace dipbench {
namespace json {

const Value* Value::Find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

const char* Value::TypeName() const {
  switch (kind) {
    case Kind::kNull:
      return "null";
    case Kind::kBool:
      return "bool";
    case Kind::kNumber:
      return "number";
    case Kind::kString:
      return "string";
    case Kind::kArray:
      return "array";
    case Kind::kObject:
      return "object";
  }
  return "?";
}

std::string Value::Where() const {
  return StrFormat("line %d, column %d", line, column);
}

namespace {

/// Nesting bound: manifests are a few levels deep; anything past this is a
/// runaway input, and the recursive-descent parser must not blow the stack.
constexpr int kMaxDepth = 128;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Value> Run() {
    Value root;
    DIP_RETURN_NOT_OK(ParseValue(&root, 0));
    SkipWhitespace();
    if (pos_ < text_.size()) {
      return Error("trailing content after JSON document");
    }
    return root;
  }

 private:
  Status Error(const std::string& message) const {
    return Status::InvalidArgument(
        StrFormat("line %d, column %d: %s", line_, column_, message.c_str()));
  }

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  char Advance() {
    char c = text_[pos_++];
    if (c == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    return c;
  }

  void SkipWhitespace() {
    while (!AtEnd()) {
      char c = Peek();
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') return;
      Advance();
    }
  }

  /// Consumes `literal` ("true"/"false"/"null") or errors.
  Status Expect(const char* literal) {
    for (const char* p = literal; *p != '\0'; ++p) {
      if (AtEnd() || Peek() != *p) {
        return Error(std::string("invalid literal (expected '") + literal +
                     "')");
      }
      Advance();
    }
    return Status::OK();
  }

  Status ParseValue(Value* out, int depth) {
    if (depth > kMaxDepth) {
      return Error(StrFormat("nesting deeper than %d levels", kMaxDepth));
    }
    SkipWhitespace();
    if (AtEnd()) return Error("unexpected end of input (expected a value)");
    out->line = line_;
    out->column = column_;
    char c = Peek();
    switch (c) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out->kind = Value::Kind::kString;
        return ParseString(&out->string_value);
      case 't':
        out->kind = Value::Kind::kBool;
        out->bool_value = true;
        return Expect("true");
      case 'f':
        out->kind = Value::Kind::kBool;
        out->bool_value = false;
        return Expect("false");
      case 'n':
        out->kind = Value::Kind::kNull;
        return Expect("null");
      default:
        if (c == '-' || (c >= '0' && c <= '9')) {
          out->kind = Value::Kind::kNumber;
          return ParseNumber(&out->number_value);
        }
        return Error(StrFormat("unexpected character '%c'", c));
    }
  }

  Status ParseObject(Value* out, int depth) {
    out->kind = Value::Kind::kObject;
    Advance();  // '{'
    SkipWhitespace();
    if (!AtEnd() && Peek() == '}') {
      Advance();
      return Status::OK();
    }
    for (;;) {
      SkipWhitespace();
      if (AtEnd() || Peek() != '"') {
        return Error("expected '\"' to start an object key");
      }
      int key_line = line_, key_column = column_;
      std::string key;
      DIP_RETURN_NOT_OK(ParseString(&key));
      for (const auto& [existing, unused] : out->members) {
        if (existing == key) {
          return Status::InvalidArgument(
              StrFormat("line %d, column %d: duplicate key '%s'", key_line,
                        key_column, key.c_str()));
        }
      }
      SkipWhitespace();
      if (AtEnd() || Peek() != ':') {
        return Error("expected ':' after object key");
      }
      Advance();
      Value value;
      DIP_RETURN_NOT_OK(ParseValue(&value, depth + 1));
      out->members.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (AtEnd()) return Error("unterminated object (expected ',' or '}')");
      char c = Advance();
      if (c == '}') return Status::OK();
      if (c != ',') return Error("expected ',' or '}' in object");
    }
  }

  Status ParseArray(Value* out, int depth) {
    out->kind = Value::Kind::kArray;
    Advance();  // '['
    SkipWhitespace();
    if (!AtEnd() && Peek() == ']') {
      Advance();
      return Status::OK();
    }
    for (;;) {
      Value element;
      DIP_RETURN_NOT_OK(ParseValue(&element, depth + 1));
      out->items.push_back(std::move(element));
      SkipWhitespace();
      if (AtEnd()) return Error("unterminated array (expected ',' or ']')");
      char c = Advance();
      if (c == ']') return Status::OK();
      if (c != ',') return Error("expected ',' or ']' in array");
    }
  }

  Status ParseHex4(uint32_t* out) {
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      if (AtEnd()) return Error("unterminated \\u escape");
      char c = Advance();
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Error("invalid hex digit in \\u escape");
      }
    }
    *out = value;
    return Status::OK();
  }

  Status ParseString(std::string* out) {
    Advance();  // '"'
    out->clear();
    for (;;) {
      if (AtEnd()) return Error("unterminated string");
      char c = Advance();
      if (c == '"') return Status::OK();
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("raw control character in string (use \\u escape)");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (AtEnd()) return Error("unterminated escape sequence");
      char esc = Advance();
      switch (esc) {
        case '"':  out->push_back('"');  break;
        case '\\': out->push_back('\\'); break;
        case '/':  out->push_back('/');  break;
        case 'b':  out->push_back('\b'); break;
        case 'f':  out->push_back('\f'); break;
        case 'n':  out->push_back('\n'); break;
        case 'r':  out->push_back('\r'); break;
        case 't':  out->push_back('\t'); break;
        case 'u': {
          uint32_t cp = 0;
          DIP_RETURN_NOT_OK(ParseHex4(&cp));
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: a low surrogate escape must follow.
            if (AtEnd() || Peek() != '\\') {
              return Error("unpaired UTF-16 high surrogate");
            }
            Advance();
            if (AtEnd() || Peek() != 'u') {
              return Error("unpaired UTF-16 high surrogate");
            }
            Advance();
            uint32_t low = 0;
            DIP_RETURN_NOT_OK(ParseHex4(&low));
            if (low < 0xDC00 || low > 0xDFFF) {
              return Error("invalid UTF-16 low surrogate");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return Error("unpaired UTF-16 low surrogate");
          }
          AppendUtf8(cp, out);
          break;
        }
        default:
          return Error(StrFormat("invalid escape sequence '\\%c'", esc));
      }
    }
  }

  Status ParseNumber(double* out) {
    std::string token;
    if (!AtEnd() && Peek() == '-') token.push_back(Advance());
    // Integer part: "0" or non-zero digit followed by digits (RFC 8259 —
    // leading zeros are not a number prefix).
    if (AtEnd() || Peek() < '0' || Peek() > '9') {
      return Error("invalid number (expected a digit)");
    }
    if (Peek() == '0') {
      token.push_back(Advance());
      if (!AtEnd() && Peek() >= '0' && Peek() <= '9') {
        return Error("invalid number (leading zero)");
      }
    } else {
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') {
        token.push_back(Advance());
      }
    }
    if (!AtEnd() && Peek() == '.') {
      token.push_back(Advance());
      if (AtEnd() || Peek() < '0' || Peek() > '9') {
        return Error("invalid number (expected a digit after '.')");
      }
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') {
        token.push_back(Advance());
      }
    }
    if (!AtEnd() && (Peek() == 'e' || Peek() == 'E')) {
      token.push_back(Advance());
      if (!AtEnd() && (Peek() == '+' || Peek() == '-')) {
        token.push_back(Advance());
      }
      if (AtEnd() || Peek() < '0' || Peek() > '9') {
        return Error("invalid number (expected an exponent digit)");
      }
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') {
        token.push_back(Advance());
      }
    }
    // The token is grammar-validated above, so strtod cannot fail on it.
    *out = std::strtod(token.c_str(), nullptr);
    return Status::OK();
  }

  std::string_view text_;
  size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
};

}  // namespace

Result<Value> Parse(std::string_view text) { return Parser(text).Run(); }

}  // namespace json
}  // namespace dipbench
