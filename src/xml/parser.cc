#include "src/xml/parser.h"

#include <charconv>
#include <cstdint>

#include "src/common/string_util.h"

namespace dipbench {
namespace xml {
namespace {

/// Nesting bound, the JSON reader's: benchmark messages are at most three
/// levels deep; anything past this is a runaway input, and the
/// recursive-descent parser must not blow the stack.
constexpr int kMaxDepth = 128;

/// Recursive-descent XML parser over a string_view cursor. Elements are
/// parsed straight into their parent's child list, and text and attribute
/// values are unescaped straight into the string the node keeps.
class Parser {
 public:
  explicit Parser(std::string_view input) : input_(input) {}

  Result<Node> Parse() {
    SkipProlog();
    DIP_ASSIGN_OR_RETURN(std::string_view name, ParseStartTagName(1));
    Node root{std::string(name)};
    DIP_RETURN_NOT_OK(ParseElementRest(&root, 1));
    SkipWhitespaceAndComments();
    if (pos_ != input_.size()) {
      return Err("trailing content after document element");
    }
    return root;
  }

 private:
  Status Err(const std::string& what) const { return ErrAt(pos_, what); }
  Status ErrAt(size_t offset, const std::string& what) const {
    return Status::ParseError(what + " at offset " + std::to_string(offset));
  }

  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }
  bool Lookahead(std::string_view s) const {
    return input_.substr(pos_, s.size()) == s;
  }

  void SkipWhitespace() {
    while (!AtEnd() && (Peek() == ' ' || Peek() == '\t' || Peek() == '\n' ||
                        Peek() == '\r')) {
      ++pos_;
    }
  }

  void SkipWhitespaceAndComments() {
    for (;;) {
      SkipWhitespace();
      if (Lookahead("<!--")) {
        size_t end = input_.find("-->", pos_ + 4);
        pos_ = end == std::string_view::npos ? input_.size() : end + 3;
        continue;
      }
      break;
    }
  }

  void SkipProlog() {
    for (;;) {
      SkipWhitespaceAndComments();
      if (Lookahead("<?")) {
        size_t end = input_.find("?>", pos_ + 2);
        pos_ = end == std::string_view::npos ? input_.size() : end + 2;
        continue;
      }
      break;
    }
  }

  static bool IsNameChar(char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '.' ||
           c == ':';
  }

  Result<std::string_view> ParseName() {
    size_t start = pos_;
    while (!AtEnd() && IsNameChar(Peek())) ++pos_;
    if (pos_ == start) return Err("expected name");
    return input_.substr(start, pos_ - start);
  }

  /// Reads "<name" for an element at nesting level `depth` (the document
  /// element is level 1).
  Result<std::string_view> ParseStartTagName(int depth) {
    if (AtEnd() || Peek() != '<') return Err("expected '<'");
    if (depth > kMaxDepth) {
      return Err(StrFormat("nesting deeper than %d levels", kMaxDepth));
    }
    ++pos_;
    return ParseName();
  }

  Status ParseQuoted(std::string* out) {
    if (AtEnd() || (Peek() != '"' && Peek() != '\'')) {
      return Err("expected quoted value");
    }
    char quote = Peek();
    ++pos_;
    size_t start = pos_;
    while (!AtEnd() && Peek() != quote) ++pos_;
    if (AtEnd()) return Err("unterminated attribute value");
    ++pos_;  // closing quote
    return AppendUnescaped(start, pos_ - 1, out);
  }

  /// Appends input_[begin, end) to `out` with entities decoded. Errors carry
  /// the offset of the offending '&'.
  Status AppendUnescaped(size_t begin, size_t end, std::string* out) const {
    std::string_view raw = input_.substr(0, end);
    size_t run = begin;
    for (size_t amp = raw.find('&', begin); amp != std::string_view::npos;
         amp = raw.find('&', run)) {
      out->append(raw.substr(run, amp - run));
      size_t semi = raw.find(';', amp);
      if (semi == std::string_view::npos) {
        return ErrAt(amp, "unterminated entity");
      }
      std::string_view entity = raw.substr(amp + 1, semi - amp - 1);
      if (entity == "amp") {
        out->push_back('&');
      } else if (entity == "lt") {
        out->push_back('<');
      } else if (entity == "gt") {
        out->push_back('>');
      } else if (entity == "quot") {
        out->push_back('"');
      } else if (entity == "apos") {
        out->push_back('\'');
      } else if (!entity.empty() && entity[0] == '#') {
        DIP_RETURN_NOT_OK(AppendCharRef(entity, amp, out));
      } else {
        return ErrAt(amp, "unknown entity &" + std::string(entity) + ";");
      }
      run = semi + 1;
    }
    out->append(raw.substr(run));
    return Status::OK();
  }

  /// Decodes a character reference ("#65" or "#x41", without '&' and ';')
  /// to the code point's UTF-8 bytes.
  Status AppendCharRef(std::string_view entity, size_t amp,
                       std::string* out) const {
    std::string_view digits = entity.substr(1);
    int base = 10;
    if (!digits.empty() && digits[0] == 'x') {
      base = 16;
      digits.remove_prefix(1);
    }
    uint32_t code = 0;
    auto [ptr, ec] = std::from_chars(digits.data(),
                                     digits.data() + digits.size(), code, base);
    if (digits.empty() || ec != std::errc() ||
        ptr != digits.data() + digits.size() || code == 0 ||
        (code >= 0xD800 && code <= 0xDFFF) || code > 0x10FFFF) {
      return ErrAt(amp, "invalid character reference &" +
                            std::string(entity) + ";");
    }
    AppendUtf8(code, out);
    return Status::OK();
  }

  /// Counts the elements from the cursor (at a child's '<') to the end tag
  /// of the element being parsed, skipping nested content, comments and
  /// quoted attribute values. It only sizes the child list: on malformed
  /// input it stops early and the parse itself reports the error.
  size_t CountChildren() const {
    size_t count = 0;
    size_t open = 0;  // elements entered below the counted level
    size_t p = pos_;
    while ((p = input_.find('<', p)) != std::string_view::npos) {
      if (input_.compare(p, 4, "<!--") == 0) {
        p = input_.find("-->", p + 4);
        if (p == std::string_view::npos) break;
        p += 3;
        continue;
      }
      if (input_.compare(p, 2, "</") == 0) {
        if (open == 0) break;
        --open;
        p += 2;
        continue;
      }
      if (open == 0) ++count;
      // Step over the start tag; '>' may occur inside a quoted value.
      for (++p; p < input_.size() && input_[p] != '>'; ++p) {
        if (input_[p] == '"' || input_[p] == '\'') {
          p = input_.find(input_[p], p + 1);
          if (p == std::string_view::npos) return count;
        }
      }
      if (p >= input_.size()) break;
      if (input_[p - 1] != '/') ++open;
      ++p;
    }
    return count;
  }

  /// Parses the attributes, content and end tag of `node`, whose start-tag
  /// name was just read, at nesting level `depth`.
  Status ParseElementRest(Node* node, int depth) {
    for (;;) {
      SkipWhitespace();
      if (AtEnd()) return Err("unterminated start tag <" + node->name() + ">");
      if (Peek() == '/' || Peek() == '>') break;
      DIP_ASSIGN_OR_RETURN(std::string_view attr, ParseName());
      SkipWhitespace();
      if (AtEnd() || Peek() != '=') return Err("expected '=' after attribute");
      ++pos_;
      SkipWhitespace();
      std::string value;
      DIP_RETURN_NOT_OK(ParseQuoted(&value));
      node->SetAttr(std::string(attr), std::move(value));
    }
    if (Peek() == '/') {
      ++pos_;
      if (AtEnd() || Peek() != '>') return Err("expected '>' after '/'");
      ++pos_;
      return Status::OK();  // self-closing
    }
    ++pos_;  // '>'
    // Content: text and child elements until the matching end tag.
    std::string text;
    for (;;) {
      if (AtEnd()) return Err("missing </" + node->name() + ">");
      if (Peek() != '<') {
        size_t start = pos_;
        while (!AtEnd() && Peek() != '<') ++pos_;
        DIP_RETURN_NOT_OK(AppendUnescaped(start, pos_, &text));
        continue;
      }
      if (Lookahead("<!--")) {
        size_t end = input_.find("-->", pos_ + 4);
        if (end == std::string_view::npos) return Err("unterminated comment");
        pos_ = end + 3;
        continue;
      }
      if (Lookahead("</")) {
        pos_ += 2;
        DIP_ASSIGN_OR_RETURN(std::string_view end_name, ParseName());
        if (end_name != node->name()) {
          return Err("mismatched end tag </" + std::string(end_name) +
                     ">, expected </" + node->name() + ">");
        }
        SkipWhitespace();
        if (AtEnd() || Peek() != '>') return Err("expected '>' in end tag");
        ++pos_;
        break;
      }
      if (node->child_count() == 0) node->ReserveChildren(CountChildren());
      // The child is complete before its next sibling is appended, so the
      // pointer into the child list stays valid while it is filled.
      DIP_ASSIGN_OR_RETURN(std::string_view child_name,
                           ParseStartTagName(depth + 1));
      DIP_RETURN_NOT_OK(
          ParseElementRest(node->AddChild(std::string(child_name)), depth + 1));
    }
    // Element text is the trimmed concatenation of the text pieces.
    std::string_view trimmed = StrTrim(text);
    size_t lead = static_cast<size_t>(trimmed.data() - text.data());
    text.erase(lead + trimmed.size());
    text.erase(0, lead);
    node->set_text(std::move(text));
    return Status::OK();
  }

  std::string_view input_;
  size_t pos_ = 0;
};

/// Where WriteNode's output goes. SizeSink only measures it, so WriteXml
/// allocates its string once, at the exact size, before StringSink fills
/// it; a message's CLOB then carries no spare capacity into the queue row.
struct SizeSink {
  size_t size = 0;
  void Append(std::string_view s) { size += s.size(); }
  void AppendSpaces(size_t n) { size += n; }
  void AppendEscaped(std::string_view s) { size += XmlEscapedSize(s); }
};

struct StringSink {
  std::string* out;
  void Append(std::string_view s) { out->append(s); }
  void AppendSpaces(size_t n) { out->append(n, ' '); }
  void AppendEscaped(std::string_view s) { AppendXmlEscaped(s, out); }
};

template <typename Sink>
void WriteNode(const Node& node, int indent, int depth, Sink* out) {
  auto pad = [&](int d) {
    if (indent >= 0) out->AppendSpaces(static_cast<size_t>(d) * indent);
  };
  std::string_view newline = indent >= 0 ? "\n" : "";
  pad(depth);
  out->Append("<");
  out->Append(node.name());
  for (const auto& [k, v] : node.attrs()) {
    out->Append(" ");
    out->Append(k);
    out->Append("=\"");
    out->AppendEscaped(v);
    out->Append("\"");
  }
  if (node.children().empty() && node.text().empty()) {
    out->Append("/>");
    out->Append(newline);
    return;
  }
  out->Append(">");
  out->AppendEscaped(node.text());
  if (!node.children().empty()) {
    out->Append(newline);
    for (const Node& c : node.children()) {
      WriteNode(c, indent, depth + 1, out);
    }
    pad(depth);
  }
  out->Append("</");
  out->Append(node.name());
  out->Append(">");
  out->Append(newline);
}

}  // namespace

Result<Node> ParseXml(std::string_view input) {
  Parser parser(input);
  return parser.Parse();
}

std::string WriteXml(const Node& root, int indent) {
  SizeSink size;
  WriteNode(root, indent, 0, &size);
  std::string out;
  out.reserve(size.size);
  StringSink sink{&out};
  WriteNode(root, indent, 0, &sink);
  return out;
}

}  // namespace xml
}  // namespace dipbench
