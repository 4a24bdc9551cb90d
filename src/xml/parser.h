#ifndef DIPBENCH_XML_PARSER_H_
#define DIPBENCH_XML_PARSER_H_

#include <string>
#include <string_view>

#include "src/common/result.h"
#include "src/xml/node.h"

namespace dipbench {
namespace xml {

/// Parses an XML document into an element tree.
///
/// Supported: elements, attributes (single/double quoted), nested children,
/// text content, self-closing tags, `<?...?>` declarations, `<!-- -->`
/// comments, the five standard entities and decimal (`&#65;`) or hex
/// (`&#x41;`) character references, decoded to UTF-8. Not supported (not
/// needed for data messages): CDATA, DTDs, namespaces-as-semantics (prefixes
/// are kept verbatim in names), processing of mixed content (text around
/// children is concatenated).
///
/// Malformed input, including a character reference that is empty, not a
/// number, zero, a surrogate or above U+10FFFF, and elements nested more
/// than 128 levels deep, is a ParseError naming the input offset.
Result<Node> ParseXml(std::string_view input);

/// Serializes a tree to text. `indent` < 0 produces a compact single-line
/// document; otherwise children are indented by `indent` spaces per level.
std::string WriteXml(const Node& root, int indent = -1);

}  // namespace xml
}  // namespace dipbench

#endif  // DIPBENCH_XML_PARSER_H_
