#ifndef DIPBENCH_XML_STX_H_
#define DIPBENCH_XML_STX_H_

#include <map>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/xml/node.h"

namespace dipbench {
namespace xml {

/// A single STX-style template rule. A rule matches elements by name, or by
/// "Parent/Name" when parent qualification is needed, and rewrites the
/// matched element:
///   - rename the element itself,
///   - rename leaf children (structural heterogeneity),
///   - map leaf-child values through a dictionary (semantic heterogeneity,
///     e.g. differing priority flags / order states per paper Sec. III-B),
///   - add constant children,
///   - or drop the element entirely.
struct StxRule {
  std::string match;           ///< "Name" or "Parent/Name".
  std::string rename_to;       ///< Empty = keep the element name.
  bool drop = false;           ///< Discard the element and its subtree.
  /// Leaf-child renames: source child name -> output child name.
  std::map<std::string, std::string> field_renames;
  /// Per *output* field name: source text -> output text.
  std::map<std::string, std::map<std::string, std::string>> value_maps;
  /// Constant children appended after mapped content: (name, text).
  std::vector<std::pair<std::string, std::string>> add_fields;
};

/// A streaming-transformation engine in the spirit of STX [Becker 2003]:
/// one deterministic top-down pass, template rules applied per element,
/// no random access to the input document. The transformer reports how
/// many nodes it visited so callers can charge processing cost.
class StxTransformer {
 public:
  StxTransformer() = default;

  /// Appends a rule. Earlier rules win when several match.
  StxTransformer& AddRule(StxRule rule) {
    rules_.push_back(std::move(rule));
    return *this;
  }

  size_t rule_count() const { return rules_.size(); }

  /// Transforms a document. `nodes_visited`, when non-null, receives the
  /// number of input elements visited (the unit of XML processing cost).
  Result<Node> Transform(const Node& input,
                         size_t* nodes_visited = nullptr) const;

 private:
  const StxRule* FindRule(const Node& node, const Node* parent) const;
  /// Writes the transformation of `node` (matched by `rule`, or nullptr)
  /// into `out`, an element already named for the output.
  void TransformInto(const Node& node, const StxRule* rule, Node* out,
                     size_t* visited) const;

  std::vector<StxRule> rules_;
};

}  // namespace xml
}  // namespace dipbench

#endif  // DIPBENCH_XML_STX_H_
