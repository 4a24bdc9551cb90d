#ifndef DIPBENCH_XML_NODE_H_
#define DIPBENCH_XML_NODE_H_

#include <string>
#include <utility>
#include <vector>

#include "src/common/result.h"

namespace dipbench {
namespace xml {

/// A simple XML element tree (DOM-lite): every node is an element with a
/// name, attributes, text content and child elements. Mixed content is
/// simplified: text is a property of the element, which is sufficient for
/// the data-centric messages this benchmark exchanges.
///
/// Nodes are move-only values. An element stores its children by value in
/// one list, so building a document costs one allocation per element list
/// (sized up front where the producer knows the count) and freeing it one
/// deallocation per list. The price is pointer stability: a `Node*` into a
/// child list — from AddChild, AddText, FindChild or children() — stays
/// valid only until the next AddChild/AddText on the same parent, which may
/// move the list. Fill a child before appending its next sibling. Deep
/// copies are explicit (Clone).
class Node {
 public:
  explicit Node(std::string name) : name_(std::move(name)) {}

  Node(Node&&) noexcept = default;
  Node& operator=(Node&&) noexcept = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  const std::string& text() const { return text_; }
  void set_text(std::string text) { text_ = std::move(text); }

  /// Attributes keep insertion order (deterministic serialization).
  void SetAttr(const std::string& key, std::string value);
  /// Returns the attribute value or nullptr.
  const std::string* GetAttr(const std::string& key) const;
  const std::vector<std::pair<std::string, std::string>>& attrs() const {
    return attrs_;
  }

  /// Appends a child element and returns a pointer to it (valid until the
  /// next AddChild/AddText on this node).
  Node* AddChild(std::string name);
  Node* AddChild(Node child);
  /// Convenience: appends <name>text</name>.
  Node* AddText(std::string name, std::string text);
  /// Sizes the child list for `n` children, so appending up to `n` takes
  /// no further allocation and moves no sibling.
  void ReserveChildren(size_t n) { children_.reserve(n); }

  const std::vector<Node>& children() const { return children_; }
  size_t child_count() const { return children_.size(); }

  /// First child element with the given name, or nullptr.
  const Node* FindChild(const std::string& name) const;
  Node* FindChild(const std::string& name);
  /// All child elements with the given name.
  std::vector<const Node*> FindChildren(const std::string& name) const;

  /// Text of the first child with this name; error if missing.
  Result<std::string> ChildText(const std::string& name) const;
  /// Like ChildText but returns fallback when missing.
  std::string ChildTextOr(const std::string& name,
                          const std::string& fallback) const;

  /// Total number of elements in this subtree (including this node). This
  /// drives XML processing-cost accounting.
  size_t SubtreeSize() const;

  /// Deep copy.
  Node Clone() const;

  /// Structural equality (name, attrs, text, children — order-sensitive).
  bool Equals(const Node& other) const;

 private:
  void CloneContentInto(Node* copy) const;

  std::string name_;
  std::string text_;
  std::vector<std::pair<std::string, std::string>> attrs_;
  std::vector<Node> children_;
};

}  // namespace xml
}  // namespace dipbench

#endif  // DIPBENCH_XML_NODE_H_
