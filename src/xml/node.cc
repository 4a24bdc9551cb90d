#include "src/xml/node.h"

namespace dipbench {
namespace xml {

void Node::SetAttr(const std::string& key, std::string value) {
  for (auto& [k, v] : attrs_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  attrs_.emplace_back(key, std::move(value));
}

const std::string* Node::GetAttr(const std::string& key) const {
  for (const auto& [k, v] : attrs_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Node* Node::AddChild(std::string name) {
  return &children_.emplace_back(std::move(name));
}

Node* Node::AddChild(Node child) {
  return &children_.emplace_back(std::move(child));
}

Node* Node::AddText(std::string name, std::string text) {
  Node* child = AddChild(std::move(name));
  child->text_ = std::move(text);
  return child;
}

const Node* Node::FindChild(const std::string& name) const {
  for (const Node& c : children_) {
    if (c.name_ == name) return &c;
  }
  return nullptr;
}

Node* Node::FindChild(const std::string& name) {
  for (Node& c : children_) {
    if (c.name_ == name) return &c;
  }
  return nullptr;
}

std::vector<const Node*> Node::FindChildren(const std::string& name) const {
  std::vector<const Node*> out;
  for (const Node& c : children_) {
    if (c.name_ == name) out.push_back(&c);
  }
  return out;
}

Result<std::string> Node::ChildText(const std::string& name) const {
  const Node* child = FindChild(name);
  if (child == nullptr) {
    return Status::NotFound("no child element <" + name + "> under <" +
                            name_ + ">");
  }
  return child->text();
}

std::string Node::ChildTextOr(const std::string& name,
                              const std::string& fallback) const {
  const Node* child = FindChild(name);
  return child == nullptr ? fallback : child->text();
}

size_t Node::SubtreeSize() const {
  size_t total = 1;
  for (const Node& c : children_) total += c.SubtreeSize();
  return total;
}

Node Node::Clone() const {
  Node copy(name_);
  CloneContentInto(&copy);
  return copy;
}

void Node::CloneContentInto(Node* copy) const {
  copy->text_ = text_;
  copy->attrs_ = attrs_;
  copy->children_.reserve(children_.size());
  for (const Node& c : children_) {
    c.CloneContentInto(&copy->children_.emplace_back(c.name_));
  }
}

bool Node::Equals(const Node& other) const {
  if (name_ != other.name_ || text_ != other.text_ ||
      attrs_ != other.attrs_ || children_.size() != other.children_.size()) {
    return false;
  }
  for (size_t i = 0; i < children_.size(); ++i) {
    if (!children_[i].Equals(other.children_[i])) return false;
  }
  return true;
}

}  // namespace xml
}  // namespace dipbench
