#include "src/xml/stx.h"

#include <string_view>

namespace dipbench {
namespace xml {
namespace {

const std::string& OutputName(const Node& node, const StxRule* rule) {
  return rule != nullptr && !rule->rename_to.empty() ? rule->rename_to
                                                     : node.name();
}

}  // namespace

const StxRule* StxTransformer::FindRule(const Node& node,
                                        const Node* parent) const {
  for (const auto& rule : rules_) {
    std::string_view match = rule.match;
    size_t slash = match.find('/');
    if (slash == std::string_view::npos) {
      if (match == node.name()) return &rule;
    } else if (match.substr(slash + 1) == node.name() && parent != nullptr &&
               match.substr(0, slash) == parent->name()) {
      return &rule;
    }
  }
  return nullptr;
}

void StxTransformer::TransformInto(const Node& node, const StxRule* rule,
                                   Node* out, size_t* visited) const {
  ++*visited;
  for (const auto& [k, v] : node.attrs()) out->SetAttr(k, v);
  out->set_text(node.text());
  // Dropped children only shorten the list, so this bounds it.
  out->ReserveChildren(node.child_count() +
                       (rule != nullptr ? rule->add_fields.size() : 0));

  for (const Node& child : node.children()) {
    if (child.children().empty() && rule != nullptr) {
      // Apply field rename + value map at the leaf level.
      const std::string* field = &child.name();
      auto rn = rule->field_renames.find(*field);
      if (rn != rule->field_renames.end()) field = &rn->second;
      const std::string* text = &child.text();
      auto vm = rule->value_maps.find(*field);
      if (vm != rule->value_maps.end()) {
        auto tv = vm->second.find(*text);
        if (tv != vm->second.end()) text = &tv->second;
      }
      ++*visited;
      Node* mapped = out->AddText(*field, *text);
      for (const auto& [k, v] : child.attrs()) mapped->SetAttr(k, v);
      continue;
    }
    const StxRule* child_rule = FindRule(child, &node);
    if (child_rule != nullptr && child_rule->drop) {
      // Count the dropped subtree as visited (the stream still flows by).
      *visited += child.SubtreeSize();
      continue;
    }
    TransformInto(child, child_rule,
                  out->AddChild(OutputName(child, child_rule)), visited);
  }
  if (rule != nullptr) {
    for (const auto& [name, text] : rule->add_fields) {
      out->AddText(name, text);
    }
  }
}

Result<Node> StxTransformer::Transform(const Node& input,
                                       size_t* nodes_visited) const {
  const StxRule* rule = FindRule(input, nullptr);
  if (rule != nullptr && rule->drop) {
    if (nodes_visited != nullptr) *nodes_visited = input.SubtreeSize();
    return Status::ValidationError("document element was dropped by rule");
  }
  size_t visited = 0;
  Node out(OutputName(input, rule));
  TransformInto(input, rule, &out, &visited);
  if (nodes_visited != nullptr) *nodes_visited = visited;
  return out;
}

}  // namespace xml
}  // namespace dipbench
