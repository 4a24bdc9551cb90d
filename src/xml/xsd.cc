#include "src/xml/xsd.h"

#include <map>

namespace dipbench {
namespace xml {

XsdSchema::ChildSpec Required(const std::string& name) {
  return XsdSchema::ChildSpec{name, 1, 1};
}

XsdSchema::ChildSpec Optional(const std::string& name) {
  return XsdSchema::ChildSpec{name, 0, 1};
}

XsdSchema::ChildSpec Repeated(const std::string& name, size_t min) {
  return XsdSchema::ChildSpec{name, min, SIZE_MAX};
}

XsdSchema::ElementSpec Leaf(DataType type, bool required) {
  XsdSchema::ElementSpec spec;
  spec.text_type = type;
  spec.text_required = required;
  return spec;
}

XsdSchema::ElementSpec Container(std::vector<XsdSchema::ChildSpec> children) {
  XsdSchema::ElementSpec spec;
  spec.children = std::move(children);
  return spec;
}

Status XsdSchema::Validate(const Node& root) const {
  if (root.name() != root_element_) {
    return Status::ValidationError("root element <" + root.name() +
                                   ">, expected <" + root_element_ + ">");
  }
  return ValidateNode(root, "/" + root.name());
}

Status XsdSchema::ValidateNode(const Node& node,
                               const std::string& path) const {
  auto it = elements_.find(node.name());
  if (it == elements_.end()) {
    // Undeclared elements are allowed anywhere (partial schemas), but their
    // subtrees are then unconstrained.
    return Status::OK();
  }
  const ElementSpec& spec = it->second;

  for (const auto& attr : spec.required_attrs) {
    if (node.GetAttr(attr) == nullptr) {
      return Status::ValidationError(path + " missing required attribute @" +
                                     attr);
    }
  }

  if (spec.text_type != DataType::kNull) {
    if (node.text().empty()) {
      if (spec.text_required) {
        return Status::ValidationError(path + " requires text content");
      }
    } else {
      auto parsed = Value::Parse(node.text(), spec.text_type);
      if (!parsed.ok()) {
        return Status::ValidationError(
            path + " text '" + node.text() + "' is not a valid " +
            DataTypeToString(spec.text_type));
      }
    }
  }

  // Count child occurrences.
  std::map<std::string, size_t> counts;
  for (const Node& c : node.children()) counts[c.name()]++;

  for (const auto& child_spec : spec.children) {
    size_t n = counts.count(child_spec.name) ? counts[child_spec.name] : 0;
    if (n < child_spec.min_occurs) {
      return Status::ValidationError(
          path + " needs at least " + std::to_string(child_spec.min_occurs) +
          " <" + child_spec.name + "> (found " + std::to_string(n) + ")");
    }
    if (child_spec.max_occurs != SIZE_MAX && n > child_spec.max_occurs) {
      return Status::ValidationError(
          path + " allows at most " + std::to_string(child_spec.max_occurs) +
          " <" + child_spec.name + "> (found " + std::to_string(n) + ")");
    }
  }

  if (!spec.open_content) {
    for (const auto& [name, n] : counts) {
      bool declared = false;
      for (const auto& cs : spec.children) {
        if (cs.name == name) {
          declared = true;
          break;
        }
      }
      if (!declared) {
        return Status::ValidationError(path + " has undeclared child <" +
                                       name + ">");
      }
    }
  }

  for (const Node& c : node.children()) {
    DIP_RETURN_NOT_OK(ValidateNode(c, path + "/" + c.name()));
  }
  return Status::OK();
}

}  // namespace xml
}  // namespace dipbench
