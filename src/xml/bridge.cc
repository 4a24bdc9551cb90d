#include "src/xml/bridge.h"

#include <algorithm>

namespace dipbench {
namespace xml {

Node RowSetToXml(const RowSet& rows, const std::string& root_name,
                 const std::string& row_name) {
  Node root(root_name);
  root.ReserveChildren(rows.rows.size());
  for (const auto& row : rows.rows) {
    Node* row_el = root.AddChild(row_name);
    row_el->ReserveChildren(rows.schema.num_columns());
    for (size_t i = 0; i < rows.schema.num_columns(); ++i) {
      const Column& col = rows.schema.column(i);
      if (i < row.size() && !row[i].is_null()) {
        row_el->AddText(col.name, row[i].ToString());
      } else {
        row_el->AddChild(col.name);  // empty element = NULL
      }
    }
  }
  return root;
}

Result<Row> XmlToRow(const Node& element, const Schema& schema) {
  Row row;
  row.reserve(schema.num_columns());
  for (const auto& col : schema.columns()) {
    const Node* leaf = element.FindChild(col.name);
    if (leaf == nullptr || leaf->text().empty()) {
      row.push_back(Value::Null());
      continue;
    }
    DIP_ASSIGN_OR_RETURN(Value v, Value::Parse(leaf->text(), col.type));
    row.push_back(std::move(v));
  }
  return row;
}

Result<RowSet> XmlToRowSet(const Node& root, const Schema& schema,
                           const std::string& row_name) {
  RowSet out;
  out.schema = schema;
  // A message whose document element IS the entity ("<order>...</order>")
  // yields exactly one row.
  if (root.name() == row_name) {
    DIP_ASSIGN_OR_RETURN(Row row, XmlToRow(root, schema));
    out.rows.push_back(std::move(row));
    return out;
  }
  for (const Node& child : root.children()) {
    if (child.name() != row_name) continue;
    DIP_ASSIGN_OR_RETURN(Row row, XmlToRow(child, schema));
    out.rows.push_back(std::move(row));
  }
  return out;
}

Node RowToXml(const Row& row, const Schema& schema,
              const std::string& element_name) {
  Node el(element_name);
  size_t n = std::min(schema.num_columns(), row.size());
  el.ReserveChildren(n);
  for (size_t i = 0; i < n; ++i) {
    if (!row[i].is_null()) {
      el.AddText(schema.column(i).name, row[i].ToString());
    } else {
      el.AddChild(schema.column(i).name);
    }
  }
  return el;
}

}  // namespace xml
}  // namespace dipbench
