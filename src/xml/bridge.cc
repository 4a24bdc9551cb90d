#include "src/xml/bridge.h"

#include <algorithm>

namespace dipbench {
namespace xml {

Node RowSetToXml(const RowSet& rows, const std::string& root_name,
                 const std::string& row_name) {
  Node root(root_name);
  root.ReserveChildren(rows.rows.size());
  for (RowView row : rows.rows) {
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

namespace {

/// Parses the leaves of `element` named like the columns of `schema` into
/// `row`, one cell per column; a missing or empty leaf is NULL.
Status ParseRow(const Node& element, const Schema& schema,
                MutableRowView row) {
  for (size_t i = 0; i < schema.num_columns(); ++i) {
    const Column& col = schema.column(i);
    const Node* leaf = element.FindChild(col.name);
    if (leaf == nullptr || leaf->text().empty()) continue;
    DIP_ASSIGN_OR_RETURN(row[i], Value::Parse(leaf->text(), col.type));
  }
  return Status::OK();
}

}  // namespace

Result<Row> XmlToRow(const Node& element, const Schema& schema) {
  Row row(schema.num_columns());
  DIP_RETURN_NOT_OK(ParseRow(element, schema, row));
  return row;
}

Result<RowSet> XmlToRowSet(const Node& root, const Schema& schema,
                           const std::string& row_name) {
  RowSet out;
  out.schema = schema;
  out.rows.Reset(schema.num_columns());
  // A message whose document element IS the entity ("<order>...</order>")
  // yields exactly one row.
  if (root.name() == row_name) {
    DIP_RETURN_NOT_OK(ParseRow(root, schema, out.rows.AppendRow()));
    return out;
  }
  for (const Node& child : root.children()) {
    if (child.name() != row_name) continue;
    DIP_RETURN_NOT_OK(ParseRow(child, schema, out.rows.AppendRow()));
  }
  return out;
}

Node RowToXml(RowView row, const Schema& schema,
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
