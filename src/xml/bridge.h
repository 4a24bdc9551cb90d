#ifndef DIPBENCH_XML_BRIDGE_H_
#define DIPBENCH_XML_BRIDGE_H_

#include <string>

#include "src/common/result.h"
#include "src/ra/plan.h"
#include "src/xml/node.h"

namespace dipbench {
namespace xml {

/// Serializes a relational result set to the generic "default result set
/// XSD" the region-Asia Web services use (paper Sec. III-B: "all schemas
/// are expressed with default result set XSDs"):
///
///   <root_name>
///     <row_name>
///       <colname>value</colname> ...
///     </row_name> ...
///   </root_name>
Node RowSetToXml(const RowSet& rows, const std::string& root_name,
                 const std::string& row_name);

/// Parses a generic result-set document back into rows conforming to
/// `schema`: each `row_name` child becomes a row; column values come from
/// same-named leaf children and are parsed to the column type. Missing
/// leaves become NULL; unparsable text is an error.
Result<RowSet> XmlToRowSet(const Node& root, const Schema& schema,
                           const std::string& row_name);

/// Converts one element's leaf children into a row for `schema` (used for
/// single-entity business messages). Missing leaves become NULL.
Result<Row> XmlToRow(const Node& element, const Schema& schema);

/// Renders a row as an element with one leaf child per column.
Node RowToXml(RowView row, const Schema& schema,
              const std::string& element_name);

}  // namespace xml
}  // namespace dipbench

#endif  // DIPBENCH_XML_BRIDGE_H_
