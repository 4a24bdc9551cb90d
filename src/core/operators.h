#ifndef DIPBENCH_CORE_OPERATORS_H_
#define DIPBENCH_CORE_OPERATORS_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/process.h"
#include "src/xml/stx.h"
#include "src/xml/xsd.h"

namespace dipbench {
namespace core {

/// --- MTM operator constructors ---
///
/// These build the operator vocabulary of the paper's Message
/// Transformation Model that the 15 process types use: RECEIVE, ASSIGN,
/// INVOKE, TRANSLATE, SWITCH, VALIDATE, SELECTION, PROJECTION, UNION
/// DISTINCT, FORK, SUBPROCESS — plus the bridge from XML to row payloads.

/// RECEIVE: binds the instance's input message to `out_var` (E1 processes
/// start with this, paper Fig. 4).
OpPtr Receive(std::string out_var);

/// ASSIGN: copies a variable (the paper uses ASSIGN to prepare invocation
/// messages; a copy plus operator overhead models it).
OpPtr Assign(std::string from_var, std::string to_var);

/// INVOKE (query): calls `service`.`op` and binds the row result.
OpPtr InvokeQuery(std::string service, std::string op,
                  std::vector<Value> params, std::string out_var);

/// INVOKE (query, XML): like InvokeQuery but binds the generic result-set
/// document — the region-Asia extraction path whose result is translated
/// with STX before loading (process type P09).
OpPtr InvokeQueryXml(std::string service, std::string op,
                     std::vector<Value> params, std::string out_var);

/// INVOKE (update): ships the row payload of `in_var` to `service`.`op`.
OpPtr InvokeUpdate(std::string service, std::string op, std::string in_var);

/// INVOKE (procedure): fires a stored procedure on the external system
/// (the sp_runMasterDataCleansing / sp_runMovementDataCleansing calls of
/// P12/P13).
OpPtr InvokeProc(std::string service, std::string proc,
                 std::vector<Value> args);

/// TRANSLATE: applies an STX transformation to the XML payload.
OpPtr Translate(std::string in_var, std::string out_var,
                std::shared_ptr<const xml::StxTransformer> stx);

/// Converts the generic XML result set in `in_var` to rows of `schema`.
OpPtr XmlToRows(std::string in_var, std::string out_var, Schema schema,
                std::string row_name);

/// SELECTION: row filter (paper P05/P06: "a selection is processed for
/// filtering the right location").
OpPtr Selection(std::string in_var, std::string out_var, ExprPtr predicate);

/// PROJECTION: column projection/renaming (paper P05: "a projection is
/// executed in order to rename the attributes").
OpPtr Projection(std::string in_var, std::string out_var,
                 std::vector<ProjectionItem> items);

/// UNION DISTINCT over row variables, distinct on `key_columns`
/// (paper P03/P09: "a UNION DISTINCT concerning the Orderkey, Custkey and
/// Productkey has to be processed").
OpPtr UnionDistinctOp(std::vector<std::string> in_vars,
                      std::vector<std::string> key_columns,
                      std::string out_var);

/// SWITCH: first case whose condition holds executes its branch
/// (paper Fig. 4: routing by Custkey).
struct SwitchCase {
  std::function<Result<bool>(ProcessContext*)> when;
  std::vector<OpPtr> then;
};
OpPtr Switch(std::vector<SwitchCase> cases);

/// Convenience condition: extracts integer text at `path` inside the XML
/// payload of `var` and compares against [lo, hi] (inclusive).
std::function<Result<bool>(ProcessContext*)> XmlIntInRange(
    std::string var, std::string path, int64_t lo, int64_t hi);

/// Condition that always holds (the trailing "else" case).
std::function<Result<bool>(ProcessContext*)> Always();

/// VALIDATE: checks the XML payload of `in_var` against an XSD; runs
/// `on_valid` or `on_invalid` (P10's error-prone San Diego messages, P12's
/// pre-load validation).
OpPtr Validate(std::string in_var,
               std::shared_ptr<const xml::XsdSchema> schema,
               std::vector<OpPtr> on_valid, std::vector<OpPtr> on_invalid);

/// FORK: executes branches concurrently. Costs are summed across branches
/// but elapsed time advances by the slowest branch only (P14's "three
/// concurrent threads", P15's parallel refresh).
OpPtr Fork(std::vector<std::vector<OpPtr>> branches);

/// SUBPROCESS: invokes a named reusable operator sequence; charges a plan
/// instantiation on entry (P14's subprocess structure).
OpPtr Subprocess(std::string name, std::vector<OpPtr> ops);

/// Escape hatch for scenario-specific steps (enrichment, flagging). The
/// function must do its own cost charging via the context.
OpPtr Custom(std::string name, std::function<Status(ProcessContext*)> fn);

}  // namespace core
}  // namespace dipbench

#endif  // DIPBENCH_CORE_OPERATORS_H_
