#include "src/core/operators.h"

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "src/xml/bridge.h"
#include "src/xml/path.h"

namespace dipbench {
namespace core {

Status ExecuteBody(const std::vector<OpPtr>& body, ProcessContext* ctx) {
  obs::TraceRecorder* rec = ctx->obs().trace();
  for (const auto& op : body) {
    // Structural span around the dispatch: nested bodies (SWITCH, FORK,
    // SUBPROCESS) recurse through here, so operator spans nest naturally
    // under their composite's span on the same track.
    uint64_t span_id = 0;
    if (rec != nullptr) {
      span_id = rec->BeginSpan(op->Describe(), obs::Category::kNone,
                               ctx->ObsNow(), ctx->obs_track());
    }
    ctx->obs().Count("engine.operator_dispatches");
    if (ctx->tracing()) {
      CostBreakdown before = ctx->costs();
      Status st = op->Execute(ctx);
      OperatorTrace trace;
      trace.op = op->Describe();
      trace.cc_ms = ctx->costs().cc_ms - before.cc_ms;
      trace.cm_ms = ctx->costs().cm_ms - before.cm_ms;
      trace.cp_ms = ctx->costs().cp_ms - before.cp_ms;
      ctx->AddTrace(std::move(trace));
      if (rec != nullptr) rec->EndSpan(span_id, ctx->ObsNow());
      if (!st.ok()) return st.WithContext(op->Describe());
    } else {
      Status st = op->Execute(ctx);
      if (rec != nullptr) rec->EndSpan(span_id, ctx->ObsNow());
      if (!st.ok()) return st.WithContext(op->Describe());
    }
  }
  return Status::OK();
}

namespace {

class ReceiveOp : public Operator {
 public:
  explicit ReceiveOp(std::string out_var) : out_var_(std::move(out_var)) {}
  Status Execute(ProcessContext* ctx) const override {
    ctx->ChargeOperator();
    if (ctx->input().empty()) {
      return Status::InvalidArgument("RECEIVE without an input message");
    }
    ctx->ChargeXmlNodes(ctx->input().XmlNodes());
    ctx->ChargeRows(ctx->input().RowCount());
    ctx->Set(out_var_, ctx->input());
    return Status::OK();
  }
  std::string Describe() const override { return "RECEIVE -> " + out_var_; }

 private:
  std::string out_var_;
};

class AssignOp : public Operator {
 public:
  AssignOp(std::string from_var, std::string to_var)
      : from_(std::move(from_var)), to_(std::move(to_var)) {}
  Status Execute(ProcessContext* ctx) const override {
    ctx->ChargeOperator();
    DIP_ASSIGN_OR_RETURN(MtmMessage msg, ctx->Get(from_));
    ctx->Set(to_, std::move(msg));
    return Status::OK();
  }
  std::string Describe() const override {
    return "ASSIGN " + from_ + " -> " + to_;
  }

 private:
  std::string from_, to_;
};

class InvokeQueryOp : public Operator {
 public:
  InvokeQueryOp(std::string service, std::string op, std::vector<Value> params,
                std::string out_var, bool as_xml)
      : service_(std::move(service)),
        op_(std::move(op)),
        params_(std::move(params)),
        out_var_(std::move(out_var)),
        as_xml_(as_xml) {}

  Status Execute(ProcessContext* ctx) const override {
    ctx->ChargeOperator();
    DIP_ASSIGN_OR_RETURN(net::Endpoint * ep, ctx->network()->Get(service_));
    net::NetStats stats;
    if (as_xml_) {
      DIP_ASSIGN_OR_RETURN(xml::Node doc, ep->QueryXml(op_, params_, &stats));
      ctx->ChargeComm(stats);
      ctx->ChargeXmlNodes(doc.SubtreeSize());
      ctx->Set(out_var_, MtmMessage::FromXml(std::move(doc)));
    } else {
      DIP_ASSIGN_OR_RETURN(RowSet rows, ep->Query(op_, params_, &stats));
      ctx->ChargeComm(stats);
      ctx->ChargeRows(rows.size());
      ctx->Set(out_var_, MtmMessage::FromRows(std::move(rows)));
    }
    return Status::OK();
  }
  std::string Describe() const override {
    return "INVOKE " + service_ + "." + op_ + " -> " + out_var_;
  }

 private:
  std::string service_, op_;
  std::vector<Value> params_;
  std::string out_var_;
  bool as_xml_;
};

class InvokeUpdateOp : public Operator {
 public:
  InvokeUpdateOp(std::string service, std::string op, std::string in_var)
      : service_(std::move(service)),
        op_(std::move(op)),
        in_var_(std::move(in_var)) {}
  Status Execute(ProcessContext* ctx) const override {
    ctx->ChargeOperator();
    DIP_ASSIGN_OR_RETURN(MtmMessage msg, ctx->Get(in_var_));
    DIP_ASSIGN_OR_RETURN(auto rows, msg.Rows());
    DIP_ASSIGN_OR_RETURN(net::Endpoint * ep, ctx->network()->Get(service_));
    net::NetStats stats;
    DIP_ASSIGN_OR_RETURN(size_t written, ep->Update(op_, *rows, &stats));
    ctx->ChargeComm(stats);
    ctx->ChargeRows(rows->size());
    ctx->quality().rows_loaded += written;
    return Status::OK();
  }
  std::string Describe() const override {
    return "INVOKE " + service_ + "." + op_ + " <- " + in_var_;
  }

 private:
  std::string service_, op_, in_var_;
};

class InvokeSendOp : public Operator {
 public:
  InvokeSendOp(std::string service, std::string queue, std::string in_var)
      : service_(std::move(service)),
        queue_(std::move(queue)),
        in_var_(std::move(in_var)) {}
  Status Execute(ProcessContext* ctx) const override {
    ctx->ChargeOperator();
    DIP_ASSIGN_OR_RETURN(MtmMessage msg, ctx->Get(in_var_));
    DIP_ASSIGN_OR_RETURN(auto doc, msg.Xml());
    DIP_ASSIGN_OR_RETURN(net::Endpoint * ep, ctx->network()->Get(service_));
    net::NetStats stats;
    DIP_RETURN_NOT_OK(ep->SendMessage(queue_, *doc, &stats));
    ctx->ChargeComm(stats);
    ctx->ChargeXmlNodes(doc->SubtreeSize());
    return Status::OK();
  }
  std::string Describe() const override {
    return "SEND " + in_var_ + " -> " + service_ + "." + queue_;
  }

 private:
  std::string service_, queue_, in_var_;
};

class InvokeProcOp : public Operator {
 public:
  InvokeProcOp(std::string service, std::string proc, std::vector<Value> args)
      : service_(std::move(service)),
        proc_(std::move(proc)),
        args_(std::move(args)) {}
  Status Execute(ProcessContext* ctx) const override {
    ctx->ChargeOperator();
    DIP_ASSIGN_OR_RETURN(net::Endpoint * ep, ctx->network()->Get(service_));
    net::NetStats stats;
    DIP_RETURN_NOT_OK(ep->CallProcedure(proc_, args_, &stats));
    ctx->ChargeComm(stats);
    return Status::OK();
  }
  std::string Describe() const override {
    return "CALL " + service_ + "." + proc_;
  }

 private:
  std::string service_, proc_;
  std::vector<Value> args_;
};

class TranslateOp : public Operator {
 public:
  TranslateOp(std::string in_var, std::string out_var,
              std::shared_ptr<const xml::StxTransformer> stx)
      : in_var_(std::move(in_var)),
        out_var_(std::move(out_var)),
        stx_(std::move(stx)) {}
  Status Execute(ProcessContext* ctx) const override {
    ctx->ChargeOperator();
    DIP_ASSIGN_OR_RETURN(MtmMessage msg, ctx->Get(in_var_));
    DIP_ASSIGN_OR_RETURN(auto doc, msg.Xml());
    size_t visited = 0;
    DIP_ASSIGN_OR_RETURN(xml::Node out, stx_->Transform(*doc, &visited));
    ctx->ChargeXmlNodes(visited);
    ctx->Set(out_var_, MtmMessage::FromXml(std::move(out)));
    return Status::OK();
  }
  std::string Describe() const override {
    return "TRANSLATE " + in_var_ + " -> " + out_var_;
  }

 private:
  std::string in_var_, out_var_;
  std::shared_ptr<const xml::StxTransformer> stx_;
};

class XmlToRowsOp : public Operator {
 public:
  XmlToRowsOp(std::string in_var, std::string out_var, Schema schema,
              std::string row_name)
      : in_var_(std::move(in_var)),
        out_var_(std::move(out_var)),
        schema_(std::move(schema)),
        row_name_(std::move(row_name)) {}
  Status Execute(ProcessContext* ctx) const override {
    ctx->ChargeOperator();
    DIP_ASSIGN_OR_RETURN(MtmMessage msg, ctx->Get(in_var_));
    DIP_ASSIGN_OR_RETURN(auto doc, msg.Xml());
    ctx->ChargeXmlNodes(doc->SubtreeSize());
    DIP_ASSIGN_OR_RETURN(RowSet rows,
                         xml::XmlToRowSet(*doc, schema_, row_name_));
    ctx->ChargeRows(rows.size());
    ctx->Set(out_var_, MtmMessage::FromRows(std::move(rows)));
    return Status::OK();
  }
  std::string Describe() const override {
    return "XML2ROWS " + in_var_ + " -> " + out_var_;
  }

 private:
  std::string in_var_, out_var_;
  Schema schema_;
  std::string row_name_;
};

class RowsToXmlOp : public Operator {
 public:
  RowsToXmlOp(std::string in_var, std::string out_var, std::string root_name,
              std::string row_name)
      : in_var_(std::move(in_var)),
        out_var_(std::move(out_var)),
        root_name_(std::move(root_name)),
        row_name_(std::move(row_name)) {}
  Status Execute(ProcessContext* ctx) const override {
    ctx->ChargeOperator();
    DIP_ASSIGN_OR_RETURN(MtmMessage msg, ctx->Get(in_var_));
    DIP_ASSIGN_OR_RETURN(auto rows, msg.Rows());
    ctx->ChargeRows(rows->size());
    xml::Node doc = xml::RowSetToXml(*rows, root_name_, row_name_);
    ctx->ChargeXmlNodes(doc.SubtreeSize());
    ctx->Set(out_var_, MtmMessage::FromXml(std::move(doc)));
    return Status::OK();
  }
  std::string Describe() const override {
    return "ROWS2XML " + in_var_ + " -> " + out_var_;
  }

 private:
  std::string in_var_, out_var_, root_name_, row_name_;
};

class SelectionOpImpl : public Operator {
 public:
  SelectionOpImpl(std::string in_var, std::string out_var, ExprPtr predicate)
      : in_var_(std::move(in_var)),
        out_var_(std::move(out_var)),
        predicate_(std::move(predicate)) {}
  Status Execute(ProcessContext* ctx) const override {
    ctx->ChargeOperator();
    DIP_ASSIGN_OR_RETURN(MtmMessage msg, ctx->Get(in_var_));
    DIP_ASSIGN_OR_RETURN(auto rows, msg.Rows());
    ExecContext ec;
    DIP_ASSIGN_OR_RETURN(
        RowSet out, Filter(ScanValuesRef(rows.get()), predicate_)->Execute(&ec));
    ctx->ChargeRows(ec.rows_processed);
    ctx->Set(out_var_, MtmMessage::FromRows(std::move(out)));
    return Status::OK();
  }
  std::string Describe() const override {
    return "SELECTION " + in_var_ + " -> " + out_var_;
  }

 private:
  std::string in_var_, out_var_;
  ExprPtr predicate_;
};

class ProjectionOpImpl : public Operator {
 public:
  ProjectionOpImpl(std::string in_var, std::string out_var,
                   std::vector<ProjectionItem> items)
      : in_var_(std::move(in_var)),
        out_var_(std::move(out_var)),
        items_(std::move(items)) {}
  Status Execute(ProcessContext* ctx) const override {
    ctx->ChargeOperator();
    DIP_ASSIGN_OR_RETURN(MtmMessage msg, ctx->Get(in_var_));
    DIP_ASSIGN_OR_RETURN(auto rows, msg.Rows());
    ExecContext ec;
    DIP_ASSIGN_OR_RETURN(
        RowSet out, Project(ScanValuesRef(rows.get()), items_)->Execute(&ec));
    ctx->ChargeRows(ec.rows_processed);
    ctx->Set(out_var_, MtmMessage::FromRows(std::move(out)));
    return Status::OK();
  }
  std::string Describe() const override {
    return "PROJECTION " + in_var_ + " -> " + out_var_;
  }

 private:
  std::string in_var_, out_var_;
  std::vector<ProjectionItem> items_;
};

class JoinOpImpl : public Operator {
 public:
  JoinOpImpl(std::string left_var, std::string right_var, std::string out_var,
             std::vector<std::string> lkeys, std::vector<std::string> rkeys)
      : left_var_(std::move(left_var)),
        right_var_(std::move(right_var)),
        out_var_(std::move(out_var)),
        lkeys_(std::move(lkeys)),
        rkeys_(std::move(rkeys)) {}
  Status Execute(ProcessContext* ctx) const override {
    ctx->ChargeOperator();
    DIP_ASSIGN_OR_RETURN(MtmMessage lm, ctx->Get(left_var_));
    DIP_ASSIGN_OR_RETURN(MtmMessage rm, ctx->Get(right_var_));
    DIP_ASSIGN_OR_RETURN(auto lrows, lm.Rows());
    DIP_ASSIGN_OR_RETURN(auto rrows, rm.Rows());
    ExecContext ec;
    DIP_ASSIGN_OR_RETURN(
        RowSet out, HashJoin(ScanValuesRef(lrows.get()),
                             ScanValuesRef(rrows.get()), lkeys_, rkeys_)
                        ->Execute(&ec));
    ctx->ChargeRows(ec.rows_processed);
    ctx->Set(out_var_, MtmMessage::FromRows(std::move(out)));
    return Status::OK();
  }
  std::string Describe() const override {
    return "JOIN " + left_var_ + " x " + right_var_ + " -> " + out_var_;
  }

 private:
  std::string left_var_, right_var_, out_var_;
  std::vector<std::string> lkeys_, rkeys_;
};

class UnionDistinctOpImpl : public Operator {
 public:
  UnionDistinctOpImpl(std::vector<std::string> in_vars,
                      std::vector<std::string> keys, std::string out_var)
      : in_vars_(std::move(in_vars)),
        keys_(std::move(keys)),
        out_var_(std::move(out_var)) {}
  Status Execute(ProcessContext* ctx) const override {
    ctx->ChargeOperator();
    std::vector<PlanPtr> children;
    // Borrowed inputs: keep each message's row set alive past the loop.
    std::vector<std::shared_ptr<const RowSet>> pinned;
    size_t total_in = 0;
    for (const auto& var : in_vars_) {
      DIP_ASSIGN_OR_RETURN(MtmMessage msg, ctx->Get(var));
      DIP_ASSIGN_OR_RETURN(auto rows, msg.Rows());
      total_in += rows->size();
      children.push_back(ScanValuesRef(rows.get()));
      pinned.push_back(std::move(rows));
    }
    ExecContext ec;
    DIP_ASSIGN_OR_RETURN(RowSet out,
                         UnionDistinct(std::move(children), keys_)
                             ->Execute(&ec));
    ctx->ChargeRows(ec.rows_processed);
    ctx->quality().duplicates_eliminated += total_in - out.size();
    ctx->Set(out_var_, MtmMessage::FromRows(std::move(out)));
    return Status::OK();
  }
  std::string Describe() const override {
    return "UNION_DISTINCT -> " + out_var_;
  }

 private:
  std::vector<std::string> in_vars_;
  std::vector<std::string> keys_;
  std::string out_var_;
};

class SwitchOp : public Operator {
 public:
  explicit SwitchOp(std::vector<SwitchCase> cases)
      : cases_(std::move(cases)) {}
  Status Execute(ProcessContext* ctx) const override {
    ctx->ChargeOperator();
    for (const auto& c : cases_) {
      DIP_ASSIGN_OR_RETURN(bool hit, c.when(ctx));
      if (hit) return ExecuteBody(c.then, ctx);
    }
    return Status::OK();  // no case matched: fall through
  }
  std::string Describe() const override {
    return "SWITCH(" + std::to_string(cases_.size()) + " cases)";
  }

 private:
  std::vector<SwitchCase> cases_;
};

class ValidateOp : public Operator {
 public:
  ValidateOp(std::string in_var, std::shared_ptr<const xml::XsdSchema> schema,
             std::vector<OpPtr> on_valid, std::vector<OpPtr> on_invalid)
      : in_var_(std::move(in_var)),
        schema_(std::move(schema)),
        on_valid_(std::move(on_valid)),
        on_invalid_(std::move(on_invalid)) {}
  Status Execute(ProcessContext* ctx) const override {
    ctx->ChargeOperator();
    DIP_ASSIGN_OR_RETURN(MtmMessage msg, ctx->Get(in_var_));
    DIP_ASSIGN_OR_RETURN(auto doc, msg.Xml());
    ctx->ChargeXmlNodes(doc->SubtreeSize());
    Status st = schema_->Validate(*doc);
    if (st.ok()) {
      return ExecuteBody(on_valid_, ctx);
    }
    if (st.IsValidationError()) {
      ctx->quality().validation_failures++;
      return ExecuteBody(on_invalid_, ctx);
    }
    return st;
  }
  std::string Describe() const override { return "VALIDATE " + in_var_; }

 private:
  std::string in_var_;
  std::shared_ptr<const xml::XsdSchema> schema_;
  std::vector<OpPtr> on_valid_, on_invalid_;
};

class ForkOp : public Operator {
 public:
  explicit ForkOp(std::vector<std::vector<OpPtr>> branches)
      : branches_(std::move(branches)) {}
  Status Execute(ProcessContext* ctx) const override {
    ctx->ChargeOperator();
    double start_elapsed = ctx->elapsed_ms();
    double max_branch = 0.0;
    for (const auto& branch : branches_) {
      // Run each branch from the fork point; measure its own elapsed delta.
      ctx->OverrideElapsed(start_elapsed);
      DIP_RETURN_NOT_OK(ExecuteBody(branch, ctx));
      max_branch = std::max(max_branch, ctx->elapsed_ms() - start_elapsed);
    }
    // Concurrent branches overlap: elapsed advances by the slowest branch.
    ctx->OverrideElapsed(start_elapsed + max_branch);
    return Status::OK();
  }
  std::string Describe() const override {
    return "FORK(" + std::to_string(branches_.size()) + " branches)";
  }

 private:
  std::vector<std::vector<OpPtr>> branches_;
};

class SubprocessOp : public Operator {
 public:
  SubprocessOp(std::string name, std::vector<OpPtr> ops)
      : name_(std::move(name)), ops_(std::move(ops)) {}
  Status Execute(ProcessContext* ctx) const override {
    ctx->ChargeOperator();
    // Invoking a subprocess instantiates its plan (management cost).
    ctx->ChargeManagement(ctx->weights().plan_instantiation_ms);
    Status st = ExecuteBody(ops_, ctx);
    if (!st.ok()) return st.WithContext("subprocess " + name_);
    return st;
  }
  std::string Describe() const override { return "SUBPROCESS " + name_; }

 private:
  std::string name_;
  std::vector<OpPtr> ops_;
};

class EnrichOp : public Operator {
 public:
  EnrichOp(std::string in_var, std::string out_var, std::string service,
           std::string lookup_op, std::string key_column)
      : in_var_(std::move(in_var)),
        out_var_(std::move(out_var)),
        service_(std::move(service)),
        lookup_op_(std::move(lookup_op)),
        key_column_(std::move(key_column)) {}

  Status Execute(ProcessContext* ctx) const override {
    ctx->ChargeOperator();
    DIP_ASSIGN_OR_RETURN(MtmMessage msg, ctx->Get(in_var_));
    DIP_ASSIGN_OR_RETURN(auto rows, msg.Rows());
    DIP_ASSIGN_OR_RETURN(size_t key_idx,
                         rows->schema.RequireIndexOf(key_column_));
    DIP_ASSIGN_OR_RETURN(net::Endpoint * ep, ctx->network()->Get(service_));

    // One lookup per distinct key. Keys are equal as storage keys are
    // (Value::Hash and Value::Compare), never by their rendered text, which
    // merges doubles that differ beyond "%.6g".
    std::unordered_map<Value, std::optional<Row>, ValueHash> cache;
    Schema lookup_schema;
    for (const Row& r : rows->rows) {
      const Value& key = r[key_idx];
      if (key.is_null() || cache.count(key) > 0) continue;
      net::NetStats stats;
      DIP_ASSIGN_OR_RETURN(RowSet hit, ep->Query(lookup_op_, {key}, &stats));
      ctx->ChargeComm(stats);
      if (!hit.rows.empty()) {
        lookup_schema = hit.schema;
        cache[key] = hit.rows[0];
      } else {
        cache[key] = std::nullopt;
      }
    }
    RowSet out;
    out.schema = rows->schema;
    for (const auto& col : lookup_schema.columns()) {
      std::string name = col.name;
      while (out.schema.HasColumn(name)) name = "e_" + name;
      out.schema.AddColumn(name, col.type, /*nullable=*/true);
    }
    size_t appended = lookup_schema.num_columns();
    for (const Row& r : rows->rows) {
      ctx->ChargeRows(1);
      Row enriched = r;
      const std::optional<Row>* hit = nullptr;
      if (!r[key_idx].is_null()) {
        auto it = cache.find(r[key_idx]);
        if (it != cache.end()) hit = &it->second;
      }
      for (size_t i = 0; i < appended; ++i) {
        enriched.push_back(hit != nullptr && hit->has_value()
                               ? (**hit)[i]
                               : Value::Null());
      }
      out.rows.push_back(std::move(enriched));
    }
    ctx->Set(out_var_, MtmMessage::FromRows(std::move(out)));
    return Status::OK();
  }

  std::string Describe() const override {
    return "ENRICH " + in_var_ + " via " + service_ + "." + lookup_op_;
  }

 private:
  std::string in_var_, out_var_, service_, lookup_op_, key_column_;
};

class GroupByOpImpl : public Operator {
 public:
  GroupByOpImpl(std::string in_var, std::string out_var,
                std::vector<std::string> group_by,
                std::vector<AggregateItem> aggs)
      : in_var_(std::move(in_var)),
        out_var_(std::move(out_var)),
        group_by_(std::move(group_by)),
        aggs_(std::move(aggs)) {}
  Status Execute(ProcessContext* ctx) const override {
    ctx->ChargeOperator();
    DIP_ASSIGN_OR_RETURN(MtmMessage msg, ctx->Get(in_var_));
    DIP_ASSIGN_OR_RETURN(auto rows, msg.Rows());
    ExecContext ec;
    DIP_ASSIGN_OR_RETURN(
        RowSet out,
        Aggregate(ScanValuesRef(rows.get()), group_by_, aggs_)->Execute(&ec));
    ctx->ChargeRows(ec.rows_processed);
    ctx->Set(out_var_, MtmMessage::FromRows(std::move(out)));
    return Status::OK();
  }
  std::string Describe() const override {
    return "GROUPBY " + in_var_ + " -> " + out_var_;
  }

 private:
  std::string in_var_, out_var_;
  std::vector<std::string> group_by_;
  std::vector<AggregateItem> aggs_;
};

class SortOpImpl : public Operator {
 public:
  SortOpImpl(std::string in_var, std::string out_var,
             std::vector<SortKey> keys)
      : in_var_(std::move(in_var)),
        out_var_(std::move(out_var)),
        keys_(std::move(keys)) {}
  Status Execute(ProcessContext* ctx) const override {
    ctx->ChargeOperator();
    DIP_ASSIGN_OR_RETURN(MtmMessage msg, ctx->Get(in_var_));
    DIP_ASSIGN_OR_RETURN(auto rows, msg.Rows());
    ExecContext ec;
    DIP_ASSIGN_OR_RETURN(
        RowSet out, Sort(ScanValuesRef(rows.get()), keys_)->Execute(&ec));
    ctx->ChargeRows(ec.rows_processed);
    ctx->Set(out_var_, MtmMessage::FromRows(std::move(out)));
    return Status::OK();
  }
  std::string Describe() const override {
    return "SORT " + in_var_ + " -> " + out_var_;
  }

 private:
  std::string in_var_, out_var_;
  std::vector<SortKey> keys_;
};

class MulticastOp : public Operator {
 public:
  MulticastOp(std::string in_var,
              std::vector<std::pair<std::string, std::string>> targets)
      : in_var_(std::move(in_var)), targets_(std::move(targets)) {}
  Status Execute(ProcessContext* ctx) const override {
    ctx->ChargeOperator();
    DIP_ASSIGN_OR_RETURN(MtmMessage msg, ctx->Get(in_var_));
    DIP_ASSIGN_OR_RETURN(auto rows, msg.Rows());
    for (const auto& [service, op] : targets_) {
      DIP_ASSIGN_OR_RETURN(net::Endpoint * ep, ctx->network()->Get(service));
      net::NetStats stats;
      DIP_ASSIGN_OR_RETURN(size_t written, ep->Update(op, *rows, &stats));
      ctx->ChargeComm(stats);
      ctx->quality().rows_loaded += written;
    }
    ctx->ChargeRows(rows->size() * targets_.size());
    return Status::OK();
  }
  std::string Describe() const override {
    return "MULTICAST " + in_var_ + " to " +
           std::to_string(targets_.size()) + " targets";
  }

 private:
  std::string in_var_;
  std::vector<std::pair<std::string, std::string>> targets_;
};

class CustomOp : public Operator {
 public:
  CustomOp(std::string name, std::function<Status(ProcessContext*)> fn)
      : name_(std::move(name)), fn_(std::move(fn)) {}
  Status Execute(ProcessContext* ctx) const override {
    ctx->ChargeOperator();
    return fn_(ctx);
  }
  std::string Describe() const override { return "CUSTOM " + name_; }

 private:
  std::string name_;
  std::function<Status(ProcessContext*)> fn_;
};

}  // namespace

OpPtr Receive(std::string out_var) {
  return std::make_shared<ReceiveOp>(std::move(out_var));
}
OpPtr Assign(std::string from_var, std::string to_var) {
  return std::make_shared<AssignOp>(std::move(from_var), std::move(to_var));
}
OpPtr InvokeQuery(std::string service, std::string op,
                  std::vector<Value> params, std::string out_var) {
  return std::make_shared<InvokeQueryOp>(std::move(service), std::move(op),
                                         std::move(params), std::move(out_var),
                                         /*as_xml=*/false);
}
OpPtr InvokeQueryXml(std::string service, std::string op,
                     std::vector<Value> params, std::string out_var) {
  return std::make_shared<InvokeQueryOp>(std::move(service), std::move(op),
                                         std::move(params), std::move(out_var),
                                         /*as_xml=*/true);
}
OpPtr InvokeUpdate(std::string service, std::string op, std::string in_var) {
  return std::make_shared<InvokeUpdateOp>(std::move(service), std::move(op),
                                          std::move(in_var));
}
OpPtr InvokeSend(std::string service, std::string queue_table,
                 std::string in_var) {
  return std::make_shared<InvokeSendOp>(std::move(service),
                                        std::move(queue_table),
                                        std::move(in_var));
}
OpPtr InvokeProc(std::string service, std::string proc,
                 std::vector<Value> args) {
  return std::make_shared<InvokeProcOp>(std::move(service), std::move(proc),
                                        std::move(args));
}
OpPtr Translate(std::string in_var, std::string out_var,
                std::shared_ptr<const xml::StxTransformer> stx) {
  return std::make_shared<TranslateOp>(std::move(in_var), std::move(out_var),
                                       std::move(stx));
}
OpPtr XmlToRows(std::string in_var, std::string out_var, Schema schema,
                std::string row_name) {
  return std::make_shared<XmlToRowsOp>(std::move(in_var), std::move(out_var),
                                       std::move(schema), std::move(row_name));
}
OpPtr RowsToXml(std::string in_var, std::string out_var, std::string root_name,
                std::string row_name) {
  return std::make_shared<RowsToXmlOp>(std::move(in_var), std::move(out_var),
                                       std::move(root_name),
                                       std::move(row_name));
}
OpPtr Selection(std::string in_var, std::string out_var, ExprPtr predicate) {
  return std::make_shared<SelectionOpImpl>(
      std::move(in_var), std::move(out_var), std::move(predicate));
}
OpPtr Projection(std::string in_var, std::string out_var,
                 std::vector<ProjectionItem> items) {
  return std::make_shared<ProjectionOpImpl>(
      std::move(in_var), std::move(out_var), std::move(items));
}
OpPtr JoinOp(std::string left_var, std::string right_var, std::string out_var,
             std::vector<std::string> left_keys,
             std::vector<std::string> right_keys) {
  return std::make_shared<JoinOpImpl>(std::move(left_var),
                                      std::move(right_var), std::move(out_var),
                                      std::move(left_keys),
                                      std::move(right_keys));
}
OpPtr UnionDistinctOp(std::vector<std::string> in_vars,
                      std::vector<std::string> key_columns,
                      std::string out_var) {
  return std::make_shared<UnionDistinctOpImpl>(
      std::move(in_vars), std::move(key_columns), std::move(out_var));
}
OpPtr Switch(std::vector<SwitchCase> cases) {
  return std::make_shared<SwitchOp>(std::move(cases));
}

std::function<Result<bool>(ProcessContext*)> XmlIntInRange(std::string var,
                                                           std::string path,
                                                           int64_t lo,
                                                           int64_t hi) {
  return [var = std::move(var), path = std::move(path), lo,
          hi](ProcessContext* ctx) -> Result<bool> {
    DIP_ASSIGN_OR_RETURN(MtmMessage msg, ctx->Get(var));
    DIP_ASSIGN_OR_RETURN(auto doc, msg.Xml());
    DIP_ASSIGN_OR_RETURN(std::string text, xml::SelectText(*doc, path));
    DIP_ASSIGN_OR_RETURN(Value v, Value::Parse(text, DataType::kInt64));
    if (v.is_null()) return false;
    return v.AsInt() >= lo && v.AsInt() <= hi;
  };
}

std::function<Result<bool>(ProcessContext*)> Always() {
  return [](ProcessContext*) -> Result<bool> { return true; };
}

OpPtr Validate(std::string in_var,
               std::shared_ptr<const xml::XsdSchema> schema,
               std::vector<OpPtr> on_valid, std::vector<OpPtr> on_invalid) {
  return std::make_shared<ValidateOp>(std::move(in_var), std::move(schema),
                                      std::move(on_valid),
                                      std::move(on_invalid));
}
OpPtr Fork(std::vector<std::vector<OpPtr>> branches) {
  return std::make_shared<ForkOp>(std::move(branches));
}
OpPtr Subprocess(std::string name, std::vector<OpPtr> ops) {
  return std::make_shared<SubprocessOp>(std::move(name), std::move(ops));
}
OpPtr Enrich(std::string in_var, std::string out_var, std::string service,
             std::string lookup_op, std::string key_column) {
  return std::make_shared<EnrichOp>(std::move(in_var), std::move(out_var),
                                    std::move(service), std::move(lookup_op),
                                    std::move(key_column));
}
OpPtr GroupByOp(std::string in_var, std::string out_var,
                std::vector<std::string> group_by,
                std::vector<AggregateItem> aggregates) {
  return std::make_shared<GroupByOpImpl>(std::move(in_var),
                                         std::move(out_var),
                                         std::move(group_by),
                                         std::move(aggregates));
}
OpPtr SortOp(std::string in_var, std::string out_var,
             std::vector<SortKey> keys) {
  return std::make_shared<SortOpImpl>(std::move(in_var), std::move(out_var),
                                      std::move(keys));
}
OpPtr Multicast(std::string in_var,
                std::vector<std::pair<std::string, std::string>> targets) {
  return std::make_shared<MulticastOp>(std::move(in_var), std::move(targets));
}
OpPtr Custom(std::string name, std::function<Status(ProcessContext*)> fn) {
  return std::make_shared<CustomOp>(std::move(name), std::move(fn));
}

}  // namespace core
}  // namespace dipbench
