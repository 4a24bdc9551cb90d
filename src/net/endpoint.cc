#include "src/net/endpoint.h"

#include "src/common/random.h"
#include "src/xml/bridge.h"
#include "src/xml/parser.h"

namespace dipbench {
namespace net {

Endpoint::Endpoint(std::string name, Database* db, Channel channel,
                   double per_row_ms)
    : name_(std::move(name)),
      db_(db),
      channel_(channel),
      per_row_ms_(per_row_ms) {}

Status Endpoint::RegisterQuery(const std::string& op, QueryOp fn) {
  if (queries_.count(op) > 0) {
    return Status::AlreadyExists("query op " + op + " on " + name_);
  }
  queries_.emplace(op, std::move(fn));
  return Status::OK();
}

Status Endpoint::RegisterUpdate(const std::string& op, UpdateOp fn) {
  if (updates_.count(op) > 0) {
    return Status::AlreadyExists("update op " + op + " on " + name_);
  }
  updates_.emplace(op, std::move(fn));
  return Status::OK();
}

void Endpoint::Charge(size_t request_bytes, size_t response_bytes,
                      uint64_t rows, NetStats* stats) {
  if (stats == nullptr) return;
  NetStats s;
  s.comm_ms = channel_.RoundTripCost(request_bytes, response_bytes) +
              per_row_ms_ * static_cast<double>(rows);
  s.bytes = request_bytes + response_bytes;
  s.rows = rows;
  s.interactions = 1;
  if (obs_.metrics() != nullptr) {
    obs::MetricsRegistry* m = obs_.metrics();
    m->GetCounter("endpoint." + name_ + ".round_trips")->Increment();
    m->GetCounter("endpoint." + name_ + ".rows")->Increment(rows);
    m->GetCounter("endpoint." + name_ + ".bytes")
        ->Increment(request_bytes + response_bytes);
  }
  stats->Add(s);
}

Status Endpoint::MaybeInjectFault(NetStats* stats) {
  if (fault_injector_ == nullptr) return Status::OK();
  return fault_injector_->OnCall(stats, obs_);
}

Result<RowSet> Endpoint::Query(const std::string& op,
                               const std::vector<Value>& params,
                               NetStats* stats) {
  DIP_RETURN_NOT_OK(MaybeInjectFault(stats));
  return DoQuery(op, params, stats);
}

Result<xml::Node> Endpoint::QueryXml(const std::string& op,
                                     const std::vector<Value>& params,
                                     NetStats* stats) {
  DIP_RETURN_NOT_OK(MaybeInjectFault(stats));
  return DoQueryXml(op, params, stats);
}

Result<size_t> Endpoint::Update(const std::string& op, const RowSet& rows,
                                NetStats* stats) {
  DIP_RETURN_NOT_OK(MaybeInjectFault(stats));
  return DoUpdate(op, rows, stats);
}

Status Endpoint::CallProcedure(const std::string& proc,
                               const std::vector<Value>& args,
                               NetStats* stats) {
  DIP_RETURN_NOT_OK(MaybeInjectFault(stats));
  return DoCallProcedure(proc, args, stats);
}

Result<RowSet> Endpoint::DoQuery(const std::string& op,
                                 const std::vector<Value>& params,
                                 NetStats* stats) {
  auto it = queries_.find(op);
  if (it == queries_.end()) {
    return Status::NotFound("no query op " + op + " on " + name_);
  }
  DIP_ASSIGN_OR_RETURN(RowSet rows, it->second(db_, params));
  size_t request_bytes = 64 + params.size() * 16;
  // ByteSize memoizes on the RowSet, so the O(rows×cols) walk happens at
  // most once per transferred payload even if callers re-query the size.
  Charge(request_bytes, rows.ByteSize(), rows.size(), stats);
  return rows;
}

Result<xml::Node> Endpoint::DoQueryXml(const std::string& op,
                                       const std::vector<Value>& params,
                                       NetStats* stats) {
  // Dispatches to DoQuery directly: the fault gate already ran in the
  // public QueryXml, and one endpoint call is exactly one fault draw.
  DIP_ASSIGN_OR_RETURN(RowSet rows, DoQuery(op, params, stats));
  return xml::RowSetToXml(rows, "resultset", "row");
}

Result<size_t> Endpoint::DoUpdate(const std::string& op, const RowSet& rows,
                                  NetStats* stats) {
  auto it = updates_.find(op);
  if (it == updates_.end()) {
    return Status::NotFound("no update op " + op + " on " + name_);
  }
  DIP_ASSIGN_OR_RETURN(size_t written, it->second(db_, rows));
  Charge(rows.ByteSize(), 32, written, stats);
  return written;
}

Status Endpoint::DoCallProcedure(const std::string& proc,
                                 const std::vector<Value>& args,
                                 NetStats* stats) {
  uint64_t before = db_->TotalRowsRead() + db_->TotalRowsWritten();
  DIP_RETURN_NOT_OK(db_->CallProcedure(proc, args));
  uint64_t touched = db_->TotalRowsRead() + db_->TotalRowsWritten() - before;
  Charge(64, 32, touched, stats);
  return Status::OK();
}

WebServiceEndpoint::WebServiceEndpoint(std::string name, Database* db,
                                       Channel channel, double per_row_ms,
                                       double per_node_ms)
    : Endpoint(std::move(name), db, channel, per_row_ms),
      per_node_ms_(per_node_ms) {}

Result<xml::Node> WebServiceEndpoint::DoQueryXml(
    const std::string& op, const std::vector<Value>& params, NetStats* stats) {
  auto it = queries_.find(op);
  if (it == queries_.end()) {
    return Status::NotFound("no query op " + op + " on " + name_);
  }
  DIP_ASSIGN_OR_RETURN(RowSet rows, it->second(db_, params));
  // Marshal through the generic result-set XSD: serialize on the service
  // side, ship the text, parse on the caller side. The full path runs.
  std::string text = xml::WriteXml(xml::RowSetToXml(rows, "resultset", "row"));
  DIP_ASSIGN_OR_RETURN(xml::Node reparsed, xml::ParseXml(text));
  size_t request_bytes = 128 + params.size() * 16;
  Charge(request_bytes, text.size(), rows.size(), stats);
  if (stats != nullptr) {
    stats->comm_ms +=
        per_node_ms_ * static_cast<double>(reparsed.SubtreeSize());
  }
  return reparsed;
}

Result<RowSet> WebServiceEndpoint::DoQuery(const std::string& op,
                                           const std::vector<Value>& params,
                                           NetStats* stats) {
  auto it = queries_.find(op);
  if (it == queries_.end()) {
    return Status::NotFound("no query op " + op + " on " + name_);
  }
  // Peek the schema via the op itself, then unmarshal the XML result.
  DIP_ASSIGN_OR_RETURN(RowSet rows, it->second(db_, params));
  std::string text = xml::WriteXml(xml::RowSetToXml(rows, "resultset", "row"));
  DIP_ASSIGN_OR_RETURN(xml::Node reparsed, xml::ParseXml(text));
  DIP_ASSIGN_OR_RETURN(RowSet back,
                       xml::XmlToRowSet(reparsed, rows.schema, "row"));
  size_t request_bytes = 128 + params.size() * 16;
  Charge(request_bytes, text.size(), back.size(), stats);
  if (stats != nullptr) {
    stats->comm_ms +=
        per_node_ms_ * static_cast<double>(reparsed.SubtreeSize());
  }
  return back;
}

Result<size_t> WebServiceEndpoint::DoUpdate(const std::string& op,
                                            const RowSet& rows,
                                            NetStats* stats) {
  auto it = updates_.find(op);
  if (it == updates_.end()) {
    return Status::NotFound("no update op " + op + " on " + name_);
  }
  // Rows travel as XML: serialize, ship, parse on the service side.
  std::string text = xml::WriteXml(xml::RowSetToXml(rows, "update", "row"));
  DIP_ASSIGN_OR_RETURN(xml::Node reparsed, xml::ParseXml(text));
  DIP_ASSIGN_OR_RETURN(RowSet unmarshaled,
                       xml::XmlToRowSet(reparsed, rows.schema, "row"));
  DIP_ASSIGN_OR_RETURN(size_t written, it->second(db_, unmarshaled));
  Charge(text.size(), 32, written, stats);
  if (stats != nullptr) {
    stats->comm_ms +=
        per_node_ms_ * static_cast<double>(reparsed.SubtreeSize());
  }
  return written;
}

Status Network::AddEndpoint(std::unique_ptr<Endpoint> endpoint) {
  const std::string& name = endpoint->name();
  if (endpoints_.count(name) > 0) {
    return Status::AlreadyExists("endpoint " + name);
  }
  if (obs_.enabled()) endpoint->SetObserver(obs_);
  endpoints_.emplace(name, std::move(endpoint));
  return Status::OK();
}

Result<Endpoint*> Network::Get(const std::string& name) {
  auto it = endpoints_.find(name);
  if (it == endpoints_.end()) {
    return Status::NotFound("no endpoint " + name);
  }
  return it->second.get();
}

void Network::InstallFaults(const FaultPlan& plan, uint64_t seed) {
  for (auto& [name, ep] : endpoints_) {
    const FaultProfile& profile = plan.ProfileFor(name);
    if (!plan.enabled() || !profile.enabled()) {
      ep->SetFaultInjector(nullptr);
      continue;
    }
    // Seed = f(master seed, endpoint name): independent streams that stay
    // put when endpoints are added or removed. SeedHash is FNV-1a —
    // std::hash is implementation-defined and would break the "same seed,
    // same faults everywhere" guarantee.
    ep->SetFaultInjector(std::make_unique<FaultInjector>(
        profile, seed ^ SeedHash(name), name));
  }
}

std::vector<std::string> Network::ListEndpoints() const {
  std::vector<std::string> names;
  names.reserve(endpoints_.size());
  for (const auto& [name, _] : endpoints_) names.push_back(name);
  return names;
}

}  // namespace net
}  // namespace dipbench
