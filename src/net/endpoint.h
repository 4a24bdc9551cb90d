#ifndef DIPBENCH_NET_ENDPOINT_H_
#define DIPBENCH_NET_ENDPOINT_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/net/channel.h"
#include "src/net/fault.h"
#include "src/ra/plan.h"
#include "src/storage/database.h"
#include "src/xml/node.h"

namespace dipbench {
namespace net {

/// A named query operation over a database: receives the backing database
/// and positional parameters, returns rows.
using QueryOp = std::function<Result<RowSet>(Database* db,
                                             const std::vector<Value>& params)>;
/// A named update operation: consumes rows, returns rows written.
using UpdateOp =
    std::function<Result<size_t>(Database* db, const RowSet& rows)>;

/// An addressable external system (paper layer ES). Both flavours wrap a
/// Database; the difference is the wire format and therefore the cost and
/// code path: a DatabaseEndpoint ships rows directly (federated DBMS-style
/// remote table access), a WebServiceEndpoint marshals every result through
/// XML (serialize → parse), exactly like the paper's "data sources hidden
/// by Web services".
class Endpoint {
 public:
  Endpoint(std::string name, Database* db, Channel channel,
           double per_row_ms);
  virtual ~Endpoint() = default;

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  const std::string& name() const { return name_; }
  Database* database() { return db_; }

  /// Attaches an observer to this endpoint and its channel: per-endpoint
  /// round-trip and external-row counters plus the channel's byte/transfer
  /// accounting. The priced costs are unchanged.
  void SetObserver(obs::ObsContext obs) {
    obs_ = obs;
    channel_.SetObserver(obs);
  }

  /// Installs (or clears, with nullptr) deterministic fault injection for
  /// this endpoint. Every public operation first consults the injector:
  /// an injected fault fails the call with Unavailable *before* the
  /// operation body runs, so the external system performs no work and
  /// changes no state — retrying a faulted call is always safe.
  void SetFaultInjector(std::unique_ptr<FaultInjector> injector) {
    fault_injector_ = std::move(injector);
  }
  FaultInjector* fault_injector() { return fault_injector_.get(); }

  /// Registers named operations.
  Status RegisterQuery(const std::string& op, QueryOp fn);
  Status RegisterUpdate(const std::string& op, UpdateOp fn);

  /// The public operations are non-virtual: they run the fault-injection
  /// gate and then dispatch to the protected Do* implementations that
  /// subclasses override (NVI), so every endpoint flavour shares one fault
  /// model without re-implementing it.

  /// Executes a query operation; stats (when non-null) accumulate the
  /// communication + external processing cost.
  Result<RowSet> Query(const std::string& op, const std::vector<Value>& params,
                       NetStats* stats);

  /// Executes a query operation and returns the generic XML result-set
  /// document (region-Asia extraction path: the caller translates it with
  /// STX before loading).
  Result<xml::Node> QueryXml(const std::string& op,
                             const std::vector<Value>& params,
                             NetStats* stats);

  /// Executes an update operation with a rows payload.
  Result<size_t> Update(const std::string& op, const RowSet& rows,
                        NetStats* stats);

  /// Sends an XML business message to the endpoint, landing it in the named
  /// queue table via Database::InsertWithTriggers (message-stream event
  /// realization, paper Fig. 9a). The message text is stored as a string
  /// column alongside a sequence id.
  Status SendMessage(const std::string& queue_table, const xml::Node& message,
                     NetStats* stats);

  /// Calls a stored procedure on the backing database.
  Status CallProcedure(const std::string& proc, const std::vector<Value>& args,
                       NetStats* stats);

 protected:
  virtual Result<RowSet> DoQuery(const std::string& op,
                                 const std::vector<Value>& params,
                                 NetStats* stats);
  virtual Result<xml::Node> DoQueryXml(const std::string& op,
                                       const std::vector<Value>& params,
                                       NetStats* stats);
  virtual Result<size_t> DoUpdate(const std::string& op, const RowSet& rows,
                                  NetStats* stats);
  virtual Status DoSendMessage(const std::string& queue_table,
                               const xml::Node& message, NetStats* stats);
  virtual Status DoCallProcedure(const std::string& proc,
                                 const std::vector<Value>& args,
                                 NetStats* stats);

  /// The fault gate every public operation passes through.
  Status MaybeInjectFault(NetStats* stats);

  /// Charges a round trip plus external per-row processing to `stats`.
  void Charge(size_t request_bytes, size_t response_bytes, uint64_t rows,
              NetStats* stats);

  std::string name_;
  Database* db_;  // not owned
  Channel channel_;
  double per_row_ms_;
  obs::ObsContext obs_;
  std::unique_ptr<FaultInjector> fault_injector_;
  std::map<std::string, QueryOp> queries_;
  std::map<std::string, UpdateOp> updates_;
};

/// Remote-RDBMS flavour: rows travel in binary form (cheapest path).
class DatabaseEndpoint : public Endpoint {
 public:
  using Endpoint::Endpoint;
};

/// Web-service flavour: every result marshals through the generic XML
/// result-set document and back — the code path is genuinely exercised
/// (serialize, parse), and both directions are charged.
class WebServiceEndpoint : public Endpoint {
 public:
  WebServiceEndpoint(std::string name, Database* db, Channel channel,
                     double per_row_ms, double per_node_ms);

 protected:
  Result<RowSet> DoQuery(const std::string& op,
                         const std::vector<Value>& params,
                         NetStats* stats) override;
  Result<xml::Node> DoQueryXml(const std::string& op,
                               const std::vector<Value>& params,
                               NetStats* stats) override;
  Result<size_t> DoUpdate(const std::string& op, const RowSet& rows,
                          NetStats* stats) override;

 private:
  double per_node_ms_;
};

/// Registry of every external system in the scenario (paper machine "ES").
class Network {
 public:
  Network() = default;
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Takes ownership of the endpoint. Errors on duplicate names.
  Status AddEndpoint(std::unique_ptr<Endpoint> endpoint);
  Result<Endpoint*> Get(const std::string& name);
  bool Has(const std::string& name) const { return endpoints_.count(name) > 0; }
  std::vector<std::string> ListEndpoints() const;

  /// Forwards the observer to every registered endpoint (and endpoints
  /// added later).
  void SetObserver(obs::ObsContext obs) {
    obs_ = obs;
    for (auto& [name, ep] : endpoints_) ep->SetObserver(obs);
  }

  /// Installs the fault plan on every registered endpoint. Each endpoint
  /// gets an independent PRNG stream forked deterministically from `seed`
  /// in endpoint-name order, so adding an endpoint does not reshuffle the
  /// fault schedule of the others. A disabled plan uninstalls all
  /// injectors; with it the run is byte-identical to a never-faulted one.
  void InstallFaults(const FaultPlan& plan, uint64_t seed);

 private:
  std::map<std::string, std::unique_ptr<Endpoint>> endpoints_;
  obs::ObsContext obs_;
};

}  // namespace net
}  // namespace dipbench

#endif  // DIPBENCH_NET_ENDPOINT_H_
