#ifndef DIPBENCH_CORE_MESSAGE_H_
#define DIPBENCH_CORE_MESSAGE_H_

#include <memory>
#include <string>

#include "src/common/result.h"
#include "src/ra/plan.h"
#include "src/xml/node.h"

namespace dipbench {
namespace core {

/// The unit of data flowing between MTM operators: either an XML document
/// or a relational row set. Payloads are shared immutably so SWITCH/FORK
/// fan-out does not copy data.
class MtmMessage {
 public:
  MtmMessage() = default;

  static MtmMessage FromXml(std::shared_ptr<const xml::Node> doc) {
    MtmMessage m;
    m.doc_ = std::move(doc);
    return m;
  }
  static MtmMessage FromXml(xml::Node doc) {
    return FromXml(std::make_shared<const xml::Node>(std::move(doc)));
  }
  static MtmMessage FromRows(RowSet rows) {
    MtmMessage m;
    m.rows_ = std::make_shared<const RowSet>(std::move(rows));
    return m;
  }

  bool empty() const { return doc_ == nullptr && rows_ == nullptr; }
  bool is_xml() const { return doc_ != nullptr; }
  bool is_rows() const { return rows_ != nullptr; }

  /// Accessors error with TypeMismatch when the payload kind differs.
  Result<std::shared_ptr<const xml::Node>> Xml() const {
    if (doc_ == nullptr) return Status::TypeMismatch("message is not XML");
    return doc_;
  }
  Result<std::shared_ptr<const RowSet>> Rows() const {
    if (rows_ == nullptr) {
      return Status::TypeMismatch("message is not a row set");
    }
    return rows_;
  }

  /// Payload size for communication-cost purposes.
  size_t ByteSize() const {
    if (doc_ != nullptr) return doc_->SubtreeSize() * 24;
    if (rows_ != nullptr) return rows_->ByteSize();
    return 0;
  }

  /// Work units for processing-cost purposes.
  size_t XmlNodes() const { return doc_ != nullptr ? doc_->SubtreeSize() : 0; }
  size_t RowCount() const { return rows_ != nullptr ? rows_->size() : 0; }

 private:
  std::shared_ptr<const xml::Node> doc_;
  std::shared_ptr<const RowSet> rows_;
};

}  // namespace core
}  // namespace dipbench

#endif  // DIPBENCH_CORE_MESSAGE_H_
