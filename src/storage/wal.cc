#include "storage/wal.h"

namespace screp {

void Wal::MakeDurableLocked(const std::string& record) {
  offsets_.push_back(durable_.size());
  durable_ += record;
}

uint64_t Wal::Append(const WriteSet& ws, bool force) {
  std::lock_guard lock(mutex_);
  const uint64_t lsn = appended_++;
  if (force) {
    // Force implies flushing everything buffered before this record, to
    // preserve ordering.  The record bytes come straight from the
    // writeset's memoized encode arena — encoded once when the certifier
    // froze it, appended here without a per-record temporary.
    for (const std::string& b : buffered_) MakeDurableLocked(b);
    buffered_.clear();
    MakeDurableLocked(ws.EncodedBytes());
  } else {
    buffered_.push_back(ws.EncodedBytes());
  }
  return lsn;
}

void Wal::Force() {
  std::lock_guard lock(mutex_);
  for (const std::string& b : buffered_) MakeDurableLocked(b);
  buffered_.clear();
}

uint64_t Wal::Size() const {
  std::lock_guard lock(mutex_);
  return appended_;
}

uint64_t Wal::DurableSize() const {
  std::lock_guard lock(mutex_);
  return offsets_.size();
}

size_t Wal::DurableBytes() const {
  std::lock_guard lock(mutex_);
  return durable_.size();
}

Status Wal::ReadAll(std::vector<WriteSet>* out) const {
  return ReadFrom(0, [out](const WriteSet& ws) { out->push_back(ws); });
}

Status Wal::ReadFrom(uint64_t first,
                     const std::function<void(const WriteSet&)>& sink) const {
  std::lock_guard lock(mutex_);
  if (first >= offsets_.size()) return Status::OK();
  size_t offset = offsets_[first];
  while (offset < durable_.size()) {
    WriteSet ws;
    if (!WriteSet::DecodeFrom(durable_, &offset, &ws)) {
      return Status::IOError("corrupt WAL record at offset " +
                             std::to_string(offset));
    }
    sink(ws);
  }
  return Status::OK();
}

void Wal::DropUnforced() {
  std::lock_guard lock(mutex_);
  appended_ -= buffered_.size();
  buffered_.clear();
}

}  // namespace screp
