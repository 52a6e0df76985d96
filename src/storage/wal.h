// A minimal write-ahead log storing serialized writesets.
//
// In the paper's prototype, transaction durability is enforced by the
// certifier, which forces its log; replicas run with log forcing turned
// off and keep no log at all here.  Appends are either forced (durable at
// once) or buffered until Force().  The log is held in memory with
// explicit serialization so recovery genuinely re-decodes bytes, and the
// start offset of every durable record is kept so a reader can start at
// any record (the certifier's catch-up path) without decoding the prefix.

#ifndef SCREP_STORAGE_WAL_H_
#define SCREP_STORAGE_WAL_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "storage/write_set.h"

namespace screp {

/// Append-only log of certified writesets.
class Wal {
 public:
  Wal() = default;
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Appends a writeset; returns its log sequence number (0-based).
  /// When `force` is true the record is immediately durable.
  uint64_t Append(const WriteSet& ws, bool force);

  /// Makes every appended record durable.
  void Force();

  /// Number of records appended.
  uint64_t Size() const;

  /// Number of records that are durable (forced).
  uint64_t DurableSize() const;

  /// Total bytes of serialized durable log.
  size_t DurableBytes() const;

  /// Decodes durable records in order into `out`. Returns IOError on a
  /// corrupt record.
  Status ReadAll(std::vector<WriteSet>* out) const;

  /// Decodes durable records `first`, first + 1, ... (0-based, append
  /// order) and hands each to `sink`; nothing when first >= DurableSize().
  /// `sink` runs under the log's lock and must not call back into it.
  /// Returns IOError on a corrupt record.
  Status ReadFrom(uint64_t first,
                  const std::function<void(const WriteSet&)>& sink) const;

  /// Drops *unforced* records — simulates a crash losing buffered log.
  void DropUnforced();

 private:
  /// Moves one serialized record into the durable log.
  void MakeDurableLocked(const std::string& record);

  mutable std::mutex mutex_;
  std::string durable_;            // serialized forced records
  std::vector<size_t> offsets_;    // start of each durable record
  std::vector<std::string> buffered_;  // serialized but not yet forced
  uint64_t appended_ = 0;
};

}  // namespace screp

#endif  // SCREP_STORAGE_WAL_H_
