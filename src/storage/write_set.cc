#include "storage/write_set.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"

namespace screp {

namespace {

void PutU8(std::string* out, uint8_t v) { out->push_back(static_cast<char>(v)); }

void PutU64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

void PutI64(std::string* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

void PutF64(std::string* out, double v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

void PutString(std::string* out, const std::string& s) {
  PutU64(out, s.size());
  out->append(s);
}

bool GetU8(const std::string& in, size_t* off, uint8_t* v) {
  if (*off + 1 > in.size()) return false;
  *v = static_cast<uint8_t>(in[*off]);
  *off += 1;
  return true;
}

bool GetU64(const std::string& in, size_t* off, uint64_t* v) {
  if (*off + 8 > in.size()) return false;
  std::memcpy(v, in.data() + *off, 8);
  *off += 8;
  return true;
}

bool GetI64(const std::string& in, size_t* off, int64_t* v) {
  uint64_t u;
  if (!GetU64(in, off, &u)) return false;
  *v = static_cast<int64_t>(u);
  return true;
}

bool GetF64(const std::string& in, size_t* off, double* v) {
  if (*off + 8 > in.size()) return false;
  std::memcpy(v, in.data() + *off, 8);
  *off += 8;
  return true;
}

bool GetString(const std::string& in, size_t* off, std::string* s) {
  uint64_t n;
  if (!GetU64(in, off, &n)) return false;
  if (*off + n > in.size()) return false;
  s->assign(in, *off, n);
  *off += n;
  return true;
}

void EncodeValue(std::string* out, const Value& v) {
  PutU8(out, static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt64:
      PutI64(out, v.AsInt());
      break;
    case ValueType::kDouble:
      PutF64(out, v.AsDouble());
      break;
    case ValueType::kString:
      PutString(out, v.AsString());
      break;
  }
}

bool DecodeValue(const std::string& in, size_t* off, Value* v) {
  uint8_t tag;
  if (!GetU8(in, off, &tag)) return false;
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      *v = Value();
      return true;
    case ValueType::kInt64: {
      int64_t x;
      if (!GetI64(in, off, &x)) return false;
      *v = Value(x);
      return true;
    }
    case ValueType::kDouble: {
      double x;
      if (!GetF64(in, off, &x)) return false;
      *v = Value(x);
      return true;
    }
    case ValueType::kString: {
      std::string s;
      if (!GetString(in, off, &s)) return false;
      *v = Value(std::move(s));
      return true;
    }
  }
  return false;
}

}  // namespace

void WriteSet::Add(TableId table, int64_t key, WriteType type,
                   std::optional<Row> row) {
  // Coalescing can rewrite a row in place without changing ops.size(),
  // so the memo stamps alone cannot catch this mutation.
  InvalidateCaches();
  for (WriteOp& op : ops) {
    if (op.table == table && op.key == key) {
      // Last write wins; insert followed by update remains an insert so
      // refresh application still creates the record at other replicas.
      if (op.type == WriteType::kInsert && type == WriteType::kUpdate) {
        op.row = std::move(row);
      } else if (op.type == WriteType::kInsert && type == WriteType::kDelete) {
        // Insert then delete within one transaction: net effect is nothing,
        // but keep the delete so refresh application is idempotent.
        op.type = WriteType::kDelete;
        op.row.reset();
      } else {
        op.type = type;
        op.row = std::move(row);
      }
      return;
    }
  }
  ops.push_back(WriteOp{table, key, type, std::move(row)});
}

bool WriteSet::ConflictsWith(const WriteSet& other) const {
  // Writesets in these workloads are small (a handful of records), so the
  // quadratic scan beats building hash sets.
  for (const WriteOp& a : ops) {
    for (const WriteOp& b : other.ops) {
      if (a.table == b.table && a.key == b.key) return true;
    }
  }
  return false;
}

std::vector<TableId> WriteSet::TablesWritten() const {
  std::vector<TableId> tables;
  tables.reserve(ops.size());
  for (const WriteOp& op : ops) tables.push_back(op.table);
  std::sort(tables.begin(), tables.end());
  tables.erase(std::unique(tables.begin(), tables.end()), tables.end());
  return tables;
}

size_t WriteSet::ByteSize() const {
  size_t total = 32;  // header metadata
  for (const WriteOp& op : ops) {
    total += 16;
    if (op.row) total += RowByteSize(*op.row);
  }
  return total;
}

size_t WriteSet::SerializedBytes() const {
  if (!size_valid_ || !SizeStampMatches()) {
    // Restamping would mask the container change from the encode memo's
    // own stamp check, so invalidate it alongside.
    enc_valid_ = false;
    cached_bytes_ = SerializedBytesUncached();
    RestampSizes();
    size_valid_ = true;
  }
  return cached_bytes_;
}

const std::string& WriteSet::EncodedBytes() const {
  const bool stale = !enc_valid_ || !SizeStampMatches() ||
                     enc_txn_ != txn_id || enc_snapshot_ != snapshot_version ||
                     enc_commit_ != commit_version || enc_origin_ != origin;
  if (stale) {
    size_valid_ = false;  // mirror image of the restamp hazard above
    encoded_.clear();
    EncodeTo(&encoded_);
    enc_txn_ = txn_id;
    enc_snapshot_ = snapshot_version;
    enc_commit_ = commit_version;
    enc_origin_ = origin;
    RestampSizes();
    enc_valid_ = true;
  }
  return encoded_;
}

size_t WriteSet::SerializedBytesUncached() const {
  // Mirrors EncodeTo() field by field; write_set_test asserts the two
  // stay in lockstep.
  size_t total = 8 + 8 + 8 + 8;  // txn_id, snapshot, commit, origin
  total += 8;                    // n_ops
  for (const WriteOp& op : ops) {
    total += 8 + 8 + 1 + 1;  // table, key, type, has_row
    if (op.row) {
      total += 8;  // n_vals
      for (const Value& v : *op.row) {
        total += 1;  // type tag
        switch (v.type()) {
          case ValueType::kNull:
            break;
          case ValueType::kInt64:
          case ValueType::kDouble:
            total += 8;
            break;
          case ValueType::kString:
            total += 8 + v.AsString().size();
            break;
        }
      }
    }
  }
  total += 8 + 16 * read_keys.size();    // n_read_keys + (table, key)
  total += 8 + 24 * read_ranges.size();  // n_ranges + (table, lo, hi)
  return total;
}

void WriteSet::EncodeTo(std::string* out) const {
  PutU64(out, txn_id);
  PutI64(out, snapshot_version);
  PutI64(out, commit_version);
  PutI64(out, origin);
  PutU64(out, ops.size());
  for (const WriteOp& op : ops) {
    PutI64(out, op.table);
    PutI64(out, op.key);
    PutU8(out, static_cast<uint8_t>(op.type));
    PutU8(out, op.row.has_value() ? 1 : 0);
    if (op.row) {
      PutU64(out, op.row->size());
      for (const Value& v : *op.row) EncodeValue(out, v);
    }
  }
  PutU64(out, read_keys.size());
  for (const auto& [table, key] : read_keys) {
    PutI64(out, table);
    PutI64(out, key);
  }
  PutU64(out, read_ranges.size());
  for (const ReadRange& range : read_ranges) {
    PutI64(out, range.table);
    PutI64(out, range.lo);
    PutI64(out, range.hi);
  }
}

bool WriteSet::DecodeFrom(const std::string& data, size_t* offset,
                          WriteSet* out) {
  out->InvalidateCaches();
  // Not part of the wire format: decoding into a reused writeset must
  // not leave another transaction's shard coordinates attached.
  out->shard_versions.clear();
  out->shard_snapshots.clear();
  uint64_t n_ops;
  int64_t table, key, origin64;
  if (!GetU64(data, offset, &out->txn_id)) return false;
  if (!GetI64(data, offset, &out->snapshot_version)) return false;
  if (!GetI64(data, offset, &out->commit_version)) return false;
  if (!GetI64(data, offset, &origin64)) return false;
  out->origin = static_cast<ReplicaId>(origin64);
  if (!GetU64(data, offset, &n_ops)) return false;
  out->ops.clear();
  out->ops.reserve(n_ops);
  for (uint64_t i = 0; i < n_ops; ++i) {
    WriteOp op;
    uint8_t type_tag, has_row;
    if (!GetI64(data, offset, &table)) return false;
    if (!GetI64(data, offset, &key)) return false;
    if (!GetU8(data, offset, &type_tag)) return false;
    if (!GetU8(data, offset, &has_row)) return false;
    op.table = static_cast<TableId>(table);
    op.key = key;
    op.type = static_cast<WriteType>(type_tag);
    if (has_row) {
      uint64_t n_vals;
      if (!GetU64(data, offset, &n_vals)) return false;
      Row row;
      row.reserve(n_vals);
      for (uint64_t j = 0; j < n_vals; ++j) {
        Value v;
        if (!DecodeValue(data, offset, &v)) return false;
        row.push_back(std::move(v));
      }
      op.row = std::move(row);
    }
    out->ops.push_back(std::move(op));
  }
  uint64_t n_read_keys;
  if (!GetU64(data, offset, &n_read_keys)) return false;
  out->read_keys.clear();
  out->read_keys.reserve(n_read_keys);
  for (uint64_t i = 0; i < n_read_keys; ++i) {
    int64_t table, key;
    if (!GetI64(data, offset, &table)) return false;
    if (!GetI64(data, offset, &key)) return false;
    out->read_keys.emplace_back(static_cast<TableId>(table), key);
  }
  uint64_t n_ranges;
  if (!GetU64(data, offset, &n_ranges)) return false;
  out->read_ranges.clear();
  out->read_ranges.reserve(n_ranges);
  for (uint64_t i = 0; i < n_ranges; ++i) {
    int64_t table, lo, hi;
    if (!GetI64(data, offset, &table)) return false;
    if (!GetI64(data, offset, &lo)) return false;
    if (!GetI64(data, offset, &hi)) return false;
    out->read_ranges.push_back(
        ReadRange{static_cast<TableId>(table), lo, hi});
  }
  return true;
}

std::string WriteSet::ToString() const {
  std::string out = "ws{txn=" + std::to_string(txn_id) +
                    " snap=" + std::to_string(snapshot_version) +
                    " commit=" + std::to_string(commit_version) + " ops=[";
  for (size_t i = 0; i < ops.size(); ++i) {
    if (i > 0) out += ", ";
    const WriteOp& op = ops[i];
    const char* kind = op.type == WriteType::kInsert
                           ? "ins"
                           : (op.type == WriteType::kUpdate ? "upd" : "del");
    out += std::string(kind) + " t" + std::to_string(op.table) + "#" +
           std::to_string(op.key);
  }
  out += "]}";
  return out;
}

}  // namespace screp
