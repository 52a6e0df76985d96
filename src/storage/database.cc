#include "storage/database.h"

#include <algorithm>

#include "common/logging.h"
#include "storage/transaction.h"
#include "storage/wal.h"

namespace screp {

Database::Database() = default;
Database::~Database() = default;

Result<TableId> Database::CreateTable(const std::string& name,
                                      Schema schema) {
  std::lock_guard lock(catalog_mutex_);
  if (table_ids_.count(name) != 0) {
    return Status::AlreadyExists("table '" + name + "'");
  }
  const TableId id = static_cast<TableId>(tables_.size());
  tables_.push_back(std::make_unique<Table>(id, name, std::move(schema)));
  table_ids_[name] = id;
  return id;
}

Result<TableId> Database::FindTable(const std::string& name) const {
  std::lock_guard lock(catalog_mutex_);
  auto it = table_ids_.find(name);
  if (it == table_ids_.end()) {
    return Status::NotFound("table '" + name + "'");
  }
  return it->second;
}

Status Database::CreateIndex(TableId table_id,
                             const std::string& column_name) {
  Table* t = table(table_id);
  const int column = t->schema().ColumnIndex(column_name);
  if (column < 0) {
    return Status::NotFound("column '" + column_name + "' in table '" +
                            t->name() + "'");
  }
  SCREP_RETURN_NOT_OK(t->CreateIndex(column));
  catalog_epoch_.fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
}

Table* Database::table(TableId id) {
  std::lock_guard lock(catalog_mutex_);
  SCREP_CHECK_MSG(id >= 0 && static_cast<size_t>(id) < tables_.size(),
                  "bad table id " << id);
  return tables_[static_cast<size_t>(id)].get();
}

const Table* Database::table(TableId id) const {
  std::lock_guard lock(catalog_mutex_);
  SCREP_CHECK_MSG(id >= 0 && static_cast<size_t>(id) < tables_.size(),
                  "bad table id " << id);
  return tables_[static_cast<size_t>(id)].get();
}

const std::string& Database::TableName(TableId id) const {
  return table(id)->name();
}

size_t Database::TableCount() const {
  std::lock_guard lock(catalog_mutex_);
  return tables_.size();
}

std::vector<std::string> Database::TableNames() const {
  std::lock_guard lock(catalog_mutex_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& t : tables_) names.push_back(t->name());
  return names;
}

std::unique_ptr<Transaction> Database::Begin() {
  // Read the committed version and register it as active under one lock
  // so a concurrent apply's prune horizon either counts this snapshot or
  // was read before it existed (and is then <= it).
  std::lock_guard lock(snapshots_mutex_);
  const DbVersion snapshot = CommittedVersion();
  active_snapshots_.insert(snapshot);
  return std::unique_ptr<Transaction>(new Transaction(this, snapshot));
}

void Database::UnregisterSnapshot(DbVersion snapshot) {
  std::lock_guard lock(snapshots_mutex_);
  auto it = active_snapshots_.find(snapshot);
  SCREP_CHECK_MSG(it != active_snapshots_.end(),
                  "unregistering unknown snapshot " << snapshot);
  active_snapshots_.erase(it);
}

Status Database::ApplyWriteSet(const WriteSet& ws) {
  std::lock_guard lock(commit_mutex_);
  const DbVersion expected = CommittedVersion() + 1;
  if (ws.commit_version != expected) {
    return Status::Internal(
        "out-of-order commit: writeset version " +
        std::to_string(ws.commit_version) + ", expected " +
        std::to_string(expected));
  }
  ApplyLocked(ws, expected);
  return Status::OK();
}

Status Database::ApplyWriteSetLocal(const WriteSet& ws) {
  std::lock_guard lock(commit_mutex_);
  ApplyLocked(ws, CommittedVersion() + 1);
  return Status::OK();
}

void Database::ApplyLocked(const WriteSet& ws, DbVersion version) {
  for (const WriteOp& op : ws.ops) {
    Table* t = table(op.table);
    std::optional<Table::ChainRef> superseded;
    if (op.type == WriteType::kDelete) {
      superseded = t->Install(op.key, version, /*deleted=*/true, Row{});
    } else {
      SCREP_CHECK_MSG(op.row.has_value(), "insert/update without row");
      superseded = t->Install(op.key, version, /*deleted=*/false, *op.row);
    }
    if (superseded) prune_queue_.push_back({t, *superseded, version});
  }
  committed_version_.store(version, std::memory_order_release);
  DbVersion horizon = version;
  {
    std::lock_guard lock(snapshots_mutex_);
    if (!active_snapshots_.empty()) {
      horizon = std::min(horizon, *active_snapshots_.begin());
    }
  }
  while (!prune_queue_.empty() &&
         prune_queue_.front().superseded_at <= horizon) {
    const Superseded& s = prune_queue_.front();
    s.table->PruneChain(s.chain, s.superseded_at, horizon);
    prune_queue_.pop_front();
  }
}

Status Database::BulkLoad(TableId table_id, Row row) {
  Table* t = table(table_id);
  SCREP_RETURN_NOT_OK(t->schema().ValidateRow(row));
  if (row.empty() || row[0].type() != ValueType::kInt64) {
    return Status::InvalidArgument("bulk load row needs INT key");
  }
  const int64_t key = row[0].AsInt();
  t->Install(key, /*version=*/0, /*deleted=*/false, std::move(row));
  return Status::OK();
}

Status Database::RecoverFrom(const Wal& wal) {
  std::vector<WriteSet> records;
  SCREP_RETURN_NOT_OK(wal.ReadAll(&records));
  for (const WriteSet& ws : records) {
    SCREP_RETURN_NOT_OK(ApplyWriteSet(ws));
  }
  return Status::OK();
}

size_t Database::VersionCount() const {
  size_t n;
  {
    std::lock_guard lock(catalog_mutex_);
    n = tables_.size();
  }
  size_t total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += table(static_cast<TableId>(i))->VersionCount();
  }
  return total;
}

size_t Database::PruneQueueDepth() const {
  std::lock_guard lock(commit_mutex_);
  return prune_queue_.size();
}

}  // namespace screp
