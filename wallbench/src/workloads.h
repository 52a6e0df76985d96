// The benchmark's named workloads and the pieces every measurement of
// them shares: the workload object (schema, prepared transactions,
// generators) and the per-client input streams derived from --seed.
//
//   micro-read     in-process, LSC, micro tables, 25% updates
//   micro-write    in-process, ESC, micro tables, 100% updates
//   tpcw-shopping  in-process, LSC, TPC-W shopping mix, default scale
//   kv-tcp         screp_server over loopback; BEGIN, READ k or
//                  UPDATE k v (25% updates, 10 000 keys), COMMIT
#ifndef WALLBENCH_WORKLOADS_H_
#define WALLBENCH_WORKLOADS_H_

#include <memory>
#include <string>
#include <vector>

#include "core/consistency_level.h"
#include "workload/client.h"

namespace wallbench {

struct BenchWorkload {
  std::string name;
  screp::ConsistencyLevel level = screp::ConsistencyLevel::kLazyCoarse;
  std::unique_ptr<screp::Workload> workload;
  /// Driven over TCP through screp_server (kv-tcp).
  bool tcp = false;
  /// Micro tables: updates are `val = val + delta`, so the final value
  /// of every key is known from the acknowledged updates.
  bool micro = false;
};

/// The workload named `name`; null for an unknown name.
std::unique_ptr<BenchWorkload> MakeWorkload(const std::string& name);

/// Consecutive execution errors after which a client drops the
/// transaction instance and counts it as failed.
inline constexpr int kMaxExecErrors = 5;

/// kv-tcp geometry, matching screp_server's defaults.
inline constexpr int kKvRows = 10000;
inline constexpr double kKvUpdateFraction = 0.25;

/// One client's input stream: client c draws from the c-th fork of
/// Rng(seed), so the load, the layer replays and the modelled-delay
/// probe all see the same transactions for one seed.
std::vector<std::unique_ptr<screp::TxnGenerator>> MakeGenerators(
    const screp::Workload& workload,
    const screp::sql::TransactionRegistry& registry, uint64_t seed,
    int clients);

/// kv-tcp: the single-op transaction a generated spec stands for.
struct KvOp {
  bool update = false;
  int64_t key = 0;
  int64_t value = 0;
};
KvOp KvOpOf(const screp::TxnSpec& spec);

}  // namespace wallbench

#endif  // WALLBENCH_WORKLOADS_H_
