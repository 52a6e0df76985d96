// Measurements of single layers, made outside the running system by
// calling each module's public API on the workload's own generated
// inputs (same seed, same client streams as the load).
#ifndef WALLBENCH_REPLAY_H_
#define WALLBENCH_REPLAY_H_

#include "common.h"
#include "workloads.h"

namespace wallbench {

/// Standalone layer replay: one Database built by the workload's
/// BuildSchema, each generated transaction run through its registered
/// prepared statements, update transactions committed through
/// BuildWriteSet + ApplyWriteSet; then the writesets are appended to a
/// fresh Wal and certified by a standalone Certifier on a SimRuntime
/// with zero modelled delays.  Adds sql.exec_us_per_txn.{p50,p99},
/// storage.commit_us.p50, storage.writeset_bytes_per_update,
/// storage.wal_append_us.p50 and certifier.certify_us.p50.  Runs for at
/// most `budget_s` of wall time.
void RunLayerReplays(const BenchWorkload& w, uint64_t seed, double budget_s,
                     Report* report);

/// Modelled-delay probe: the same generated inputs, 4 closed-loop
/// clients, run on SimRuntime under unmodified RealtimeSystemConfig().
/// Adds workload.modelled_delay_us_per_txn: virtual microseconds from the
/// first submission to the last acknowledgment, per committed txn.  A
/// configuration that models no delay reads 0.
void RunModelledDelayProbe(const BenchWorkload& w, uint64_t seed,
                           int64_t txns, Report* report);

}  // namespace wallbench

#endif  // WALLBENCH_REPLAY_H_
