#include "workloads.h"

#include "common/logging.h"
#include "workload/micro.h"
#include "workload/realtime.h"
#include "workload/tpcw.h"

namespace wallbench {

using screp::Rng;
using screp::TxnSpec;
using screp::Value;

namespace {

/// kv-tcp's input stream: one READ or one UPDATE per transaction,
/// expressed as the kv grid's single-op types (kv_r1_u0 / kv_r0_u1) so
/// the in-process replays can run it too.
class KvGenerator : public screp::TxnGenerator {
 public:
  KvGenerator(screp::TxnTypeId read, screp::TxnTypeId update, Rng rng)
      : read_(read), update_(update), rng_(rng) {}

  TxnSpec Next() override {
    const int64_t key = rng_.NextInRange(0, kKvRows - 1);
    TxnSpec spec;
    if (rng_.NextBool(kKvUpdateFraction)) {
      spec.type = update_;
      // UPDATE kv SET val = ? WHERE id = ?
      spec.params = {{Value(rng_.NextInRange(1, 1000000000)), Value(key)}};
    } else {
      spec.type = read_;
      // SELECT id, val FROM kv WHERE id = ?
      spec.params = {{Value(key)}};
    }
    return spec;
  }

 private:
  screp::TxnTypeId read_;
  screp::TxnTypeId update_;
  Rng rng_;
};

/// The kv grid as a Workload, so every measurement can treat the four
/// workloads alike.
class KvWorkload : public screp::Workload {
 public:
  KvWorkload() : grid_(screp::KvGridConfig{}) {}

  std::string name() const override { return "kv"; }
  screp::Status BuildSchema(screp::Database* db) const override {
    return grid_.BuildSchema(db);
  }
  screp::Status DefineTransactions(
      const screp::Database& db,
      screp::sql::TransactionRegistry* registry) const override {
    return grid_.DefineTransactions(db, registry);
  }
  std::unique_ptr<screp::TxnGenerator> CreateGenerator(
      const screp::sql::TransactionRegistry& registry, int client_id,
      Rng rng) const override {
    (void)client_id;
    auto read = grid_.TypeFor(registry, 1, 0);
    auto update = grid_.TypeFor(registry, 0, 1);
    SCREP_CHECK(read.ok() && update.ok());
    return std::make_unique<KvGenerator>(*read, *update, rng);
  }

 private:
  screp::KvGridWorkload grid_;
};

}  // namespace

std::unique_ptr<BenchWorkload> MakeWorkload(const std::string& name) {
  auto w = std::make_unique<BenchWorkload>();
  w->name = name;
  if (name == "micro-read" || name == "micro-write") {
    screp::MicroConfig config;  // 4 x 10 000 rows, 100-char pad
    const bool write = name == "micro-write";
    config.update_fraction = write ? 1.0 : 0.25;
    w->level = write ? screp::ConsistencyLevel::kEager
                     : screp::ConsistencyLevel::kLazyCoarse;
    w->workload = std::make_unique<screp::MicroWorkload>(config);
    w->micro = true;
  } else if (name == "tpcw-shopping") {
    w->level = screp::ConsistencyLevel::kLazyCoarse;
    w->workload = std::make_unique<screp::TpcwWorkload>(
        screp::TpcwScale{}, screp::TpcwMix::kShopping);
  } else if (name == "kv-tcp") {
    w->level = screp::ConsistencyLevel::kLazyCoarse;
    w->workload = std::make_unique<KvWorkload>();
    w->tcp = true;
  } else {
    return nullptr;
  }
  return w;
}

std::vector<std::unique_ptr<screp::TxnGenerator>> MakeGenerators(
    const screp::Workload& workload,
    const screp::sql::TransactionRegistry& registry, uint64_t seed,
    int clients) {
  Rng seed_rng(seed);
  std::vector<std::unique_ptr<screp::TxnGenerator>> gens;
  for (int c = 0; c < clients; ++c) {
    gens.push_back(workload.CreateGenerator(registry, c, seed_rng.Fork()));
  }
  return gens;
}

KvOp KvOpOf(const TxnSpec& spec) {
  KvOp op;
  const auto& params = spec.params.at(0);
  op.update = params.size() == 2;
  op.key = params.back().AsInt();
  if (op.update) op.value = params.front().AsInt();
  return op;
}

}  // namespace wallbench
