#include "cost/cost_model.hpp"

namespace canary::cost {

namespace {

/// IBM Cloud Functions' price per GB-second (§V-D4).
constexpr double kIbmUsdPerGbSecond = 0.000017;

}  // namespace

double CostModel::cost_usd(const faas::UsageLedger& ledger) const {
  return ledger.total_gb_seconds() * kIbmUsdPerGbSecond;
}

CostBreakdown CostModel::breakdown(const faas::UsageLedger& ledger) const {
  CostBreakdown result;
  result.function_usd =
      ledger.gb_seconds_for(faas::ContainerPurpose::kFunction) *
      kIbmUsdPerGbSecond;
  result.replica_usd =
      ledger.gb_seconds_for(faas::ContainerPurpose::kRuntimeReplica) *
      kIbmUsdPerGbSecond;
  result.rr_usd =
      ledger.gb_seconds_for(faas::ContainerPurpose::kRequestReplica) *
      kIbmUsdPerGbSecond;
  result.standby_usd =
      ledger.gb_seconds_for(faas::ContainerPurpose::kStandby) *
      kIbmUsdPerGbSecond;
  result.total_usd = result.function_usd + result.replica_usd +
                     result.rr_usd + result.standby_usd;
  return result;
}

}  // namespace canary::cost
