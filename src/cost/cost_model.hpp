// Dollar-cost model (paper §V-D4).
//
// "We consider the pricing model of $0.000017 per second of execution,
// per GB of memory allocated from IBM Cloud Functions ... the pricing
// model of AWS Lambda is comparable, i.e., ~$0.0000167." Cost is the sum
// over container occupancy intervals of duration x allocated GB x rate;
// replicated runtimes, request replicas and standby instances bill like
// any other container, which is exactly what separates the strategies in
// Figs. 8-10.
#pragma once

#include "faas/usage.hpp"

namespace canary::cost {

struct CostBreakdown {
  double total_usd = 0.0;
  double function_usd = 0.0;   // primary function containers
  double replica_usd = 0.0;    // Canary runtime replicas
  double rr_usd = 0.0;         // request-replication instances
  double standby_usd = 0.0;    // active-standby passive instances
};

/// Prices a usage ledger at IBM Cloud Functions' rate.
class CostModel {
 public:
  double cost_usd(const faas::UsageLedger& ledger) const;
  CostBreakdown breakdown(const faas::UsageLedger& ledger) const;
};

}  // namespace canary::cost
