#include "canary/request_validator.hpp"

namespace canary::core {

ValidationResult RequestValidator::validate(const faas::JobSpec& job,
                                            std::size_t in_flight) const {
  if (job.functions.empty()) {
    return {Verdict::kReject, "job has no functions"};
  }
  if (job.functions.size() > faas::kMaxFunctionsPerJob) {
    return {Verdict::kReject, "job exceeds the per-job function limit"};
  }
  for (const auto& fn : job.functions) {
    if (fn.effective_memory() > faas::kMaxFunctionMemory) {
      return {Verdict::kReject,
              "function '" + fn.name + "' exceeds the memory limit"};
    }
  }
  // Queue the job only while the account is fully saturated. Submitting
  // into remaining headroom never causes a concurrency *failure* — the
  // controller buffers the overflow — and admitting early keeps the
  // in-flight population at the limit instead of draining in job-sized
  // chunks (§IV-C2).
  if (in_flight >= limits_.max_concurrent_invocations) {
    return {Verdict::kQueue,
            "account is at its concurrent invocation limit"};
  }
  return {Verdict::kAccept, ""};
}

}  // namespace canary::core
