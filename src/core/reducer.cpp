#include "core/reducer.hpp"

#include "support/check.hpp"

namespace pcf::core {

std::string_view to_string(Algorithm a) noexcept {
  switch (a) {
    case Algorithm::kPushSum: return "push-sum";
    case Algorithm::kPushFlow: return "push-flow";
    case Algorithm::kPushCancelFlow: return "push-cancel-flow";
    case Algorithm::kFlowUpdating: return "flow-updating";
    case Algorithm::kCorrectionAllreduce: return "correction-allreduce";
    case Algorithm::kFuMassHybrid: return "fu-mass-hybrid";
  }
  return "?";
}

Algorithm parse_algorithm(std::string_view name) {
  if (name == "pushsum" || name == "push-sum" || name == "ps") return Algorithm::kPushSum;
  if (name == "pf" || name == "push-flow" || name == "pushflow") return Algorithm::kPushFlow;
  if (name == "pcf" || name == "push-cancel-flow" || name == "pushcancelflow") {
    return Algorithm::kPushCancelFlow;
  }
  if (name == "fu" || name == "flow-updating" || name == "flowupdating") {
    return Algorithm::kFlowUpdating;
  }
  if (name == "corr" || name == "correction-allreduce" || name == "correctionallreduce") {
    return Algorithm::kCorrectionAllreduce;
  }
  if (name == "fumd" || name == "fu-mass-hybrid" || name == "fumasshybrid") {
    return Algorithm::kFuMassHybrid;
  }
  PCF_CHECK_MSG(false, "unknown algorithm '" << name << "' (want: ps|pf|pcf|fu|corr|fumd)");
  __builtin_unreachable();
}

std::string_view to_string(PcfVariant v) noexcept {
  return v == PcfVariant::kFast ? "fast" : "robust";
}

}  // namespace pcf::core
