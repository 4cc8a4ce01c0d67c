#include "obs/tail_analyzer.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "obs/histogram.hpp"

namespace canary::obs {

namespace {

/// Does `candidate` beat `incumbent` as the representative? The deeper
/// tail wins; ties break toward the smaller trace id so repetition merge
/// order cannot change the outcome.
bool representative_beats(const TailAttribution& candidate,
                          const TailAttribution& incumbent) {
  if (candidate.latency_s != incumbent.latency_s) {
    return candidate.latency_s > incumbent.latency_s;
  }
  return candidate.trace < incumbent.trace;
}

using Completion = const CriticalPathAnalyzer::PerFunction*;

}  // namespace

void TailReport::merge(const TailReport& other) {
  for (const TailGroup& theirs : other.groups) {
    auto it = std::find_if(
        groups.begin(), groups.end(),
        [&](const TailGroup& g) { return g.metric == theirs.metric; });
    if (it == groups.end()) {
      groups.push_back(theirs);
      continue;
    }
    for (const TailAttribution& attribution : theirs.percentiles) {
      auto pit = std::find_if(it->percentiles.begin(), it->percentiles.end(),
                              [&](const TailAttribution& a) {
                                return a.percentile == attribution.percentile;
                              });
      if (pit == it->percentiles.end()) {
        it->percentiles.push_back(attribution);
        continue;
      }
      pit->samples += attribution.samples;
      if (representative_beats(attribution, *pit)) {
        const std::uint64_t samples = pit->samples;
        *pit = attribution;
        pit->samples = samples;
      }
    }
  }
  std::sort(groups.begin(), groups.end(),
            [](const TailGroup& a, const TailGroup& b) {
              return a.metric < b.metric;
            });
}

TailReport attribute_tail(const CriticalPathAnalyzer& paths) {
  TailReport report;

  // Name-ordered, so the groups come out sorted as merge() expects.
  std::map<std::string, std::vector<Completion>> groups;
  for (const auto& pf : paths.per_function_decomposition()) {
    if (!pf.complete()) continue;
    groups["tail_latency"].push_back(&pf);
    groups["tail_latency.fn." + pf.family].push_back(&pf);
  }

  for (auto& [metric, completions] : groups) {
    std::sort(completions.begin(), completions.end(),
              [](Completion a, Completion b) {
                return std::pair(a->latency(), a->id) <
                       std::pair(b->latency(), b->id);
              });
    TailGroup group;
    group.metric = metric;
    for (const double percentile : kTailPercentiles) {
      const Completion pf =
          completions[nearest_rank(percentile, completions.size()) - 1];
      TailAttribution a;
      a.percentile = percentile;
      a.samples = completions.size();
      a.latency_s = pf->latency().to_seconds();
      a.trace = pf->trace.value();
      a.function = pf->id.value();
      a.components = pf->end_to_end;
      a.attributed_s = a.components.total();
      group.percentiles.push_back(a);
    }
    report.groups.push_back(std::move(group));
  }
  return report;
}

}  // namespace canary::obs
