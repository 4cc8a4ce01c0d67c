#include "workloads/workloads.hpp"

#include <array>
#include <iterator>

#include "common/result.hpp"

namespace canary::workloads {

std::string_view to_string_view(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kDlTraining: return "dl-training";
    case WorkloadKind::kWebService: return "web-service";
    case WorkloadKind::kSparkMining: return "spark-mining";
    case WorkloadKind::kCompression: return "compression";
    case WorkloadKind::kGraphBfs: return "graph-bfs";
  }
  return "unknown";
}

faas::FunctionSpec dl_training_function(std::size_t epoch_groups) {
  faas::FunctionSpec fn;
  fn.name = "dl-train";
  fn.runtime = faas::RuntimeImage::kDlTrain;
  // ResNet50 weights + biases are ~98 MiB — far beyond the KV per-entry
  // limit, so every DL checkpoint exercises the spill path.
  fn.states = faas::StateTable(epoch_groups,
                               {Duration::sec(2.2), Bytes::mib(98)});
  fn.finalize = Duration::sec(1.5);  // final model save
  return fn;
}

faas::FunctionSpec web_service_function(std::size_t requests) {
  faas::FunctionSpec fn;
  fn.name = "web-service";
  fn.runtime = faas::RuntimeImage::kDbQuery;
  // Five queries per request; the checkpoint is the request's queries
  // and responses.
  fn.states = faas::StateTable(requests, {Duration::msec(250), Bytes::kib(16)});
  fn.finalize = Duration::msec(200);
  return fn;
}

faas::FunctionSpec spark_mining_function(std::size_t location_batches) {
  faas::FunctionSpec fn;
  fn.name = "spark-diversity";
  fn.runtime = faas::RuntimeImage::kSparkDiversity;
  // Extract/transform/aggregate one batch of locations; checkpoint the
  // aggregated diversity indices so far.
  fn.states = faas::StateTable(location_batches,
                               {Duration::sec(1.4), Bytes::mib(2)});
  fn.finalize = Duration::sec(1.0);
  return fn;
}

faas::FunctionSpec compression_function(std::size_t files) {
  faas::FunctionSpec fn;
  fn.name = "compression";
  fn.runtime = faas::RuntimeImage::kCompressionPy;
  // ~1 GB input compressed per state; input/output live in local
  // storage (not S3), the checkpoint records per-file progress.
  fn.states = faas::StateTable(files, {Duration::sec(5.5), Bytes::kib(256)});
  fn.finalize = Duration::msec(400);
  return fn;
}

faas::FunctionSpec graph_bfs_function(std::size_t million_vertices) {
  faas::FunctionSpec fn;
  fn.name = "graph-bfs";
  fn.runtime = faas::RuntimeImage::kGraphBfsPy;
  // One state per 1M traversed vertices; the checkpoint is the frontier
  // plus traversal counters (slightly over the KV entry limit).
  fn.states = faas::StateTable(million_vertices,
                               {Duration::msec(450), Bytes::mib(6)});
  fn.finalize = Duration::msec(300);
  return fn;
}

faas::FunctionSpec runtime_probe_function(faas::RuntimeImage image,
                                          std::size_t states) {
  faas::FunctionSpec fn;
  fn.name = std::string("probe-") + std::string(faas::to_string_view(image));
  fn.runtime = image;
  fn.states = faas::StateTable(states, {Duration::msec(500), Bytes::kib(32)});
  fn.finalize = Duration::msec(100);
  return fn;
}

faas::FunctionSpec function_of(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kDlTraining: return dl_training_function();
    case WorkloadKind::kWebService: return web_service_function();
    case WorkloadKind::kSparkMining: return spark_mining_function();
    case WorkloadKind::kCompression: return compression_function();
    case WorkloadKind::kGraphBfs: return graph_bfs_function();
  }
  CANARY_CHECK(false, "unknown workload kind");
  return {};
}

faas::JobSpec make_job(WorkloadKind kind, std::size_t count,
                       const std::string& name) {
  faas::JobSpec job;
  job.name = name.empty() ? std::string(to_string_view(kind)) : name;
  job.functions.reserve(count);
  // Every instance shares the template's state table.
  const faas::FunctionSpec base = function_of(kind);
  for (std::size_t i = 0; i < count; ++i) {
    faas::FunctionSpec fn = base;
    fn.name += "-" + std::to_string(i);
    job.functions.push_back(std::move(fn));
  }
  return job;
}

faas::JobSpec make_mixed_batch(std::size_t count, const std::string& name) {
  faas::JobSpec job;
  job.name = name;
  job.functions.reserve(count);
  // One template (and so one state table) per kind, shared by every
  // function of that kind.
  constexpr std::size_t kKinds = std::size(kAllWorkloads);
  std::array<faas::FunctionSpec, kKinds> templates;
  for (std::size_t k = 0; k < kKinds; ++k) {
    templates[k] = function_of(kAllWorkloads[k]);
  }
  for (std::size_t i = 0; i < count; ++i) {
    faas::FunctionSpec fn = templates[i % kKinds];
    fn.name += "-" + std::to_string(i);
    job.functions.push_back(std::move(fn));
  }
  return job;
}

faas::JobSpec make_mapreduce_job(std::size_t mappers, std::size_t reducers,
                                 const std::string& name) {
  faas::JobSpec job;
  job.name = name;
  job.functions.reserve(mappers + reducers);
  // Map phase: scan + emit intermediate data, checkpoint per partition.
  const faas::StateTable map_states(4, {Duration::sec(1.8), Bytes::mib(1)});
  // Reduce phase: shuffle-read + aggregate, checkpoint per merge round.
  const faas::StateTable reduce_states(6, {Duration::sec(1.2), Bytes::mib(2)});
  for (std::size_t m = 0; m < mappers; ++m) {
    faas::FunctionSpec fn;
    fn.name = "map-" + std::to_string(m);
    fn.runtime = faas::RuntimeImage::kPython3;
    fn.states = map_states;
    fn.finalize = Duration::msec(300);  // intermediate data flush
    job.functions.push_back(std::move(fn));
  }
  for (std::size_t r = 0; r < reducers; ++r) {
    faas::FunctionSpec fn;
    fn.name = "reduce-" + std::to_string(r);
    fn.runtime = faas::RuntimeImage::kJava8;
    fn.states = reduce_states;
    fn.finalize = Duration::msec(500);
    // Reducers are triggered only after every mapper has completed.
    fn.depends_on.reserve(mappers);
    for (std::size_t m = 0; m < mappers; ++m) fn.depends_on.push_back(m);
    job.functions.push_back(std::move(fn));
  }
  return job;
}

faas::JobSpec make_pipeline_job(std::size_t stages, std::size_t width,
                                const std::string& name) {
  faas::JobSpec job;
  job.name = name;
  job.functions.reserve(stages * width);
  const faas::StateTable states(3, {Duration::sec(1.0), Bytes::kib(256)});
  for (std::size_t stage = 0; stage < stages; ++stage) {
    for (std::size_t w = 0; w < width; ++w) {
      faas::FunctionSpec fn;
      fn.name = "s" + std::to_string(stage) + "-f" + std::to_string(w);
      fn.runtime = faas::RuntimeImage::kPython3;
      fn.states = states;
      fn.finalize = Duration::msec(200);
      if (stage > 0) {
        for (std::size_t p = 0; p < width; ++p) {
          fn.depends_on.push_back((stage - 1) * width + p);
        }
      }
      job.functions.push_back(std::move(fn));
    }
  }
  return job;
}

}  // namespace canary::workloads
