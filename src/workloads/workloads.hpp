// The five stateful workload classes of the evaluation (paper §V-C2),
// expressed as FunctionSpec state sequences, plus the plain
// python/nodejs/java runtime probes of Fig. 4 and the mixed batches of
// Fig. 11-12.
//
// Timing calibration: per-function execution is kept within a small
// multiple of its runtime's cold-start cost (as in the paper's
// function-sized work units), so the relative benefit of replication
// (removes launch+init) and checkpointing (removes redone work) lands in
// the regime the paper reports. Checkpoint payloads follow the paper:
// ResNet50 weights ~98 MiB per epoch, per-request query/response records
// for the web service, aggregated per-location indices for Spark, file
// metadata for compression, and the BFS frontier every 1M vertices.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "faas/function.hpp"

namespace canary::workloads {

enum class WorkloadKind {
  kDlTraining,
  kWebService,
  kSparkMining,
  kCompression,
  kGraphBfs,
};

inline constexpr WorkloadKind kAllWorkloads[] = {
    WorkloadKind::kDlTraining, WorkloadKind::kWebService,
    WorkloadKind::kSparkMining, WorkloadKind::kCompression,
    WorkloadKind::kGraphBfs,
};

std::string_view to_string_view(WorkloadKind kind);

/// DL training: ResNet50-class model, checkpoint (weights + biases) after
/// every epoch group. `epoch_groups` states of `epoch_group` seconds.
faas::FunctionSpec dl_training_function(std::size_t epoch_groups = 10);

/// Web service: `requests` requests of five queries each against the
/// database; checkpoint (queries + responses) after each request.
faas::FunctionSpec web_service_function(std::size_t requests = 50);

/// Spark data mining: diversity index per location over US census data,
/// aggregated incrementally; checkpoint per location batch.
faas::FunctionSpec spark_mining_function(std::size_t location_batches = 16);

/// Data compression (SeBS 311.compression): zip `files` ~1 GB inputs;
/// checkpoint after each compressed file.
faas::FunctionSpec compression_function(std::size_t files = 5);

/// Graph search (SeBS 501.graph-bfs): BFS over a 50M-vertex binary tree;
/// checkpoint every 1M traversed vertices.
faas::FunctionSpec graph_bfs_function(std::size_t million_vertices = 50);

/// Plain runtime probe used by Fig. 4's 100 invocations of the python /
/// nodejs / java container runtimes.
faas::FunctionSpec runtime_probe_function(faas::RuntimeImage image,
                                          std::size_t states = 6);

/// One workload function of the given kind with default parameters.
faas::FunctionSpec function_of(WorkloadKind kind);

/// A job of `count` identical functions of `kind`.
faas::JobSpec make_job(WorkloadKind kind, std::size_t count,
                       const std::string& name = "");

/// A batch mixing all five workload classes round-robin (Fig. 11/12's
/// "several FaaS jobs" batches).
faas::JobSpec make_mixed_batch(std::size_t count,
                               const std::string& name = "mixed-batch");

/// MapReduce workflow (paper §I: "a MapReduce workload launches mappers
/// that process the input data and produce intermediate data. The
/// reducers are launched after successful mapper execution"): `mappers`
/// independent map functions and `reducers` reduce functions triggered by
/// the completion of every mapper.
faas::JobSpec make_mapreduce_job(std::size_t mappers, std::size_t reducers,
                                 const std::string& name = "mapreduce");

/// Linear multi-stage workflow: `stages` stages of `width` functions
/// each; every function of stage s+1 is triggered by the completion of
/// all functions of stage s (the paper's "complex workflows where ...
/// components depend on the timely completion of each sub-component").
faas::JobSpec make_pipeline_job(std::size_t stages, std::size_t width,
                                const std::string& name = "pipeline");

}  // namespace canary::workloads
