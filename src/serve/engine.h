// Inference engines: the serving-side counterpart of the training-system
// registry. An engine wraps a trained core::Model together with its own
// sim::Device and answers batched score requests.
//
// Three engines exist:
//   - "compiled":  flattens the forest once into a core::CompiledModel and
//     predicts through the batched predict_compiled kernels (tree-group ×
//     row-chunk tiling, shared-memory staged tree slabs). The serving path.
//   - "reference": the tree-at-a-time device path (core::predict_scores_device,
//     one kernel launch per tree, Tree::find_leaf traversal). Kept as the
//     modeled baseline the compiled engine is measured against.
//   - "resilient": a compiled engine composed with a reference engine on a
//     standby device (id -1) for graceful degradation under fault injection
//     (sim/faults.h). A request whose compiled kernels exhaust their retries
//     is re-answered by the standby; a permanent device loss pins the engine
//     to it. fallback_count() reports how many requests degraded.
//
// Every engine takes its input through core::Model::prepare_input, so a
// batch whose width differs from the model's is rejected with gbmo::Error
// before any kernel runs, and categorical columns are encoded. All three
// produce the scalar oracle's scores bit for bit (missing values route by
// the per-node default-left rule) and answer all-zero scores for a
// zero-tree model.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/booster.h"
#include "data/matrix.h"
#include "sim/device.h"
#include "sim/sink.h"

namespace gbmo::serve {

class InferenceEngine {
 public:
  virtual ~InferenceEngine() = default;

  virtual const char* name() const = 0;
  // Raw additive scores for a batch, row-major [i * d + k]. Modeled time is
  // charged to the engine's device under the "inference" phase. Throws
  // gbmo::Error when x.n_cols() is not the model's feature count.
  virtual std::vector<float> predict(const data::DenseMatrix& x) = 0;

  int n_outputs() const { return n_outputs_; }
  double modeled_seconds() const { return dev_.modeled_seconds(); }
  // Optional observability sink (e.g. obs::Profiler), attached to the
  // engine's device(s): every predict kernel charge is forwarded.
  virtual void set_sink(sim::StatsSink* sink) { dev_.set_sink(sink); }
  // Requests answered by a degraded/fallback path (0 for engines without
  // one — only "resilient" degrades).
  virtual std::uint64_t fallback_count() const { return 0; }

 protected:
  InferenceEngine(std::shared_ptr<const core::Model> model, sim::DeviceSpec spec,
                  int device_id = 0)
      : model_(std::move(model)),
        n_outputs_(model_->n_outputs),
        dev_(std::move(spec), device_id) {
    dev_.set_phase("inference");
  }

  std::shared_ptr<const core::Model> model_;
  int n_outputs_;
  sim::Device dev_;
};

// Engine names accepted by make_engine, in preference order:
// {"compiled", "reference", "resilient"}.
std::vector<std::string> engine_names();

// Builds the named engine over `model`. The engine takes shared ownership of
// the model, so the caller's handle may be dropped at any time — there is no
// lifetime coupling between the model object and the engine. Throws
// gbmo::Error for unknown names or a null model.
std::unique_ptr<InferenceEngine> make_engine(
    const std::string& name, std::shared_ptr<const core::Model> model,
    sim::DeviceSpec spec = sim::DeviceSpec::rtx4090());

}  // namespace gbmo::serve
