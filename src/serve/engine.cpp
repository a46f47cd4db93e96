#include "serve/engine.h"

#include <utility>

#include "common/error.h"
#include "core/compiled_model.h"
#include "core/predictor.h"
#include "sim/faults.h"

namespace gbmo::serve {

namespace {

class ReferenceEngine final : public InferenceEngine {
 public:
  ReferenceEngine(std::shared_ptr<const core::Model> model, sim::DeviceSpec spec,
                  int device_id = 0)
      : InferenceEngine(std::move(model), std::move(spec), device_id) {}

  const char* name() const override { return "reference"; }

  std::vector<float> predict(const data::DenseMatrix& x) override {
    data::DenseMatrix encoded;
    const auto& in = model_->prepare_input(x, encoded);
    std::vector<float> scores(
        x.n_rows() * static_cast<std::size_t>(n_outputs_), 0.0f);
    core::predict_scores_device(dev_, model_->trees, in, scores);
    return scores;
  }
};

class CompiledEngine : public InferenceEngine {
 public:
  CompiledEngine(std::shared_ptr<const core::Model> model, sim::DeviceSpec spec)
      : InferenceEngine(std::move(model), std::move(spec)),
        compiled_(core::CompiledModel::compile(model_->trees, model_->n_outputs)) {
  }

  const char* name() const override { return "compiled"; }

  std::vector<float> predict(const data::DenseMatrix& x) override {
    data::DenseMatrix encoded;
    const auto& in = model_->prepare_input(x, encoded);
    std::vector<float> scores(
        x.n_rows() * static_cast<std::size_t>(n_outputs_), 0.0f);
    core::predict_compiled(dev_, compiled_, in, scores);
    return scores;
  }

 private:
  core::CompiledModel compiled_;
};

// The compiled engine plus a reference engine on a standby device (id -1,
// so scripted kills never target it): a request whose compiled kernels
// exhaust their transient-fault retries is re-answered by the standby; a
// permanent loss of the primary pins the engine to the standby. Scores are
// bit-identical either way — the two paths replay the same float-addition
// order.
class ResilientEngine final : public CompiledEngine {
 public:
  ResilientEngine(std::shared_ptr<const core::Model> model, sim::DeviceSpec spec)
      : CompiledEngine(model, spec),
        standby_(std::move(model), std::move(spec), /*device_id=*/-1) {}

  const char* name() const override { return "resilient"; }

  std::vector<float> predict(const data::DenseMatrix& x) override {
    if (!degraded_) {
      try {
        return CompiledEngine::predict(x);
      } catch (const sim::SimDeviceLost&) {
        degraded_ = true;  // primary is gone for good
      } catch (const sim::SimFaultError&) {
        // Retries exhausted for this request only; the primary stays up.
      }
    }
    ++fallback_count_;
    return standby_.predict(x);
  }

  void set_sink(sim::StatsSink* sink) override {
    CompiledEngine::set_sink(sink);
    standby_.set_sink(sink);
  }

  std::uint64_t fallback_count() const override { return fallback_count_; }

 private:
  ReferenceEngine standby_;
  bool degraded_ = false;
  std::uint64_t fallback_count_ = 0;
};

}  // namespace

std::vector<std::string> engine_names() {
  return {"compiled", "reference", "resilient"};
}

std::unique_ptr<InferenceEngine> make_engine(
    const std::string& name, std::shared_ptr<const core::Model> model,
    sim::DeviceSpec spec) {
  GBMO_CHECK(model != nullptr) << "make_engine: null model";
  if (name == "compiled") {
    return std::make_unique<CompiledEngine>(std::move(model), std::move(spec));
  }
  if (name == "reference") {
    return std::make_unique<ReferenceEngine>(std::move(model), std::move(spec));
  }
  if (name == "resilient") {
    return std::make_unique<ResilientEngine>(std::move(model), std::move(spec));
  }
  GBMO_CHECK(false) << "unknown inference engine: " << name
                    << " (expected compiled|reference|resilient)";
  return nullptr;
}

}  // namespace gbmo::serve
