// Neural network container: owns the layer stack and drives training.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "ml/layer.h"
#include "ml/schedule.h"
#include "ml/softmax_layer.h"

namespace plinius::ml {

class Network {
 public:
  explicit Network(Shape input, SgdParams hyper = {})
      : input_shape_(input), hyper_(hyper) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;
  Network(Network&&) = default;
  Network& operator=(Network&&) = default;

  void add(std::unique_ptr<Layer> layer);

  /// Forward pass over a batch; output() then holds the final activations.
  void forward(const float* x, std::size_t batch, bool train);

  /// One SGD step over a batch: forward, loss, backward, update.
  /// `y` is one-hot, [batch x output_size]. Returns the batch loss, and
  /// increments iterations().
  float train_batch(const float* x, const float* y, std::size_t batch);

  /// Batch loss without updating (forward must see the same batch).
  [[nodiscard]] float eval_loss(const float* x, const float* y, std::size_t batch);

  /// Predicted class of each row of x; `out` must hold `batch` entries.
  void predict(const float* x, std::size_t batch, std::size_t* out);

  /// Classification accuracy over a labelled set.
  [[nodiscard]] double accuracy(const float* x, const float* y, std::size_t count,
                                std::size_t eval_batch = 128);

  [[nodiscard]] const std::vector<float>& output() const;

  [[nodiscard]] std::size_t num_layers() const noexcept { return layers_.size(); }
  [[nodiscard]] Layer& layer(std::size_t i) { return *layers_.at(i); }
  [[nodiscard]] const Shape& input_shape() const noexcept { return input_shape_; }
  [[nodiscard]] const Shape& output_shape() const;

  /// Total persistent parameter floats / bytes across all layers (the
  /// "model size" of the paper's Fig. 7 sweep).
  [[nodiscard]] std::size_t parameter_count();
  [[nodiscard]] std::size_t parameter_bytes() { return parameter_count() * sizeof(float); }

  /// Forward MACs for one sample (compute-cost model input).
  [[nodiscard]] std::size_t forward_macs() const;

  [[nodiscard]] SgdParams& hyper() noexcept { return hyper_; }

  /// Installs a learning-rate schedule applied per iteration by
  /// train_batch (when absent, hyper().learning_rate is used as-is). The
  /// iteration counter is what the PM mirror persists, so a crash-restored
  /// run continues the schedule seamlessly.
  void set_lr_schedule(LrSchedule schedule) { schedule_ = std::move(schedule); }
  [[nodiscard]] const std::optional<LrSchedule>& lr_schedule() const noexcept {
    return schedule_;
  }

  [[nodiscard]] std::uint64_t iterations() const noexcept { return iterations_; }
  void set_iterations(std::uint64_t it) noexcept { iterations_ = it; }

  /// Input shape the next added layer must accept.
  [[nodiscard]] Shape next_input_shape() const;

 private:
  void backward(const float* x, std::size_t batch);
  void update(std::size_t batch);

  Shape input_shape_;
  SgdParams hyper_;
  std::optional<LrSchedule> schedule_;
  std::vector<std::unique_ptr<Layer>> layers_;
  std::uint64_t iterations_ = 0;
  std::size_t prepared_batch_ = 0;

};

}  // namespace plinius::ml
