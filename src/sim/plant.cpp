#include "sim/plant.hpp"

#include <stdexcept>
#include <utility>

namespace awd::sim {

Plant::Plant(models::DiscreteLti model, reach::Box u_range, double eps, Vec x0)
    : model_(std::move(model)), u_range_(std::move(u_range)), eps_(eps), x_(std::move(x0)) {
  model_.validate();
  if (u_range_.dim() != model_.input_dim()) {
    throw std::invalid_argument("Plant: input range dimension must match input_dim");
  }
  if (eps_ < 0.0) throw std::invalid_argument("Plant: negative uncertainty bound");
  if (x_.size() != model_.state_dim()) {
    throw std::invalid_argument("Plant: initial state dimension mismatch");
  }
}

Vec Plant::step(const Vec& u, Rng& rng) {
  Vec u_sat;
  step_into(u, rng, u_sat);
  return u_sat;
}

void Plant::step_into(const Vec& u, Rng& rng, Vec& u_sat_out) {
  if (u.size() != model_.input_dim()) {
    throw std::invalid_argument("Plant::step: input dimension mismatch");
  }
  u_range_.clamp_into(u, u_sat_out);
  model_.step_into(x_, u_sat_out, next_scratch_, mul_scratch_);
  rng.uniform_in_ball_into(model_.state_dim(), eps_, noise_scratch_);
  next_scratch_ += noise_scratch_;
  std::swap(x_, next_scratch_);
}

void Plant::reset(Vec x0) {
  if (x0.size() != model_.state_dim()) {
    throw std::invalid_argument("Plant::reset: state dimension mismatch");
  }
  x_ = std::move(x0);
}

void Plant::serialize(core::ckpt::Writer& w) const { w.vec(x_); }

core::Status Plant::deserialize(core::ckpt::Reader& r) {
  Vec x;
  if (!r.vec(x)) return r.status();
  if (x.size() != model_.state_dim()) {
    return core::Status{core::StatusCode::kInvalidInput,
                        "snapshot plant state dimension mismatch"};
  }
  x_ = std::move(x);
  return core::Status::ok();
}

}  // namespace awd::sim
