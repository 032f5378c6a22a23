// vec.hpp — dense real vector type used throughout the library.
//
// The whole reproduction is built on small dense vectors (state dimension
// n <= ~12 for every plant in the paper), so the representation is a plain
// contiguous std::vector<double> with size-checked arithmetic.  Operations
// that cannot fail are noexcept; dimension mismatches throw
// std::invalid_argument so that a mis-wired model surfaces immediately
// instead of corrupting a simulation.
#pragma once

#include <cmath>
#include <cstddef>
#include <initializer_list>
#include <stdexcept>
#include <vector>

namespace awd::linalg {

/// Dense real-valued vector with size-checked elementwise arithmetic.
class Vec {
 public:
  Vec() = default;

  /// Zero vector of dimension n.
  explicit Vec(std::size_t n) : data_(n, 0.0) {}

  /// Vector of dimension n filled with `value`.
  Vec(std::size_t n, double value) : data_(n, value) {}

  /// Construct from a braced list: Vec{1.0, 2.0, 3.0}.
  Vec(std::initializer_list<double> xs) : data_(xs) {}

  /// Construct from an existing buffer.
  explicit Vec(std::vector<double> xs) : data_(std::move(xs)) {}

  /// Resize to n elements all equal to `value` without shrinking capacity —
  /// the building block of the allocation-free `_into` kernels: a scratch
  /// vector assigned this way reuses its buffer on every step after the
  /// first.
  void assign(std::size_t n, double value = 0.0) { data_.assign(n, value); }

  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  [[nodiscard]] double& operator[](std::size_t i) noexcept { return data_[i]; }
  [[nodiscard]] double operator[](std::size_t i) const noexcept { return data_[i]; }

  /// Bounds-checked access.
  [[nodiscard]] double& at(std::size_t i) { return data_.at(i); }
  [[nodiscard]] double at(std::size_t i) const { return data_.at(i); }

  [[nodiscard]] const std::vector<double>& raw() const noexcept { return data_; }

  /// Contiguous storage (may be null when empty).
  [[nodiscard]] double* data() noexcept { return data_.data(); }
  [[nodiscard]] const double* data() const noexcept { return data_.data(); }

  [[nodiscard]] auto begin() noexcept { return data_.begin(); }
  [[nodiscard]] auto end() noexcept { return data_.end(); }
  [[nodiscard]] auto begin() const noexcept { return data_.begin(); }
  [[nodiscard]] auto end() const noexcept { return data_.end(); }

  Vec& operator+=(const Vec& o) {
    check_same_size(o, "Vec::operator+=");
    double* out = data_.data();
    const double* a = o.data_.data();
    for (std::size_t i = 0, n = size(); i < n; ++i) out[i] += a[i];
    return *this;
  }

  Vec& operator-=(const Vec& o) {
    check_same_size(o, "Vec::operator-=");
    double* out = data_.data();
    const double* a = o.data_.data();
    for (std::size_t i = 0, n = size(); i < n; ++i) out[i] -= a[i];
    return *this;
  }

  Vec& operator*=(double s) noexcept {
    for (double& x : data_) x *= s;
    return *this;
  }

  Vec& operator/=(double s) {
    if (s == 0.0) throw std::invalid_argument("Vec::operator/=: division by zero");
    for (double& x : data_) x /= s;
    return *this;
  }

  [[nodiscard]] friend Vec operator+(Vec a, const Vec& b) { return a += b; }
  [[nodiscard]] friend Vec operator-(Vec a, const Vec& b) { return a -= b; }
  [[nodiscard]] friend Vec operator*(Vec a, double s) noexcept { return a *= s; }
  [[nodiscard]] friend Vec operator*(double s, Vec a) noexcept { return a *= s; }
  [[nodiscard]] friend Vec operator/(Vec a, double s) { return a /= s; }
  [[nodiscard]] friend Vec operator-(Vec a) noexcept { return a *= -1.0; }

  [[nodiscard]] friend bool operator==(const Vec& a, const Vec& b) noexcept {
    return a.data_ == b.data_;
  }

  /// Dot product <this, o>.
  [[nodiscard]] double dot(const Vec& o) const {
    check_same_size(o, "Vec::dot");
    double s = 0.0;
    for (std::size_t i = 0; i < size(); ++i) s += data_[i] * o.data_[i];
    return s;
  }

  /// Elementwise absolute value — the paper's residual z_t = |x~ - x̄|.
  [[nodiscard]] Vec cwise_abs() const {
    Vec r(*this);
    for (double& x : r.data_) x = std::abs(x);
    return r;
  }

  /// Elementwise product (Hadamard).
  [[nodiscard]] Vec cwise_mul(const Vec& o) const {
    check_same_size(o, "Vec::cwise_mul");
    Vec r(*this);
    for (std::size_t i = 0; i < size(); ++i) r.data_[i] *= o.data_[i];
    return r;
  }

  /// Elementwise max with another vector.
  [[nodiscard]] Vec cwise_max(const Vec& o) const {
    check_same_size(o, "Vec::cwise_max");
    Vec r(*this);
    for (std::size_t i = 0; i < size(); ++i) r.data_[i] = std::max(r.data_[i], o.data_[i]);
    return r;
  }

  /// True iff any element of |this| exceeds the matching element of `thresh`.
  /// This is the per-dimension alarm test from §4.1 with vector threshold τ.
  /// Ordered compare: a NaN element never exceeds.
  [[nodiscard]] bool any_exceeds(const Vec& thresh) const {
    check_same_size(thresh, "Vec::any_exceeds");
    const double* z = data_.data();
    const double* tau = thresh.data_.data();
    for (std::size_t i = 0, n = size(); i < n; ++i) {
      if (std::abs(z[i]) > tau[i]) return true;
    }
    return false;
  }

  /// True iff every element is finite (no NaN, no ±Inf).  The degradation
  /// layers use this to quarantine corrupted samples before they can poison
  /// window averages or reachability seeds.
  [[nodiscard]] bool is_finite() const noexcept {
    // Branch-free: x - x == 0 for every finite x and NaN for ±Inf/NaN, so
    // the sum is 0 iff all elements are finite.  One compare at the end
    // instead of one predicted branch per element — this sits on the
    // reach::Backend::estimate hot path.
    double acc = 0.0;
    for (double x : data_) acc += x - x;
    return acc == 0.0;
  }

  /// L1 norm: sum of absolute values.
  [[nodiscard]] double norm1() const noexcept {
    double s = 0.0;
    for (double x : data_) s += std::abs(x);
    return s;
  }

  /// L2 (Euclidean) norm.
  [[nodiscard]] double norm2() const noexcept { return std::sqrt(dot_self()); }

  /// Squared L2 norm.
  [[nodiscard]] double dot_self() const noexcept {
    double s = 0.0;
    for (double x : data_) s += x * x;
    return s;
  }

  /// L∞ norm: max absolute element.
  [[nodiscard]] double norm_inf() const noexcept {
    double m = 0.0;
    for (double x : data_) m = std::max(m, std::abs(x));
    return m;
  }

  /// Unit basis vector e_i of dimension n (used as the support direction l
  /// in Eq. (4)/(5)).
  [[nodiscard]] static Vec basis(std::size_t n, std::size_t i) {
    if (i >= n) throw std::invalid_argument("Vec::basis: index out of range");
    Vec e(n);
    e[i] = 1.0;
    return e;
  }

 private:
  void check_same_size(const Vec& o, const char* who) const {
    if (size() != o.size()) throw_size_mismatch(who, size(), o.size());
  }

  // Out of line: the message-building code, inlined into every
  // elementwise operator, made the per-step loops measurably slower.
  [[noreturn, gnu::cold]] static void throw_size_mismatch(const char* who, std::size_t a,
                                                          std::size_t b);

  std::vector<double> data_;
};

}  // namespace awd::linalg
