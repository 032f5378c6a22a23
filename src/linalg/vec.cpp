#include "linalg/vec.hpp"

#include <stdexcept>
#include <string>

namespace awd::linalg {

void Vec::throw_size_mismatch(const char* who, std::size_t a, std::size_t b) {
  throw std::invalid_argument(std::string(who) + ": dimension mismatch (" + std::to_string(a) +
                              " vs " + std::to_string(b) + ")");
}

}  // namespace awd::linalg
