// Fixture: allocations a line pattern cannot resolve — typedef sugar,
// `auto` with an allocating initializer, std::string. Analyzed under a
// src/nn/ path, every marked line must trip hot-loop-alloc.
#include <cstddef>
#include <string>
#include <vector>

namespace imap {

using Buffer = std::vector<double>;
typedef std::vector<int> IndexList;

std::vector<double> make_row(std::size_t n);

void sugar_allocs(std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    Buffer row(n);                      // BAD: alias of std::vector<double>
    IndexList idx;                      // BAD: typedef of std::vector<int>
    auto copy = std::vector<double>(n); // BAD: auto, explicit construction
    auto made = make_row(n);            // BAD: auto via function return type
    std::string label = "row";          // BAD: std::string allocates
    row[0] = static_cast<double>(idx.size() + copy.size() + made.size() +
                                 label.size());
  }
}

std::vector<double> make_row(std::size_t n) {
  return std::vector<double>(n, 0.0);
}

}  // namespace imap
