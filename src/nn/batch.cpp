#include "nn/batch.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"

namespace imap::nn {

void Batch::fill(double v) {
  std::fill(data_.begin(), data_.begin() + static_cast<std::ptrdiff_t>(rows_ * dim_), v);
}

void Batch::assign(const Batch& other) {
  resize(other.rows_, other.dim_);
  std::copy(other.data(), other.data() + rows_ * dim_, data());
}

void Batch::set_row(std::size_t r, const std::vector<double>& x) {
  IMAP_CHECK(r < rows_ && x.size() == dim_);
  std::copy(x.begin(), x.end(), row(r));
}

void Batch::gather(const std::vector<std::vector<double>>& rows_in,
                   const std::vector<std::size_t>& idx, std::size_t b,
                   std::size_t e) {
  IMAP_CHECK(b <= e && e <= idx.size());
  const std::size_t n = e - b;
  const std::size_t d = n ? rows_in[idx[b]].size() : 0;
  resize(n, d);
  for (std::size_t r = 0; r < n; ++r) {
    const auto& src = rows_in[idx[b + r]];
    IMAP_CHECK(src.size() == d);
    std::copy(src.begin(), src.end(), row(r));
  }
}

void Batch::gather(const Batch& rows_in, const std::vector<std::size_t>& idx,
                   std::size_t b, std::size_t e) {
  IMAP_CHECK(b <= e && e <= idx.size());
  const std::size_t n = e - b;
  const std::size_t d = rows_in.dim();
  resize(n, d);
  for (std::size_t r = 0; r < n; ++r) {
    IMAP_CHECK(idx[b + r] < rows_in.rows());
    const double* src = rows_in.row(idx[b + r]);
    std::copy(src, src + d, row(r));
  }
}

void Batch::gather_range(const std::vector<std::vector<double>>& rows_in,
                         std::size_t b, std::size_t e) {
  IMAP_CHECK(b <= e && e <= rows_in.size());
  const std::size_t n = e - b;
  const std::size_t d = n ? rows_in[b].size() : 0;
  resize(n, d);
  for (std::size_t r = 0; r < n; ++r) {
    const auto& src = rows_in[b + r];
    IMAP_CHECK(src.size() == d);
    std::copy(src.begin(), src.end(), row(r));
  }
}

void Batch::from_rows(const std::vector<std::vector<double>>& rows_in) {
  const std::size_t n = rows_in.size();
  const std::size_t d = n ? rows_in[0].size() : 0;
  resize(n, d);
  for (std::size_t r = 0; r < n; ++r) {
    IMAP_CHECK(rows_in[r].size() == d);
    std::copy(rows_in[r].begin(), rows_in[r].end(), row(r));
  }
}

}  // namespace imap::nn
