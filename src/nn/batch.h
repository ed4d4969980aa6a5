#pragma once

#include <cstddef>
#include <vector>

namespace imap::nn {

/// Row-major matrix of stacked samples (rows = batch size, dim = feature
/// width) — the currency of the batched kernel layer. `resize` never shrinks
/// the underlying heap block, so a Batch reused across minibatches settles
/// into a steady state with zero allocations per step.
class Batch {
 public:
  Batch() = default;
  Batch(std::size_t rows, std::size_t dim) { resize(rows, dim); }

  /// Re-shape to rows×dim. Existing contents are NOT preserved; capacity is
  /// (the block only grows, it is never released until destruction).
  void resize(std::size_t rows, std::size_t dim) {
    rows_ = rows;
    dim_ = dim;
    if (data_.size() < rows * dim) data_.resize(rows * dim);
  }

  std::size_t rows() const { return rows_; }
  std::size_t dim() const { return dim_; }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  double* row(std::size_t r) { return data_.data() + r * dim_; }
  const double* row(std::size_t r) const { return data_.data() + r * dim_; }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * dim_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * dim_ + c];
  }

  void fill(double v);

  /// Copy another batch's shape and valid contents (capacity-reusing).
  void assign(const Batch& other);

  /// Copy one sample into row r (x.size() must equal dim()).
  void set_row(std::size_t r, const std::vector<double>& x);

  /// Stack rows[idx[b]], rows[idx[b+1]], ..., rows[idx[e-1]] — the minibatch
  /// gather used by the PPO update (idx = shuffled order, [b,e) the slice).
  void gather(const std::vector<std::vector<double>>& rows_in,
              const std::vector<std::size_t>& idx, std::size_t b,
              std::size_t e);

  /// The same gather from the rows of another batch.
  void gather(const Batch& rows_in, const std::vector<std::size_t>& idx,
              std::size_t b, std::size_t e);

  /// Stack rows_in[b..e) directly (identity gather) — used for chunked
  /// whole-buffer sweeps like the intrinsic-value refresh.
  void gather_range(const std::vector<std::vector<double>>& rows_in,
                    std::size_t b, std::size_t e);

  /// Stack every row of `rows_in` (all rows must share one width).
  void from_rows(const std::vector<std::vector<double>>& rows_in);

 private:
  std::size_t rows_ = 0;
  std::size_t dim_ = 0;
  std::vector<double> data_;
};

}  // namespace imap::nn
