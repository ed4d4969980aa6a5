// QuantizedMlp + victim-quant serving path (nn/quant.h): accuracy is
// tolerance-pinned against the fp64 network, the quantized forward is
// bit-identical across batch sizes and kernel backends, staleness tracking
// follows the Mlp weight version, and a PolicyHandle::serving(net, true)
// handle routes BOTH query() and query_batch() through the same quantized
// network so the one-row and batched answers agree in quant mode.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "nn/batch.h"
#include "nn/gaussian.h"
#include "nn/kernel_backend.h"
#include "nn/mlp.h"
#include "nn/quant.h"
#include "rl/policy_handle.h"

namespace {

using imap::Rng;
using imap::nn::Batch;
using imap::nn::GaussianPolicy;
using imap::nn::Mlp;
using imap::nn::QuantizedMlp;
using imap::rl::PolicyHandle;

Batch random_batch(std::size_t rows, std::size_t dim, Rng& rng) {
  Batch b(rows, dim);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < dim; ++c) b(r, c) = rng.normal(0.0, 1.0);
  return b;
}

// Policy-scale networks (the victims this path serves): locomotion obs
// widths, two tanh hidden layers, small action heads.
Mlp victim_net(Rng& rng) { return Mlp({11, 64, 64, 3}, rng); }

TEST(QuantizedMlp, ActionErrorWithinPinnedTolerance) {
  Rng rng(101);
  Mlp net = victim_net(rng);
  const QuantizedMlp qnet(net);
  Mlp::Workspace ws, qws;
  const Batch obs = random_batch(64, 11, rng);
  const Batch& exact = net.forward_batch(obs, ws);
  const Batch& quant = qnet.forward_batch(obs, qws);
  ASSERT_EQ(quant.rows(), exact.rows());
  ASSERT_EQ(quant.dim(), exact.dim());
  double max_err = 0.0;
  for (std::size_t r = 0; r < exact.rows(); ++r)
    for (std::size_t c = 0; c < exact.dim(); ++c)
      max_err = std::max(max_err, std::abs(quant(r, c) - exact(r, c)));
  EXPECT_LE(max_err, imap::nn::kQuantActionTolerance);
  EXPECT_GT(max_err, 0.0);  // it IS an approximation — exact 0 means the
                            // quant path silently served fp64
}

TEST(QuantizedMlp, BatchedRowsMatchSingleSampleBitwise) {
  Rng rng(103);
  Mlp net = victim_net(rng);
  const QuantizedMlp qnet(net);
  Mlp::Workspace ws, ws1;
  const Batch obs = random_batch(17, 11, rng);
  const Batch& batched = qnet.forward_batch(obs, ws);
  Batch row(1, obs.dim());
  for (std::size_t r = 0; r < obs.rows(); ++r) {
    row.set_row(0, std::vector<double>(obs.row(r), obs.row(r) + obs.dim()));
    const Batch& single = qnet.forward_batch(row, ws1);
    for (std::size_t c = 0; c < qnet.out_dim(); ++c)
      ASSERT_EQ(single(0, c), batched(r, c)) << "row " << r << " dim " << c;
  }
}

TEST(QuantizedMlp, BitIdenticalAcrossKernelBackends) {
  Rng rng(107);
  Mlp net = victim_net(rng);
  const QuantizedMlp qnet(net);
  const Batch obs = random_batch(32, 11, rng);

  Mlp::Workspace ref_ws;
  std::vector<double> ref;
  {
    imap::nn::kernel::ScopedBackend forced("scalar");
    ASSERT_TRUE(forced.activated());
    const Batch& out = qnet.forward_batch(obs, ref_ws);
    ref.assign(out.data(), out.data() + out.rows() * out.dim());
  }
  for (const auto* be : imap::nn::kernel::all_backends()) {
    if (!be->supported()) continue;
    imap::nn::kernel::ScopedBackend forced(be->name);
    ASSERT_TRUE(forced.activated());
    Mlp::Workspace ws;
    const Batch& out = qnet.forward_batch(obs, ws);
    for (std::size_t i = 0; i < ref.size(); ++i)
      ASSERT_EQ(ref[i], out.data()[i]) << be->name << ", element " << i;
  }
}

TEST(QuantizedMlp, StaleForTracksWeightVersion) {
  Rng rng(109);
  Mlp net = victim_net(rng);
  const QuantizedMlp qnet(net);
  EXPECT_FALSE(qnet.stale_for(net));
  net.params()[0] += 0.5;  // non-const access bumps the version
  EXPECT_TRUE(qnet.stale_for(net));

  Rng rng2(109);
  Mlp other = victim_net(rng2);
  EXPECT_TRUE(qnet.stale_for(other));  // built separately, same weights

  const Mlp copy = net;  // a copy holds the same weights, so is not stale
  const QuantizedMlp qcopy(net);
  EXPECT_FALSE(qcopy.stale_for(copy));
}

TEST(VictimQuant, HandleModeFixedAtConstruction) {
  Rng rng(113);
  auto policy = std::make_shared<const GaussianPolicy>(
      11, 3, std::vector<std::size_t>{32, 32}, rng);

  // serving(net, true) is the one int8 route; every other constructor
  // serves fp64.
  EXPECT_FALSE(PolicyHandle(policy).quantized());
  EXPECT_FALSE(PolicyHandle::serving(policy, false).quantized());
  EXPECT_TRUE(PolicyHandle::serving(policy, true).quantized());
}

TEST(VictimQuant, QueryMatchesQueryBatchBitwiseInQuantMode) {
  Rng rng(127);
  auto policy = std::make_shared<const GaussianPolicy>(
      11, 3, std::vector<std::size_t>{32, 32}, rng);
  const PolicyHandle handle = PolicyHandle::serving(policy, true);
  ASSERT_TRUE(handle.quantized());

  const Batch obs = random_batch(9, 11, rng);
  imap::nn::Mlp::Workspace ws;
  const Batch& batched = handle.query_batch(obs, ws);
  for (std::size_t r = 0; r < obs.rows(); ++r) {
    std::vector<double> row(obs.row(r), obs.row(r) + obs.dim());
    const auto single = handle.query(row);
    ASSERT_EQ(single.size(), batched.dim());
    for (std::size_t c = 0; c < single.size(); ++c)
      ASSERT_EQ(single[c], batched(r, c)) << "row " << r << " dim " << c;
  }
}

TEST(VictimQuant, QuantizedQueriesStayWithinToleranceOfFp64) {
  Rng rng(131);
  auto policy = std::make_shared<const GaussianPolicy>(
      11, 3, std::vector<std::size_t>{32, 32}, rng);
  const PolicyHandle exact(policy);
  const PolicyHandle quant = PolicyHandle::serving(policy, true);

  double max_err = 0.0;
  for (int i = 0; i < 32; ++i) {
    std::vector<double> obs(11);
    for (auto& v : obs) v = rng.normal(0.0, 1.0);
    const auto a = exact.query(obs);
    const auto b = quant.query(obs);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t c = 0; c < a.size(); ++c)
      max_err = std::max(max_err, std::abs(a[c] - b[c]));
  }
  EXPECT_LE(max_err, imap::nn::kQuantActionTolerance);
}

TEST(VictimQuant, SnapshotAlwaysServesFp64) {
  Rng rng(137);
  GaussianPolicy policy(11, 3, {32, 32}, rng);
  const PolicyHandle handle = PolicyHandle::snapshot(policy);
  EXPECT_FALSE(handle.quantized());
  EXPECT_TRUE(handle.batched());
}

}  // namespace
