// Numeric-guard layer, enabled path: IMAP_NCHECK_* must fire on NaN / Inf /
// shape mismatch / out-of-bounds values. The macro is forced on for this TU
// so the test is meaningful even in builds configured without
// -DIMAP_CHECK_NUMERICS=ON (the guards are per-translation-unit). A build
// configured with it defines it for every TU, the library's included, which
// IMAP_LIBRARY_NUMERIC_GUARDS records before the force.
#ifdef IMAP_CHECK_NUMERICS
#define IMAP_LIBRARY_NUMERIC_GUARDS 1
#else
#define IMAP_CHECK_NUMERICS 1
#endif

#include "common/check.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "nn/batch.h"
#include "nn/mlp.h"

namespace imap {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(CheckBasic, PassingCheckIsSilent) {
  EXPECT_NO_THROW(IMAP_CHECK(1 + 1 == 2));
  EXPECT_NO_THROW(IMAP_CHECK_MSG(true, "never shown"));
}

TEST(CheckBasic, FailingCheckThrowsCheckErrorWithContext) {
  try {
    IMAP_CHECK_MSG(false, "context " << 42);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
  }
}

TEST(NumericGuardEnabled, FiniteScalarPasses) {
  EXPECT_NO_THROW(IMAP_NCHECK_FINITE(0.0, "x"));
  EXPECT_NO_THROW(IMAP_NCHECK_FINITE(-1e308, "x"));
}

TEST(NumericGuardEnabled, FiresOnNanAndInf) {
  EXPECT_THROW(IMAP_NCHECK_FINITE(kNan, "loss"), NumericError);
  EXPECT_THROW(IMAP_NCHECK_FINITE(kInf, "loss"), NumericError);
  EXPECT_THROW(IMAP_NCHECK_FINITE(-kInf, "loss"), NumericError);
}

TEST(NumericGuardEnabled, VectorGuardNamesTheBadIndex) {
  const std::vector<double> v{1.0, 2.0, kNan, 4.0};
  try {
    IMAP_NCHECK_FINITE_VEC(v, "advantages");
    FAIL() << "expected NumericError";
  } catch (const NumericError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("advantages[2]"), std::string::npos) << what;
  }
  const std::vector<double> ok{1.0, 2.0, 3.0};
  EXPECT_NO_THROW(IMAP_NCHECK_FINITE_VEC(ok, "advantages"));
}

TEST(NumericGuardEnabled, ShapeMismatchFires) {
  const std::vector<double> v(3, 0.0);
  EXPECT_NO_THROW(IMAP_NCHECK_SHAPE(v.size(), 3, "obs"));
  EXPECT_THROW(IMAP_NCHECK_SHAPE(v.size(), 4, "obs"), NumericError);
}

TEST(NumericGuardEnabled, BoundsGuardRejectsNanAndOutOfRange) {
  EXPECT_NO_THROW(IMAP_NCHECK_BOUNDS(0.5, 0.0, 1.0, "gamma"));
  EXPECT_NO_THROW(IMAP_NCHECK_BOUNDS(kInf, 0.0, kInf, "dist"));
  EXPECT_THROW(IMAP_NCHECK_BOUNDS(1.5, 0.0, 1.0, "gamma"), NumericError);
  EXPECT_THROW(IMAP_NCHECK_BOUNDS(-0.1, 0.0, 1.0, "gamma"), NumericError);
  EXPECT_THROW(IMAP_NCHECK_BOUNDS(kNan, 0.0, 1.0, "gamma"), NumericError);
}

// A NaN hidden pre-activation must reach the output guard of
// Mlp::forward_batch as NaN: the activation maps NaN to NaN (a clamp such as
// `|x| < 20 ? |x| : 20` would turn it into ±1 and hide it). With the
// library's guards compiled in the forward throws; without them the NaN row
// must come out NaN while the finite row stays finite.
TEST(NumericGuardEnabled, MlpForwardNanPreActivationIsNotMasked) {
  Rng rng(3);
  const nn::Mlp net({3, 8, 8, 2}, rng);
  nn::Batch x(2, 3);
  x.set_row(0, {0.1, -0.2, 0.3});
  x.set_row(1, {0.1, kNan, 0.3});
  nn::Mlp::Workspace ws;
#ifdef IMAP_LIBRARY_NUMERIC_GUARDS
  EXPECT_THROW(net.forward_batch(x, ws), NumericError);
#else
  const nn::Batch& y = net.forward_batch(x, ws);
  for (std::size_t c = 0; c < y.dim(); ++c) {
    EXPECT_TRUE(std::isfinite(y(0, c))) << "column " << c;
    EXPECT_TRUE(std::isnan(y(1, c))) << "column " << c;
  }
#endif
}

TEST(NumericGuardEnabled, NumericErrorIsACheckError) {
  // Callers that already catch CheckError keep working.
  EXPECT_THROW(IMAP_NCHECK_FINITE(kNan, "x"), CheckError);
}

}  // namespace
}  // namespace imap
