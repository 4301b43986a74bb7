// Failure inter-arrival model (exponential or Weibull ArrivalModel):
// distribution moments against closed forms and the scheduled plan's
// invariants (rank 0 spared, steps from cumulative gaps, bounds respected).

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "core/failure_gen.hpp"
#include "core/layout.hpp"

using namespace ftr::core;
using ftr::comb::Scheme;
using ftr::comb::Technique;

namespace {

LayoutConfig small_layout() {
  LayoutConfig cfg;
  cfg.scheme = Scheme{6, 3};
  cfg.technique = Technique::CheckpointRestart;
  cfg.procs_diagonal = 4;
  cfg.procs_lower = 2;
  cfg.procs_extra_upper = 2;
  cfg.procs_extra_lower = 1;
  return cfg;
}

struct Moments {
  double mean = 0.0;
  double var = 0.0;
};

Moments sample_moments(const ArrivalModel& m, int n, std::uint64_t seed) {
  ftr::Xoshiro256 rng(seed);
  double sum = 0.0, sumsq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = draw_interarrival(m, rng);
    EXPECT_GT(x, 0.0);
    sum += x;
    sumsq += x * x;
  }
  Moments out;
  out.mean = sum / n;
  out.var = sumsq / n - out.mean * out.mean;
  return out;
}

}  // namespace

TEST(FailureArrivals, ExponentialMomentsMatchMtbf) {
  // Exp(mean = scale): E[X] = scale, Var[X] = scale^2.
  const ArrivalModel m{FailureDist::Exponential, 8.0, 1.0};
  const auto s = sample_moments(m, 200000, 42);
  EXPECT_NEAR(s.mean, 8.0, 8.0 * 0.02);
  EXPECT_NEAR(s.var, 64.0, 64.0 * 0.05);
}

TEST(FailureArrivals, WeibullMomentsMatchClosedForm) {
  // Weibull(k, lambda): E[X] = lambda*G(1+1/k),
  // Var[X] = lambda^2*(G(1+2/k) - G(1+1/k)^2).  Shape < 1 is the bursty
  // regime (heavy tail, clustered small gaps); shape > 1 the aging regime.
  for (const double k : {0.7, 2.0}) {
    const double lambda = 5.0;
    const ArrivalModel m{FailureDist::Weibull, lambda, k};
    const double g1 = std::tgamma(1.0 + 1.0 / k);
    const double g2 = std::tgamma(1.0 + 2.0 / k);
    const double mean = lambda * g1;
    const double var = lambda * lambda * (g2 - g1 * g1);
    const auto s = sample_moments(m, 400000, 7);
    EXPECT_NEAR(s.mean, mean, mean * 0.02) << "shape " << k;
    EXPECT_NEAR(s.var, var, var * 0.06) << "shape " << k;
  }
}

TEST(FailureArrivals, WeibullShapeOneDegeneratesToExponential) {
  // Same shape-1 Weibull and exponential draw must agree sample-by-sample:
  // scale * (-ln u)^(1/1) == scale * (-ln u).
  const ArrivalModel exp_m{FailureDist::Exponential, 3.0, 1.0};
  const ArrivalModel wei_m{FailureDist::Weibull, 3.0, 1.0};
  ftr::Xoshiro256 a(99), b(99);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_DOUBLE_EQ(draw_interarrival(exp_m, a), draw_interarrival(wei_m, b));
  }
}

TEST(FailureArrivals, ScheduledPlanRespectsInvariants) {
  const Layout layout = build_layout(small_layout());
  ftr::Xoshiro256 rng(123);
  const long max_step = 40;
  const ArrivalModel bursty{FailureDist::Weibull, 6.0, 0.5};
  for (int rep = 0; rep < 50; ++rep) {
    const FailurePlan plan = scheduled_real_failures(layout, 3, max_step, bursty, rng);
    ASSERT_EQ(plan.kill_at_step.size(), 3u);
    for (const auto& [rank, step] : plan.kill_at_step) {
      EXPECT_GT(rank, 0);  // rank 0 never fails (paper Sec. III)
      EXPECT_LT(rank, layout.total_procs);
      EXPECT_GE(step, 1);
      EXPECT_LT(step, max_step);
    }
  }
}
