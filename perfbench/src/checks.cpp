#include "checks.h"

#include "core/tester.h"

namespace perfbench {

using tft::service::ReplyStatus;

Expected simulate(const tft::service::SessionSpec& spec,
                  std::span<const tft::PlayerInput> players) {
  const tft::TestReport report =
      tft::test_triangle_freeness(players, tft::service::tester_options(spec));
  Expected e;
  e.triangle = report.triangle;
  e.status = report.triangle ? ReplyStatus::kTriangle : ReplyStatus::kTriangleFree;
  e.charged_bits = report.bits;
  return e;
}

bool triangle_is_real(std::span<const tft::PlayerInput> players, const tft::Triangle& t) {
  const auto present = [&](const tft::Edge& e) {
    for (const auto& p : players) {
      if (p.local.has_edge(e.u, e.v)) return true;
    }
    return false;
  };
  return present(t.e1()) && present(t.e2()) && present(t.e3());
}

std::string check_reply(const tft::service::ServiceReply& r, const Expected& want,
                        std::span<const tft::PlayerInput> players) {
  if (r.status != ReplyStatus::kTriangle && r.status != ReplyStatus::kTriangleFree) {
    return "status is neither triangle nor triangle-free: " + r.error;
  }
  if (!r.accounting_exact) return "accounting_exact not set";
  if (!r.conformance_ok) return "conformance_ok not set";
  if (r.status != want.status) return "verdict differs from the simulated run";
  if (r.triangle != want.triangle) return "triangle differs from the simulated run";
  if (r.charged_bits != want.charged_bits) {
    return "charged_bits " + std::to_string(r.charged_bits) + " != simulated " +
           std::to_string(want.charged_bits);
  }
  if ((r.status == ReplyStatus::kTriangle) != r.triangle.has_value()) {
    return "verdict and triangle disagree";
  }
  if (r.triangle && !triangle_is_real(players, *r.triangle)) {
    return "returned triangle is not in the instance";
  }
  return {};
}

std::string check_sweep(const tft::FarnessStats& got, const tft::FarnessStats& want) {
  if (got.far_count != want.far_count) return "far_count differs from the serial recomputation";
  if (got.mean_packing != want.mean_packing) {
    return "mean_packing differs from the serial recomputation";
  }
  return {};
}

}  // namespace perfbench
