// Tests of the benchmark's own logic: the tail rule, the traced run's
// self-check, the output check rejecting mutated replies, and the per-op
// specs. Exit code 0 = all pass.
//
//   python3 perfbench/run.py --self-test

#include <cstdio>
#include <string>
#include <vector>

#include "checks.h"
#include "measure.h"
#include "service/spec.h"
#include "workloads.h"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

using perfbench::Span;

Span span(std::uint64_t op, int parent, std::int64_t start, std::int64_t end) {
  return Span{"x", op, parent, start, end};
}

void tail_rule() {
  using perfbench::select_tail_quantile;
  using perfbench::samples_beyond;
  expect(select_tail_quantile(99) == 0.0, "99 samples: p90 leaves 9 beyond, no tail qualifies");
  expect(select_tail_quantile(100) == 0.9, "100 samples: p90 leaves exactly 10 beyond");
  expect(select_tail_quantile(999) == 0.9, "999 samples: p99 leaves 9 beyond, so p90");
  expect(select_tail_quantile(1000) == 0.99, "1000 samples: p99");
  expect(select_tail_quantile(9999) == 0.99, "9999 samples: p999 leaves 9 beyond, so p99");
  expect(select_tail_quantile(10000) == 0.999, "10000 samples: p999");
  expect(samples_beyond(4600, 0.99) == 46, "4600 samples leave 46 beyond p99");
  expect(select_tail_quantile(160) >= 0.9 && select_tail_quantile(400) >= 0.9 &&
             select_tail_quantile(5000) >= 0.9,
         "the workloads' usual sample counts leave 10 beyond their named p90");

  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  expect(perfbench::percentile(v, 0.9) == 90.0, "nearest-rank p90 of 1..100 is 90");
  expect(perfbench::percentile(v, 0.5) == 50.0, "nearest-rank p50 of 1..100 is 50");
  expect(perfbench::percentile({7.0}, 0.99) == 7.0, "a single sample is every percentile");
}

void self_check() {
  using perfbench::self_check;
  constexpr double tol = 1e-3;
  // Two ops as the traced replay records them: a root with back-to-back
  // layer spans. Self times sum to the root exactly.
  const std::vector<Span> clean = {
      span(1, -1, 0, 1'000'000), span(1, 0, 0, 400'000), span(1, 0, 400'000, 1'000'000),
      span(2, -1, 2'000'000, 3'000'000), span(2, 3, 2'000'000, 3'000'000)};
  auto c = self_check(clean);
  expect(c.roots == 2 && c.root_ns == 2'000'000 && c.self_ns == 0 && c.passes(tol),
         "layer spans that cover their roots pass");

  // 100 us of the 1 ms root lies in no layer span: untraced work fails.
  const std::vector<Span> gap = {span(1, -1, 0, 1'000'000), span(1, 0, 0, 400'000),
                                 span(1, 0, 500'000, 1'000'000)};
  c = self_check(gap);
  expect(c.self_ns == 100'000 && c.misshapen == 0 && !c.passes(tol),
         "a root whose layers leave 10% uncovered fails");

  // The bound is on the run's sum: 0.5 us between the layers of each of
  // many 1 ms ops is 0.05% of the roots and passes; 2 us (0.2%) fails.
  std::vector<Span> small;
  std::vector<Span> large;
  for (std::uint64_t op = 0; op < 100; ++op) {
    const auto t = static_cast<std::int64_t>(op) * 2'000'000;
    const int root = static_cast<int>(small.size());
    for (auto* v : {&small, &large}) v->push_back(span(op, -1, t, t + 1'000'000));
    small.push_back(span(op, root, t, t + 500'000));
    small.push_back(span(op, root, t + 500'500, t + 1'000'000));
    large.push_back(span(op, root, t, t + 500'000));
    large.push_back(span(op, root, t + 502'000, t + 1'000'000));
  }
  expect(self_check(small).passes(tol), "0.05% uncovered over a run passes");
  expect(!self_check(large).passes(tol), "0.2% uncovered over a run fails");

  // Spans that break the shape fail even when the sums would agree.
  const std::vector<Span> overlap = {span(1, -1, 0, 1'000'000), span(1, 0, 0, 600'000),
                                     span(1, 0, 400'000, 1'000'000)};
  expect(self_check(overlap).misshapen == 1 && !self_check(overlap).passes(tol),
         "overlapping layer spans fail");
  const std::vector<Span> escape = {span(1, -1, 0, 1'000'000), span(1, 0, 0, 1'600'000)};
  expect(self_check(escape).misshapen == 1 && !self_check(escape).passes(tol),
         "a layer span outside its root fails");
  const std::vector<Span> nested = {span(1, -1, 0, 1'000'000), span(1, 0, 0, 1'000'000),
                                    span(1, 1, 0, 500'000)};
  expect(self_check(nested).misshapen == 1 && !self_check(nested).passes(tol),
         "a span nested below a layer span fails");

  expect(perfbench::total_ns(clean, "x") == 4'000'000, "total_ns sums the spans of one name");
  expect(perfbench::total_ns(clean, "y") == 0, "total_ns of an absent name is 0");
}

void output_check() {
  tft::service::SessionSpec spec;
  spec.protocol = tft::ProtocolKind::kUnrestricted;
  spec.family = tft::service::InstanceFamily::kPlanted;
  spec.n = 600;
  spec.k = 4;
  spec.seed = 11;
  const auto players = tft::service::build_players(spec);
  const perfbench::Expected want = perfbench::simulate(spec, players);

  tft::service::ServiceReply good;
  good.status = want.status;
  good.triangle = want.triangle;
  good.charged_bits = want.charged_bits;
  good.accounting_exact = true;
  good.conformance_ok = true;
  expect(perfbench::check_reply(good, want, players).empty(), "the simulated result passes");
  expect(want.triangle.has_value(), "the planted instance yields a triangle to mutate");

  auto flipped = good;
  flipped.status = good.status == tft::service::ReplyStatus::kTriangle
                       ? tft::service::ReplyStatus::kTriangleFree
                       : tft::service::ReplyStatus::kTriangle;
  expect(!perfbench::check_reply(flipped, want, players).empty(), "a flipped verdict fails");

  auto off_by_one = good;
  off_by_one.charged_bits += 1;
  expect(!perfbench::check_reply(off_by_one, want, players).empty(), "bits off by one fail");
  off_by_one.charged_bits -= 2;
  expect(!perfbench::check_reply(off_by_one, want, players).empty(), "bits short by one fail");

  auto unflagged = good;
  unflagged.accounting_exact = false;
  expect(!perfbench::check_reply(unflagged, want, players).empty(),
         "a reply without accounting_exact fails");
  unflagged = good;
  unflagged.conformance_ok = false;
  expect(!perfbench::check_reply(unflagged, want, players).empty(),
         "a reply without conformance_ok fails");

  auto busy = good;
  busy.status = tft::service::ReplyStatus::kBusy;
  expect(!perfbench::check_reply(busy, want, players).empty(), "a busy reply fails");

  if (want.triangle) {
    const tft::Triangle t = *want.triangle;
    expect(perfbench::triangle_is_real(players, t), "the returned triangle is in the instance");
    // A reply whose triangle matches a (mutated) expectation but is not in
    // the instance still fails.
    for (tft::Vertex x = 0; x < spec.n; ++x) {
      if (x == t.a || x == t.b || perfbench::triangle_is_real(players, {t.a, t.b, x})) continue;
      perfbench::Expected fake_want = want;
      fake_want.triangle = tft::Triangle(t.a, t.b, x);
      auto fake_reply = good;
      fake_reply.triangle = fake_want.triangle;
      expect(!perfbench::check_reply(fake_reply, fake_want, players).empty(),
             "a triangle absent from the instance fails");
      break;
    }
  }

  tft::FarnessStats a;
  a.far_count = 3;
  a.mean_packing = 120.5;
  auto b = a;
  expect(perfbench::check_sweep(a, b).empty(), "equal sweep stats pass");
  b.mean_packing = 120.50000000000001;
  expect(!perfbench::check_sweep(a, b).empty(), "a sweep mean off in the last bit fails");
  b = a;
  b.far_count = 2;
  expect(!perfbench::check_sweep(a, b).empty(), "a sweep far_count off by one fails");
}

void op_specs() {
  using perfbench::op_spec;
  using perfbench::warmup_spec;
  for (const char* w : {"serve_chatty", "serve_bulk"}) {
    const std::string wl = w;
    expect(op_spec(wl, 5, 7) == op_spec(wl, 5, 7),
           wl + ": an op's spec is a pure function of (seed, i)");
    expect(op_spec(wl, 5, 7) != op_spec(wl, 6, 7), wl + ": another seed gives another spec");
    bool distinct = true;
    for (std::size_t i = 0; i < 64; ++i) {
      for (std::size_t j = i + 1; j < 64; ++j) {
        distinct = distinct && !(op_spec(wl, 5, i) == op_spec(wl, 5, j));
      }
    }
    expect(distinct, wl + ": no two of the first 64 ops share a spec");
  }
  expect(warmup_spec("serve_bulk", 0).protocol != warmup_spec("serve_bulk", 1).protocol,
         "serve_bulk warms up both of its spec shapes");
}

}  // namespace

int main() {
  tail_rule();
  self_check();
  output_check();
  op_specs();
  std::printf("%s (%d failed)\n", g_failures == 0 ? "all passed" : "FAILED", g_failures);
  return g_failures == 0 ? 0 : 1;
}
