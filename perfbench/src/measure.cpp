#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

/// 1-based nearest rank of quantile q among n samples; the epsilon keeps
/// products like 0.9 * 100 = 90.000000000000014 on rank 90.
std::size_t nearest_rank(std::size_t n, double q) {
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)), 1, n);
}

}  // namespace

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const std::size_t rank = nearest_rank(values.size(), q);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  return values[rank - 1];
}

std::size_t samples_beyond(std::size_t samples, double q) {
  return samples == 0 ? 0 : samples - nearest_rank(samples, q);
}

double select_tail_quantile(std::size_t samples, std::size_t min_beyond) {
  for (const double q : {0.999, 0.99, 0.9}) {
    if (samples_beyond(samples, q) >= min_beyond) return q;
  }
  return 0.0;
}

std::string quantile_name(double q) {
  if (q >= 0.999) return "p999";
  if (q >= 0.99) return "p99";
  if (q >= 0.9) return "p90";
  return "none";
}

int Tracer::begin(const char* name, std::uint64_t op, int parent) {
  spans_.push_back(Span{name, op, parent, 0, 0});
  spans_.back().start_ns = now_ns();
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::end(int index) { spans_[static_cast<std::size_t>(index)].end_ns = now_ns(); }

std::int64_t total_ns(const std::vector<Span>& spans, std::string_view name) {
  std::int64_t total = 0;
  for (const Span& s : spans) {
    if (name == s.name) total += s.duration_ns();
  }
  return total;
}

bool SelfCheck::passes(double tolerance) const {
  return misshapen == 0 && static_cast<double>(self_ns) <= tolerance * static_cast<double>(root_ns);
}

SelfCheck self_check(const std::vector<Span>& spans) {
  SelfCheck c;
  std::vector<std::int64_t> covered(spans.size(), 0);  // per root: its children's time
  std::vector<std::int64_t> free_from(spans.size());   // per root: end of its latest child
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.parent < 0) {
      free_from[i] = s.start_ns;
      continue;
    }
    const auto p = static_cast<std::size_t>(s.parent);
    if (p >= i || spans[p].parent >= 0 || s.start_ns < free_from[p] ||
        s.end_ns > spans[p].end_ns || s.end_ns < s.start_ns) {
      ++c.misshapen;
      continue;
    }
    free_from[p] = s.end_ns;
    covered[p] += s.duration_ns();
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) continue;
    ++c.roots;
    c.root_ns += spans[i].duration_ns();
    c.self_ns += spans[i].duration_ns() - covered[i];
  }
  return c;
}

bool write_chrome_trace(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) return false;
  const std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[512];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string_view name(s.name);
    const std::string layer(name.substr(0, name.find('.')));
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,\"span\":%zu,\"parent\":%d}}",
                  i == 0 ? "" : ",", s.name, layer.c_str(),
                  static_cast<double>(s.start_ns - t0) / 1e3,
                  static_cast<double>(s.duration_ns()) / 1e3,
                  static_cast<unsigned long long>(s.op), i, s.parent);
    out << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

std::uint64_t process_ctx_switches() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_nvcsw) + static_cast<std::uint64_t>(ru.ru_nivcsw);
}

CpuTicks read_cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string line;
  std::getline(in, line);
  std::istringstream fields(line);
  std::string label;
  fields >> label;
  CpuTicks t;
  std::uint64_t v = 0;
  // user nice system idle iowait irq softirq steal guest guest_nice; guest
  // time is already inside user, so only the first eight add to the total.
  for (int i = 0; i < 8 && fields >> v; ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double steal_share(const CpuTicks& before, const CpuTicks& after) {
  const std::uint64_t total = after.total - before.total;
  return total == 0 ? 0.0
                    : static_cast<double>(after.steal - before.steal) / static_cast<double>(total);
}

double probe_loop_ms() {
  const std::int64_t t0 = now_ns();
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  std::uint64_t acc = 0;
  for (std::uint64_t i = 0; i < 50'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += x >> 60;
  }
  volatile std::uint64_t sink = acc;
  (void)sink;
  return static_cast<double>(now_ns() - t0) / 1e6;
}

}  // namespace perfbench
