#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "comm/conformance.h"
#include "graph/instance_cache.h"
#include "util/flags.h"
#include "util/parallel.h"
#include "util/mem.h"
#include "util/rng.h"
#include "util/stats.h"

/// \file runner.h
/// Shared trial harness for the experiment binaries: fans independent
/// trials across the global thread pool while keeping every printed
/// measurement row byte-identical at any `--threads` value.
///
/// The determinism contract has two halves:
///   * each trial's randomness is derived counter-style from
///     (seed, trial_index) via `derive_rng` — never drawn from a shared
///     mutating stream, whose state would depend on execution order;
///   * results come back in a trial-indexed vector and are aggregated
///     serially in trial order (`summarize` / `success_rate`), so even
///     floating-point accumulation is order-fixed.
/// A bench that follows both halves may be run with `--threads 1` and
/// `--threads 64` and diff clean.

namespace tft::bench {

/// Installs the `--threads` flag (0 = all hardware threads) as the global
/// pool's worker count, and the `--conformance` flag (default 1) as the
/// model-conformance referee switch — every protocol run is replayed
/// against its model's rule machine unless a bench opts out with
/// `--conformance=0` (e.g. for very large runs where recording message
/// events costs memory). Call once at the top of every bench main(),
/// before the first parallel call.
inline void configure_threads(const Flags& flags) {
  set_default_threads(static_cast<int>(flags.get_int("threads", 0)));
  set_conformance_checking(flags.get_bool("conformance", true));
}

/// The exit code of a bench main that ran to completion: 2, with each key
/// named on stderr, when a given `--key` was never read (a mistyped or
/// retired option must not pass unnoticed), else 0. Call as the last
/// statement of every bench main().
[[nodiscard]] inline int finish(const Flags& flags) {
  const std::vector<std::string> unread = flags.unread();
  for (const std::string& key : unread) {
    std::fprintf(stderr, "error: unknown flag --%s\n", key.c_str());
  }
  return unread.empty() ? 0 : 2;
}

/// Sweep-layer wiring shared by the budget-driven benches: sizes and resets
/// the global instance cache and selects the instance stream:
///   --cache_mb=N    instance cache byte budget     (default 256 MiB)
///   --chunked=0|1   chunked instance generation    (default 0)
///   --chunks=K      chunk count when --chunked     (default 8)
/// The cache budget only moves the wall-clock and memory columns: a hit, an
/// eviction's rebuild and a fresh build are the same instance (the
/// determinism contract in EXPERIMENTS.md "Sweep methodology").
/// `--chunked` swaps the sampled instance stream (graph/chunked.h) —
/// chunked rows are self-consistent at any --chunks but are a different
/// draw than the legacy monolithic rows. Construct once in main(), after
/// configure_threads.
class SweepContext {
 public:
  explicit SweepContext(const Flags& flags)
      : chunked_(flags.get_bool("chunked", false)),
        chunks_(static_cast<std::uint64_t>(flags.get_int("chunks", 8))) {
    auto& cache = InstanceCache::global();
    cache.set_byte_budget(static_cast<std::size_t>(flags.get_int("cache_mb", 256)) << 20);
    cache.clear();
    cache.reset_stats();
  }

  [[nodiscard]] bool chunked() const noexcept { return chunked_; }
  [[nodiscard]] std::uint64_t chunks() const noexcept { return chunks_ > 0 ? chunks_ : 1; }

  /// Keyed fetch from the global instance cache. `generator` tags the
  /// builder (unique per bench + instance type); build() must be a pure
  /// function of the key fields, deriving all randomness from them.
  template <typename T, typename Build>
  [[nodiscard]] std::shared_ptr<const T> instance(std::uint64_t generator, std::uint64_t n,
                                                  double param, std::uint64_t k,
                                                  std::uint64_t seed, std::uint64_t trial,
                                                  Build&& build) const {
    const InstanceKey key{generator, n, InstanceKey::pack_param(param), k, seed, trial};
    return InstanceCache::global().get_or_build<T>(key, std::forward<Build>(build));
  }

  /// Per-chunk variant: the key carries `chunk` so each chunk's slice is an
  /// independently cached, independently evictable entry — a sweep over a
  /// k-chunk instance never needs more than one slice resident per probe
  /// (plus whatever the LRU budget retains).
  template <typename T, typename Build>
  [[nodiscard]] std::shared_ptr<const T> instance(std::uint64_t generator, std::uint64_t n,
                                                  double param, std::uint64_t k,
                                                  std::uint64_t seed, std::uint64_t trial,
                                                  std::uint64_t chunk, Build&& build) const {
    const InstanceKey key{generator, n, InstanceKey::pack_param(param), k, seed, trial, chunk};
    return InstanceCache::global().get_or_build<T>(key, std::forward<Build>(build));
  }

 private:
  bool chunked_ = false;
  std::uint64_t chunks_ = 8;
};

/// Runs fn(rng, t) for every t in [0, trials) across the pool and returns
/// the results in trial order. fn must not touch state shared with other
/// trials (the library's protocol/generator entry points are all safe).
template <typename Fn>
[[nodiscard]] auto run_trials(std::size_t trials, std::uint64_t seed, Fn&& fn) {
  using R0 = std::decay_t<std::invoke_result_t<Fn&, Rng&, std::size_t>>;
  // bool would give the bit-packed vector<bool>, whose neighbouring
  // elements share a byte — not writable concurrently. Store bytes.
  using R = std::conditional_t<std::is_same_v<R0, bool>, std::uint8_t, R0>;
  std::vector<R> results(trials);
  parallel_for(
      trials,
      [&](std::size_t t) {
        Rng rng = derive_rng(seed, t);
        results[t] = fn(rng, t);
      },
      /*grain=*/1);
  return results;
}

/// Summary over a projection of per-trial results, folded in trial order.
template <typename R, typename Proj>
[[nodiscard]] Summary summarize(const std::vector<R>& results, Proj&& proj) {
  Summary s;
  for (const R& r : results) s.add(static_cast<double>(proj(r)));
  return s;
}

/// Fraction of trials satisfying pred.
template <typename R, typename Pred>
[[nodiscard]] double success_rate(const std::vector<R>& results, Pred&& pred) {
  if (results.empty()) return 0.0;
  std::size_t ok = 0;
  for (const R& r : results) ok += pred(r) ? 1 : 0;
  return static_cast<double>(ok) / static_cast<double>(results.size());
}

/// One scalar cell of a structured results row.
class JsonValue {
 public:
  /*implicit*/ JsonValue(double v) { render_double(v); }             // NOLINT
  /*implicit*/ JsonValue(std::uint64_t v) : text_(std::to_string(v)) {}  // NOLINT
  /*implicit*/ JsonValue(std::int64_t v) : text_(std::to_string(v)) {}   // NOLINT
  /*implicit*/ JsonValue(int v) : text_(std::to_string(v)) {}            // NOLINT
  /*implicit*/ JsonValue(bool v) : text_(v ? "true" : "false") {}        // NOLINT
  /*implicit*/ JsonValue(std::string_view v) { render_string(v); }       // NOLINT
  /*implicit*/ JsonValue(const char* v) { render_string(v); }            // NOLINT

  [[nodiscard]] const std::string& text() const noexcept { return text_; }

 private:
  void render_double(double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    text_ = buf;
  }
  void render_string(std::string_view v) {
    text_ = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') {
        text_ += '\\';
        text_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        text_ += buf;
      } else {
        text_ += c;
      }
    }
    text_ += '"';
  }

  std::string text_;
};

/// Machine-readable results sink behind the `--json=<path>` flag: one JSON
/// object per line (JSON Lines), every line tagged with the bench name.
/// Disabled (all calls no-ops) when the flag is absent, so benches call it
/// unconditionally next to their printf rows. The structured rows carry the
/// same deterministic measurement values as the text table — timing fields
/// are the caller's choice to include — so `--json` output diffs clean
/// across `--threads` exactly when the text output does.
class JsonRows {
 public:
  JsonRows(const Flags& flags, std::string_view bench) : bench_(bench) {
    const std::string path = flags.get_string("json", "");
    if (!path.empty()) {
      out_ = std::fopen(path.c_str(), "w");
      if (out_ == nullptr) {
        std::fprintf(stderr, "warning: --json=%s not writable; structured output disabled\n",
                     path.c_str());
      }
    }
  }
  ~JsonRows() {
    if (out_ != nullptr) std::fclose(out_);
  }
  JsonRows(const JsonRows&) = delete;
  JsonRows& operator=(const JsonRows&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return out_ != nullptr; }

  /// Emit one row: {"bench":"<name>","row":"<row>",<fields...>}.
  /// Every row also records the process peak RSS and the instance-arena
  /// high-water mark at emission time (util/mem.h) — observational,
  /// machine-dependent fields that baseline comparison strips exactly like
  /// the wall-clock columns (check_baseline.py TIME_KEY).
  void row(std::string_view row_name,
           std::initializer_list<std::pair<const char*, JsonValue>> fields) {
    if (out_ == nullptr) return;
    std::string line = "{\"bench\":" + JsonValue(bench_).text() +
                       ",\"row\":" + JsonValue(row_name).text();
    for (const auto& [key, value] : fields) {
      line += ",";
      line += JsonValue(std::string_view(key)).text();
      line += ":";
      line += value.text();
    }
    line += ",\"peak_rss_kb\":" + JsonValue(peak_rss_kb()).text();
    line += ",\"arena_hw_bytes\":" + JsonValue(arena_high_water()).text();
    line += "}\n";
    std::fputs(line.c_str(), out_);
    std::fflush(out_);
  }

 private:
  std::string bench_;
  std::FILE* out_ = nullptr;
};

}  // namespace tft::bench
