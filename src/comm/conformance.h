#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "comm/channel.h"
#include "comm/model.h"
#include "comm/transcript.h"

/// \file conformance.h
/// The model-conformance referee: replays a Transcript's MessageEvent
/// stream against a per-CommModel rule machine and reports every structural
/// violation. Protocols self-charge their transcripts, so a charging bug
/// would silently corrupt every measured exponent; the referee turns the
/// models' structural restrictions (Section 2 of the paper) into enforced
/// invariants instead of conventions.
///
/// Rules enforced per model (see PROTOCOLS.md "Model invariants"):
///   * simultaneous — exactly one player->referee message per speaking
///     player, zero referee->player bits;
///   * one-way      — sender indices non-decreasing (no back-edges), the
///     last player only outputs (sends nothing), zero downstream bits;
///   * coordinator  — downstream traffic occurs only as complete broadcast
///     sweeps: k consecutive coordinator->player events with identical
///     (bits, phase), one per player in index order (the private-channel
///     announcement convention every building block follows);
///   * blackboard   — no private downstream messages: a coordinator->player
///     event either targets player 0 (a board post, charged once) or is
///     part of a complete k-player sweep (a legacy private-channel
///     simulation, which never understates the blackboard cost).
/// All models additionally require the event stream to reproduce the
/// per-player / per-direction / per-phase tallies exactly (no unrecorded
/// charges), so a protocol cannot hide traffic by toggling event recording.
///
/// Every full-protocol entry point in src/core/ and src/streaming/ runs its
/// transcript through `run_checked`, so tests and benches execute under the
/// referee by default; benches may opt out with `--conformance=0` (next to
/// `--threads`).

namespace tft {

enum class ViolationKind {
  kEventsNotRecorded,    ///< bits were charged but the event stream is incomplete
  kTallyMismatch,        ///< events do not reproduce the per-player/phase tallies
  kBadPlayerIndex,       ///< event names a player outside [0, k)
  kMultipleUpMessages,   ///< simultaneous: a player sent more than one message
  kDownstreamForbidden,  ///< simultaneous/one-way: referee/downstream bits exist
  kOrderViolation,       ///< one-way: a back-edge (earlier player spoke after a later one)
  kSilentPlayerSpoke,    ///< one-way: the output player transmitted
  kBrokenBroadcast,      ///< coordinator: downstream event outside a complete sweep
  kPrivateDownstream,    ///< blackboard: private coordinator->player message
};

[[nodiscard]] const char* to_string(ViolationKind k) noexcept;

struct Violation {
  ViolationKind kind = ViolationKind::kTallyMismatch;
  /// Index into Transcript::events() of the offending event (or the first
  /// event of the offending run); SIZE_MAX for stream-level violations.
  std::size_t event_index = SIZE_MAX;
  std::size_t player = SIZE_MAX;  ///< offending player, if one is implicated
  std::string detail;             ///< human-readable specifics
};

/// Typed outcome of replaying one transcript against one model's rules.
struct ConformanceReport {
  CommModel model = CommModel::kCoordinator;
  std::vector<Violation> violations;

  [[nodiscard]] bool ok() const noexcept { return violations.empty(); }
  [[nodiscard]] bool has(ViolationKind k) const noexcept;
  [[nodiscard]] std::string to_string() const;
};

/// Replay `t`'s event stream against `model`'s rule machine. Pure function
/// of the transcript; never throws on violations (it reports them).
[[nodiscard]] ConformanceReport check_conformance(CommModel model, const Transcript& t);

/// Thrown by enforce_conformance / run_checked on a non-conforming run.
class ConformanceError : public std::logic_error {
 public:
  explicit ConformanceError(ConformanceReport r)
      : std::logic_error(r.to_string()), report(std::move(r)) {}
  ConformanceReport report;
};

/// Global referee switch (default on). Benches flip it via --conformance=0;
/// reads/writes are atomic so parallel trial engines may consult it freely.
void set_conformance_checking(bool on) noexcept;
[[nodiscard]] bool conformance_checking() noexcept;

/// Checks `t` against `model` and throws ConformanceError on any violation.
/// No-op when checking is globally disabled.
void enforce_conformance(CommModel model, const Transcript& t);

/// Canonical plain-text rendering of a transcript's event stream, used by
/// the golden-transcript regression files. One header line, one line per
/// event, one totals line; stable across platforms and thread counts.
[[nodiscard]] std::string format_transcript(CommModel model, const Transcript& t);

/// Scoped capture of every checked protocol run on the current thread:
/// while a TranscriptCapture is alive, run_checked records events even if
/// checking is disabled and appends a copy of each finished transcript.
/// Used by the golden-transcript tests and the conformance dump tool.
class TranscriptCapture {
 public:
  TranscriptCapture();
  ~TranscriptCapture();
  TranscriptCapture(const TranscriptCapture&) = delete;
  TranscriptCapture& operator=(const TranscriptCapture&) = delete;

  struct Run {
    CommModel model;
    Transcript transcript;
  };
  [[nodiscard]] const std::vector<Run>& runs() const noexcept { return runs_; }

 private:
  friend void detail_capture_run(CommModel, const Transcript&);
  std::vector<Run> runs_;
  TranscriptCapture* prev_ = nullptr;
};

namespace detail {
/// True iff a TranscriptCapture is active on this thread (events must then
/// be recorded regardless of the global switch).
[[nodiscard]] bool capture_active() noexcept;
}  // namespace detail

/// Hand the finished transcript to the active capture, if any.
void detail_capture_run(CommModel model, const Transcript& t);

/// The conformance wrapper every full-protocol entry point routes through:
/// builds the run's Transcript (event recording tied to the referee switch),
/// executes `body(Channel)`, replays the transcript against `model`'s rules
/// and throws ConformanceError on any violation. Returns body's result.
///
/// The body receives a Channel — the same charging API as the Transcript,
/// but routed through the thread's installed ChannelSink, so the identical
/// protocol code runs in legacy simulated mode (no sink: charges are pure
/// bookkeeping) or executed mode (net::NetSession sink: every charge ships
/// a real serialized frame, and the runtime cross-checks delivered wire
/// bits against this transcript).
template <typename Fn>
auto run_checked(CommModel model, std::size_t num_players, std::uint64_t universe_n, Fn&& body) {
  Transcript t(num_players, universe_n);
  t.set_record_events(conformance_checking() || detail::capture_active());
  static_assert(!std::is_void_v<std::invoke_result_t<Fn&, Channel>>,
                "run_checked bodies return the protocol result");
  auto result = body(Channel(t));
  enforce_conformance(model, t);
  detail_capture_run(model, t);
  return result;
}

}  // namespace tft
