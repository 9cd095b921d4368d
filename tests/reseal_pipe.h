#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "net/error.h"
#include "net/frame.h"
#include "net/transport.h"

/// \file reseal_pipe.h
/// A tampering wire for tests: an in-proc transport whose data pipes let
/// an edit function change the first frame it wants to, then re-seal that
/// frame with a fresh CRC. The CRC is valid, so only the receiver's checks
/// behind it (addressing, filler) can tell the frame from an intact one.

namespace tft::net {

/// In-proc transport that re-seals exactly one frame across all its links:
/// the first one `edit` changes (it returns true when it did).
class ResealTransport final : public Transport {
 public:
  using Edit = std::function<bool(Frame&)>;

  explicit ResealTransport(Edit edit) : edit_(std::move(edit)) {}

  [[nodiscard]] Link make_link() override {
    Link link = inner_.make_link();
    link.data = std::make_unique<ResealPipe>(std::move(link.data), *this);
    return link;
  }
  [[nodiscard]] const char* name() const noexcept override { return "reseal"; }
  [[nodiscard]] bool resealed() const noexcept { return resealed_.load(); }

 private:
  /// Forwards whole frames, each the moment its last byte is written.
  class ResealPipe final : public Pipe {
   public:
    ResealPipe(std::unique_ptr<Pipe> inner, ResealTransport& owner)
        : inner_(std::move(inner)), owner_(owner) {}

    std::size_t write_some(std::span<const std::uint8_t> bytes) override {
      pending_.insert(pending_.end(), bytes.begin(), bytes.end());
      // A frame is its 4-byte little-endian body length, the body and a
      // 4-byte CRC.
      while (pending_.size() >= 4) {
        const std::size_t end = (pending_[0] | (pending_[1] << 8) | (pending_[2] << 16) |
                                 (static_cast<std::size_t>(pending_[3]) << 24)) +
                                8;
        if (pending_.size() < end) break;
        std::vector<std::uint8_t> wire(pending_.begin(),
                                       pending_.begin() + static_cast<std::ptrdiff_t>(end));
        pending_.erase(pending_.begin(), pending_.begin() + static_cast<std::ptrdiff_t>(end));
        FrameParser parser;
        parser.feed(wire);
        Frame f;
        if (parser.next(f) && !owner_.resealed_.load() && owner_.edit_(f)) {
          owner_.resealed_ = true;
          wire = serialize_frame(f);
        }
        // The ring holds far more than these tests keep in flight; a frame
        // that does not fit is a broken test, not backpressure.
        if (inner_->write_some(wire) != wire.size()) {
          throw NetError(NetErrorKind::kProtocol, "reseal pipe: inner ring full");
        }
      }
      return bytes.size();
    }
    int read_some(std::span<std::uint8_t> buf) override { return inner_->read_some(buf); }
    void close() override { inner_->close(); }

   private:
    std::unique_ptr<Pipe> inner_;
    ResealTransport& owner_;
    std::vector<std::uint8_t> pending_;
  };

  InProcTransport inner_;
  Edit edit_;
  std::atomic<bool> resealed_{false};
};

}  // namespace tft::net
