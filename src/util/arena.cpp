#include "util/arena.h"

#include <cstdlib>

namespace tft {

namespace {

std::size_t align_up(std::size_t v, std::size_t align) noexcept {
  return (v + align - 1) & ~(align - 1);
}

}  // namespace

void* Arena::allocate(std::size_t bytes, std::size_t align) {
  if (bytes == 0) bytes = 1;
  if (active_ < blocks_.size()) {
    const Block& b = blocks_[active_];
    const std::size_t start = align_up(used_, align);
    if (start + bytes <= b.size) {
      used_ = start + bytes;
      return b.data + start;
    }
  }
  // The active block is exhausted. Every block after it is free (a rewind
  // leaves them behind): take the first that fits, or grow one, and swap it
  // into the slot after the active block. No marker points past the active
  // block, so the swap moves none.
  const std::size_t next = blocks_.empty() ? 0 : active_ + 1;
  std::size_t fit = next;
  while (fit < blocks_.size() && blocks_[fit].size < bytes) ++fit;
  if (fit == blocks_.size()) add_block(bytes);
  std::swap(blocks_[next], blocks_[fit]);
  active_ = next;
  // Blocks are 64-byte aligned, so offset 0 meets any supported alignment.
  used_ = bytes;
  return blocks_[next].data;
}

void Arena::add_block(std::size_t min_bytes) {
  // Double the largest block: swaps in allocate() reorder blocks, so the
  // last one need not be the largest.
  std::size_t largest = 0;
  for (const Block& b : blocks_) largest = std::max(largest, b.size);
  std::size_t size = blocks_.empty() ? kMinBlockBytes : std::min(largest * 2, kMaxBlockBytes);
  if (size < min_bytes) size = align_up(min_bytes, std::size_t{4} << 10);
  auto* data = static_cast<std::byte*>(::operator new(size, std::align_val_t{64}));
  arena_charge(size);
  blocks_.push_back({data, size});
}

void Arena::trim(std::size_t keep_bytes) {
  std::size_t kept = 0;
  std::size_t out = 0;
  for (Block& b : blocks_) {
    if (kept + b.size <= keep_bytes) {
      kept += b.size;
      blocks_[out++] = b;
    } else {
      arena_release(b.size);
      ::operator delete(b.data, std::align_val_t{64});
    }
  }
  blocks_.resize(out);
  active_ = 0;
  used_ = 0;
}

std::size_t Arena::capacity_bytes() const noexcept {
  std::size_t total = 0;
  for (const Block& b : blocks_) total += b.size;
  return total;
}

std::size_t Arena::used_bytes() const noexcept {
  std::size_t total = 0;
  for (std::size_t i = 0; i < active_ && i < blocks_.size(); ++i) total += blocks_[i].size;
  return total + used_;
}

Arena& thread_arena() {
  thread_local Arena arena;
  return arena;
}

}  // namespace tft
