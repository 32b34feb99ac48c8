#include "montage/pregion.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "util/flush.hpp"

namespace medley::montage {

PRegion::PRegion(const std::string& path, std::size_t capacity)
    : path_(path), capacity_(capacity) {
  if (capacity_ > kMaxCapacity) {
    throw std::invalid_argument(
        "PRegion: capacity " + std::to_string(capacity_) + " exceeds " +
        std::to_string(kMaxCapacity) + " slots");
  }
  bytes_ = sizeof(RegionHeader) + capacity_ * sizeof(PBlk);
  caches_ = std::make_unique<util::Padded<Cache>[]>(
      util::ThreadRegistry::kMaxThreads);
  const int fd = ::open(path_.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) throw std::runtime_error("PRegion: cannot open " + path_);
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw std::runtime_error("PRegion: fstat failed");
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  // Read the header before resizing or mapping anything: a valid region
  // opened with the wrong capacity must come through untouched.
  bool valid = false;
  std::uint64_t head[2] = {0, 0};  // format_magic, capacity
  if (::pread(fd, head, sizeof(head), 0) ==
          static_cast<ssize_t>(sizeof(head)) &&
      head[0] == RegionHeader::kFormatMagic) {
    if (head[1] != capacity_) {
      ::close(fd);
      throw std::runtime_error(
          "PRegion: " + path_ + " holds a region of " +
          std::to_string(head[1]) + " slots; opened with " +
          std::to_string(capacity_));
    }
    valid = size >= bytes_;
  }
  if (size < bytes_ && ::ftruncate(fd, static_cast<off_t>(bytes_)) != 0) {
    ::close(fd);
    throw std::runtime_error("PRegion: ftruncate failed");
  }
  void* base =
      ::mmap(nullptr, bytes_, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  if (base == MAP_FAILED) throw std::runtime_error("PRegion: mmap failed");

  header_ = static_cast<RegionHeader*>(base);
  slots_ = reinterpret_cast<PBlk*>(static_cast<char*>(base) +
                                   sizeof(RegionHeader));

  fresh_ = !valid;
  if (fresh_) {
    // A file that was empty is all zeros already; leaving it unwritten
    // keeps its pages unbacked until their slots are first used. Any
    // other file without a valid header may hold anything: zero it whole.
    if (size != 0) {
      std::memset(static_cast<void*>(slots_), 0, capacity_ * sizeof(PBlk));
    }
    format();
  } else {
    rebuild_freelist([](const PBlk& b) {
      return b.magic.load(std::memory_order_relaxed) != PBlk::kMagicLive;
    });
  }
}

PRegion::~PRegion() {
  if (header_ != nullptr) {
    ::munmap(static_cast<void*>(header_), bytes_);
  }
}

void PRegion::format() {
  header_->format_magic = RegionHeader::kFormatMagic;
  header_->capacity = capacity_;
  header_->persisted_epoch.store(0, std::memory_order_relaxed);
  header_->used_bound.store(std::min(kBoundChunk, capacity_),
                            std::memory_order_relaxed);
  util::flush_range(header_, sizeof(RegionHeader));
  util::sfence();
  clear_free_state(0);
}

void PRegion::clear_free_state(std::size_t unused) {
  std::lock_guard<std::mutex> d(depot_mu_);
  for (int i = 0; i < util::ThreadRegistry::kMaxThreads; i++) {
    Cache& c = *caches_[i];
    std::lock_guard<std::mutex> g(c.mu);
    c.n = 0;
  }
  depot_.clear();
  unused_ = unused;
}

void PRegion::rebuild_freelist(const std::function<bool(PBlk&)>& is_free) {
  const std::size_t limit = scan_limit();
  clear_free_state(limit);
  std::lock_guard<std::mutex> d(depot_mu_);
  for (std::size_t i = 0; i < limit; i++) {
    PBlk& b = slots_[i];
    if (!is_free(b)) continue;
    // Store only where needed: a write would dirty (and on a file hole,
    // allocate) a page that may never be used.
    if (b.magic.load(std::memory_order_relaxed) != PBlk::kMagicFree) {
      b.magic.store(PBlk::kMagicFree, std::memory_order_relaxed);
    }
    depot_.push_back(static_cast<std::uint32_t>(i));
  }
  // The depot hands out its back first: low indices go out first.
  std::reverse(depot_.begin(), depot_.end());
}

void PRegion::refill_locked(Cache& c) {
  if (!depot_.empty()) {
    const std::size_t take = std::min<std::size_t>(kBatch, depot_.size());
    std::copy(depot_.end() - static_cast<long>(take), depot_.end(), c.idx);
    depot_.resize(depot_.size() - take);
    c.n = static_cast<std::uint32_t>(take);
    return;
  }
  const std::size_t take = std::min<std::size_t>(kBatch, capacity_ - unused_);
  // unused_ never passes the bound, and a chunk covers a whole batch. The
  // raised bound is durable before any slot of the new chunk goes out.
  const std::size_t bound = scan_limit();
  if (unused_ + take > bound) {
    header_->used_bound.store(std::min(capacity_, bound + kBoundChunk),
                              std::memory_order_release);
    util::clwb(header_);
    util::sfence();
  }
  // Lowest index on top, so never-used slots go out in index order.
  for (std::size_t i = 0; i < take; i++) {
    c.idx[i] = static_cast<std::uint32_t>(unused_ + take - 1 - i);
  }
  unused_ += take;
  c.n = static_cast<std::uint32_t>(take);
}

void PRegion::steal_locked() {
  // depot_mu_ is held throughout, so no slot enters or leaves the depot
  // mid-search: a slot that stays in some cache is found.
  const int n = util::ThreadRegistry::max_tid();
  for (int i = 0; i < n && depot_.size() < kBatch; i++) {
    Cache& v = *caches_[i];
    std::lock_guard<std::mutex> g(v.mu);
    const std::uint32_t take = (v.n + 1) / 2;
    v.n -= take;
    depot_.insert(depot_.end(), v.idx + v.n, v.idx + v.n + take);
  }
}

PBlk* PRegion::alloc() {
  Cache& c = *caches_[util::ThreadRegistry::tid()];
  {
    std::lock_guard<std::mutex> g(c.mu);
    if (c.n > 0) return &slots_[c.idx[--c.n]];
  }
  // Only this thread adds to its cache, so it is still empty below.
  std::lock_guard<std::mutex> d(depot_mu_);
  if (depot_.empty() && unused_ == capacity_) steal_locked();
  std::lock_guard<std::mutex> g(c.mu);
  refill_locked(c);
  if (c.n == 0) return nullptr;  // exhausted
  return &slots_[c.idx[--c.n]];
}

void PRegion::free(PBlk* blk) {
  blk->magic.store(PBlk::kMagicFree, std::memory_order_release);
  Cache& c = *caches_[util::ThreadRegistry::tid()];
  {
    std::lock_guard<std::mutex> g(c.mu);
    if (c.n < 2 * kBatch) {
      c.idx[c.n++] = index_of(blk);
      return;
    }
  }
  std::lock_guard<std::mutex> d(depot_mu_);
  std::lock_guard<std::mutex> g(c.mu);
  if (c.n == 2 * kBatch) {  // unless a thief made room meanwhile
    // Spill the older half; the recently freed (cache-warm) half stays.
    depot_.insert(depot_.end(), c.idx, c.idx + kBatch);
    std::copy(c.idx + kBatch, c.idx + c.n, c.idx);
    c.n -= kBatch;
  }
  c.idx[c.n++] = index_of(blk);
}

void PRegion::release(std::span<PBlk* const> blks) {
  for (PBlk* b : blks) {
    b->magic.store(PBlk::kMagicFree, std::memory_order_release);
  }
  std::lock_guard<std::mutex> d(depot_mu_);
  for (PBlk* b : blks) depot_.push_back(index_of(b));
}

void PRegion::reset() {
  std::memset(static_cast<void*>(slots_), 0, scan_limit() * sizeof(PBlk));
  format();
}

std::size_t PRegion::live_count() const {
  std::size_t n = 0;
  const std::size_t limit = scan_limit();
  for (std::size_t i = 0; i < limit; i++) {
    if (slots_[i].magic.load(std::memory_order_relaxed) ==
        PBlk::kMagicLive) {
      n++;
    }
  }
  return n;
}

}  // namespace medley::montage
