#include "montage/epoch_sys.hpp"

#include <chrono>
#include <mutex>
#include <stdexcept>

#include "util/backoff.hpp"
#include "util/flush.hpp"

namespace medley::montage {

namespace {

/// Tiny Composable that exposes read-set registration for the epoch cell.
class EpochFolder : public core::Composable {
 public:
  explicit EpochFolder(core::TxManager* mgr,
                       core::CASObj<std::uint64_t>* cell)
      : Composable(mgr), cell_(cell) {}

  void fold() {
    const std::uint64_t e = cell_->nbtcLoad();
    addToReadSet(cell_, e);
  }

 private:
  core::CASObj<std::uint64_t>* cell_;
};

/// The recovery predicate: a live payload created by the persisted
/// boundary `pe` whose retirement, if any, did not persist by it.
bool survives(const PBlk& b, std::uint64_t pe) {
  if (b.magic.load(std::memory_order_relaxed) != PBlk::kMagicLive) {
    return false;
  }
  const std::uint64_t ce = b.create_epoch.load(std::memory_order_relaxed);
  const std::uint64_t re = b.retire_epoch.load(std::memory_order_relaxed);
  return ce <= pe && (re == 0 || re > pe);
}

}  // namespace

EpochSys::EpochSys(PRegion* region) : region_(region) {
  // Resume two past the persisted boundary (a fresh region persists epoch
  // 0, so the clock starts at 2); epochs 0 and 1 are never current.
  epoch_.store(persisted_epoch() + 2);
}

EpochSys::~EpochSys() {
  stop_advancer();
  // No operations are running by contract: release every deferred slot
  // before the region can go away.
  std::lock_guard<std::mutex> g(advance_mutex_);
  std::vector<PBlk*> released;
  released.reserve(pending_free_.size());
  for (const PendingFree& p : pending_free_) released.push_back(p.blk);
  region_->release(released);
  pending_free_.clear();
}

void EpochSys::attach(core::TxManager* mgr) {
  auto folder = std::make_unique<EpochFolder>(mgr, &epoch_);
  auto* folder_raw = folder.get();
  folder_ = std::move(folder);
  mgr->set_begin_hook([this, folder_raw] {
    enter();
    folder_raw->fold();
  });
  mgr->set_end_hook([this](bool committed) {
    finalize(committed);
    exit();
  });
}

EpochSys::ThreadSlot& EpochSys::my_slot() {
  return *slots_[util::ThreadRegistry::tid()];
}

void EpochSys::enter() {
  ThreadSlot& s = my_slot();
  if (s.nesting++ > 0) return;
  for (;;) {
    const std::uint64_t e = epoch_.load();
    s.announce.store(e, std::memory_order_seq_cst);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (epoch_.load() == e) {
      s.my_epoch = e;
      return;
    }
    s.announce.store(kQuiescent, std::memory_order_release);
  }
}

void EpochSys::exit() {
  ThreadSlot& s = my_slot();
  if (--s.nesting == 0) {
    s.announce.store(kQuiescent, std::memory_order_release);
  }
}

PBlk* EpochSys::alloc_payload(std::uint64_t sid, std::uint64_t key,
                              std::uint64_t val, std::uint64_t aux) {
  ThreadSlot& s = my_slot();
  PBlk* b = region_->alloc();
  if (b == nullptr) return nullptr;
  b->key = key;
  b->val = val;
  b->aux = aux;
  b->owner_sid.store(sid, std::memory_order_relaxed);
  b->create_epoch.store(s.my_epoch, std::memory_order_relaxed);
  b->retire_epoch.store(0, std::memory_order_relaxed);
  b->magic.store(PBlk::kMagicLive, std::memory_order_release);
  s.allocs.push_back(b);
  return b;
}

void EpochSys::cancel_payload(PBlk* blk) {
  ThreadSlot& s = my_slot();
  for (std::size_t i = s.allocs.size(); i-- > 0;) {
    if (s.allocs[i] == blk) {
      s.allocs.erase(s.allocs.begin() + static_cast<long>(i));
      break;
    }
  }
  region_->free(blk);
}

void EpochSys::retire_payload(PBlk* blk) {
  my_slot().retires.push_back(blk);
}

void EpochSys::finalize(bool committed) {
  ThreadSlot& s = my_slot();
  if (committed) {
    auto& batch = s.to_persist[s.my_epoch % 4];
    for (PBlk* b : s.allocs) batch.push_back(b);
    for (PBlk* b : s.retires) {
      b->retire_epoch.store(s.my_epoch, std::memory_order_release);
      batch.push_back(b);
      s.quarantine[s.my_epoch % 4].push_back(b);
    }
  } else {
    // Eager, fenced invalidation before the announcement is released: the
    // epoch boundary waits for us, so recovery can never observe these.
    for (PBlk* b : s.allocs) {
      b->magic.store(PBlk::kMagicFree, std::memory_order_release);
      util::clwb(b);
    }
    if (!s.allocs.empty()) util::sfence();
    for (PBlk* b : s.allocs) region_->free(b);
    // Retirements of an aborted transaction never happened.
  }
  s.allocs.clear();
  s.retires.clear();
}

void EpochSys::advance() {
  std::lock_guard<std::mutex> g(advance_mutex_);
  const std::uint64_t e = epoch_.load();
  if (!epoch_.CAS(e, e + 1)) return;  // raced with another advancer

  // Wait for every operation/transaction announced in epoch <= e. This is
  // what makes the boundary a consistent cut: stragglers either commit in
  // e (their payloads join e's batch below) or abort (and invalidate
  // their payloads) before we proceed.
  const int n = util::ThreadRegistry::max_tid();
  for (int i = 0; i < n; i++) {
    util::ExpBackoff backoff;
    for (;;) {
      const std::uint64_t a =
          slots_[i]->announce.load(std::memory_order_acquire);
      if (a == kQuiescent || a > e) break;
      backoff();
    }
  }

  // Batched write-back of everything epoch e produced.
  bool flushed = false;
  for (int i = 0; i < n; i++) {
    auto& batch = slots_[i]->to_persist[e % 4];
    for (PBlk* b : batch) {
      util::flush_range(b, sizeof(PBlk));
      flushed = true;
    }
    batch.clear();
  }
  if (flushed) util::sfence();

  // The boundary is now durable.
  region_->header().persisted_epoch.store(e, std::memory_order_release);
  util::clwb(&region_->header());
  util::sfence();

  // Slots whose retirement persisted with epoch e can be reused — but
  // only after any reader still holding the payload pointer (under an
  // OpGuard's EBR pin) is done. The deferred frees stay owned by this
  // EpochSys so they can never outlive the region.
  auto& ebr = smr::EBR::instance();
  const std::uint64_t ebr_now = ebr.epoch();
  for (int i = 0; i < n; i++) {
    auto& q = slots_[i]->quarantine[e % 4];
    for (PBlk* b : q) pending_free_.push_back({b, ebr_now});
    q.clear();
  }
  ebr.collect();  // nudge the reclamation epoch forward
  const std::uint64_t ebr_after = ebr.epoch();
  std::size_t kept = 0;
  std::vector<PBlk*> released;
  released.reserve(pending_free_.size());
  for (std::size_t i = 0; i < pending_free_.size(); i++) {
    if (pending_free_[i].ebr_epoch + 2 <= ebr_after) {
      released.push_back(pending_free_[i].blk);
    } else {
      pending_free_[kept++] = pending_free_[i];
    }
  }
  pending_free_.resize(kept);
  region_->release(released);  // one depot operation for all of them
}

void EpochSys::sync() {
  const std::uint64_t target = epoch_.load();
  while (persisted_epoch() < target) advance();
}

void EpochSys::start_advancer(std::uint64_t interval_ms) {
  stop_advancer();
  advancer_stop_.store(false);
  advancer_ = std::thread([this, interval_ms] {
    while (!advancer_stop_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
      advance();
    }
  });
}

void EpochSys::stop_advancer() {
  if (advancer_.joinable()) {
    advancer_stop_.store(true, std::memory_order_release);
    advancer_.join();
  }
}

std::vector<PBlk*> EpochSys::recover() {
  const std::uint64_t pe = persisted_epoch();
  std::vector<PBlk*> out;
  region_->rebuild_freelist([pe, &out](PBlk& b) {
    if (!survives(b, pe)) return true;
    // Clear any unpersisted retirement stamp (it happened after the
    // boundary, i.e. never).
    if (b.retire_epoch.load(std::memory_order_relaxed) > pe) {
      b.retire_epoch.store(0, std::memory_order_relaxed);
    }
    out.push_back(&b);
    return false;
  });
  epoch_.store(pe + 2);
  return out;
}

std::size_t EpochSys::durable_payload_count() {
  const std::uint64_t pe = persisted_epoch();
  const std::size_t limit = region_->scan_limit();
  std::size_t n = 0;
  for (std::size_t i = 0; i < limit; i++) {
    if (survives(*region_->slot(i), pe)) n++;
  }
  return n;
}

}  // namespace medley::montage
