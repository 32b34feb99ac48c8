#pragma once
// Persistent region: a file-backed mmap'd arena standing in for NVM
// (DESIGN.md §4 substitution: Optane DIMMs -> mmap'd file + real
// clwb/clflushopt/sfence; the write-back instructions execute for real
// against the mapped pages, so eager-vs-batched persistence costs keep
// their relative shape).
//
// The arena hands out fixed-size payload blocks (PBlk slots). Block
// headers carry the epoch tags and lifecycle state that nbMontage recovery
// interprets; see epoch_sys.hpp.
//
// Slot allocation keeps every hot write thread-local. Each thread owns a
// cache of free slot indices, indexed by its ThreadRegistry id, which it
// allocates from and frees into under a lock no other thread takes on the
// common path. Caches refill from, and spill to, one shared depot a batch
// of kBatch indices at a time; the epoch advancer returns a whole epoch's
// released slots to the depot in one operation. Slots never handed out
// since the region was zeroed are not listed anywhere: they are taken in
// index order from a high-water mark, so opening a created file costs no
// zeroing and no scan, and its untouched tail is never paged in.
//
// The header persists a used bound above that mark: every slot index ever
// handed out is below it. It rises kBoundChunk slots at a time, durably,
// before the first slot of a new chunk leaves the depot lock, so one
// header write-back covers 4096 fresh slots. Every scan (the rebuild on
// open and in recovery, live_count, reset) stops at the bound: reopening
// a region costs what its run used, not its capacity. A bound of 0 marks
// a region written before the bound existed; it is scanned whole.
//
// Lock order: the depot lock before a cache lock, and never two cache
// locks at once.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "util/align.hpp"
#include "util/thread_registry.hpp"

namespace medley::montage {

/// One persistent payload slot. 64 bytes: header + a key/value pair, the
/// payload shape of a mapping per the paper ("the payloads of a mapping
/// are simply a pile of key-value pairs"). Queues store
/// {serial number, item} in the same footprint.
struct alignas(64) PBlk {
  static constexpr std::uint64_t kMagicFree = 0;
  static constexpr std::uint64_t kMagicLive = 0x4d4f4e5441474521ULL;

  std::atomic<std::uint64_t> magic{kMagicFree};
  std::atomic<std::uint64_t> create_epoch{0};
  std::atomic<std::uint64_t> retire_epoch{0};  // 0 = still live
  std::atomic<std::uint64_t> owner_sid{0};     // structure id
  std::uint64_t key{0};
  std::uint64_t val{0};
  std::uint64_t aux{0};       // per-structure extra word (e.g. queue serial)
  std::uint64_t reserved{0};
};

static_assert(sizeof(PBlk) == 64);

/// First 64 bytes of the file: recovery metadata.
struct alignas(64) RegionHeader {
  static constexpr std::uint64_t kFormatMagic = 0x7478'4d4f'4e54'4147ULL;
  std::uint64_t format_magic{0};
  std::uint64_t capacity{0};
  /// Highest epoch whose payloads are fully durable; recovery restores
  /// the state as of the end of this epoch.
  std::atomic<std::uint64_t> persisted_epoch{0};
  /// Every slot index ever handed out is below this bound (durably: it is
  /// raised and written back before a slot at or above it is handed out).
  /// A multiple of PRegion::kBoundChunk, or the capacity; never 0 once the
  /// region is formatted. 0 means the region predates the bound, so every
  /// slot may be in use.
  std::atomic<std::uint64_t> used_bound{0};
  std::uint64_t reserved[4]{};
};

static_assert(sizeof(RegionHeader) == 64);

class PRegion {
 public:
  /// Slot indices are 32-bit, so a region holds fewer than 2^32 slots.
  static constexpr std::size_t kMaxCapacity = 0xffffffffULL;
  /// Slots the used bound rises by at a time (256 KiB of slots).
  static constexpr std::size_t kBoundChunk = 4096;

  /// Map (creating if needed) a persistent region with `capacity` payload
  /// slots at `path`. A file holding a valid region is mapped as-is so
  /// recovery can inspect its contents, and its slots below the used
  /// bound are scanned to rebuild the free state; one whose header names
  /// another capacity is refused (std::runtime_error) and left untouched.
  /// A file without a valid header is initialized; if it was empty
  /// (st_size 0) its slots are zeros already and are not written. Throws
  /// std::invalid_argument, before touching the file system, when
  /// `capacity` exceeds kMaxCapacity.
  PRegion(const std::string& path, std::size_t capacity);
  ~PRegion();

  PRegion(const PRegion&) = delete;
  PRegion& operator=(const PRegion&) = delete;

  /// Allocate a slot, from the calling thread's cache when it has one.
  /// Returns nullptr only after finding no free slot anywhere: not in the
  /// depot, not below the high-water mark, and not in any thread's cache
  /// (a slot that stays free for the whole call is always found).
  PBlk* alloc();

  /// Return a slot to the calling thread's cache (after its retirement
  /// persisted, or when its allocation is undone).
  void free(PBlk* blk);

  /// Return many slots to the shared depot in one operation (the epoch
  /// advancer's release of a quarantine).
  void release(std::span<PBlk* const> blks);

  PBlk* slot(std::size_t i) { return &slots_[i]; }
  std::size_t capacity() const { return capacity_; }
  RegionHeader& header() { return *header_; }

  /// Was the mapped file initialized by this open (true) or did it carry
  /// a valid region (false -> recovery candidate)?
  bool fresh() const { return fresh_; }

  /// Slots from this index up were never handed out: the header's used
  /// bound, or the capacity for a region that predates the bound (or
  /// whose bound this code could not have written).
  std::size_t scan_limit() const {
    const std::uint64_t b =
        header_->used_bound.load(std::memory_order_acquire);
    return b == 0 || b > capacity_ ? capacity_ : static_cast<std::size_t>(b);
  }

  /// Rebuild the transient free state in one pass over the slots below
  /// scan_limit(), in index order: every slot for which `is_free` returns
  /// true becomes allocatable (and is marked free); `is_free` may update a
  /// slot it keeps. Every cache and the depot are emptied first; slots
  /// from scan_limit() up stay never-used. Called on open and by
  /// recovery; no other operation may run concurrently.
  void rebuild_freelist(const std::function<bool(PBlk&)>& is_free);

  /// Wipe every slot below scan_limit() to the free state and start over
  /// as a created region (tests / fresh start); no other operation may
  /// run concurrently.
  void reset();

  /// Number of live (allocated) slots — O(scan_limit()) scan, tests only.
  std::size_t live_count() const;

  const std::string& path() const { return path_; }

 private:
  /// Slots moved per refill or spill; a cache holds up to 2 * kBatch.
  static constexpr std::uint32_t kBatch = 64;

  struct Cache {
    std::mutex mu;
    std::uint32_t n = 0;  // idx[n - 1] is handed out next
    std::uint32_t idx[2 * kBatch];
  };

  static_assert(kBatch <= kBoundChunk, "one raise must cover a refill");

  std::uint32_t index_of(const PBlk* blk) const {
    return static_cast<std::uint32_t>(blk - slots_);
  }
  /// Write a created region's header (epoch 0, the first bound chunk) and
  /// empty the free state: every slot is never-used.
  void format();
  /// Empty every cache and the depot; slots from `unused` up are free.
  void clear_free_state(std::size_t unused);
  /// Move up to kBatch free slots into the empty cache `c`: from the
  /// depot, else from the high-water mark, raising the used bound first
  /// when they reach it. Caller holds depot_mu_ and c.mu.
  void refill_locked(Cache& c);
  /// Move slots from other threads' caches into the depot until it holds
  /// a batch or every cache was searched. Caller holds depot_mu_ only.
  void steal_locked();

  std::string path_;
  std::size_t capacity_;
  std::size_t bytes_;
  bool fresh_ = false;
  RegionHeader* header_ = nullptr;
  PBlk* slots_ = nullptr;

  std::unique_ptr<util::Padded<Cache>[]> caches_;  // by ThreadRegistry id
  std::mutex depot_mu_;
  std::vector<std::uint32_t> depot_;  // guarded by depot_mu_; back is next
  // Guarded by depot_mu_: slots >= it were never used. Never above the
  // used bound (scan_limit()), which refill_locked raises ahead of it.
  std::size_t unused_ = 0;
};

}  // namespace medley::montage
