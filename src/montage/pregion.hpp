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
  std::uint64_t reserved[5]{};
};

static_assert(sizeof(RegionHeader) == 64);

class PRegion {
 public:
  /// Slot indices are 32-bit, so a region holds fewer than 2^32 slots.
  static constexpr std::size_t kMaxCapacity = 0xffffffffULL;

  /// Map (creating if needed) a persistent region with `capacity` payload
  /// slots at `path`. A file holding a valid region is mapped as-is so
  /// recovery can inspect its contents; one whose header names another
  /// capacity is refused (std::runtime_error) and left untouched. A file
  /// without a valid header is initialized; if it was empty (st_size 0)
  /// its slots are zeros already and are not written. Throws
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

  /// Rebuild the transient free state: every slot for which `is_free`
  /// returns true becomes allocatable (and is marked free); every cache
  /// and the depot are emptied first. Called on open and by recovery;
  /// no other operation may run concurrently.
  void rebuild_freelist(const std::function<bool(const PBlk&)>& is_free);

  /// Wipe all slots to the free state (tests / fresh start); no other
  /// operation may run concurrently.
  void reset();

  /// Number of live (allocated) slots — O(capacity) scan, tests only.
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

  std::uint32_t index_of(const PBlk* blk) const {
    return static_cast<std::uint32_t>(blk - slots_);
  }
  /// Empty every cache and the depot; slots from `unused` up are free.
  void clear_free_state(std::size_t unused);
  /// Move up to kBatch free slots into the empty cache `c`: from the
  /// depot, else from the high-water mark. Caller holds depot_mu_ and c.mu.
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
  std::size_t unused_ = 0;  // guarded by depot_mu_: slots >= it never used
};

}  // namespace medley::montage
