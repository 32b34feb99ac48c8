#pragma once
// nbMontage-style epoch system (Cai et al., DISC '21) and its txMontage
// integration with Medley (paper Sec. 4).
//
// Time is divided into epochs. Payload blocks written during epoch e are
// write-backed in a batch when e closes; the region header's
// persisted_epoch then advances to e. A crash recovers the state as of
// the persisted boundary — payloads with create_epoch > persisted_epoch
// (or retire_epoch <= persisted_epoch) are discarded. This is buffered
// durable linearizability: a bounded recent suffix may be lost, never an
// inconsistent cut.
//
// txMontage fold-in (Sec. 4.4): the current epoch lives in a CASObj; a
// begin-hook on the TxManager loads it into every transaction's read set,
// so MCNS commit validation enforces "all operations of a transaction
// linearize in the payloads' epoch" with no additional mechanism. Epoch
// advance CASes the cell (bumping its counter), which aborts straddling
// transactions — the paper's "operations that take too long are forced
// to abort".
//
// Aborted transactions invalidate their payloads eagerly (store + clwb +
// sfence) *before* releasing their epoch announcement; since the epoch
// boundary waits for announced transactions, a recovered epoch can never
// contain an aborted transaction's payloads.
//
// Simplification (documented; DESIGN.md §4): non-transactional Montage
// operations rely on announcement-straddling rather than nbMontage's
// in-CAS epoch check, so an op that linearizes while the epoch advances
// could in principle land on the wrong side of the cut; all persistence
// benchmarks and crash tests run transactions, where MCNS epoch
// validation closes this window exactly as the paper describes.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/medley.hpp"
#include "montage/pregion.hpp"
#include "util/align.hpp"
#include "util/thread_registry.hpp"

namespace medley::montage {

class EpochSys {
 public:
  static constexpr std::uint64_t kQuiescent = ~0ULL;

  explicit EpochSys(PRegion* region);
  ~EpochSys();

  EpochSys(const EpochSys&) = delete;
  EpochSys& operator=(const EpochSys&) = delete;

  /// Wire this epoch system into a Medley TxManager: every transaction
  /// announces its epoch, folds it into its read set, and finalizes its
  /// payloads on commit/abort.
  void attach(core::TxManager* mgr);

  /// The epoch cell (tests / diagnostics).
  core::CASObj<std::uint64_t>& epoch_obj() { return epoch_; }
  std::uint64_t current_epoch() { return epoch_.load(); }
  std::uint64_t persisted_epoch() {
    return region_->header().persisted_epoch.load(
        std::memory_order_acquire);
  }

  /// RAII announcement for one (possibly non-transactional) structure
  /// operation. Inside a transaction it nests under the transaction's
  /// announcement and defers payload finalization to the commit hook.
  /// Also pins the EBR epoch: payload pointers obtained from the index
  /// stay dereferenceable for the whole operation (retired slots are
  /// recycled only after both the persistence quarantine and an EBR grace
  /// period pass).
  class OpGuard {
   public:
    explicit OpGuard(EpochSys* es) : es_(es) { es_->enter(); }
    ~OpGuard() {
      if (core::TxManager::active_ctx() == nullptr) es_->finalize(true);
      es_->exit();
    }
    OpGuard(const OpGuard&) = delete;
    OpGuard& operator=(const OpGuard&) = delete;

   private:
    smr::EBR::Guard ebr_;
    EpochSys* es_;
  };

  // ---- payload lifecycle (call under an announcement) -----------------

  /// Allocate a payload tagged with the caller's announced epoch.
  /// Returns nullptr when the region is exhausted.
  PBlk* alloc_payload(std::uint64_t sid, std::uint64_t key,
                      std::uint64_t val, std::uint64_t aux = 0);

  /// The operation decided not to use the payload after all (e.g. insert
  /// found the key present): release it immediately.
  void cancel_payload(PBlk* blk);

  /// The payload's logical object was removed; stamps the retire epoch at
  /// commit (transactions) or operation end (standalone ops) and frees
  /// the slot once the retirement has persisted.
  void retire_payload(PBlk* blk);

  // ---- epoch machinery -------------------------------------------------

  /// Close the current epoch: advance the cell, wait for stragglers,
  /// write back the closed epoch's payloads, persist the boundary,
  /// release quarantined slots. Serialized internally.
  void advance();

  /// Ensure everything completed before this call is durable.
  void sync();

  /// Periodic advancer ("epoch length" = interval; paper uses 10-100ms).
  void start_advancer(std::uint64_t interval_ms = 10);
  void stop_advancer();

  // ---- recovery ---------------------------------------------------------

  /// Apply the recovery predicate to the mapped region in one pass over
  /// the slots below its used bound: discard payloads beyond the persisted
  /// boundary (their slots become free), return the survivors' slots (for
  /// structures to rebuild their transient indices from owner_sid, key,
  /// val and aux, read in the still-mapped slot), and resume the epoch
  /// clock past the boundary. Call before any operations.
  std::vector<PBlk*> recover();

  /// Number of payloads that would currently be recovered (tests).
  std::size_t durable_payload_count();

 private:
  struct ThreadSlot {
    std::atomic<std::uint64_t> announce{kQuiescent};
    int nesting = 0;
    std::uint64_t my_epoch = 0;
    std::vector<PBlk*> allocs;   // payloads of the open tx/op
    std::vector<PBlk*> retires;  // retirements of the open tx/op
    // Payloads awaiting the batched write-back of epoch (index % 4).
    std::vector<PBlk*> to_persist[4];
    // Retired payloads whose slots free once their epoch persists.
    std::vector<PBlk*> quarantine[4];
  };

  void enter();
  void exit();
  void finalize(bool committed);
  ThreadSlot& my_slot();

  PRegion* region_;
  core::CASObj<std::uint64_t> epoch_;
  util::Padded<ThreadSlot> slots_[util::ThreadRegistry::kMaxThreads];
  std::mutex advance_mutex_;
  // Retired slots past their persistence quarantine, awaiting an EBR
  // grace period before reuse. Owned by this EpochSys (never handed to
  // the global reclaimer: the free callback dereferences region_, whose
  // lifetime only this object can bound). Guarded by advance_mutex_.
  struct PendingFree {
    PBlk* blk;
    std::uint64_t ebr_epoch;
  };
  std::vector<PendingFree> pending_free_;

  std::unique_ptr<core::Composable> folder_;  // read-set access for the hook
  std::thread advancer_;
  std::atomic<bool> advancer_stop_{false};
};

}  // namespace medley::montage
