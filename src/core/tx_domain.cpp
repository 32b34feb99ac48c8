#include "core/tx_domain.hpp"

#include <stdexcept>

#include "core/tx_manager.hpp"

namespace medley::core {

constinit thread_local ThreadCtx* TxDomain::tl_active_ = nullptr;

TxDomain::TxDomain() = default;
TxDomain::~TxDomain() = default;

ThreadCtx* TxDomain::my_ctx() {
  const int tid = util::ThreadRegistry::tid();
  if (!ctxs_[tid]) {
    ctxs_[tid] = std::make_unique<ThreadCtx>();
    descs_[tid] = std::make_unique<Desc>(static_cast<std::uint64_t>(tid));
    ctxs_[tid]->domain = this;
    ctxs_[tid]->desc = descs_[tid].get();
  }
  return ctxs_[tid].get();
}

Desc* TxDomain::my_desc() { return my_ctx()->desc; }

bool TxDomain::in_tx() const {
  ThreadCtx* c = tl_active_;
  return c != nullptr && c->domain == this;
}

void TxDomain::begin(TxManager* root) {
  if (tl_active_ != nullptr) {
    throw std::logic_error("Medley transactions do not nest");
  }
  ThreadCtx* c = my_ctx();
  c->mgr = root;
  c->begin_status = c->desc->begin();
  c->in_tx = true;
  c->spec_interval = false;
  c->joined.clear();
  c->joined.push_back(root);
  c->cleanups.clear();
  c->compensations.clear();
  c->allocs.clear();
  c->retires.clear();
  c->dedup_reads.reset();
  c->ring_pos = 0;
  for (auto& r : c->ring) r = ThreadCtx::RecentLoad{};
  c->guard.emplace();  // pin reclamation for the whole transaction
  tl_active_ = c;
  root->fire_begin_hook();
}

void TxDomain::join(ThreadCtx* c, TxManager* mgr) {
  if (c->mgr == mgr) return;  // root: the overwhelmingly common case
  for (TxManager* m : c->joined) {
    if (m == mgr) return;
  }
  if (mgr->domain() != this) {
    throw std::logic_error(
        "Medley: operation on a structure whose TxManager belongs to a "
        "different TxDomain than the running transaction");
  }
  c->joined.push_back(mgr);
  mgr->fire_begin_hook();
}

void TxDomain::self_abort_check(ThreadCtx* c) {
  // A read-only transaction never publishes a descriptor, so no peer can
  // abort it — and `desc` is stale (the previous full transaction's
  // incarnation may well read Aborted), so the check below would
  // false-positive.
  if (c->read_only) return;
  const std::uint64_t d = c->desc->status();
  if (status_word::incarnation(d) ==
          status_word::incarnation(c->begin_status) &&
      status_word::status(d) == TxStatus::Aborted) {
    c->domain->abort(c, AbortReason::Conflict);
  }
}

void TxDomain::abort(ThreadCtx* c, AbortReason r) {
  // Read-only transactions have no descriptor to finalize or uninstall;
  // tearing down the ctx and billing the root manager is the whole abort.
  if (c->read_only) {
    close_ro(c, /*committed=*/false);
    c->mgr->note_abort(r);
    throw TransactionAborted(r);
  }
  Desc* D = c->desc;
  std::uint64_t d = D->status();
  D->abort_cas(d);  // no-op if a peer beat us to it
  d = D->status();
  D->uninstall(d);

  // Compensations (transactional boosting: inverse operations of boosted
  // lock-based calls, plus semantic-lock releases) run in reverse order,
  // as plain code, once the speculative state is rolled back.
  c->in_tx = false;
  tl_active_ = nullptr;
  for (std::size_t i = c->compensations.size(); i-- > 0;) {
    c->compensations[i]();
  }
  c->compensations.clear();

  // Speculative blocks never became visible (uninstall on abort restores
  // the pre-transaction values), but a *stale helper* may still be walking
  // our write set and touching cells inside them — retire via EBR rather
  // than deleting in place.
  auto& ebr = smr::EBR::instance();
  for (const TxBlock& b : c->allocs) ebr.retire(b.ptr, b.deleter);
  c->allocs.clear();
  c->retires.clear();
  c->cleanups.clear();

  for (TxManager* m : c->joined) m->fire_end_hook(false);
  c->guard.reset();

  c->mgr->note_abort(r);
  throw TransactionAborted(r);
}

void TxDomain::finish_commit(ThreadCtx* c) {
  // Ownership of tNew'ed blocks passes to the structures; deferred
  // retirements enter SMR now that the transaction's links are final.
  auto& ebr = smr::EBR::instance();
  for (const TxBlock& b : c->retires) ebr.retire(b.ptr, b.deleter);
  c->retires.clear();
  c->allocs.clear();

  // Cleanups (post-linearization work, e.g. physical unlinks and helping)
  // run as plain non-transactional code — drop the tx context first but
  // keep the EBR guard: cleanups traverse live nodes.
  c->in_tx = false;
  tl_active_ = nullptr;
  for (TxManager* m : c->joined) m->fire_end_hook(true);
  for (auto& f : c->cleanups) f();
  c->cleanups.clear();
  c->compensations.clear();  // commit: inverses never run

  c->guard.reset();
  c->mgr->note_commit();
}

void TxDomain::end() {
  ThreadCtx* c = tl_active_;
  if (c == nullptr || c->domain != this) {
    throw std::logic_error("txEnd outside a transaction");
  }
  Desc* D = c->desc;

  if (!D->set_ready()) {
    abort(c, AbortReason::Conflict);  // a peer aborted us in InPrep
  }

  std::uint64_t d = D->status();
  const bool valid = D->validate_reads(d);
  if (!valid) {
    D->abort_cas(d);
  } else if (status_word::status(d) == TxStatus::InProg) {
    D->commit_cas(d);
  }

  d = D->status();  // helpers may have finalized us concurrently
  if (status_word::status(d) == TxStatus::Committed) {
    D->uninstall(d);
    finish_commit(c);
  } else {
    abort(c, valid ? AbortReason::Conflict : AbortReason::Validation);
  }
}

void TxDomain::validateReads() {
  ThreadCtx* c = tl_active_;
  if (c == nullptr || c->domain != this) return;  // outside tx: no tracking
  if (c->read_only) {
    if (!ro_log_valid(c)) abort(c, AbortReason::Validation);
    return;
  }
  if (!c->desc->validate_reads(c->desc->status())) {
    abort(c, AbortReason::Validation);
  }
}

// ---- read-only mode -------------------------------------------------------

void TxDomain::begin_ro(TxManager* root) {
  if (tl_active_ != nullptr) {
    throw std::logic_error("Medley transactions do not nest");
  }
  ThreadCtx* c = my_ctx();
  // Everything begin() does EXCEPT desc->begin(): no new incarnation, no
  // publishable descriptor — the whole point of the mode. begin_status is
  // left alone; all descriptor uses are gated on !read_only.
  c->mgr = root;
  c->in_tx = true;
  c->read_only = true;
  c->spec_interval = false;
  c->joined.clear();
  c->joined.push_back(root);
  c->cleanups.clear();
  c->compensations.clear();
  c->allocs.clear();
  c->retires.clear();
  c->dedup_reads.reset();
  c->ro_reads.clear();
  c->ring_pos = 0;
  for (auto& r : c->ring) r = ThreadCtx::RecentLoad{};
  c->guard.emplace();  // pin reclamation for the whole transaction
  tl_active_ = c;
  root->fire_begin_hook();
}

bool TxDomain::ro_log_valid(ThreadCtx* c) {
  for (const ThreadCtx::RORead& r : c->ro_reads) {
    util::U128 u = r.cell->vc.load();
    if (CASCell::holds_desc(u)) {
      // A writer is mid-install on a logged cell: resolve it once and
      // re-read. If the writer committed a change, the counter moved and
      // the recheck fails; if it aborted, the uninstall restored the value
      // but still bumped the counter — conservatively torn, exactly like
      // a full transaction's validate_reads.
      CASCell::desc_of(u)->try_finalize(r.cell, u);
      u = r.cell->vc.load();
    }
    if (CASCell::holds_desc(u) || u.lo != r.lo || u.hi != r.hi) return false;
  }
  return true;
}

void TxDomain::close_ro(ThreadCtx* c, bool committed) {
  c->in_tx = false;
  c->read_only = false;
  tl_active_ = nullptr;
  if (!committed) {
    for (std::size_t i = c->compensations.size(); i-- > 0;) {
      c->compensations[i]();
    }
  }
  c->compensations.clear();
  // A read-only transaction can never have PUBLISHED a block (every
  // linking CAS is a critical one, which throws ReadOnlyViolation), so
  // tNew'ed blocks are reclaimed on both outcomes; deferred retirements
  // can only exist on the committed path (tRetireAtUnlink outside the
  // speculation interval goes straight to EBR) and are honored there.
  auto& ebr = smr::EBR::instance();
  for (const TxBlock& b : c->allocs) ebr.retire(b.ptr, b.deleter);
  c->allocs.clear();
  if (committed) {
    for (const TxBlock& b : c->retires) ebr.retire(b.ptr, b.deleter);
  }
  c->retires.clear();
  for (TxManager* m : c->joined) m->fire_end_hook(committed);
  if (committed) {
    for (auto& f : c->cleanups) f();
  }
  c->cleanups.clear();
  c->ro_reads.clear();
  c->guard.reset();
}

void TxDomain::end_ro() {
  ThreadCtx* c = tl_active_;
  if (c == nullptr || c->domain != this || !c->read_only) {
    throw std::logic_error("txEndRO outside a read-only transaction");
  }
  // The one validation of the mode. Counters are strictly monotonic, so a
  // pair still in place proves its cell unchanged over [load, recheck];
  // every such interval contains the moment this loop starts — the
  // serialization point of the whole snapshot (same argument as
  // Desc::validate_reads, without ever having published anything).
  if (!ro_log_valid(c)) {
    close_ro(c, /*committed=*/false);
    c->mgr->note_abort(AbortReason::Validation);
    throw TransactionAborted(AbortReason::Validation);
  }
  TxManager* root = c->mgr;
  close_ro(c, /*committed=*/true);
  root->note_commit();
}

void TxDomain::abandon_ro() {
  ThreadCtx* c = tl_active_;
  if (c == nullptr || c->domain != this || !c->read_only) return;
  close_ro(c, /*committed=*/false);
}

}  // namespace medley::core
