#pragma once
// NBTC transform of Fraser's CAS-based lock-free skiplist (Fraser '03,
// ch. 4; the Herlihy–Shavit presentation). Map semantics, up to 20 levels
// (the paper's configuration).
//
// Linearization points:
//   insert : the CAS linking the new node at level 0 (lin = pub);
//            upper-level linking is post-linearization cleanup.
//   remove : the CAS marking the victim's level-0 next pointer (lin = pub);
//            upper-level marks are benign pre-linearization CASes (they
//            cannot make the remove take effect and merely demote the
//            node), and physical unlinking + retirement is cleanup.
//   put    : new key — insert's level-0 link. Existing key — one search,
//            then two critical CASes on the live node: a same-value CAS on
//            its next[0] (pub; the pin), then the CAS on its value cell
//            (lin). No node is allocated or retired.
//   get    : the load of curr->next[0] observing curr unmarked (found), or
//            of preds[0]->next[0] observing the gap (absent).
//
// Node handles. A Handle is a node's address, for a caller that keeps its
// own index over the list's nodes (BasicMedleyStore's hash primary maps
// each key to the node holding its value). The handle ops are the
// operations above minus the search, on a node the caller already holds:
//   insert_handle : insert, returning the node that now holds the key;
//   value_at      : get's found path — registers next[0], then loads the
//                   value (one read entry);
//   put_at        : put's existing-key path — the pin, then the value CAS
//                   (lin); two write entries, none on a repeat;
//   remove_at     : remove's path after the search — demote, then mark
//                   level 0 (lin).
// A handle is valid only inside the transaction that obtained it: that
// transaction's EBR pin keeps the node alive, and its read of the caller's
// index is what says the node still holds the key. If put_at or remove_at
// find the node removed (next[0] marked), that read is stale and they
// abort the transaction with Validation.
//
// The value cell. A node's value lives in a CASObj word: V itself when V
// is word-sized and trivially copyable, else a pointer to an immutable
// heap box holding V. Same algorithm either way: put makes the new box
// with tNew and retires the old one with tRetire; a node frees the box it
// points to when it is destroyed.
//
// The pin. Every writer of a value cell first installs on the node's
// next[0] with a same-value CAS. Until commit that holds off a concurrent
// remove (which must mark next[0]) and insert-after (which must swing it),
// and the pin's counter bump at commit invalidates every reader that
// registered the link. So readers (get, value_at, range, scan) register
// only level-0 links — a scan of n entries is n+1 read entries — provided
// they register next[0] BEFORE they load the value: the value read can
// then never be older than the counter validation checks.
//
// put, put_at and remove_at are transactional only: they throw
// std::logic_error when no transaction is open (put's two critical CASes
// are atomic only under MCNS; a handle has no meaning outside one). Every
// other operation also runs standalone.
//
// Retirement policy: only the remover retires a node, in its cleanup,
// after one complete search(k) call has ensured the node is unlinked from
// every level (helping searches unlink but never retire). This differs
// from the single-level list, where the successful unlinker retires.

#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/medley.hpp"
#include "ds/marked_ptr.hpp"
#include "util/rng.hpp"
#include "util/thread_registry.hpp"

namespace medley::ds {

template <typename K, typename V, int kMaxLevel = 20>
class FraserSkiplist : public core::Composable {
  struct Node;

 public:
  /// A node's address (see "Node handles" in the header). Opaque: only
  /// the handle ops dereference it.
  using Handle = Node*;

  explicit FraserSkiplist(core::TxManager* manager)
      : Composable(manager), head_(new Node(K{}, V{}, kMaxLevel)) {}

  ~FraserSkiplist() override {
    Node* n = head_;
    while (n != nullptr) {
      Node* nx = unmark(n->next[0].load());
      delete n;
      n = nx;
    }
  }

  std::optional<V> get(const K& k) {
    OpStarter op(mgr);
    Pos pos;
    if (!find(pos, k)) {
      addToReadSet(&pos.preds[0]->next[0], pos.succs[0]);
      return std::nullopt;
    }
    addToReadSet(&pos.succs[0]->next[0], pos.succ0_next);  // before the value
    return value_of(pos.succs[0]->val.nbtcLoad());
  }

  /// Existence-only probe: same linearizing evidence as get() (the
  /// level-0 witness link joins the read set) without copying the value.
  bool contains(const K& k) {
    OpStarter op(mgr);
    Pos pos;
    if (find(pos, k)) {
      addToReadSet(&pos.succs[0]->next[0], pos.succ0_next);
      return true;
    }
    addToReadSet(&pos.preds[0]->next[0], pos.succs[0]);
    return false;
  }

  bool insert(const K& k, const V& v) { return insert_handle(k, v).second; }

  /// insert() that also returns the node now holding k: the new node
  /// (inserted = true), or the one already present (false, registered as
  /// insert's read evidence).
  std::pair<Handle, bool> insert_handle(const K& k, const V& v) {
    OpStarter op(mgr);
    Pos pos;
    Node* node = nullptr;
    for (;;) {
      if (find(pos, k)) {
        if (node != nullptr) tDelete(node);
        addToReadSet(&pos.succs[0]->next[0], pos.succ0_next);
        return {pos.succs[0], false};
      }
      if (link_new(pos, node, k, v)) return {node, true};
    }
  }

  /// The value `h`'s node holds: get() without the search.
  V value_at(Handle h) {
    OpStarter op(mgr);
    addToReadSet(&h->next[0], h->next[0].nbtcLoad());  // before the value
    return value_of(h->val.nbtcLoad());
  }

  /// The key `h`'s node holds (immutable for the node's life).
  static const K& key_of(Handle h) { return h->key; }

  /// Insert-or-replace; returns the previous value if any. Transactional
  /// only (see the header): throws std::logic_error outside a transaction.
  /// An existing key costs one search and no node allocation: put_at on
  /// the node found.
  std::optional<V> put(const K& k, const V& v) {
    OpStarter op(mgr);
    require_tx(op, "put");
    Pos pos;
    Node* node = nullptr;
    for (;;) {
      if (!find(pos, k)) {
        if (link_new(pos, node, k, v)) return std::nullopt;
        continue;
      }
      if (std::optional<V> old = replace_value(pos.succs[0], v)) {
        if (node != nullptr) tDelete(node);
        return old;
      }
      // Removed since the search: re-search.
    }
  }

  /// Replace the value of `h`'s node in place; returns the value replaced.
  /// Transactional only. A removed node aborts with Validation.
  V put_at(Handle h, const V& v) {
    OpStarter op(mgr);
    require_tx(op, "put_at");
    if (std::optional<V> old = replace_value(h, v)) return *std::move(old);
    abortTx(core::AbortReason::Validation);  // the caller's index is stale
  }

  std::optional<V> remove(const K& k) {
    OpStarter op(mgr);
    Pos pos;
    for (;;) {
      if (!find(pos, k)) {
        addToReadSet(&pos.preds[0]->next[0], pos.succs[0]);
        return std::nullopt;
      }
      if (std::optional<V> old = mark_removed(pos.succs[0])) return old;
      // Lost the race to another remover: re-evaluate from scratch.
    }
  }

  /// Remove `h`'s node; returns its value. Transactional only. A node
  /// already removed aborts with Validation.
  V remove_at(Handle h) {
    OpStarter op(mgr);
    require_tx(op, "remove_at");
    if (std::optional<V> old = mark_removed(h)) return *std::move(old);
    abortTx(core::AbortReason::Validation);  // the caller's index is stale
  }

  /// Ordered range query: all live entries with lo <= key <= hi, ascending.
  /// Transactional callers get an atomic snapshot: every level-0 link from
  /// the predecessor of lo through the first key beyond hi joins the read
  /// set, so any insert or remove inside the window between our traversal
  /// and commit fails validation (an insert rewrites a covered next[0], a
  /// remove marks one). Read-set capacity bounds the window (~4K entries;
  /// overflow is a retryable Capacity abort).
  std::vector<std::pair<K, V>> range(const K& lo, const K& hi) {
    return scan_impl(
        lo, [&hi](const K& k) { return !(hi < k); },
        std::numeric_limits<std::size_t>::max());
  }

  /// Ordered scan: up to `limit` live entries with key >= lo, ascending.
  /// Same transactional evidence as range() for the visited prefix.
  std::vector<std::pair<K, V>> scan(const K& lo, std::size_t limit) {
    return scan_impl(lo, [](const K&) { return true; }, limit);
  }

  /// Quiescent scans (tests/diagnostics).
  std::size_t size_slow() {
    OpStarter op(mgr);
    std::size_t n = 0;
    for (Node* cur = unmark(head_->next[0].load()); cur != nullptr;
         cur = unmark(cur->next[0].load())) {
      if (!is_marked(cur->next[0].load())) n++;
    }
    return n;
  }

  std::vector<K> keys_slow() {
    OpStarter op(mgr);
    std::vector<K> out;
    for (Node* cur = unmark(head_->next[0].load()); cur != nullptr;
         cur = unmark(cur->next[0].load())) {
      if (!is_marked(cur->next[0].load())) out.push_back(cur->key);
    }
    return out;
  }

  /// Every live node's key and handle, ascending (quiescent: rebuilding a
  /// handle index at recovery, and auditing one in tests).
  std::vector<std::pair<K, Handle>> handles_slow() {
    OpStarter op(mgr);
    std::vector<std::pair<K, Handle>> out;
    for (Node* cur = unmark(head_->next[0].load()); cur != nullptr;
         cur = unmark(cur->next[0].load())) {
      if (!is_marked(cur->next[0].load())) out.emplace_back(cur->key, cur);
    }
    return out;
  }

  /// Structural audit for property tests: level-0 keys strictly ascending,
  /// and every node linked at level i>0 is also reachable at level 0.
  bool invariants_hold_slow() {
    OpStarter op(mgr);
    // Strict ascent at level 0.
    Node* prev = nullptr;
    for (Node* cur = unmark(head_->next[0].load()); cur != nullptr;
         cur = unmark(cur->next[0].load())) {
      if (prev != nullptr && !(prev->key < cur->key)) return false;
      prev = cur;
    }
    // Upper-level sortedness.
    for (int lvl = 1; lvl < kMaxLevel; lvl++) {
      Node* p = nullptr;
      for (Node* cur = unmark(head_->next[lvl].load()); cur != nullptr;
           cur = unmark(cur->next[lvl].load())) {
        if (p != nullptr && !(p->key < cur->key)) return false;
        p = cur;
      }
    }
    return true;
  }

 private:
  template <typename T>
  using CASObj = core::CASObj<T>;

  /// A value cell holds V itself when it fits a CASObj word, else a
  /// pointer to an immutable heap box (see the header).
  static constexpr bool kBoxed =
      !(sizeof(V) <= 8 && std::is_trivially_copyable_v<V>);
  using Word = std::conditional_t<kBoxed, V*, V>;

  static V value_of(Word w) {
    if constexpr (kBoxed) {
      return *w;
    } else {
      return w;
    }
  }

  /// The word a put installs: a fresh box (freed if the transaction
  /// aborts) or the value itself.
  Word make_word(const V& v) {
    if constexpr (kBoxed) {
      return tNew<V>(v);
    } else {
      return v;
    }
  }

  static void require_tx(const OpStarter& op, const char* what) {
    if (op.ctx == nullptr) {
      throw std::logic_error(std::string("FraserSkiplist::") + what +
                             " needs an open transaction");
    }
  }

  struct Node {
    K key;
    CASObj<Word> val;
    int level;
    std::unique_ptr<CASObj<Node*>[]> next;
    Node(const K& k, const V& v, int lvl)
        : key(k), val(box(v)), level(lvl), next(new CASObj<Node*>[lvl]) {}
    ~Node() {
      if constexpr (kBoxed) delete val.load();
    }

   private:
    static Word box(const V& v) {
      if constexpr (kBoxed) {
        return new V(v);
      } else {
        return v;
      }
    }
  };

  struct Pos {
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
    Node* succ0_next = nullptr;  // raw (unmarked) next of succs[0] if found
  };

  static int random_level() {
    thread_local util::Xoshiro256 rng(
        0x9e3779b97f4a7c15ULL ^
        static_cast<std::uint64_t>(util::ThreadRegistry::tid() + 1) *
            0x2545f4914f6cdd1dULL);
    int lvl = 1;
    while (lvl < kMaxLevel && (rng.next() & 1)) lvl++;
    return lvl;
  }

  /// Fraser's search: compute preds/succs at every level for key k,
  /// unlinking marked nodes encountered on the path (restarting from the
  /// top when an unlink CAS fails). Returns true iff succs[0] holds k.
  bool find(Pos& pos, const K& k) {
  retry:
    Node* pred = head_;
    for (int lvl = kMaxLevel - 1; lvl >= 0; lvl--) {
      Node* curr = pred->next[lvl].nbtcLoad();
      // A marked value here means pred itself was deleted while we were
      // descending from the level above: restart from the head.
      if (is_marked(curr)) goto retry;
      for (;;) {
        if (curr == nullptr) break;
        Node* raw = curr->next[lvl].nbtcLoad();
        if (is_marked(raw)) {
          // curr is logically deleted at this level: help unlink. No
          // retirement here — the remover retires after its own search.
          if (!pred->next[lvl].nbtcCAS(curr, unmark(raw), false, false)) {
            goto retry;
          }
          curr = unmark(raw);
          continue;
        }
        if (curr->key < k) {
          pred = curr;
          curr = raw;
          continue;
        }
        if (lvl == 0) pos.succ0_next = raw;
        break;
      }
      pos.preds[lvl] = pred;
      pos.succs[lvl] = curr;
    }
    return pos.succs[0] != nullptr && pos.succs[0]->key == k;
  }

  /// Shared body of range()/scan(): walk level 0 from the first key >= lo,
  /// collecting live entries while `in_range(key)` holds and the limit is
  /// unspent. Marked nodes encountered mid-walk are helped out exactly as
  /// in find() — including our own speculative removals, whose unlink CAS
  /// promotes into the transaction's write set — and a failed unlink
  /// restarts the walk from scratch (discarding the partial collection).
  /// Entries registered by an abandoned pass stay in the read set; they
  /// can only cause a spurious validation abort, never an unsound commit.
  /// Footprint tuning (YCSB-E): an uncontended walk registers through
  /// plain addToReadSet and pays nothing extra; the first RESTART engages
  /// dedup — seeding the per-transaction registered-cell set from the
  /// read set, then routing registrations through addToReadSetDedup — so
  /// re-walked links are not registered again and the read set grows as
  /// unique links, not links x passes. (A 4K-entry read set otherwise
  /// tolerates only ~read_cap/window_size passes before a spurious
  /// Capacity abort.)
  template <typename InRange>
  std::vector<std::pair<K, V>> scan_impl(const K& lo, InRange&& in_range,
                                         std::size_t limit) {
    OpStarter op(mgr);
    std::vector<std::pair<K, V>> out;
    bool dedup = false;
    auto reg = [&](CASObj<Node*>* cell, Node* val) {
      if (dedup) {
        addToReadSetDedup(cell, val);
      } else {
        addToReadSet(cell, val);
      }
    };
    for (;;) {
      out.clear();
      Pos pos;
      find(pos, lo);
      CASObj<Node*>* pred_cell = &pos.preds[0]->next[0];
      Node* curr = pos.succs[0];
      // Entry evidence: nothing sits between pred(lo) and the first
      // candidate (pins absence for an empty result, too).
      reg(pred_cell, curr);
      bool restart = false;
      while (curr != nullptr && out.size() < limit && in_range(curr->key)) {
        Node* raw = curr->next[0].nbtcLoad();
        if (is_marked(raw)) {
          // curr is logically deleted: help unlink it past pred_cell (no
          // retirement — the remover retires after its own search).
          if (!pred_cell->nbtcCAS(curr, unmark(raw), false, false)) {
            restart = true;
            break;
          }
          // Inside a transaction, a *pre-speculation* help just rewrote a
          // cell this transaction already registered (pred_cell is always
          // in the read set by now), so commit-time validation can no
          // longer pass. Abort here — the retry policy re-runs against
          // the cleaned list — rather than complete a doomed walk. Within speculation
          // the CAS joined our write set instead and validation accepts
          // the own-descriptor overwrite: keep walking.
          if (auto* c = core::TxManager::active_ctx();
              c != nullptr && !c->spec_interval) {
            c->mgr->validateReads();
          }
          curr = unmark(raw);
          continue;
        }
        reg(&curr->next[0], raw);  // witnesses curr live + successor
        out.emplace_back(curr->key, value_of(curr->val.nbtcLoad()));
        pred_cell = &curr->next[0];
        curr = raw;
      }
      if (!restart) return out;
      if (!dedup) {
        seedReadSetDedup();
        dedup = true;
      }
    }
  }

  /// put's and put_at's body: pin `node`'s next[0] with a same-value
  /// critical CAS (pub), then swing its value cell (lin). Returns the value
  /// replaced, or nullopt if the node is removed (next[0] marked).
  std::optional<V> replace_value(Node* node, const V& v) {
    for (;;) {
      Node* nx = node->next[0].nbtcLoad();
      if (is_marked(nx)) return std::nullopt;
      if (!node->next[0].nbtcCAS(nx, nx, /*lin=*/false, /*pub=*/true)) {
        continue;  // an insert-after or a helping unlink moved it: reload
      }
      const Word old = node->val.nbtcLoad();
      // Every writer of the cell pins next[0] first, and the pin is ours
      // until commit: this CAS fails only if a peer already aborted us,
      // and the reload then throws.
      if (!node->val.nbtcCAS(old, make_word(v), /*lin=*/true,
                             /*pub=*/false)) {
        continue;
      }
      std::optional<V> res = value_of(old);
      if constexpr (kBoxed) tRetire(old);
      return res;
    }
  }

  /// remove's and remove_at's body: demote `victim` (mark every upper
  /// level, top down — benign helping CASes), then mark level 0 (lin =
  /// pub). Returns the removed value, or nullopt if another remover marked
  /// level 0 first. The cleanup's one full search unlinks the node at
  /// every level before it is retired.
  std::optional<V> mark_removed(Node* victim) {
    for (int lvl = victim->level - 1; lvl >= 1; lvl--) {
      Node* nx = victim->next[lvl].nbtcLoad();
      while (!is_marked(nx)) {
        victim->next[lvl].nbtcCAS(nx, mark(nx), false, false);
        nx = victim->next[lvl].nbtcLoad();
      }
    }
    Node* nx0 = victim->next[0].nbtcLoad();
    while (!is_marked(nx0)) {
      if (victim->next[0].nbtcCAS(nx0, mark(nx0), /*lin=*/true,
                                  /*pub=*/true)) {
        V res = value_of(victim->val.nbtcLoad());
        addToCleanups([this, victim] {
          Pos p;
          find(p, victim->key);
          tRetire(victim);
        });
        return res;
      }
      nx0 = victim->next[0].nbtcLoad();
    }
    return std::nullopt;
  }

  /// insert_handle's and put's new-key path: link `node` (allocated on
  /// the first attempt, reused by retries) at level 0 between the
  /// searched neighbours. True iff that linearizing CAS landed; the upper
  /// levels are then a cleanup.
  bool link_new(Pos& pos, Node*& node, const K& k, const V& v) {
    if (node == nullptr) node = tNew<Node>(k, v, random_level());
    for (int i = 0; i < node->level; i++) node->next[i].store(pos.succs[i]);
    if (!pos.preds[0]->next[0].nbtcCAS(pos.succs[0], node, /*lin=*/true,
                                       /*pub=*/true)) {
      return false;
    }
    if (node->level > 1) {
      addToCleanups([this, node, k] { link_upper(node, k); });
    }
    return true;
  }

  /// Post-linearization cleanup of insert: link `node` at levels 1..h-1.
  /// One search serves every level; as in Fraser's algorithm, only a
  /// failed link CAS searches again. Abandons a level (and the rest) as
  /// soon as the node is found marked.
  void link_upper(Node* node, const K& k) {
    Pos pos;
    find(pos, k);
    bool abandoned = false;
    for (int lvl = 1; lvl < node->level && !abandoned; lvl++) {
      for (;;) {
        Node* cur = node->next[lvl].load();
        if (is_marked(cur) || pos.succs[0] != node) {
          abandoned = true;  // node being/been removed: stop helping it up
          break;
        }
        if (cur != pos.succs[lvl] &&
            !node->next[lvl].CAS(cur, pos.succs[lvl])) {
          abandoned = true;  // concurrently marked
          break;
        }
        if (pos.preds[lvl]->next[lvl].CAS(pos.succs[lvl], node)) break;
        find(pos, k);  // predecessor moved: search again, retry this level
      }
    }
    // Fraser's closing check: a concurrent remove may have finished its
    // unlinking search *before* one of our tower links landed, leaving the
    // (already retired) node reachable at that level. If the node is
    // marked, run one more search — it unlinks whatever we linked, and it
    // happens before our EBR guard releases, i.e. before the node can be
    // freed.
    if (is_marked(node->next[0].load())) find(pos, k);
  }

  Node* head_;
};

}  // namespace medley::ds
