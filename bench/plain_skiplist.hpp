#pragma once
// "Original" Fraser skiplist: the UN-transformed baseline of Fig. 10 —
// identical algorithm to ds/fraser_skiplist.hpp but on plain 64-bit
// atomics (no CASObj, no descriptors, no read-set plumbing). The latency
// gap between this and the NBTC-transformed structure is the transform's
// marginal cost (the paper's 1.8x / 2.2x numbers).
//
// Reclamation uses the same EBR so memory management costs match.
//
// WHY THIS IS A SEPARATE COPY (and must stay one): the obvious dedup —
// templating ds/fraser_skiplist.hpp over a cell policy (CASObj vs plain
// std::atomic) — would make the *baseline* read every pointer through the
// policy indirection and keep the transform's structural hooks (OpStarter,
// deferred-cleanup closures, Pos::succ0_next) in its instruction stream.
// Fig. 10 exists precisely to measure the cost of those hooks; a shared
// template would fold part of the measured quantity into the yardstick.
// So this file stays a line-for-line transliteration instead. When
// changing the algorithm in ds/fraser_skiplist.hpp, mirror the change
// here. Intentional deltas, so "diff drift" stays auditable:
//   * loads/CASes are raw std::atomic acquire/release, not nbtcLoad/
//     nbtcCAS — that is the experiment;
//   * insert links upper levels inline and remove retires after its own
//     search directly, where the transform defers both via addToCleanups
//     (outside a transaction the transformed code runs them immediately,
//     so behaviour matches);
//   * no read-set registration, no succ0_next, no tNew/tRetire — those
//     ARE the transform;
//   * no range()/scan(): Fig. 10 measures point-op latency only, and the
//     transactional range has no meaning without a read set;
//   * no put() and no value cell: Fig. 10 measures insert/remove/get
//     only, and the transform's put is transactional-only (its pin and
//     value CASes are atomic only under MCNS), so a plain value field
//     stays here;
//   * no node-handle ops (insert_handle/value_at/put_at/remove_at, nor
//     key_of/handles_slow): Fig. 10 measures insert/remove/get only, and
//     the handle ops are the store's transactional path;
//   * random_level() seeds differ (irrelevant to the measured shape).

#include <atomic>
#include <memory>
#include <optional>

#include "ds/marked_ptr.hpp"
#include "smr/ebr.hpp"
#include "util/rng.hpp"
#include "util/thread_registry.hpp"

namespace medley::bench {

template <typename K, typename V, int kMaxLevel = 20>
class PlainSkiplist {
 public:
  PlainSkiplist() : head_(new Node(K{}, V{}, kMaxLevel)) {}

  ~PlainSkiplist() {
    Node* n = head_;
    while (n != nullptr) {
      Node* nx = ds::unmark(n->next[0].load());
      delete n;
      n = nx;
    }
  }

  std::optional<V> get(const K& k) {
    smr::EBR::Guard g;
    Pos pos;
    if (find(pos, k)) return pos.succs[0]->val;
    return std::nullopt;
  }

  bool insert(const K& k, const V& v) {
    smr::EBR::Guard g;
    Pos pos;
    Node* node = nullptr;
    for (;;) {
      if (find(pos, k)) {
        delete node;
        return false;
      }
      if (node == nullptr) node = new Node(k, v, random_level());
      for (int i = 0; i < node->level; i++) {
        node->next[i].store(pos.succs[i], std::memory_order_relaxed);
      }
      Node* expected = pos.succs[0];
      if (pos.preds[0]->next[0].compare_exchange_strong(
              expected, node, std::memory_order_acq_rel)) {
        link_upper(node, k);
        return true;
      }
    }
  }

  std::optional<V> remove(const K& k) {
    smr::EBR::Guard g;
    Pos pos;
    for (;;) {
      if (!find(pos, k)) return std::nullopt;
      Node* victim = pos.succs[0];
      for (int lvl = victim->level - 1; lvl >= 1; lvl--) {
        Node* nx = victim->next[lvl].load(std::memory_order_acquire);
        while (!ds::is_marked(nx)) {
          victim->next[lvl].compare_exchange_weak(
              nx, ds::mark(nx), std::memory_order_acq_rel);
        }
      }
      Node* nx0 = victim->next[0].load(std::memory_order_acquire);
      while (!ds::is_marked(nx0)) {
        if (victim->next[0].compare_exchange_strong(
                nx0, ds::mark(nx0), std::memory_order_acq_rel)) {
          V res = victim->val;
          Pos p;
          find(p, k);
          smr::EBR::instance().retire(victim);
          return res;
        }
      }
    }
  }

 private:
  struct Node {
    K key;
    V val;
    int level;
    std::unique_ptr<std::atomic<Node*>[]> next;
    Node(const K& k, const V& v, int lvl)
        : key(k), val(v), level(lvl), next(new std::atomic<Node*>[lvl]) {
      for (int i = 0; i < lvl; i++) next[i].store(nullptr);
    }
  };

  struct Pos {
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
  };

  static int random_level() {
    thread_local util::Xoshiro256 rng(
        0x853c49e6748fea9bULL ^
        static_cast<std::uint64_t>(util::ThreadRegistry::tid() + 1));
    int lvl = 1;
    while (lvl < kMaxLevel && (rng.next() & 1)) lvl++;
    return lvl;
  }

  bool find(Pos& pos, const K& k) {
  retry:
    Node* pred = head_;
    for (int lvl = kMaxLevel - 1; lvl >= 0; lvl--) {
      Node* curr = pred->next[lvl].load(std::memory_order_acquire);
      if (ds::is_marked(curr)) goto retry;
      for (;;) {
        if (curr == nullptr) break;
        Node* raw = curr->next[lvl].load(std::memory_order_acquire);
        if (ds::is_marked(raw)) {
          Node* expected = curr;
          if (!pred->next[lvl].compare_exchange_strong(
                  expected, ds::unmark(raw), std::memory_order_acq_rel)) {
            goto retry;
          }
          curr = ds::unmark(raw);
          continue;
        }
        if (curr->key < k) {
          pred = curr;
          curr = raw;
          continue;
        }
        break;
      }
      pos.preds[lvl] = pred;
      pos.succs[lvl] = curr;
    }
    return pos.succs[0] != nullptr && pos.succs[0]->key == k;
  }

  void link_upper(Node* node, const K& k) {
    Pos pos;
    find(pos, k);
    bool abandoned = false;
    for (int lvl = 1; lvl < node->level && !abandoned; lvl++) {
      for (;;) {
        Node* cur = node->next[lvl].load(std::memory_order_acquire);
        if (ds::is_marked(cur) || pos.succs[0] != node) {
          abandoned = true;
          break;
        }
        if (cur != pos.succs[lvl]) {
          Node* expected = cur;
          if (!node->next[lvl].compare_exchange_strong(
                  expected, pos.succs[lvl], std::memory_order_acq_rel)) {
            abandoned = true;
            break;
          }
        }
        Node* expected = pos.succs[lvl];
        if (pos.preds[lvl]->next[lvl].compare_exchange_strong(
                expected, node, std::memory_order_acq_rel)) {
          break;
        }
        find(pos, k);
      }
    }
    if (ds::is_marked(node->next[0].load(std::memory_order_acquire))) {
      find(pos, k);
    }
  }

  Node* head_;
};

}  // namespace medley::bench
