#pragma once
// MedleyStore: the DRAM serving store — BasicMedleyStore over a Fraser
// skiplist that holds every value, indexed by the store's Michael hash
// table primary. See basic_store.hpp for the transaction choreography and
// invariants.

#include "ds/fraser_skiplist.hpp"
#include "store/basic_store.hpp"

namespace medley::store {

template <typename K, typename V>
class MedleyStore
    : public BasicMedleyStore<K, V, ds::FraserSkiplist<K, V>> {
  using Base = BasicMedleyStore<K, V, ds::FraserSkiplist<K, V>>;

 public:
  explicit MedleyStore(core::TxManager* mgr, StoreConfig cfg = {})
      : Base(mgr, &owned_secondary_, cfg), owned_secondary_(mgr) {}

 private:
  // Declared after Base (a pointer handed to Base before construction is
  // only dereferenced by operations, never by Base's constructor).
  ds::FraserSkiplist<K, V> owned_secondary_;
};

}  // namespace medley::store
