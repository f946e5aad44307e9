//===- support/BitVector.h - Dense dynamic bitset ---------------*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dense, dynamically sized bitset used for dataflow sets (liveness,
/// reaching definitions) where elements are small integer ids such as
/// virtual-register or instruction numbers.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_SUPPORT_BITVECTOR_H
#define RAP_SUPPORT_BITVECTOR_H

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace rap {

/// A fixed-universe bitset over ids [0, size()).
///
/// All binary operations require both operands to have the same universe
/// size; this is asserted rather than resized silently so that dataflow code
/// cannot accidentally mix sets from different functions.
class BitVector {
public:
  BitVector() = default;

  /// Creates a set over the universe [0, NumBits), initially empty.
  explicit BitVector(unsigned NumBits)
      : NumBits(NumBits), Words((NumBits + 63) / 64, 0) {}

  unsigned size() const { return NumBits; }

  /// Extends the universe to [0, NewNumBits), keeping existing bits. The
  /// new elements start absent. No-op when the universe is already at least
  /// that large.
  void growTo(unsigned NewNumBits) {
    if (NewNumBits <= NumBits)
      return;
    NumBits = NewNumBits;
    Words.resize((NumBits + 63) / 64, 0);
  }

  /// Re-shapes this set to an empty set over [0, NewNumBits), reusing the
  /// existing word storage when it is large enough. Lets dataflow code
  /// recycle per-position sets across recomputations instead of
  /// reallocating them.
  void resetUniverse(unsigned NewNumBits) {
    NumBits = NewNumBits;
    Words.assign((NumBits + 63) / 64, 0);
  }

  bool test(unsigned Idx) const {
    assert(Idx < NumBits && "BitVector index out of range");
    return (Words[Idx / 64] >> (Idx % 64)) & 1;
  }

  void set(unsigned Idx) {
    assert(Idx < NumBits && "BitVector index out of range");
    Words[Idx / 64] |= uint64_t(1) << (Idx % 64);
  }

  void reset(unsigned Idx) {
    assert(Idx < NumBits && "BitVector index out of range");
    Words[Idx / 64] &= ~(uint64_t(1) << (Idx % 64));
  }

  void clear() {
    for (uint64_t &W : Words)
      W = 0;
  }

  /// Returns true if no bit is set.
  bool empty() const {
    for (uint64_t W : Words)
      if (W != 0)
        return false;
    return true;
  }

  /// Returns the number of set bits.
  unsigned count() const {
    unsigned N = 0;
    for (uint64_t W : Words)
      N += static_cast<unsigned>(__builtin_popcountll(W));
    return N;
  }

  /// Set union; returns true if this set changed.
  bool unionWith(const BitVector &Other) {
    assert(NumBits == Other.NumBits && "universe size mismatch");
    bool Changed = false;
    for (size_t I = 0, E = Words.size(); I != E; ++I) {
      uint64_t Old = Words[I];
      Words[I] |= Other.Words[I];
      Changed |= Words[I] != Old;
    }
    return Changed;
  }

  /// Set intersection; returns true if this set changed.
  bool intersectWith(const BitVector &Other) {
    assert(NumBits == Other.NumBits && "universe size mismatch");
    bool Changed = false;
    for (size_t I = 0, E = Words.size(); I != E; ++I) {
      uint64_t Old = Words[I];
      Words[I] &= Other.Words[I];
      Changed |= Words[I] != Old;
    }
    return Changed;
  }

  /// Set difference (this \ Other); returns true if this set changed.
  bool subtract(const BitVector &Other) {
    assert(NumBits == Other.NumBits && "universe size mismatch");
    bool Changed = false;
    for (size_t I = 0, E = Words.size(); I != E; ++I) {
      uint64_t Old = Words[I];
      Words[I] &= ~Other.Words[I];
      Changed |= Words[I] != Old;
    }
    return Changed;
  }

  /// Accumulates the symmetric difference of \p A and \p B into this set
  /// (this |= A ^ B). \p B may come from a smaller universe (its missing
  /// elements count as absent) — incremental liveness diffs new block sets
  /// against a previous solution whose register universe was smaller. Used
  /// to collect the registers whose block-level use/def sets changed
  /// between two liveness computations.
  void unionWithXorOf(const BitVector &A, const BitVector &B) {
    assert(NumBits == A.NumBits && A.NumBits >= B.NumBits &&
           "universe size mismatch");
    size_t Shared = B.Words.size();
    for (size_t I = 0; I != Shared; ++I)
      Words[I] |= A.Words[I] ^ B.Words[I];
    for (size_t I = Shared, E = Words.size(); I != E; ++I)
      Words[I] |= A.Words[I];
  }

  /// Returns true if this set and \p Other share at least one element.
  bool intersects(const BitVector &Other) const {
    assert(NumBits == Other.NumBits && "universe size mismatch");
    for (size_t I = 0, E = Words.size(); I != E; ++I)
      if (Words[I] & Other.Words[I])
        return true;
    return false;
  }

  bool operator==(const BitVector &Other) const {
    return NumBits == Other.NumBits && Words == Other.Words;
  }
  bool operator!=(const BitVector &Other) const { return !(*this == Other); }

  /// Calls \p Fn(idx) for every set bit, in increasing order.
  template <typename FnT> void forEach(FnT Fn) const {
    for (size_t I = 0, E = Words.size(); I != E; ++I) {
      uint64_t W = Words[I];
      while (W != 0) {
        unsigned Bit = static_cast<unsigned>(__builtin_ctzll(W));
        Fn(static_cast<unsigned>(I * 64 + Bit));
        W &= W - 1;
      }
    }
  }

  /// Calls \p Fn(idx) for every element of both this set and \p Other, in
  /// increasing order, one word-wise AND at a time. The universes may differ
  /// in size; elements past the smaller one are in neither intersection.
  template <typename FnT>
  void forEachCommon(const BitVector &Other, FnT Fn) const {
    for (size_t I = 0, E = std::min(Words.size(), Other.Words.size()); I != E;
         ++I) {
      uint64_t W = Words[I] & Other.Words[I];
      while (W != 0) {
        unsigned Bit = static_cast<unsigned>(__builtin_ctzll(W));
        Fn(static_cast<unsigned>(I * 64 + Bit));
        W &= W - 1;
      }
    }
  }

  /// Collects the set bits into a vector, in increasing order.
  std::vector<unsigned> toVector() const {
    std::vector<unsigned> Out;
    Out.reserve(count());
    forEach([&](unsigned Idx) { Out.push_back(Idx); });
    return Out;
  }

private:
  unsigned NumBits = 0;
  std::vector<uint64_t> Words;
};

} // namespace rap

#endif // RAP_SUPPORT_BITVECTOR_H
