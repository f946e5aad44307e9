//===- support/SmallVector.h - Inline-storage vector ------------*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A vector with N elements of inline storage, spilling to the heap only
/// beyond that. Instr::Src is the motivating user: almost every ILOC
/// instruction has 0-2 operands (only calls go wider), so a std::vector
/// there means one heap allocation per instruction created — lowering and
/// the allocators' spill-rewrite loops create millions. With inline
/// storage those paths stop touching the global heap entirely.
///
/// Deliberately minimal: trivially-copyable element types only, and just
/// the API the IR uses (range-for, indexing, size/empty, push_back,
/// initializer-list and vector assignment, std-algorithm iterators).
///
//===----------------------------------------------------------------------===//

#ifndef RAP_SUPPORT_SMALLVECTOR_H
#define RAP_SUPPORT_SMALLVECTOR_H

#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <type_traits>
#include <vector>

namespace rap {

template <typename T, unsigned N> class SmallVector {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "SmallVector is for plain value types");

public:
  using value_type = T;
  using iterator = T *;
  using const_iterator = const T *;

  SmallVector() = default;
  SmallVector(std::initializer_list<T> IL) { assign(IL.begin(), IL.end()); }
  SmallVector(const SmallVector &O) { assign(O.begin(), O.end()); }
  SmallVector(SmallVector &&O) noexcept { stealFrom(O); }

  ~SmallVector() {
    if (!isInline())
      delete[] Ptr;
  }

  SmallVector &operator=(const SmallVector &O) {
    if (this != &O)
      assign(O.begin(), O.end());
    return *this;
  }
  SmallVector &operator=(SmallVector &&O) noexcept {
    if (this != &O) {
      if (!isInline())
        delete[] Ptr;
      stealFrom(O);
    }
    return *this;
  }
  SmallVector &operator=(std::initializer_list<T> IL) {
    assign(IL.begin(), IL.end());
    return *this;
  }
  /// Interop with call sites that build operand lists in a std::vector.
  SmallVector &operator=(const std::vector<T> &V) {
    assign(V.data(), V.data() + V.size());
    return *this;
  }

  iterator begin() { return Ptr; }
  iterator end() { return Ptr + Count; }
  const_iterator begin() const { return Ptr; }
  const_iterator end() const { return Ptr + Count; }

  T &operator[](size_t I) { return Ptr[I]; }
  const T &operator[](size_t I) const { return Ptr[I]; }
  T &front() { return Ptr[0]; }
  const T &front() const { return Ptr[0]; }
  T &back() { return Ptr[Count - 1]; }
  const T &back() const { return Ptr[Count - 1]; }

  size_t size() const { return Count; }
  bool empty() const { return Count == 0; }
  size_t capacity() const { return Cap; }

  void clear() { Count = 0; }

  void push_back(const T &V) {
    if (Count == Cap)
      growTo(Cap * 2);
    Ptr[Count++] = V;
  }

  void pop_back() { --Count; }

  void reserve(size_t Want) {
    if (Want > Cap)
      growTo(Want);
  }

  void assign(const T *First, const T *Last) {
    size_t Want = static_cast<size_t>(Last - First);
    if (Want > Cap)
      growTo(Want);
    if (Want != 0) // an empty vector may have a null Ptr
      std::memcpy(Ptr, First, Want * sizeof(T));
    Count = static_cast<uint32_t>(Want);
  }

  bool operator==(const SmallVector &O) const {
    if (Count != O.Count)
      return false;
    for (uint32_t I = 0; I != Count; ++I)
      if (!(Ptr[I] == O.Ptr[I]))
        return false;
    return true;
  }
  bool operator!=(const SmallVector &O) const { return !(*this == O); }

private:
  bool isInline() const { return Ptr == inlineData(); }
  T *inlineData() { return reinterpret_cast<T *>(Inline); }
  const T *inlineData() const { return reinterpret_cast<const T *>(Inline); }

  void growTo(size_t Want) {
    if (Want < Cap * 2)
      Want = Cap * 2;
    T *Mem = new T[Want];
    std::memcpy(Mem, Ptr, Count * sizeof(T));
    if (!isInline())
      delete[] Ptr;
    Ptr = Mem;
    Cap = static_cast<uint32_t>(Want);
  }

  /// Takes O's heap buffer (or copies its inline elements) and leaves O
  /// empty with inline storage.
  void stealFrom(SmallVector &O) {
    if (O.isInline()) {
      Ptr = inlineData();
      Cap = N;
      std::memcpy(Ptr, O.Ptr, O.Count * sizeof(T));
    } else {
      Ptr = O.Ptr;
      Cap = O.Cap;
    }
    Count = O.Count;
    O.Ptr = O.inlineData();
    O.Cap = N;
    O.Count = 0;
  }

  T *Ptr = inlineData();
  uint32_t Count = 0;
  uint32_t Cap = N;
  alignas(T) char Inline[N * sizeof(T)];
};

} // namespace rap

#endif // RAP_SUPPORT_SMALLVECTOR_H
