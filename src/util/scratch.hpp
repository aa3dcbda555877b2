// Per-thread scratch arena for hot-path temporaries (GEMM packing panels,
// edge-tile staging).  Buffers grow monotonically and are reused across
// calls, so the steady state performs no heap allocation.
//
// Lifetime rules (see README "Performance & parallelism"):
//   - Scratch::tls() hands out buffers owned by the *calling thread*.  A
//     buffer is valid from the buffer() call until the current leaf task
//     returns or the same slot is requested again on this thread —
//     whichever comes first.
//   - Never hold a scratch pointer across a util::parallel_for call: the
//     work-assisting pool may run another queued task on this thread while
//     the caller waits, and that task may claim the same slot.  (GEMM
//     packing obeys this: each macro-tile body packs, computes, and writes
//     its output without ever re-entering the pool.)
//   - State that must outlive a call or travel between threads (the packed
//     weight panel every task of one conv2d_forward reads, the im2col
//     matrix Conv2d's backward rebuilds from its saved input, per-shard
//     gradient partials reduced by the caller) belongs in per-layer member
//     buffers, not in the arena.  A conv task's own padded planes, offset
//     tables and B strip, and im2col's per-sample padded planes and
//     offsets, are leaf-task state and do come from here.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

namespace bprom::util {

class Scratch {
 public:
  /// Fixed slot ids: one live buffer per slot per thread.  Users that need
  /// two coexisting buffers (e.g. the A and B packing panels of one GEMM
  /// macro-tile) must use distinct slots.
  enum Slot : std::size_t {
    kGemmPackA = 0,
    /// GEMM B panel; also the [kc][NR] B strip of a conv2d_forward task.
    kGemmPackB,
    /// One sample's zero-bordered input planes, shared by the packed conv
    /// forward and im2col (tensor/conv_source.hpp).
    kConvPadded,
    /// Patch-row (and, in the packed forward, output-column) offset tables
    /// of the same two lowerings.
    kConvOffsets,
    /// Squashed border fill / additive perturbation field of one
    /// VisualPrompt::apply call (vp/prompt.cpp).
    kPromptField,
    /// One query's confidence row during meta-feature extraction
    /// (core/bprom.cpp).
    kMetaRow,
    /// Prediction histogram + per-class sample counts, claimed as one
    /// buffer (core/bprom.cpp).
    kMetaHist,
    /// Flattened target-by-source confusion counts (core/bprom.cpp and
    /// vp/prompted_model.cpp label-mapping fit).
    kMetaConfusion,
    /// Sorted per-class mapped-accuracy profile (core/bprom.cpp).
    kMetaClassAcc,
    kSlotCount,
  };

  /// The calling thread's arena.
  static Scratch& tls();

  /// A buffer of `count` elements of T in `slot`.  Contents are
  /// unspecified; the capacity persists (and only grows) across calls.
  template <typename T>
  T* buffer(Slot slot, std::size_t count) {
    std::vector<unsigned char>& bytes = slots_[slot];
    const std::size_t need = count * sizeof(T);
    // This is the arena's single sanctioned growth point: capacity only
    // ever ratchets up, so steady-state calls never allocate.
    // bprom-lint: allow(hot-path-alloc)
    if (bytes.size() < need) bytes.resize(need);
    // operator new (behind std::allocator) aligns for every fundamental
    // type, so the reinterpret below is safe for float/double panels.
    return reinterpret_cast<T*>(bytes.data());
  }

 private:
  std::array<std::vector<unsigned char>, kSlotCount> slots_;
};

}  // namespace bprom::util
