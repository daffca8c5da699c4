// Write-back LRU buffer pool with pinning. The two plane-sweep baselines
// access their sweep structures through this pool, so their I/O cost reflects
// the available buffer size M exactly as in the paper's experiments: when the
// working set fits in M the I/O count collapses (Fig. 15(a)), otherwise every
// miss is a counted block fetch and every dirty eviction a counted write
// (see docs/IO_MODEL.md for how this composes with the stream layer).
//
// The pool is thread-safe: any number of threads may fetch through one
// pool, so every state transition — lookup, victim selection, the fetch
// I/O itself, unpin — happens under one mutex. Holding the lock across the
// miss I/O is deliberate: it also provides the happens-before ordering the
// Env contract requires when those threads share one BlockFile handle.
// Frame payloads are stable in memory while pinned, so PageHandle::data()
// needs no lock.
#ifndef MAXRS_IO_BUFFER_POOL_H_
#define MAXRS_IO_BUFFER_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "io/env.h"
#include "util/status.h"

namespace maxrs {

class BufferPool;

/// RAII pin on a cached block. While alive, the frame cannot be evicted.
class PageHandle {
 public:
  PageHandle() = default;
  PageHandle(BufferPool* pool, size_t frame) : pool_(pool), frame_(frame) {}
  PageHandle(const PageHandle&) = delete;
  PageHandle& operator=(const PageHandle&) = delete;
  PageHandle(PageHandle&& other) noexcept { *this = std::move(other); }
  PageHandle& operator=(PageHandle&& other) noexcept;
  ~PageHandle();

  bool valid() const { return pool_ != nullptr; }

  /// Block contents; block_size bytes. Safe without the pool lock: the frame
  /// is pinned for the handle's lifetime, so it cannot be evicted or reused.
  char* data();
  const char* data() const;

  /// Marks the block dirty; it will be written back on eviction or flush.
  void MarkDirty();

  void Release();

 private:
  BufferPool* pool_ = nullptr;
  size_t frame_ = 0;
};

/// Statistics of pool behaviour (hits are free; misses cost I/O).
struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t writebacks = 0;
};

class BufferPool {
 public:
  /// `capacity_bytes` is the memory budget M; the pool holds
  /// capacity_bytes / block_size frames (at least 1).
  ///
  /// `pin_wait_ms` bounds how long Fetch blocks when every frame is pinned
  /// by other threads. Zero (the default) fails immediately with
  /// ResourceExhausted — the historical single-owner behaviour, where an
  /// exhausted pool is a sizing bug, not a transient. A positive bound lets
  /// concurrent readers ride out momentary all-pinned states: Fetch waits on
  /// a condition variable signalled by every unpin, and only reports
  /// ResourceExhausted if no frame frees within the bound.
  BufferPool(Env& env, size_t capacity_bytes, uint64_t pin_wait_ms = 0);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pins the given block of `file`, fetching it from storage on a miss.
  /// If `zero_fill_new` and the block is exactly one past the end of the
  /// file, the frame is zero-filled without a counted read (fresh append).
  Result<PageHandle> Fetch(BlockFile& file, uint64_t block, bool zero_fill_new = false);

  /// Writes back all dirty blocks of `file` (or all files if nullptr),
  /// pinned ones included: a pin holder must not write a block's bytes
  /// while another thread may flush it.
  Status FlushAll(BlockFile* file = nullptr);

  /// Flushes and forgets all blocks of `file`; must not have pinned pages.
  Status Evict(BlockFile& file);

  size_t capacity_frames() const { return frames_.size(); }
  BufferPoolStats pool_stats() const;

 private:
  friend class PageHandle;

  struct Frame {
    BlockFile* file = nullptr;
    uint64_t block = 0;
    std::vector<char> data;
    bool dirty = false;
    bool valid = false;
    uint32_t pins = 0;
    std::list<size_t>::iterator lru_pos;
    bool in_lru = false;
  };

  using Key = std::pair<BlockFile*, uint64_t>;

  void Unpin(size_t frame);
  void MarkDirtyLocked(size_t frame);
  Result<size_t> GetVictim(std::unique_lock<std::mutex>& lock);
  Status WriteBack(Frame& frame);

  Env* env_;
  size_t block_size_;
  uint64_t pin_wait_ms_;
  mutable std::mutex mu_;
  std::condition_variable frame_freed_;
  std::vector<Frame> frames_;
  std::map<Key, size_t> table_;
  std::list<size_t> lru_;  // front = most recent
  std::vector<size_t> free_frames_;
  BufferPoolStats stats_;
};

}  // namespace maxrs

#endif  // MAXRS_IO_BUFFER_POOL_H_
