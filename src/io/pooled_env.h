// PooledEnv: an Env wrapper that backs reads of a registered set of
// *immutable* files (a served dataset's manifest, aggregate index, and shard
// files) with one shared BufferPool. Every Open() of a pooled name returns a
// lightweight read-only handle that fetches blocks through the pool: a hit
// costs zero counted I/O, a miss is one counted ReadBlock on the single
// shared underlying handle. The pool — and therefore the warm working set —
// is shared across all query workers, which is exactly why BufferPool is
// thread-safe (its lock also provides the happens-before the Env contract
// requires for the shared handle).
//
// Scope is deliberately narrow: only names matching a registered prefix are
// pooled, and pooled handles are read-only (the serve layer never writes
// dataset files after ingest publishes them). Everything else — query temp
// files, spill channels, sort runs — passes straight through to the base
// Env untouched, so enabling the pool cannot perturb any write path.
// Accounting is covered in docs/IO_MODEL.md, "The shared buffer pool".
#ifndef MAXRS_IO_POOLED_ENV_H_
#define MAXRS_IO_POOLED_ENV_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "io/buffer_pool.h"
#include "io/env.h"

namespace maxrs {

class PooledEnv : public Env {
 public:
  /// `pool_bytes` sizes the shared BufferPool; `pin_wait_ms` is forwarded to
  /// it (how long a Fetch may wait out an all-pinned pool before failing).
  PooledEnv(Env& base, size_t pool_bytes, uint64_t pin_wait_ms = 0);
  ~PooledEnv() override;

  /// Registers a name prefix: every existing or future file whose name
  /// starts with `prefix` is served through the pool on Open().
  void AddPooledPrefix(const std::string& prefix);

  BufferPoolStats pool_stats() const { return pool_.pool_stats(); }

  // Env interface. Create() always delegates raw (writers bypass the pool);
  // Delete()/Rename() of a pooled name evict its blocks first so stale data
  // can never be served under a recycled name.
  Result<std::unique_ptr<BlockFile>> Create(const std::string& name) override;
  Result<std::unique_ptr<BlockFile>> Open(const std::string& name) override;
  Status Delete(const std::string& name) override;
  Status Rename(const std::string& from, const std::string& to) override;
  bool Exists(const std::string& name) const override;
  std::vector<std::string> ListFiles() const override;
  size_t block_size() const override;
  IoStats& stats() override;

 private:
  bool IsPooledName(const std::string& name) const;
  /// Drops (after evicting) the shared handle for `name`, if any. The handle
  /// object is retired, not destroyed, so pooled readers opened before a
  /// Delete/Rename can fail cleanly instead of dangling.
  Status RetireHandle(const std::string& name);

  Env* base_;
  BufferPool pool_;
  mutable std::mutex mu_;
  std::vector<std::string> prefixes_;
  std::map<std::string, std::unique_ptr<BlockFile>> handles_;
  std::vector<std::unique_ptr<BlockFile>> retired_;
};

}  // namespace maxrs

#endif  // MAXRS_IO_POOLED_ENV_H_
