// Record streams: the zero-materialization seam between producers of
// records (routing passes) and their consumers (sub-slab solves).
//
// RecordWriter/RecordReader (record_io.h) force a full materialize-then-read
// cycle: a consumer cannot start until its producer has Finish()ed the file.
// The distribution sweep of ExactMaxRS only ever *streams* records in one
// direction, though, so the file in the middle is pure overhead — exactly
// the I/O the paper's recursion avoids by keeping each record's path
// minimal. This header abstracts the seam:
//
//   - RecordSource<T> / RecordSink<T>: the read and write halves of a
//     sequential record stream, with the Read/Next/final_status idiom of
//     RecordReader so consumers are source-agnostic.
//   - FileRecordSource<T> / FileRecordSink<T>: the compatibility adapters
//     over RecordReader / RecordWriter.
//   - RecordChannel<T>: a SPSC in-memory channel with deterministic
//     spill-to-Env overflow — the zero-materialization hand-off. The
//     producer NEVER blocks (it buffers up to the memory cap, then spills
//     every subsequent record to exactly one Env part file), so channel
//     producers can never deadlock a saturated pool; the consumer blocks
//     until data or close arrive.
//   - MergingSource<T>: a k-way streaming merge over sources, selecting
//     heads with exactly the comparator MergeRuns (external_sort.h) uses —
//     byte-for-byte the sequence a materialized MergeSortedParts pass
//     chain produces, in a single zero-materialization pass.
//
// Determinism contract: whether (and what) a channel spills is a pure
// function of the records produced and the memory cap — never of consumer
// progress, scheduling, or abandonment — so IoStats are bit-identical for
// any thread count, and identical to a re-run. Cost accounting:
// docs/IO_MODEL.md ("Streaming routing").
#ifndef MAXRS_IO_RECORD_STREAM_H_
#define MAXRS_IO_RECORD_STREAM_H_

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "io/env.h"
#include "io/record_io.h"
#include "util/check.h"
#include "util/status.h"

namespace maxrs {

/// The read half of a sequential record stream. Same surface as
/// RecordReader (Read returning NotFound at end of stream; Next/
/// final_status for the iterator idiom), so consumers written against a
/// source work identically over a file, a channel, or a merge of either.
template <typename T>
class RecordSource {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  virtual ~RecordSource() = default;

  /// Reads the next record into *out; NotFound signals end of stream.
  virtual Status Read(T* out) = 0;

  /// Iterator idiom: returns false at end of stream OR on an error; in the
  /// error case the status is sticky — check final_status() after the loop.
  bool Next(T* out) {
    Status st = Read(out);
    if (st.code() == Status::Code::kNotFound) return false;
    if (!st.ok()) {
      final_status_ = st;
      return false;
    }
    return true;
  }

  /// OK unless a Next() iteration ended early due to an error.
  const Status& final_status() const { return final_status_; }

 private:
  Status final_status_;
};

/// The write half of a sequential record stream. A producer Appends records
/// and then Closes exactly once with its final status; Close(error)
/// propagates the error downstream in place of an end-of-stream.
template <typename T>
class RecordSink {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  virtual ~RecordSink() = default;

  /// Appends one record. An error here is the producer's to handle (it
  /// should stop producing and Close with the error).
  virtual Status Append(const T& record) = 0;

  /// Ends the stream. Idempotent; the first close's status wins. Returns
  /// the status the stream's consumer will observe (incoming `status`, or
  /// an internal flush error if `status` was OK).
  virtual Status Close(const Status& status) = 0;
};

/// RecordSource over a finished record file, via RecordReader.
template <typename T>
class FileRecordSource final : public RecordSource<T> {
 public:
  /// Opens `name` in `env`.
  static Result<FileRecordSource<T>> Make(Env& env, const std::string& name) {
    auto reader_or = RecordReader<T>::Make(env, name);
    if (!reader_or.ok()) return {reader_or.status()};
    return {FileRecordSource<T>(std::move(reader_or).value())};
  }

  explicit FileRecordSource(RecordReader<T> reader)
      : reader_(std::move(reader)) {}

  Status Read(T* out) override { return reader_.Read(out); }

  /// Records remaining in the file (the header count minus consumed).
  uint64_t remaining() const { return reader_.remaining(); }

 private:
  RecordReader<T> reader_;
};

/// RecordSink over a fresh record file, via RecordWriter. Close(OK) runs
/// Finish.
template <typename T>
class FileRecordSink final : public RecordSink<T> {
 public:
  /// Creates `name` in `env`.
  static Result<FileRecordSink<T>> Make(Env& env, const std::string& name) {
    auto writer_or = RecordWriter<T>::Make(env, name);
    if (!writer_or.ok()) return {writer_or.status()};
    return {FileRecordSink<T>(std::move(writer_or).value())};
  }

  explicit FileRecordSink(RecordWriter<T> writer) : writer_(std::move(writer)) {}

  Status Append(const T& record) override { return writer_.Append(record); }

  /// Finishes the file on an OK close (a file closed with an error is not
  /// finished and therefore not a valid record file).
  Status Close(const Status& status) override {
    if (!status.ok()) return status;
    return writer_.Finish();
  }

  uint64_t count() const { return writer_.count(); }
  const std::string& name() const { return writer_.name(); }

 private:
  RecordWriter<T> writer_;
};

/// A single-producer single-consumer record channel with deterministic
/// spill overflow: the zero-materialization hand-off between a routing
/// pass and a sub-slab solve.
///
/// Memory/spill policy (the determinism contract): records accumulate in
/// block-sized segments; a completed segment stays in memory while the
/// cumulative bytes enqueued in memory would not exceed `memory_cap_bytes`,
/// and from the first segment that would cross the cap onward EVERY
/// subsequent record of the stream is appended to one spill record file
/// (`spill_name` in `env`, created at the crossing). The decision depends
/// only on the bytes produced — never on how far the consumer has drained —
/// so the spill file's existence, contents, and block count are a pure
/// function of (stream contents, cap). memory_cap_bytes = 0 spills
/// everything; SIZE_MAX never spills. The in-memory cap bounds *enqueued*
/// bytes, hence the channel's resident footprint, at cap + one segment.
///
/// Threading: one producer thread (Append/Close), one consumer thread
/// (Read/Next); construction and destruction must be externally ordered
/// against both (the usual create → hand to tasks → join → destroy
/// pattern). The producer never blocks — the spine of the pipeline's
/// liveness argument: as long as callers start (or submit ahead of every
/// consumer, on a FIFO pool) each channel's producer, a parked consumer
/// always has a running, non-blocking producer destined to close its
/// channel, so plain condition-variable waiting cannot deadlock. (The
/// consumer must NOT help-run queued pool tasks while it waits: a node
/// that is simultaneously a consumer of its parent's channel and the
/// producer for its children could inline-run one of its own dependent
/// consumers beneath its suspended routing loop and deadlock.)
///
/// Error propagation: Close(error) parks the error; the consumer observes
/// it (after draining any segments enqueued before the close) in place of
/// end-of-stream, and never opens the spill file. A spill-write failure
/// surfaces at the producer's Append — the producer then Closes with it.
///
/// The destructor deletes the spill file (if one was created), so an
/// abandoned channel — a consumer that never drains, e.g. the edge stream
/// of a shard that turns out empty — leaks nothing.
template <typename T>
class RecordChannel final : public RecordSink<T>, public RecordSource<T> {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  /// The channel spills to `spill_name` in `env` if the stream outgrows
  /// `memory_cap_bytes`.
  RecordChannel(Env& env, std::string spill_name, size_t memory_cap_bytes)
      : env_(&env),
        spill_name_(std::move(spill_name)),
        cap_(memory_cap_bytes),
        per_segment_(std::max<size_t>(1, env.block_size() / sizeof(T))) {}

  /// Deletes the spill file if one was created. Any enqueued in-flight
  /// records are simply dropped — destroying an undrained channel is legal.
  ~RecordChannel() override {
    spill_writer_.reset();
    spill_reader_.reset();
    if (spill_created_) (void)env_->Delete(spill_name_);
  }

  RecordChannel(const RecordChannel&) = delete;
  RecordChannel& operator=(const RecordChannel&) = delete;

  // --- Producer side (RecordSink) ---

  Status Append(const T& record) override {
    MAXRS_DCHECK(!producer_closed_);
    // The segment buffer is reserved on first use, not at construction: a
    // query builds O(S^2) channels and most of them never see a record.
    if (fill_.capacity() == 0) fill_.reserve(per_segment_);
    fill_.push_back(record);
    if (fill_.size() == per_segment_) return EmitSegment();
    return Status::OK();
  }

  Status Close(const Status& status) override {
    if (producer_closed_) return close_copy_;
    producer_closed_ = true;
    Status st = status;
    if (st.ok() && !fill_.empty()) st = EmitSegment();
    if (st.ok() && spill_writer_.has_value()) st = spill_writer_->Finish();
    spill_writer_.reset();
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
      close_status_ = st;
    }
    cv_.notify_all();
    close_copy_ = st;
    return st;
  }

  /// Whether the stream crossed the cap and created its spill file.
  /// Meaningful once the producer has closed.
  bool spilled() const { return spill_created_; }

  // --- Consumer side (RecordSource) ---

  Status Read(T* out) override {
    while (true) {
      if (pos_ < current_.size()) {
        *out = current_[pos_++];
        return Status::OK();
      }
      {
        std::unique_lock<std::mutex> lock(mu_);
        if (!segments_.empty()) {
          current_ = std::move(segments_.front());
          segments_.pop_front();
          pos_ = 0;
          continue;
        }
        if (closed_) {
          Status st = close_status_;
          lock.unlock();
          if (!st.ok()) return st;
          return ReadFromSpill(out);
        }
        cv_.wait(lock);
      }
    }
  }

 private:
  Status EmitSegment() {
    const size_t seg_bytes = fill_.size() * sizeof(T);
    if (!spilling_ && mem_bytes_enqueued_ + seg_bytes > cap_) {
      spilling_ = true;
      auto writer_or = RecordWriter<T>::Make(*env_, spill_name_);
      MAXRS_RETURN_IF_ERROR(writer_or.status());
      spill_created_ = true;
      spill_writer_.emplace(std::move(writer_or).value());
    }
    if (spilling_) {
      for (const T& r : fill_) MAXRS_RETURN_IF_ERROR(spill_writer_->Append(r));
      fill_.clear();
      return Status::OK();
    }
    mem_bytes_enqueued_ += seg_bytes;
    {
      std::lock_guard<std::mutex> lock(mu_);
      segments_.push_back(std::move(fill_));
    }
    cv_.notify_all();
    fill_ = std::vector<T>();
    return Status::OK();
  }

  Status ReadFromSpill(T* out) {
    // Only reached after an OK close: the spill file (if any) is finished
    // and immutable, and the producer is gone, so no lock is needed.
    if (!spill_created_) return Status::NotFound("end of stream");
    if (!spill_reader_.has_value()) {
      auto reader_or = RecordReader<T>::Make(*env_, spill_name_);
      MAXRS_RETURN_IF_ERROR(reader_or.status());
      spill_reader_.emplace(std::move(reader_or).value());
    }
    return spill_reader_->Read(out);
  }

  Env* env_;
  std::string spill_name_;
  size_t cap_;
  size_t per_segment_;

  // Producer-confined state (no lock: single producer).
  std::vector<T> fill_;
  size_t mem_bytes_enqueued_ = 0;
  bool spilling_ = false;
  bool spill_created_ = false;
  std::optional<RecordWriter<T>> spill_writer_;
  bool producer_closed_ = false;
  Status close_copy_;

  // Shared hand-off state.
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::vector<T>> segments_;
  bool closed_ = false;
  Status close_status_;

  // Consumer-confined state (no lock: single consumer).
  std::vector<T> current_;
  size_t pos_ = 0;
  std::optional<RecordReader<T>> spill_reader_;
};

/// A source that yields a buffered prefix, then delegates to `rest` — the
/// glue for consumers that must read ahead of a stream (e.g. "is this shard
/// empty?", or "does this slab fit in memory?") before handing the whole
/// stream onward.
template <typename T>
class PrependedSource final : public RecordSource<T> {
 public:
  /// Yields `prefix` in order, then everything remaining in `rest` (not
  /// owned; must outlive this source). The prefix's storage is freed as
  /// soon as it has been read.
  PrependedSource(std::vector<T> prefix, RecordSource<T>* rest)
      : prefix_(std::move(prefix)), rest_(rest) {}

  Status Read(T* out) override {
    if (pos_ < prefix_.size()) {
      *out = prefix_[pos_++];
      return Status::OK();
    }
    if (!prefix_.empty()) {
      std::vector<T>().swap(prefix_);
      pos_ = 0;
    }
    return rest_->Read(out);
  }

 private:
  std::vector<T> prefix_;
  size_t pos_ = 0;
  RecordSource<T>* rest_;
};

/// A k-way streaming merge over record sources: the zero-materialization
/// equivalent of merging sorted part files with MergeSortedParts.
///
/// Selection replicates MergeRuns (external_sort.h) exactly — an index
/// heap over the non-exhausted sources, smallest head first, ties to the
/// lowest source index — so for a total-order comparator the merged
/// sequence is byte-identical to what any materialized merge-pass chain
/// over the same sources in the same order would produce (k-way min-of-
/// heads merging is associative, and cmp-equal records are byte-equal
/// under a total order, so the grouping of passes is unobservable).
template <typename T, typename Less>
class MergingSource final : public RecordSource<T> {
 public:
  /// Merges `sources` (not owned; must outlive this source). Sources may
  /// be empty; they are skipped. Heads are pulled lazily on first Read, so
  /// constructing a MergingSource costs no I/O and never blocks.
  MergingSource(std::vector<RecordSource<T>*> sources, Less less)
      : sources_(std::move(sources)), less_(std::move(less)) {}

  Status Read(T* out) override {
    if (!initialized_) MAXRS_RETURN_IF_ERROR(Init());
    if (heap_.empty()) return Status::NotFound("end of stream");
    const size_t i = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), cmp_);
    heap_.pop_back();
    *out = heads_[i];
    Status st = sources_[i]->Read(&heads_[i]);
    if (st.code() == Status::Code::kNotFound) return Status::OK();
    MAXRS_RETURN_IF_ERROR(st);
    heap_.push_back(i);
    std::push_heap(heap_.begin(), heap_.end(), cmp_);
    return Status::OK();
  }

 private:
  Status Init() {
    initialized_ = true;
    heads_.resize(sources_.size());
    heap_.reserve(sources_.size());
    for (size_t i = 0; i < sources_.size(); ++i) {
      Status st = sources_[i]->Read(&heads_[i]);
      if (st.code() == Status::Code::kNotFound) continue;  // empty source
      MAXRS_RETURN_IF_ERROR(st);
      heap_.push_back(i);
    }
    // The MergeRuns heap comparator, verbatim: max-heap on "later", so the
    // front is the smallest head, ties to the lowest index.
    std::make_heap(heap_.begin(), heap_.end(), cmp_);
    return Status::OK();
  }

  struct Cmp {
    MergingSource* self;
    bool operator()(size_t a, size_t b) const {
      if (self->less_(self->heads_[b], self->heads_[a])) return true;
      if (self->less_(self->heads_[a], self->heads_[b])) return false;
      return a > b;
    }
  };

  std::vector<RecordSource<T>*> sources_;
  Less less_;
  bool initialized_ = false;
  std::vector<T> heads_;
  std::vector<size_t> heap_;
  Cmp cmp_{this};
};

/// Closes every sink in `sinks` with `status`, exactly once each, and
/// returns `status` with the first close-side error folded in when `status`
/// itself is OK. The multi-sink dual of the per-channel close-on-error
/// protocol: a routing pass that feeds a whole row (or several queries'
/// rows) of channels must close all of them on every path — success or
/// error — or a parked consumer hangs forever. Null entries are skipped.
template <typename T>
Status CloseAllSinks(const std::vector<RecordSink<T>*>& sinks,
                     Status status) {
  for (RecordSink<T>* sink : sinks) {
    if (sink == nullptr) continue;
    Status close_st = sink->Close(status);
    if (status.ok()) status = close_st;
  }
  return status;
}

}  // namespace maxrs

#endif  // MAXRS_IO_RECORD_STREAM_H_
