#include "core/division.h"

#include <algorithm>

#include "io/record_io.h"
#include "util/check.h"

namespace maxrs {

namespace {

// Pass 1 of a division: chooses at most m-1 interior slab boundaries from
// the (x-sorted) edge file's count quantiles, cutting after every ~n/m
// edges but only where the value strictly increases, so routing by value
// reproduces the chunks exactly. An empty result means the file cannot be
// split (all edges share one x).
Result<std::vector<double>> ComputeEdgeBounds(Env& env,
                                              const std::string& edge_file,
                                              size_t m) {
  std::vector<double> bounds;
  MAXRS_ASSIGN_OR_RETURN(RecordReader<EdgeRecord> reader,
                         RecordReader<EdgeRecord>::Make(env, edge_file));
  const uint64_t target = (reader.total() + m - 1) / m;  // ceil
  uint64_t in_chunk = 0;
  bool have_prev = false;
  double prev = 0.0;
  EdgeRecord e{};
  while (reader.Next(&e)) {
    if (have_prev && in_chunk >= target && e.x > prev &&
        bounds.size() + 1 < m) {
      bounds.push_back(e.x);
      in_chunk = 0;
    }
    prev = e.x;
    have_prev = true;
    ++in_chunk;
  }
  MAXRS_RETURN_IF_ERROR(reader.final_status());
  return {std::move(bounds)};
}

}  // namespace

Result<std::vector<ChildSlab>> DividePieces(
    TempFileManager& temps, RecordSource<PieceRecord>* pieces,
    const std::string& edge_file, const Interval& slab, size_t m,
    size_t channel_bytes, const std::string& span_file, uint64_t* num_spans,
    const CancelToken* cancel) {
  Env& env = temps.env();
  MAXRS_CHECK(m >= 2);

  // --- Pass 1: choose interior boundaries from edge-count quantiles. ---
  MAXRS_ASSIGN_OR_RETURN(std::vector<double> bounds,
                         ComputeEdgeBounds(env, edge_file, m));
  if (bounds.empty()) {
    return {Status::InvalidArgument(
        "division cannot split: all edges share one x-coordinate")};
  }
  const size_t num_children = bounds.size() + 1;

  std::vector<ChildSlab> children(num_children);
  std::vector<Interval> ranges(num_children);
  for (size_t k = 0; k < num_children; ++k) {
    ChildSlab& child = children[k];
    child.x_range.lo = (k == 0) ? slab.lo : bounds[k - 1];
    child.x_range.hi = (k + 1 == num_children) ? slab.hi : bounds[k];
    ranges[k] = child.x_range;
    child.pieces = std::make_unique<RecordChannel<PieceRecord>>(
        env, temps.NewName("spill"), channel_bytes);
    child.edge_file = temps.NewName("edges");
  }

  // --- Pass 2: route edges (contiguous cut; stays x-sorted). ---
  {
    MAXRS_ASSIGN_OR_RETURN(RecordReader<EdgeRecord> reader,
                           RecordReader<EdgeRecord>::Make(env, edge_file));
    std::vector<RecordWriter<EdgeRecord>> writers;
    writers.reserve(num_children);
    for (size_t k = 0; k < num_children; ++k) {
      MAXRS_ASSIGN_OR_RETURN(
          RecordWriter<EdgeRecord> w,
          RecordWriter<EdgeRecord>::Make(env, children[k].edge_file));
      writers.push_back(std::move(w));
    }
    EdgeRecord e{};
    while (reader.Next(&e)) {
      MAXRS_RETURN_IF_ERROR(CheckCancel(cancel));
      size_t k = std::min(division_internal::IndexOf(bounds, e.x),
                          num_children - 1);
      MAXRS_RETURN_IF_ERROR(writers[k].Append(e));
    }
    MAXRS_RETURN_IF_ERROR(reader.final_status());
    for (RecordWriter<EdgeRecord>& writer : writers) {
      MAXRS_RETURN_IF_ERROR(writer.Finish());
    }
  }

  // --- Pass 3: route pieces (subsequences; stay y-sorted). Every channel
  // is closed with the pass's status, whatever it is: a channel left open
  // would park its consumer forever. ---
  Status st = [&]() -> Status {
    MAXRS_ASSIGN_OR_RETURN(RecordWriter<SpanRecord> span_writer,
                           RecordWriter<SpanRecord>::Make(env, span_file));
    PieceRecord p{};
    while (true) {
      MAXRS_RETURN_IF_ERROR(CheckCancel(cancel));
      Status read_st = pieces->Read(&p);
      if (read_st.code() == Status::Code::kNotFound) break;
      MAXRS_RETURN_IF_ERROR(read_st);
      MAXRS_RETURN_IF_ERROR(division_internal::RoutePiece(
          bounds, ranges, p,
          [&](size_t k, const PieceRecord& piece) {
            return children[k].pieces->Append(piece);
          },
          [&](const SpanRecord& span) { return span_writer.Append(span); }));
    }
    MAXRS_RETURN_IF_ERROR(span_writer.Finish());
    *num_spans = span_writer.count();
    return Status::OK();
  }();
  for (ChildSlab& child : children) {
    Status close_st = child.pieces->Close(st);
    if (st.ok()) st = close_st;
  }
  MAXRS_RETURN_IF_ERROR(st);
  return {std::move(children)};
}

}  // namespace maxrs
