// In-memory spans recorded by the benchmark around its calls into each
// layer, and the self-time rule: a span's duration minus the part of its
// interval that its children cover.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanName : std::uint8_t {
  kSolve,
  kSeqSolve,
  kRequest,  ///< scheduled send -> reply receipt (root of a request)
  kSubmit,   ///< the client / router submit call
  kInbound,  ///< submit start -> body start
  kBody,     ///< job body, stamped by the body itself
  kOutbound, ///< body end -> reply receipt
  kRouterSubmit,
  kScrape,
  kAgingSample,
};
[[nodiscard]] const char* to_string(SpanName n);

struct Span {
  SpanName name = SpanName::kSolve;
  std::int32_t parent = -1;  ///< index into the same log; -1 = root
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Self time of every span (same indexing as `spans`): its duration minus
/// the union of its children's intervals clipped to its own.
[[nodiscard]] std::vector<std::int64_t> self_times(
    const std::vector<Span>& spans);

/// Writes `spans` as CSV (index,name,parent,request,start_ns,end_ns).
bool write_spans_csv(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
