#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

const char* to_string(SpanName n) {
  switch (n) {
    case SpanName::kSolve: return "solve";
    case SpanName::kSeqSolve: return "seq_solve";
    case SpanName::kRequest: return "request";
    case SpanName::kSubmit: return "submit";
    case SpanName::kInbound: return "inbound";
    case SpanName::kBody: return "body";
    case SpanName::kOutbound: return "outbound";
    case SpanName::kRouterSubmit: return "router_submit";
    case SpanName::kScrape: return "scrape";
    case SpanName::kAgingSample: return "aging_sample";
  }
  return "?";
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size())
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                            s.end_ns);
  std::vector<std::int64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns, hi = spans[i].end_ns;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur = lo;  // union swept left to right
    for (auto [a, b] : iv) {
      a = std::max(a, cur);
      b = std::min(b, hi);
      if (b > a) {
        covered += b - a;
        cur = b;
      }
    }
    out[i] = std::max<std::int64_t>(0, (hi - lo) - covered);
  }
  return out;
}

bool write_spans_csv(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "index,name,parent,request,start_ns,end_ns\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%zu,%s,%d,%llu,%lld,%lld\n", i, to_string(s.name),
                 s.parent, static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
