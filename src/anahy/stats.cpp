#include "anahy/stats.hpp"

#include <sstream>
#include <utility>

namespace anahy {

namespace {
std::atomic<std::uint64_t> g_stats_instances{0};

/// The calling thread's most recent stripe claims, (instance id, stripe
/// index); instance ids start at 1, so 0 marks an empty entry.
thread_local std::array<std::pair<std::uint64_t, unsigned>, 4> tls_claims{};
thread_local unsigned tls_next_claim = 0;
}  // namespace

RuntimeStats::RuntimeStats()
    : instance_id_(g_stats_instances.fetch_add(1, relaxed) + 1) {}

void RuntimeStats::claim_stripe() {
  tls_owner_ = instance_id_;
  // A thread that alternates between a few runtimes (a driver solving on
  // each in turn) returns to the stripe it already owns there. Claiming
  // afresh on every switch would exhaust the stripes within a few dozen
  // switches and leave the thread on the shared overflow stripe, paying
  // a locked RMW per counter bump from then on.
  for (const auto& [owner, index] : tls_claims) {
    if (owner == instance_id_) {
      tls_index_ = index;
      return;
    }
  }
  // First touch from this thread: claim the next free stripe. Threads
  // beyond kStripes-1 all land on the last stripe, which bump() treats
  // as shared (fetch_add), so totals stay exact under any thread count.
  const unsigned i = stripes_used_.fetch_add(1, relaxed);
  tls_index_ = i < kStripes - 1 ? i : kStripes - 1;
  tls_claims[tls_next_claim++ % tls_claims.size()] = {instance_id_,
                                                      tls_index_};
}

std::uint64_t RuntimeStats::sum(HotCounter which) const {
  std::uint64_t n = 0;
  for (const Stripe& s : stripes_) n += s.c[which].load(relaxed);
  return n;
}

std::size_t RuntimeStats::list_size(List l) const {
  const auto n = static_cast<std::int64_t>(sum(counter_of(l)));
  // Mid-flight a -1 may be summed before its matching +1; clamp the
  // transient negative to empty.
  return n > 0 ? static_cast<std::size_t>(n) : 0;
}

RuntimeStats::Snapshot RuntimeStats::snapshot() const {
  Snapshot out;
  out.tasks_created = sum(kTasksCreated);
  out.tasks_executed = sum(kTasksExecuted);
  out.joins_total = sum(kJoinsTotal);
  out.joins_immediate = sum(kJoinsImmediate);
  out.joins_inlined = sum(kJoinsInlined);
  out.joins_helped = sum(kJoinsHelped);
  out.joins_slept = sum(kJoinsSlept);
  out.continuations = sum(kContinuations);
  out.tasks_run_by_main = sum(kTasksRunByMain);
  out.ready_peak = ready_peak_.load(relaxed);
  out.wakeups = sum(kWakeups);
  out.wakeups_skipped = sum(kWakeupsSkipped);
  return out;
}

std::string RuntimeStats::Snapshot::to_string() const {
  std::ostringstream out;
  out << "tasks created=" << tasks_created << " executed=" << tasks_executed
      << " | joins total=" << joins_total << " immediate=" << joins_immediate
      << " inlined=" << joins_inlined << " helped=" << joins_helped
      << " slept=" << joins_slept << " | continuations=" << continuations
      << " | steals=" << steals << "/" << steal_attempts
      << " | run-by-main=" << tasks_run_by_main
      << " | ready-peak=" << ready_peak
      << " | wakeups=" << wakeups << " (+" << wakeups_skipped << " skipped)";
  return out.str();
}

}  // namespace anahy
