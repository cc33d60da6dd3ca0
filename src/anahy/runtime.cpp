#include "anahy/runtime.hpp"

#include <cstdlib>
#include <stdexcept>
#include <string_view>

namespace anahy {

namespace {
std::unique_ptr<Runtime> g_runtime;  // the athread-API global instance
}  // namespace

Options Options::from_env() {
  Options opts;
  if (const char* v = std::getenv("ANAHY_NUM_VPS")) opts.num_vps = std::atoi(v);
  if (const char* v = std::getenv("ANAHY_POLICY")) {
    const std::string_view s{v};
    if (s == "fifo") opts.policy = PolicyKind::kFifo;
    else if (s == "lifo") opts.policy = PolicyKind::kLifo;
    else if (s == "steal") opts.policy = PolicyKind::kWorkStealing;
  }
  if (const char* v = std::getenv("ANAHY_TRACE"))
    opts.trace = std::string_view{v} == "1";
  if (const char* v = std::getenv("ANAHY_CHECK"))
    opts.check = std::string_view{v} == "1";
  if (const char* v = std::getenv("ANAHY_DRAIN_ON_EXIT"))
    opts.drain_on_exit = std::string_view{v} == "1";
  if (const char* v = std::getenv("ANAHY_TELEMETRY"))
    opts.telemetry = std::string_view{v} != "0";
  if (const char* v = std::getenv("ANAHY_PROFILE"))
    opts.profile = std::string_view{v} == "1";
  return opts;
}

Runtime::Runtime(const Options& opts) : opts_(opts) {
  if (opts_.num_vps < 1) throw std::invalid_argument("num_vps must be >= 1");
  Scheduler::Options sopts;
  sopts.num_vps = opts_.num_vps;
  sopts.policy = opts_.policy;
  sopts.trace = opts_.trace;
  sopts.external_helps = opts_.main_participates;
  sopts.check = opts_.check;
  sopts.telemetry = opts_.telemetry;
  sopts.profile = opts_.profile;
  scheduler_ = std::make_unique<Scheduler>(sopts);

  const int workers =
      opts_.main_participates ? opts_.num_vps - 1 : opts_.num_vps;
  vps_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i)
    vps_.push_back(std::make_unique<VirtualProcessor>(*scheduler_, i));

  // When main participates it IS a virtual processor (the paper's model:
  // the main flow T0 is a task executed by a VP), so bind it to the last
  // VP slot. Its forks then use its own lock-free deque instead of the
  // mutex-guarded external overflow queue — the dominant fork/join path
  // of a program that forks from main.
  if (opts_.main_participates)
    scheduler_->bind_thread_to_vp(opts_.num_vps - 1, /*worker=*/false);
}

Runtime::~Runtime() {
  // Drain BEFORE stopping the VPs: they keep consuming ready tasks while
  // the destructing thread helps, so the fixpoint is reached in parallel.
  if (opts_.drain_on_exit) scheduler_->drain();
  for (auto& vp : vps_) vp->request_stop();
  scheduler_->notify_all();
  vps_.clear();  // joins all VP threads
}

bool Runtime::restart_vp(int slot) {
  if (slot < 0 || static_cast<std::size_t>(slot) >= vps_.size()) return false;
  auto& vp = vps_[static_cast<std::size_t>(slot)];
  vp->request_stop();
  // The stop request only takes effect once the thread looks at its token,
  // which it may be doing from inside a sleep on the ready eventcount.
  scheduler_->notify_all();
  vp.reset();  // joins the old thread; its pool cache flushes on exit
  vp = std::make_unique<VirtualProcessor>(*scheduler_, slot);
  return true;
}

TaskPtr Runtime::fork(TaskBody body, void* input, const TaskAttributes& attr,
                      std::string label) {
  return scheduler_->create_task(std::move(body), input, attr,
                                 std::move(label));
}

int Runtime::join(const TaskPtr& task, void** result) {
  // Joins issued from a bound thread (a worker VP, or main when it
  // participates) carry that VP slot so helping pops hit its own deque
  // (LIFO, cache-warm) instead of the external overflow queue; foreign
  // threads stay external.
  return scheduler_->join(task, result, scheduler_->bound_vp());
}

int Runtime::join_by_id(TaskId id, void** result) {
  return scheduler_->join_by_id(id, result, scheduler_->bound_vp());
}

int Runtime::try_join(const TaskPtr& task, void** result) {
  return scheduler_->try_join(task, result);
}

Runtime* Runtime::global() { return g_runtime.get(); }

void Runtime::set_global(std::unique_ptr<Runtime> rt) {
  g_runtime = std::move(rt);
}

void Runtime::clear_global() { g_runtime.reset(); }

}  // namespace anahy
