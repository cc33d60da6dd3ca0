// Unit tests of the ready-list policies, exercised directly (no runtime).
#include "anahy/policy.hpp"
#include "anahy/policy_steal.hpp"

#include <gtest/gtest.h>

namespace {

using namespace anahy;

TaskPtr make_task(TaskId id) {
  return std::make_shared<Task>(
      id, [](void*) -> void* { return nullptr; }, nullptr, TaskAttributes{},
      kRootTaskId, 1);
}

class PolicyTest : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(PolicyTest, PushPopSingle) {
  auto policy = make_policy(GetParam(), 2);
  auto t = make_task(1);
  policy->push(t, 0);
  EXPECT_EQ(policy->approx_size(), 1u);
  EXPECT_EQ(policy->pop(0), t);
  EXPECT_EQ(policy->approx_size(), 0u);
  EXPECT_EQ(policy->pop(0), nullptr);
}

TEST_P(PolicyTest, PopFromOtherVpFindsWork) {
  auto policy = make_policy(GetParam(), 4);
  auto t = make_task(1);
  policy->push(t, 0);
  // A different VP must still be able to acquire the task (stealing or a
  // shared queue, depending on the policy).
  EXPECT_EQ(policy->pop(3), t);
}

TEST_P(PolicyTest, ExternalCallersAreAccepted) {
  auto policy = make_policy(GetParam(), 2);
  auto t = make_task(7);
  policy->push(t, SchedulingPolicy::kExternalVp);
  EXPECT_EQ(policy->pop(SchedulingPolicy::kExternalVp), t);
}

TEST_P(PolicyTest, RemoveSpecificTakesExactTask) {
  auto policy = make_policy(GetParam(), 2);
  auto a = make_task(1);
  auto b = make_task(2);
  auto c = make_task(3);
  policy->push(a, 0);
  policy->push(b, 1);
  policy->push(c, 0);
  EXPECT_TRUE(policy->remove_specific(b, SchedulingPolicy::kExternalVp));
  EXPECT_FALSE(policy->remove_specific(
      b, SchedulingPolicy::kExternalVp));  // already removed
  EXPECT_EQ(policy->approx_size(), 2u);
  // The remaining pops never return b.
  const TaskPtr p1 = policy->pop(0);
  const TaskPtr p2 = policy->pop(1);
  EXPECT_TRUE((p1 == a && p2 == c) || (p1 == c && p2 == a));
}

TEST_P(PolicyTest, DrainsManyTasks) {
  auto policy = make_policy(GetParam(), 3);
  constexpr int kN = 1000;
  for (int i = 0; i < kN; ++i) policy->push(make_task(TaskId(i)), i % 3);
  int drained = 0;
  while (policy->pop(drained % 3) != nullptr) ++drained;
  EXPECT_EQ(drained, kN);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyTest,
                         ::testing::Values(PolicyKind::kFifo,
                                           PolicyKind::kLifo,
                                           PolicyKind::kWorkStealing),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(FifoPolicy, IsFirstInFirstOut) {
  auto policy = make_policy(PolicyKind::kFifo, 1);
  auto a = make_task(1);
  auto b = make_task(2);
  policy->push(a, 0);
  policy->push(b, 0);
  EXPECT_EQ(policy->pop(0), a);
  EXPECT_EQ(policy->pop(0), b);
}

TEST(LifoPolicy, IsLastInFirstOut) {
  auto policy = make_policy(PolicyKind::kLifo, 1);
  auto a = make_task(1);
  auto b = make_task(2);
  policy->push(a, 0);
  policy->push(b, 0);
  EXPECT_EQ(policy->pop(0), b);
  EXPECT_EQ(policy->pop(0), a);
}

TEST(WorkStealingPolicy, OwnerPopsLifoThiefStealsFifo) {
  WorkStealingPolicy policy(2);
  auto a = make_task(1);
  auto b = make_task(2);
  auto c = make_task(3);
  policy.push(a, 0);
  policy.push(b, 0);
  policy.push(c, 0);
  // Owner end: newest first.
  EXPECT_EQ(policy.pop(0), c);
  // Thief (VP 1): oldest first.
  EXPECT_EQ(policy.pop(1), a);
  EXPECT_GE(policy.steals(), 1u);
  EXPECT_GE(policy.steal_attempts(), policy.steals());
}

TEST(WorkStealingPolicy, StealCountersOnlyCountCrossDequeTakes) {
  WorkStealingPolicy policy(2);
  policy.push(make_task(1), 0);
  EXPECT_NE(policy.pop(0), nullptr);  // owner pop: not a steal
  EXPECT_EQ(policy.steals(), 0u);
}

TEST(WorkStealingPolicy, RejectsZeroVps) {
  EXPECT_THROW(WorkStealingPolicy(0), std::invalid_argument);
}

TaskPtr make_task_with_priority(TaskId id, Priority p) {
  TaskAttributes attr;
  attr.set_priority(p);
  return std::make_shared<Task>(
      id, [](void*) -> void* { return nullptr; }, nullptr, attr, kRootTaskId,
      1);
}

TEST(WorkStealingPolicy, OwnerPopServicesClassesInPriorityOrder) {
  WorkStealingPolicy policy(1);
  auto batch = make_task_with_priority(1, Priority::kBatch);
  auto high = make_task_with_priority(2, Priority::kHigh);
  auto normal = make_task_with_priority(3, Priority::kNormal);
  policy.push(batch, 0);
  policy.push(high, 0);
  policy.push(normal, 0);
  // Strict class order beats push order: high, then normal, then batch.
  EXPECT_EQ(policy.pop(0), high);
  EXPECT_EQ(policy.pop(0), normal);
  EXPECT_EQ(policy.pop(0), batch);
}

TEST(WorkStealingPolicy, ThiefSweepsHighClassAcrossVictimsFirst) {
  WorkStealingPolicy policy(3);
  auto batch0 = make_task_with_priority(1, Priority::kBatch);
  auto high1 = make_task_with_priority(2, Priority::kHigh);
  policy.push(batch0, 0);  // victim 0 has only batch work
  policy.push(high1, 1);   // victim 1 has high work
  // VP 2 steals: the class-major sweep must take victim 1's high task
  // before victim 0's batch task, whatever the round-robin seed.
  EXPECT_EQ(policy.pop(2), high1);
  EXPECT_EQ(policy.pop(2), batch0);
}

TEST(WorkStealingPolicy, ExternalQueueHonorsClasses) {
  WorkStealingPolicy policy(1);
  auto batch = make_task_with_priority(1, Priority::kBatch);
  auto high = make_task_with_priority(2, Priority::kHigh);
  policy.push(batch, SchedulingPolicy::kExternalVp);
  policy.push(high, SchedulingPolicy::kExternalVp);
  EXPECT_EQ(policy.pop(SchedulingPolicy::kExternalVp), high);
  EXPECT_EQ(policy.pop(SchedulingPolicy::kExternalVp), batch);
}

TEST(WorkStealingPolicy, SameClassKeepsLifoOwnerFifoThief) {
  WorkStealingPolicy policy(2);
  auto a = make_task_with_priority(1, Priority::kHigh);
  auto b = make_task_with_priority(2, Priority::kHigh);
  policy.push(a, 0);
  policy.push(b, 0);
  EXPECT_EQ(policy.pop(0), b);  // owner: newest of the class first
  EXPECT_EQ(policy.pop(1), a);  // thief: oldest of the class first
}

}  // namespace
