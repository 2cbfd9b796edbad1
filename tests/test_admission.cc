// AdmissionController under concurrent shed: the concurrency cap holds
// under a storm, releases drain the wait queue one admission at a time,
// every shed carries the configured retry_after_ms hint, and the cheap
// command bypass (ping/stats/info/metrics) keeps working while the queue
// is full.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "graph/examples.h"
#include "graph/generators.h"
#include "graph/serialization.h"
#include "runtime/admission.h"
#include "runtime/service.h"

namespace gqd {
namespace {

TEST(AdmissionConcurrencyTest, StormNeverExceedsTheConcurrencyCap) {
  constexpr std::size_t kMaxConcurrent = 4;
  constexpr int kThreads = 32;
  AdmissionOptions options;
  options.max_concurrent = kMaxConcurrent;
  options.max_queue = 8;
  AdmissionController controller(options);

  std::atomic<int> active{0};
  std::atomic<int> peak_active{0};
  std::atomic<int> admitted{0};
  std::atomic<int> shed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&] {
      auto ticket = controller.Admit();
      if (!ticket.ok()) {
        EXPECT_EQ(ticket.status().code(), StatusCode::kUnavailable);
        shed.fetch_add(1);
        return;
      }
      int now = active.fetch_add(1) + 1;
      int seen = peak_active.load();
      while (now > seen && !peak_active.compare_exchange_weak(seen, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      active.fetch_sub(1);
      admitted.fetch_add(1);
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  EXPECT_LE(peak_active.load(), static_cast<int>(kMaxConcurrent));
  EXPECT_GE(peak_active.load(), 1);
  EXPECT_EQ(admitted.load() + shed.load(), kThreads);
  AdmissionStats stats = controller.GetStats();
  EXPECT_EQ(stats.admitted, static_cast<std::uint64_t>(admitted.load()));
  EXPECT_EQ(stats.shed, static_cast<std::uint64_t>(shed.load()));
  EXPECT_EQ(stats.active, 0u);
  EXPECT_EQ(stats.waiting, 0u);
}

TEST(AdmissionConcurrencyTest, ReleaseAdmitsExactlyOneWaiter) {
  constexpr int kWaiters = 4;
  AdmissionOptions options;
  options.max_concurrent = 1;
  options.max_queue = kWaiters;
  AdmissionController controller(options);

  auto holder = controller.Admit();
  ASSERT_TRUE(holder.ok());

  std::atomic<int> active{0};
  std::atomic<bool> cap_violated{false};
  std::atomic<int> drained{0};
  std::vector<std::thread> waiters;
  for (int t = 0; t < kWaiters; t++) {
    waiters.emplace_back([&] {
      auto ticket = controller.Admit();
      ASSERT_TRUE(ticket.ok()) << ticket.status();
      if (active.fetch_add(1) + 1 > 1) {
        cap_violated.store(true);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      active.fetch_sub(1);
      drained.fetch_add(1);
    });
  }

  // All four are queued behind the held slot; a fifth newcomer is shed.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (controller.GetStats().waiting <
             static_cast<std::size_t>(kWaiters) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(controller.GetStats().waiting,
            static_cast<std::size_t>(kWaiters));
  EXPECT_EQ(controller.Admit().status().code(), StatusCode::kUnavailable);

  // Releasing the slot drains the queue one admission per release: with a
  // single slot, the waiters run strictly one at a time.
  holder.value().Release();
  for (std::thread& waiter : waiters) {
    waiter.join();
  }
  EXPECT_FALSE(cap_violated.load());
  EXPECT_EQ(drained.load(), kWaiters);
  AdmissionStats stats = controller.GetStats();
  EXPECT_EQ(stats.queued, static_cast<std::uint64_t>(kWaiters));
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.waiting, 0u);
}

TEST(AdmissionConcurrencyTest, EveryShedCarriesTheConfiguredHint) {
  AdmissionOptions options;
  options.max_concurrent = 1;
  options.max_queue = 0;
  options.retry_after_ms = 35;
  AdmissionController controller(options);

  auto holder = controller.Admit();
  ASSERT_TRUE(holder.ok());
  std::uint64_t last_shed = 0;
  for (int i = 0; i < 16; i++) {
    auto shed = controller.Admit();
    ASSERT_FALSE(shed.ok());
    EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);
    // The hint is stable across sheds — clients backing off per the hint
    // never see it shrink mid-overload.
    EXPECT_EQ(controller.retry_after_ms(), 35);
    std::uint64_t count = controller.GetStats().shed;
    EXPECT_GT(count, last_shed);  // shed counter is strictly monotone
    last_shed = count;
  }
}

// --- Bypass under saturation (service level) ----------------------------

/// A service with one admission slot plus a hard krem instance to hold it,
/// driven through HandleLine directly (no sockets needed).
class AdmissionBypassTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServiceOptions options;
    options.admission.max_concurrent = 1;
    options.admission.max_queue = 2;
    options.admission.retry_after_ms = 25;
    service_ = std::make_unique<QueryService>(options);

    service_->registry().Register("fig1", Figure1Graph());
    RandomGraphOptions graph_options;
    graph_options.num_nodes = 12;
    graph_options.num_labels = 2;
    graph_options.num_data_values = 6;
    graph_options.edge_percent = 25;
    graph_options.seed = 7;
    DataGraph g = RandomDataGraph(graph_options);
    relation_text_ =
        WriteRelationText(g, RandomRelation(g.NumNodes(), 30, 11));
    service_->registry().Register("hard", std::move(g));
  }

  std::string Handle(const std::string& line) {
    bool shutdown = false;
    return service_->HandleLine(line, &shutdown);
  }

  std::string SlowCheckRequest(double deadline_ms) {
    JsonValue::Object request;
    request.emplace_back("cmd", "check");
    request.emplace_back("graph", "hard");
    request.emplace_back("checker", "krem");
    request.emplace_back("k", 3.0);
    request.emplace_back("relation", relation_text_);
    request.emplace_back("deadline_ms", deadline_ms);
    return JsonValue(std::move(request)).Serialize();
  }

  bool WaitForSaturation(std::size_t active, std::size_t waiting) {
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
      AdmissionStats stats = service_->admission_stats();
      if (stats.active >= active && stats.waiting >= waiting) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }

  std::unique_ptr<QueryService> service_;
  std::string relation_text_;
};

TEST_F(AdmissionBypassTest, CheapCommandsBypassAFullQueue) {
  // One request holds the slot and two more fill the entire wait queue.
  std::vector<std::thread> heavy;
  for (int i = 0; i < 3; i++) {
    heavy.emplace_back([this] { (void)Handle(SlowCheckRequest(500.0)); });
  }
  ASSERT_TRUE(WaitForSaturation(1, 2));

  // Heavy work beyond the queue is shed with the hint...
  std::string shed = Handle(
      R"({"cmd":"eval","graph":"fig1","language":"rpq","query":"a"})");
  EXPECT_NE(shed.find("\"ok\":false"), std::string::npos) << shed;
  EXPECT_NE(shed.find("\"retry_after_ms\":25"), std::string::npos) << shed;

  // ...while health checks and introspection cut straight through.
  std::string pong = Handle(R"({"cmd":"ping"})");
  EXPECT_NE(pong.find("\"pong\":true"), std::string::npos) << pong;
  std::string stats = Handle(R"({"cmd":"stats"})");
  EXPECT_NE(stats.find("\"ok\":true"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"admission\""), std::string::npos) << stats;
  std::string info = Handle(R"({"cmd":"info","graph":"fig1"})");
  EXPECT_NE(info.find("\"ok\":true"), std::string::npos) << info;
  std::string metrics = Handle(R"({"cmd":"metrics"})");
  EXPECT_NE(metrics.find("\"ok\":true"), std::string::npos) << metrics;

  // The saturation reading taken mid-storm was consistent: one active,
  // both queue seats taken, and at least one shed recorded.
  AdmissionStats mid = service_->admission_stats();
  EXPECT_GE(mid.shed, 1u);

  for (std::thread& thread : heavy) {
    thread.join();
  }
  AdmissionStats final_stats = service_->admission_stats();
  EXPECT_EQ(final_stats.active, 0u);
  EXPECT_EQ(final_stats.waiting, 0u);
  EXPECT_EQ(final_stats.admitted, 3u);
  EXPECT_EQ(final_stats.queued, 2u);
}

}  // namespace
}  // namespace gqd
