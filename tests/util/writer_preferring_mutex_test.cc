#include "util/writer_preferring_mutex.h"

#include <atomic>
#include <chrono>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>

#include <gtest/gtest.h>

namespace nsky::util {
namespace {

using Shared = std::shared_lock<WriterPreferringMutex>;
using Exclusive = std::unique_lock<WriterPreferringMutex>;

TEST(WriterPreferringMutex, ReadersShare) {
  WriterPreferringMutex mu;
  Shared a(mu);
  ASSERT_TRUE(mu.try_lock_shared());
  mu.unlock_shared();
}

TEST(WriterPreferringMutex, WaitingWriterRunsBeforeLaterReader) {
  WriterPreferringMutex mu;
  std::mutex log_mu;
  std::string log;
  auto append = [&](char c) {
    std::lock_guard<std::mutex> lock(log_mu);
    log.push_back(c);
  };

  Shared first(mu);
  std::thread writer([&] {
    Exclusive lock(mu);
    append('W');
  });
  // The writer waits from the moment it owns the turnstile, which is
  // exactly when a new reader can no longer enter.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool writer_waiting = false;
  while (!writer_waiting && std::chrono::steady_clock::now() < deadline) {
    writer_waiting = !mu.try_lock_shared();
    if (!writer_waiting) {
      mu.unlock_shared();
      std::this_thread::yield();
    }
  }
  EXPECT_TRUE(writer_waiting) << "readers still enter past a waiting writer";

  std::atomic<bool> reader_in{false};
  std::thread reader([&] {
    Shared lock(mu);
    reader_in.store(true);
    append('R');
  });
  // A reader-preferring lock would admit the second reader right away,
  // beside the first one.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(reader_in.load());

  first.unlock();
  writer.join();
  reader.join();
  EXPECT_EQ(log, "WR");
}

TEST(WriterPreferringMutex, WritersExcludeEachOtherAndReaders) {
  WriterPreferringMutex mu;
  int value = 0;
  std::atomic<int> torn{0};
  std::thread writers[2];
  for (std::thread& w : writers) {
    w = std::thread([&] {
      for (int i = 0; i < 2000; ++i) {
        Exclusive lock(mu);
        ++value;
        ++value;
      }
    });
  }
  std::thread reader([&] {
    for (int i = 0; i < 2000; ++i) {
      Shared lock(mu);
      if (value % 2 != 0) torn.fetch_add(1);
    }
  });
  for (std::thread& w : writers) w.join();
  reader.join();
  EXPECT_EQ(value, 8000);
  EXPECT_EQ(torn.load(), 0);
}

}  // namespace
}  // namespace nsky::util
