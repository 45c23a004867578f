#include "apar/concurrency/future.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

namespace acc = apar::concurrency;

TEST(Future, GetBlocksUntilValueDelivered) {
  acc::Promise<int> p;
  auto f = p.future();
  EXPECT_FALSE(f.ready());
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    p.set_value(5);
  });
  EXPECT_EQ(f.get(), 5);  // ABCL semantics: touching the future blocks
  EXPECT_TRUE(f.ready());
  producer.join();
}

TEST(Future, MultipleGetsReturnSameValue) {
  acc::Promise<std::string> p;
  auto f = p.future();
  p.set_value(std::string("x"));
  EXPECT_EQ(f.get(), "x");
  EXPECT_EQ(f.get(), "x");
}

TEST(Future, CopiesShareState) {
  acc::Promise<int> p;
  auto f1 = p.future();
  auto f2 = f1;
  p.set_value(9);
  EXPECT_EQ(f1.get(), 9);
  EXPECT_EQ(f2.get(), 9);
}

TEST(Future, ExceptionPropagates) {
  acc::Promise<int> p;
  auto f = p.future();
  p.set_exception(std::make_exception_ptr(std::runtime_error("err")));
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(Future, BrokenPromiseDetected) {
  acc::Future<int> f;
  {
    acc::Promise<int> p;
    f = p.future();
  }
  EXPECT_TRUE(f.ready());
  EXPECT_THROW(f.get(), acc::BrokenPromise);
}

TEST(Future, VoidSpecialization) {
  acc::Promise<void> p;
  auto f = p.future();
  EXPECT_FALSE(f.ready());
  p.set_value();
  EXPECT_NO_THROW(f.get());
}

TEST(Future, VoidExceptionPropagates) {
  acc::Promise<void> p;
  auto f = p.future();
  p.set_exception(std::make_exception_ptr(std::logic_error("bad")));
  EXPECT_THROW(f.get(), std::logic_error);
}

TEST(Future, DoubleDeliveryThrows) {
  acc::Promise<int> p;
  p.set_value(1);
  EXPECT_THROW(p.set_value(2), std::logic_error);
}

TEST(Future, DefaultConstructedIsInvalid) {
  acc::Future<int> f;
  EXPECT_FALSE(f.valid());
  EXPECT_THROW(f.get(), std::logic_error);
}

TEST(Future, WaitAllCollects) {
  std::vector<acc::Promise<int>> promises(3);
  std::vector<acc::Future<int>> futures;
  for (auto& p : promises) futures.push_back(p.future());
  std::thread t([&] {
    for (int i = 0; i < 3; ++i) promises[static_cast<size_t>(i)].set_value(i);
  });
  acc::wait_all(futures);
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(futures[static_cast<size_t>(i)].get(), i);
  t.join();
}
