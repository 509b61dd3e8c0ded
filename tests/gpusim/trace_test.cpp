#include "gpusim/trace.hpp"

#include <gtest/gtest.h>

#include <array>
#include <sstream>

#include "gpusim/device.hpp"

namespace harmonia::gpusim {
namespace {

DeviceSpec tiny_spec() {
  DeviceSpec spec = titan_v();
  spec.num_sms = 2;
  spec.global_mem_bytes = 16 << 20;
  return spec;
}

TEST(Trace, DisabledRecordsNothing) {
  Device dev(tiny_spec());
  dev.launch(2, [](WarpCtx& w) { w.compute(full_mask(32)); });
  EXPECT_TRUE(dev.trace().events().empty());
}

TEST(Trace, RecordsComputeAndLoadEvents) {
  Device dev(tiny_spec());
  auto data = dev.memory().malloc<std::uint64_t>(64);
  dev.trace().enable();
  dev.launch(1, [&](WarpCtx& w) {
    w.compute(full_mask(32));
    const std::array<LaneRow, 1> row{{{data.element_addr(0), 0, 32}}};
    w.touch(row, 8);
  });
  const auto& events = dev.trace().events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, TraceEventKind::kCompute);
  EXPECT_EQ(events[0].mask, full_mask(32));
  EXPECT_GT(events[0].cycles, 0u);
  EXPECT_EQ(events[1].kind, TraceEventKind::kLoad);
  EXPECT_EQ(events[1].mask, full_mask(32));  // the row's lanes
  EXPECT_GE(events[1].transactions, 2u);  // 256 B of u64
  EXPECT_EQ(events[1].served_by, ServedBy::kDram);  // cold caches
}

TEST(Trace, SecondAccessServedByCache) {
  Device dev(tiny_spec());
  auto data = dev.memory().malloc<std::uint64_t>(16);
  const std::array<LaneRow, 1> row{{{data.element_addr(0), 0, 16}}};
  dev.trace().enable();
  dev.launch(1, [&](WarpCtx& w) {
    w.touch(row, 8);
    w.touch(row, 8);
  });
  const auto& events = dev.trace().events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].served_by, ServedBy::kDram);
  EXPECT_EQ(events[1].served_by, ServedBy::kReadOnly);
}

TEST(Trace, ConstantAccessTagged) {
  Device dev(tiny_spec());
  auto data = dev.memory().const_malloc<std::uint32_t>(8);
  const std::array<LaneRow, 1> row{{{data.element_addr(0), 0, 8}}};
  dev.trace().enable();
  dev.launch(1, [&](WarpCtx& w) {
    w.touch(row, 4);
    w.touch(row, 4);
  });
  ASSERT_EQ(dev.trace().events().size(), 2u);
  EXPECT_EQ(dev.trace().events()[1].served_by, ServedBy::kConst);
}

TEST(Trace, CapacityBoundsAndCountsDropped) {
  Device dev(tiny_spec());
  dev.trace().enable(/*capacity=*/3);
  dev.launch(1, [](WarpCtx& w) {
    for (int i = 0; i < 10; ++i) w.compute(full_mask(32));
  });
  EXPECT_EQ(dev.trace().events().size(), 3u);
  EXPECT_EQ(dev.trace().dropped(), 7u);
}

TEST(Trace, StoreEventsTagged) {
  Device dev(tiny_spec());
  auto data = dev.memory().malloc<std::uint64_t>(8);
  dev.trace().enable();
  dev.launch(1, [&](WarpCtx& w) {
    const std::array<LaneRow, 1> row{{{data.element_addr(0), 0, 8}}};
    std::array<std::uint64_t, 32> vals{};
    w.scatter<std::uint64_t>(row, vals);
  });
  ASSERT_EQ(dev.trace().events().size(), 1u);
  EXPECT_EQ(dev.trace().events()[0].kind, TraceEventKind::kStore);
}

TEST(Trace, DumpIsHumanReadable) {
  Device dev(tiny_spec());
  auto data = dev.memory().malloc<std::uint64_t>(8);
  dev.trace().enable(2);
  dev.launch(1, [&](WarpCtx& w) {
    w.compute(full_mask(32));
    const std::array<LaneRow, 1> row{{{data.element_addr(0), 0, 1}}};
    w.touch(row, 8);
    w.compute(full_mask(16));  // dropped (capacity 2)
  });
  std::ostringstream os;
  dev.trace().dump(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("compute"), std::string::npos);
  EXPECT_NE(s.find("load"), std::string::npos);
  EXPECT_NE(s.find("dram"), std::string::npos);
  EXPECT_NE(s.find("1 events dropped"), std::string::npos);
}

TEST(Trace, ClearKeepsEnabledState) {
  Trace trace;
  trace.enable(10);
  trace.record({});
  trace.clear();
  EXPECT_TRUE(trace.enabled());
  EXPECT_TRUE(trace.events().empty());
  EXPECT_EQ(trace.dropped(), 0u);
}

TEST(Trace, EnumNames) {
  EXPECT_STREQ(to_string(TraceEventKind::kCompute), "compute");
  EXPECT_STREQ(to_string(TraceEventKind::kLoad), "load");
  EXPECT_STREQ(to_string(TraceEventKind::kStore), "store");
  EXPECT_STREQ(to_string(ServedBy::kConst), "const");
  EXPECT_STREQ(to_string(ServedBy::kDram), "dram");
}

}  // namespace
}  // namespace harmonia::gpusim
