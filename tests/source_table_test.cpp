// SourceTable: the process-wide source-name ids every Observation carries.
// Labeled `pipeline` so the TSan job runs the concurrent stress case.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "feeds/source_table.hpp"

namespace artemis::feeds {
namespace {

TEST(SourceTableTest, IdZeroIsTheEmptyName) {
  SourceTable table;
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.name(kNoSource), "");
  EXPECT_EQ(table.intern(""), kNoSource);
  EXPECT_EQ(SourceTable::global().name(kNoSource), "");
}

TEST(SourceTableTest, InternIsIdempotentAndDense) {
  SourceTable table;
  const SourceId ris = table.intern("ris-live");
  const SourceId bgpmon = table.intern("bgpmon");
  EXPECT_EQ(ris, 1u);
  EXPECT_EQ(bgpmon, 2u);
  EXPECT_EQ(table.intern("ris-live"), ris);
  EXPECT_EQ(table.intern(std::string("bgp") + "mon"), bgpmon);
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.name(ris), "ris-live");
  EXPECT_EQ(table.name(bgpmon), "bgpmon");
}

TEST(SourceTableTest, NamesSurviveGrowth) {
  // A view name() returned must stay valid while later interns grow the
  // table: the name read back is the one stored, at the same address.
  SourceTable table;
  std::vector<std::string_view> first_reads;
  for (int i = 0; i < 2000; ++i) {
    const SourceId id = table.intern("mrt:AS" + std::to_string(i));
    ASSERT_EQ(id, static_cast<SourceId>(i + 1));
    first_reads.push_back(table.name(id));
  }
  for (int i = 0; i < 2000; ++i) {
    const auto id = static_cast<SourceId>(i + 1);
    EXPECT_EQ(table.name(id), "mrt:AS" + std::to_string(i));
    EXPECT_EQ(table.name(id).data(), first_reads[static_cast<std::size_t>(i)].data());
  }
}

TEST(SourceTableTest, ConcurrentInternAndNameAgree) {
  // Writers intern overlapping name sets while readers resolve every id
  // published so far. Under TSan this proves intern() and name() are
  // race-free; in any build it proves every writer got the same id for
  // the same name.
  SourceTable table;
  constexpr int kWriters = 3;
  constexpr int kNames = 1499;  // prime: every stride below walks all names
  std::atomic<bool> done{false};
  std::vector<std::vector<SourceId>> ids(kWriters, std::vector<SourceId>(kNames));
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&table, &ids, w] {
      // Each writer walks the names in its own order.
      for (int k = 0; k < kNames; ++k) {
        const int n = (k * (2 * w + 1) + w * 97) % kNames;
        ids[static_cast<std::size_t>(w)][static_cast<std::size_t>(n)] =
            table.intern("src-" + std::to_string(n));
      }
    });
  }
  std::atomic<std::size_t> reads{0};
  std::thread reader([&table, &done, &reads] {
    while (!done.load(std::memory_order_acquire)) {
      const std::size_t size = table.size();
      for (std::size_t id = 1; id < size; ++id) {
        const std::string_view name = table.name(static_cast<SourceId>(id));
        ASSERT_EQ(name.substr(0, 4), "src-");
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  for (auto& thread : threads) thread.join();
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(table.size(), static_cast<std::size_t>(kNames) + 1);
  for (int n = 0; n < kNames; ++n) {
    const SourceId id = ids[0][static_cast<std::size_t>(n)];
    for (int w = 1; w < kWriters; ++w) {
      EXPECT_EQ(ids[static_cast<std::size_t>(w)][static_cast<std::size_t>(n)], id);
    }
    EXPECT_EQ(table.name(id), "src-" + std::to_string(n));
  }
}

}  // namespace
}  // namespace artemis::feeds
