// Allocation regression test for the SWF ingest path: once the credential
// names are interned and the line and spec buffers have grown, SwfSource
// must turn each record into a reused SubmitSpec without touching the
// heap. It is an executable of its own because it replaces the global
// operator new to count calls.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "workload/swf/swf_gen.hpp"
#include "workload/swf/swf_source.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace dbs::wl::swf {
namespace {

TEST(SwfIngestAllocations, NonePerRecordAfterWarmUp) {
  SwfGenParams gen;
  gen.jobs = 10000;
  gen.seed = 5;
  SwfGenStream trace(gen);
  SwfSourceConfig config;
  config.overlay_dynamic_fraction = 0.01;
  SwfSource source(trace, config);
  SubmitSpec spec;
  constexpr std::uint64_t kWarmUp = 1024;
  for (std::uint64_t i = 0; i < kWarmUp; ++i) ASSERT_TRUE(source.next(spec));

  const std::uint64_t before = g_allocations.load();
  std::uint64_t records = 0;
  while (source.next(spec)) ++records;
  const std::uint64_t allocations = g_allocations.load() - before;

  ASSERT_EQ(records, gen.jobs - kWarmUp);
  EXPECT_EQ(allocations, 0u)
      << static_cast<double>(allocations) / static_cast<double>(records)
      << " allocations per record";
}

}  // namespace
}  // namespace dbs::wl::swf
