// Persist adds no heap allocations to a callout.
//
// Every callout boundary commits a journal frame: the engine encodes its
// image and report delta, the manager frames them with the store ops the
// mutation observer recorded, and one write(2) hands the frame to the
// kernel. Once the encode buffers have grown to their working size none of
// that may allocate. This binary counts every global operator new (the
// override below is linked into this test only), replays a steady-state
// stretch of the agent-churn workload (governed tool calls under session
// churn, specs/agent_governance.osg + specs/bounded_store.osg) with persist
// attached and with it detached, and requires the two counts to be equal.
// Snapshots are off: a snapshot is snapshot-sized work by design.
//
// Runs under the `persist` label, so the persist sanitizer sweep runs it too.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "src/persist/persist.h"
#include "src/sim/kernel.h"
#include "src/support/logging.h"
#include "src/wl/sessiongen.h"

#ifndef OSGUARD_SPECS_DIR
#define OSGUARD_SPECS_DIR "specs"
#endif

namespace {
std::atomic<uint64_t> g_allocs{0};

void* CountedAlloc(std::size_t size, std::size_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) {
    size = 1;
  }
  if (align <= alignof(std::max_align_t)) {
    return std::malloc(size);
  }
  return std::aligned_alloc(align, (size + align - 1) / align * align);
}

void* CountedNew(std::size_t size, std::size_t align = alignof(std::max_align_t)) {
  if (void* p = CountedAlloc(size, align)) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace

// Every replaceable form, so that no block comes from one allocator and
// goes back to another (the sanitizer build checks that).
void* operator new(std::size_t size) { return CountedNew(size); }
void* operator new[](std::size_t size) { return CountedNew(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedNew(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedNew(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace osguard {
namespace {

namespace fs = std::filesystem;

std::string ReadSpec(const std::string& name) {
  std::ifstream in(std::string(OSGUARD_SPECS_DIR) + "/" + name);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

struct ChurnCount {
  uint64_t allocs = 0;    // allocations in the measured half
  uint64_t callouts = 0;  // callouts in the measured half
  uint64_t frames = 0;    // journal frames over the whole run
};

// Replays `trace` through a kernel, persist attached when `dir` is set.
// The first half of the calls warms every buffer up; allocations are
// counted over the second half: each session end due before a call, then
// the call's callout (Kernel::Run to its time + Kernel::OnToolCall).
ChurnCount Replay(const SessionChurnTrace& trace, const fs::path* dir) {
  ChurnCount count;
  Kernel kernel;
  // Declared after the kernel so it goes first: it detaches from the
  // kernel's store on destruction.
  std::unique_ptr<PersistManager> persist;
  if (dir != nullptr) {
    PersistOptions options;
    options.dir = dir->string();
    options.snapshot_interval = 0;
    options.journal_budget = 0;
    persist = std::make_unique<PersistManager>(options);
    kernel.AttachPersist(persist.get());
    EXPECT_TRUE(persist->Open().ok());
  }
  for (const char* spec : {"agent_governance.osg", "bounded_store.osg"}) {
    EXPECT_TRUE(kernel.LoadGuardrails(ReadSpec(spec)).ok()) << spec;
  }
  const size_t half = trace.calls.size() / 2;
  size_t end_cursor = 0;
  uint64_t before = 0;
  for (size_t i = 0; i < trace.calls.size(); ++i) {
    if (i == half) {
      before = g_allocs.load(std::memory_order_relaxed);
    }
    const agent::ToolCallEvent& call = trace.calls[i];
    while (end_cursor < trace.ends.size() && trace.ends[end_cursor].at <= call.at) {
      kernel.OnSessionEnd(trace.ends[end_cursor].session);
      ++end_cursor;
    }
    kernel.Run(call.at);
    kernel.OnToolCall(call);
  }
  count.allocs = g_allocs.load(std::memory_order_relaxed) - before;
  count.callouts = trace.calls.size() - half;
  if (persist != nullptr) {
    EXPECT_EQ(persist->stats().snapshots_written, 0u);
    count.frames = persist->stats().frames_committed;
  }
  return count;
}

TEST(PersistAlloc, AttachedAddsNoAllocationsPerCallout) {
  Logger::Global().set_level(LogLevel::kOff);
  SessionWorkloadOptions options;
  options.duration = Milliseconds(500);
  options.sessions_per_sec = 500.0;
  const SessionChurnTrace trace = SessionCallGenerator(options, 1).GenerateChurn();
  ASSERT_GT(trace.calls.size(), 1000u);

  const fs::path dir = fs::path(::testing::TempDir()) / "osguard-persist-alloc";
  fs::remove_all(dir);
  const ChurnCount detached = Replay(trace, nullptr);
  const ChurnCount attached = Replay(trace, &dir);
  fs::remove_all(dir);

  // Every callout commits a frame, so the attached run did persist work.
  EXPECT_GE(attached.frames, trace.calls.size());
  ASSERT_EQ(attached.callouts, detached.callouts);
  // The detached run still allocates (agent state is per session); the
  // gate is the difference.
  EXPECT_GT(detached.allocs, 0u);
  const double added = (static_cast<double>(attached.allocs) -
                        static_cast<double>(detached.allocs)) /
                       static_cast<double>(attached.callouts);
  EXPECT_EQ(attached.allocs, detached.allocs)
      << "persist adds " << added << " allocations per callout (" << attached.allocs
      << " attached, " << detached.allocs << " detached, over " << attached.callouts
      << " callouts)";
}

}  // namespace
}  // namespace osguard
