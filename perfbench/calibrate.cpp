// Host-speed reference kernel for perfbench_driver.
//
// The benchmark runs on shared machines whose single-thread speed drifts by
// 10-30% over tens of seconds (noisy neighbours, frequency changes). Timing
// this fixed kernel right before and right after each repeat measures the
// host's speed at that moment, so run.py can report host times in
// reference-host seconds: raw time x (reference time / kernel time). The
// kernel is benchmark code, not simulator code: a change to the simulator
// cannot speed it up. Its mix resembles a discrete-event loop: pop and
// push on a binary heap of event times, plus a random read-modify-write
// into a 4 MiB table.
#include "calibrate.hpp"

#include <chrono>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace perfbench {

double calibrate() {
  constexpr int kSteps = 100000;
  static std::vector<std::uint64_t> table(1u << 19);
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<>>
      heap;
  std::uint64_t x = 88172645463325252ull;  // xorshift64 state
  for (std::uint64_t i = 0; i < 4096; ++i) heap.push(i);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kSteps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::uint64_t t = heap.top();
    heap.pop();
    heap.push(t + (x & 1023));
    table[x & (table.size() - 1)] += t;
  }
  const auto t1 = std::chrono::steady_clock::now();
  // Keep the table live so the loop cannot be dropped.
  volatile std::uint64_t sink = table[x & (table.size() - 1)];
  (void)sink;
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace perfbench
