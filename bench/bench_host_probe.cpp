// Host-speed probe for the wall-clock gates in scripts/bench.sh.
//
// Shared hosts change speed for minutes at a time, by more than the 20%
// budget the sim-ops/s floors allow. bench.sh runs this probe before and
// after each timed batch and scales the batch's rate by the probe's time
// over the probe time stored with the baseline, so a slow spell on the
// host does not read as a simulator regression.
//
// The probe is a fixed loop shaped like the simulator's hot path: a heap
// of timed events, a decimal key built and hashed per event, a table
// probe and a branch on the event kind. Its buffers are sized before the
// clock starts, so the timed loop allocates nothing, and it lives apart
// from src/ so no simulator change moves it. Prints the fastest of three
// passes in milliseconds.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace {

struct Event {
  uint64_t t;
  uint32_t kind;
  uint32_t key;
};

bool later(const Event& a, const Event& b) { return a.t > b.t; }

double pass_ms(std::vector<Event>& heap, std::vector<uint64_t>& table) {
  uint64_t x = 0x2545'f491'4f6c'dd1dull;
  auto rnd = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  heap.clear();
  for (uint32_t i = 0; i < 4096; ++i) {
    heap.push_back(Event{rnd() % 100'000, i % 4, (uint32_t)rnd()});
    std::push_heap(heap.begin(), heap.end(), later);
  }
  uint64_t acc = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (uint32_t n = 0; n < 400'000; ++n) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const Event e = heap.back();
    heap.pop_back();
    char key[16];
    uint64_t id = e.key;
    for (int i = 15; i >= 1; --i, id /= 10) key[i] = (char)('0' + id % 10);
    key[0] = 'k';
    uint64_t h = 14695981039346656037ull;  // FNV-1a
    for (const char c : key) h = (h ^ (uint8_t)c) * 1099511628211ull;
    uint64_t& slot = table[h & (table.size() - 1)];
    switch (e.kind) {
      case 0: slot += e.t; break;
      case 1: acc += slot; break;
      case 2: slot ^= h; break;
      default: acc ^= slot >> 3; break;
    }
    heap.push_back(Event{e.t + 1 + rnd() % 1000, (e.kind + 1) % 4,
                         (uint32_t)rnd()});
    std::push_heap(heap.begin(), heap.end(), later);
  }
  const auto t1 = std::chrono::steady_clock::now();
  volatile uint64_t sink = acc;  // keep the loop's work observable
  (void)sink;
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace

int main() {
  std::vector<Event> heap;
  heap.reserve(8192);
  std::vector<uint64_t> table(1u << 18, 0);
  double best = pass_ms(heap, table);
  for (int i = 0; i < 2; ++i) best = std::min(best, pass_ms(heap, table));
  std::printf("%.3f\n", best);
  return 0;
}
