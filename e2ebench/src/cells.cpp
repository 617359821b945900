#include "cells.hpp"

#include <cstdio>
#include <utility>

namespace e2e {

namespace {

constexpr const char* kPaperMachines[] = {"phytium2000", "thunderx2",
                                          "kunpeng920"};

// Machine (0-2 paper, 3 = hier256) and fault family of block slot @p s:
// 4 slots on hier256, the rest spread over the paper machines, and 16 of
// the first 64 slots faulted, 4 of each family.
int slot_machine(int s) { return s < 4 ? 3 : (s - 4) % 3; }
int slot_fault(int s) { return s % 4 == 1 && s < 64 ? 1 + (s / 4) % 4 : 0; }

// Value of stratum @p stratum (of @p strata) of [lo, hi], jittered inside
// the stratum by @p rng: a block draws each stratum exactly once.
int stratified(Rng& rng, int stratum, int strata, int lo, int hi) {
  const int span = hi - lo + 1;
  return lo + (stratum * span + static_cast<int>(rng.below(
                                    static_cast<std::uint64_t>(span)))) /
                  strata;
}

// Append ", \"name\": v.v" with v given in tenths.
void tenths(std::string& out, const char* name, int v10) {
  char buf[64];
  std::snprintf(buf, sizeof buf, ", \"%s\": %d.%d", name, v10 / 10, v10 % 10);
  out += buf;
}

void hundredths(std::string& out, const char* name, int v100) {
  char buf[64];
  std::snprintf(buf, sizeof buf, ", \"%s\": %d.%02d", name, v100 / 100,
                v100 % 100);
  out += buf;
}

}  // namespace

const std::vector<std::string>& sim_algos() {
  static const std::vector<std::string> names = {
      "sense", "gcc-sense", "dis",   "cmb",    "mcs",      "tour",
      "stour", "stour-pad", "stour-pad4", "dtour", "hyper", "opt",
      "hybrid", "nway-dis", "ring", "amo",    "central2"};
  return names;
}

std::uint64_t fnv1a(const char* data, std::size_t n,
                    std::uint64_t h) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string job_line(const Cell& c) {
  std::string out = "{\"machine\": \"" + c.machine + "\", \"algo\": \"" +
                    c.algo + "\", \"threads\": " + std::to_string(c.threads) +
                    ", \"iterations\": " + std::to_string(c.iterations) +
                    ", \"placement\": \"" +
                    (c.scatter ? "scatter" : "compact") + "\"";
  switch (c.fault) {
    case FaultKind::kNone:
      break;
    case FaultKind::kNoise:
      tenths(out, "noise_period_us", c.a10);
      tenths(out, "noise_duration_us", c.b10);
      break;
    case FaultKind::kBurst:
      tenths(out, "burst_interval_us", c.a10);
      tenths(out, "burst_duration_us", c.b10);
      break;
    case FaultKind::kStragglerDwell:
      hundredths(out, "straggler_fraction", c.a10);
      tenths(out, "straggler_slowdown", c.b10);
      tenths(out, "straggler_dwell_us", c.c10);
      break;
    case FaultKind::kLinkFlap:
      out += ", \"link_min_layer\": 1";
      tenths(out, "link_factor", c.a10);
      tenths(out, "link_flap_interval_us", c.b10);
      tenths(out, "link_flap_duration_us", c.c10);
      break;
  }
  if (c.fault != FaultKind::kNone)
    out += ", \"fault_seed\": " + std::to_string(c.fault_seed);
  out += "}";
  return out;
}

CellGenerator::CellGenerator(std::uint64_t seed) : rng_(seed) {}

void CellGenerator::refill() {
  // Four independent shuffles: which slot (machine, fault), algorithm,
  // thread stratum and iteration stratum each cell of the block gets.
  block_.clear();
  const std::vector<std::uint32_t> slot = permutation(rng_, kBlock);
  const std::vector<std::uint32_t> algo = permutation(rng_, kBlock);
  const std::vector<std::uint32_t> threads = permutation(rng_, kBlock);
  const std::vector<std::uint32_t> iters = permutation(rng_, kBlock);
  for (std::size_t i = 0; i < kBlock; ++i)
    block_.push_back({static_cast<int>(slot[i]), static_cast<int>(algo[i]),
                      static_cast<int>(threads[i]),
                      static_cast<int>(iters[i])});
  pos_ = 0;
}

Cell CellGenerator::next() {
  constexpr int kStratifiedAttempts = 8;
  int attempt = 0;
  for (;;) {
    if (pos_ == block_.size()) refill();
    const Slot& slot = block_[pos_];
    Cell c;
    const int machine = slot_machine(slot.kind);
    c.machine = machine == 3 ? "hier256" : kPaperMachines[machine];
    c.fault = static_cast<FaultKind>(slot_fault(slot.kind));
    c.algo = sim_algos()[static_cast<std::size_t>(slot.algo) %
                         sim_algos().size()];
    if (attempt++ < kStratifiedAttempts) {
      c.threads = stratified(rng_, slot.threads / 4, kBlock / 4, 4, 64);
      c.iterations = stratified(rng_, slot.iterations / 4, kBlock / 4, 10, 40);
    } else {  // the slot's strata are used up: draw from the whole range
      c.threads = rng_.range(4, 64);
      c.iterations = rng_.range(10, 40);
    }
    c.scatter = rng_.below(2) == 1;
    switch (c.fault) {
      case FaultKind::kNone:
        break;
      case FaultKind::kNoise:  // period 20-80 us, pulse 1-4 us
        c.a10 = rng_.range(200, 800);
        c.b10 = rng_.range(10, 40);
        break;
      case FaultKind::kBurst:  // mean gap 30-120 us, burst 2-6 us
        c.a10 = rng_.range(300, 1200);
        c.b10 = rng_.range(20, 60);
        break;
      case FaultKind::kStragglerDwell:  // 5-30 % slow, x1.5-4, dwell 5-50 us
        c.a10 = rng_.range(5, 30);
        c.b10 = rng_.range(15, 40);
        c.c10 = rng_.range(50, 500);
        break;
      case FaultKind::kLinkFlap:  // x1.5-3 for 5-20 us every 20-100 us
        c.a10 = rng_.range(15, 30);
        c.b10 = rng_.range(200, 1000);
        c.c10 = rng_.range(50, 200);
        break;
    }
    if (c.fault != FaultKind::kNone) c.fault_seed = rng_.below(1u << 30);
    // A repeated draw keeps its block slot and redraws the rest, so the
    // composition holds.
    const std::string line = job_line(c);
    if (!seen_.insert(fnv1a(line.data(), line.size())).second) continue;
    ++pos_;
    return c;
  }
}

std::vector<std::int64_t> poisson_schedule(std::uint64_t seed,
                                           double rate_per_s,
                                           std::size_t count) {
  Rng rng = stream(seed, kSchedulePurpose);
  const double mean_gap_ns = 1e9 / rate_per_s;
  std::vector<std::int64_t> due;
  due.reserve(count);
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    t += rng.exponential(mean_gap_ns);
    due.push_back(static_cast<std::int64_t>(t));
  }
  return due;
}

std::vector<std::uint32_t> permutation(Rng& rng, std::size_t n) {
  std::vector<std::uint32_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = static_cast<std::uint32_t>(i);
  for (std::size_t i = n; i > 1; --i)
    std::swap(p[i - 1], p[rng.below(i)]);
  return p;
}

}  // namespace e2e
