#include "probes.hpp"

#include <random>

#include "fc/frame.hpp"
#include "myrinet/control.hpp"
#include "myrinet/framing.hpp"
#include "myrinet/packet.hpp"
#include "phy/serdes.hpp"

namespace perfbench {

namespace hc = hsfi::core;
namespace link = hsfi::link;

namespace {

constexpr std::uint8_t kPayloadFill = 0x5A;  // the workload's payload fill

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::vector<std::uint8_t> random_bytes(std::mt19937_64& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

}  // namespace

Frames myrinet_frames(std::size_t payload, std::size_t count,
                      std::uint64_t seed) {
  namespace my = hsfi::myrinet;
  std::mt19937_64 rng(seed);
  Frames frames;
  for (std::size_t i = 0; i < count; ++i) {
    my::Packet p;
    p.route = {my::route_to_host(static_cast<std::uint8_t>(1 + i % 2))};
    // IP/UDP-sized header ahead of the fill payload.
    p.payload = random_bytes(rng, 28);
    p.payload.insert(p.payload.end(), payload, kPayloadFill);
    auto symbols = my::frame_symbols(my::serialize(p));
    if (i % 4 == 3) {
      symbols.push_back(my::to_symbol(my::ControlSymbol::kStop));
      symbols.push_back(my::to_symbol(my::ControlSymbol::kGo));
    }
    frames.push_back(std::move(symbols));
  }
  return frames;
}

Frames fc_frames(std::size_t chunk, std::size_t count, std::uint64_t seed) {
  namespace fc = hsfi::fc;
  std::mt19937_64 rng(seed);
  Frames frames;
  for (std::size_t i = 0; i < count; ++i) {
    fc::FcFrame f;
    f.header.d_id = static_cast<std::uint32_t>(rng()) & 0xFFFFFF;
    f.header.s_id = static_cast<std::uint32_t>(rng()) & 0xFFFFFF;
    f.header.seq_cnt = static_cast<std::uint16_t>(i);
    f.payload.assign(chunk, kPayloadFill);
    f.sof = i % 4 == 0 ? fc::OrderedSet::kSofI3 : fc::OrderedSet::kSofN3;
    f.eof = i % 4 == 3 ? fc::OrderedSet::kEofT : fc::OrderedSet::kEofN;
    auto symbols = fc::frame_to_symbols(f);
    for (const auto os : {fc::OrderedSet::kRRdy, fc::OrderedSet::kIdle}) {
      const auto set = fc::ordered_set_symbol_array(os);
      symbols.insert(symbols.end(), set.begin(), set.end());
    }
    frames.push_back(std::move(symbols));
  }
  return frames;
}

ProbeResult probe_clock_burst(const hc::FifoInjector::Params& params,
                              const hc::InjectorConfig& config,
                              const Frames& frames, double min_seconds) {
  ProbeResult r;
  hc::FifoInjector injector(params);
  injector.config() = config;
  const bool delay_line = config.match_mode == hc::MatchMode::kOff;

  // Checked pass: characters are conserved, and with the match mode off
  // the output is the input, delayed.
  std::vector<link::Symbol> in_all, out_all;
  hc::FifoInjector::BatchResult batch;
  for (const auto& f : frames) {
    injector.clock_burst(f, batch);
    in_all.insert(in_all.end(), f.begin(), f.end());
    out_all.insert(out_all.end(), batch.out.begin(), batch.out.end());
  }
  if (out_all.size() + injector.occupancy() != in_all.size() ||
      injector.stats().characters != in_all.size()) {
    r.error = "clock_burst lost or invented characters";
    return r;
  }
  if (delay_line &&
      !std::equal(out_all.begin(), out_all.end(), in_all.begin())) {
    r.error = "unarmed clock_burst altered the stream";
    return r;
  }

  const auto start = std::chrono::steady_clock::now();
  double elapsed = 0.0;
  do {
    for (const auto& f : frames) {
      injector.clock_burst(f, batch);
      r.units += f.size();
    }
    elapsed = seconds_since(start);
  } while (elapsed < min_seconds);
  r.ns_per_unit = elapsed * 1e9 / static_cast<double>(r.units);
  return r;
}

ProbeResult probe_serdes(const Frames& frames, double min_seconds) {
  namespace phy = hsfi::phy;
  ProbeResult r;
  phy::FcWireStream wire;
  phy::FcDecodedStream decoded;
  for (const auto& f : frames) {
    phy::FcSerdes::encode_into(f, wire);
    phy::FcSerdes::decode_into(wire, decoded);
    if (decoded.symbols != f || decoded.code_violations != 0 ||
        decoded.disparity_errors != 0) {
      r.error = "8b/10b round trip altered a frame";
      return r;
    }
  }
  const auto start = std::chrono::steady_clock::now();
  double elapsed = 0.0;
  do {
    for (const auto& f : frames) {
      phy::FcSerdes::encode_into(f, wire);
      phy::FcSerdes::decode_into(wire, decoded);
      r.units += f.size();
    }
    elapsed = seconds_since(start);
  } while (elapsed < min_seconds);
  r.ns_per_unit = elapsed * 1e9 / static_cast<double>(r.units);
  return r;
}

}  // namespace perfbench
