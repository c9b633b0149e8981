#include "core/stats.hpp"

#include <bit>
#include <cassert>
#include <cstdio>

#include "myrinet/control.hpp"

namespace hsfi::core {

StreamStats::StreamStats() {
  deframer_.on_frame([this](std::vector<std::uint8_t> frame, sim::SimTime) {
    on_frame(frame);
  });
  deframer_.on_flow([this](myrinet::ControlSymbol c, sim::SimTime) {
    if (c == myrinet::ControlSymbol::kStop) ++counters_.stops;
    if (c == myrinet::ControlSymbol::kGo) ++counters_.gos;
  });
}

void StreamStats::feed(link::Symbol s, sim::SimTime when) {
  ++counters_.characters;
  if (s.control) {
    ++counters_.control_symbols;
    if (myrinet::decode_control(s.data) == myrinet::ControlSymbol::kGap) {
      ++counters_.gaps;
    }
  }
  deframer_.feed(s, when);
}

void StreamStats::feed_burst(const link::Burst& burst) {
  assert(burst.has_view());
  counters_.characters += burst.symbols.size();
  std::uint64_t ctl_count = 0;
  for (std::size_t w = 0; w < burst.ctl.size(); ++w) {
    std::uint64_t word = burst.ctl[w];
    ctl_count += static_cast<std::uint64_t>(std::popcount(word));
    while (word != 0) {
      const auto bit = static_cast<std::size_t>(std::countr_zero(word));
      word &= word - 1;
      const std::size_t j = (w << 6) + bit;
      if (myrinet::decode_control(burst.data[j]) ==
          myrinet::ControlSymbol::kGap) {
        ++counters_.gaps;
      }
    }
  }
  counters_.control_symbols += ctl_count;
  deframer_.feed_burst(burst);
}

void StreamStats::on_frame(const std::vector<std::uint8_t>& frame) {
  ++counters_.frames;
  // The stream at an arbitrary link position may still carry route bytes;
  // the monitor sees frames as they pass, so parse both shapes: try as
  // delivered first, else skip leading route bytes (MSB judged irrelevant —
  // the monitor just wants the type field).
  myrinet::Delivered d = myrinet::parse_delivered(frame);
  if (d.status == myrinet::DeliveryStatus::kCrcError) {
    ++counters_.crc_bad_frames;
    return;
  }
  if (d.status != myrinet::DeliveryStatus::kOk &&
      d.status != myrinet::DeliveryStatus::kMarkerError) {
    return;
  }
  if (d.status == myrinet::DeliveryStatus::kMarkerError) {
    // Count it by type anyway; the identifiers below need a valid payload,
    // which a marker error still has.
    d.type = frame.size() >= 4
                 ? static_cast<std::uint16_t>((frame[1] << 8) | frame[2])
                 : 0;
  }
  // A frame observed before its last switch hop still carries a leading
  // route byte, shifting the type field by one. If the type parsed at the
  // delivered offset is unrecognized, classify by the shifted offset.
  std::size_t payload_offset = 0;
  if (d.type != myrinet::kTypeData && d.type != myrinet::kTypeMapping &&
      frame.size() >= 5) {
    const auto shifted =
        static_cast<std::uint16_t>((frame[2] << 8) | frame[3]);
    if (shifted == myrinet::kTypeData || shifted == myrinet::kTypeMapping) {
      d.type = shifted;
      payload_offset = 1;  // route byte still present
    }
  }
  if (d.type == myrinet::kTypeData) {
    ++counters_.data_frames;
  } else if (d.type == myrinet::kTypeMapping) {
    ++counters_.mapping_frames;
  } else {
    ++counters_.other_frames;
  }
  // Host-stack identifiers: payload starts with dst(6) then src(6).
  if (d.type == myrinet::kTypeData &&
      frame.size() >= payload_offset + 4 + 12 + 1) {
    const std::span<const std::uint8_t> payload(
        frame.data() + payload_offset + 3, frame.size() - payload_offset - 4);
    const auto dst = myrinet::get_eth(payload, 0).to_u64();
    const auto src = myrinet::get_eth(payload, 6).to_u64();
    ++pairs_[{dst, src}];
  }
}

void StreamStats::clear() {
  counters_ = Counters{};
  pairs_.clear();
  deframer_.abort_frame();
}

std::string StreamStats::render() const {
  char buf[256];
  std::string out;
  std::snprintf(buf, sizeof buf,
                "chars=%llu ctl=%llu gaps=%llu stop=%llu go=%llu frames=%llu "
                "(data=%llu map=%llu other=%llu crc-bad=%llu)\n",
                static_cast<unsigned long long>(counters_.characters),
                static_cast<unsigned long long>(counters_.control_symbols),
                static_cast<unsigned long long>(counters_.gaps),
                static_cast<unsigned long long>(counters_.stops),
                static_cast<unsigned long long>(counters_.gos),
                static_cast<unsigned long long>(counters_.frames),
                static_cast<unsigned long long>(counters_.data_frames),
                static_cast<unsigned long long>(counters_.mapping_frames),
                static_cast<unsigned long long>(counters_.other_frames),
                static_cast<unsigned long long>(counters_.crc_bad_frames));
  out += buf;
  for (const auto& [key, count] : pairs_) {
    std::snprintf(buf, sizeof buf, "  dst=%s src=%s packets=%llu\n",
                  myrinet::to_string(myrinet::EthAddr::from_u64(key.first)).c_str(),
                  myrinet::to_string(myrinet::EthAddr::from_u64(key.second)).c_str(),
                  static_cast<unsigned long long>(count));
    out += buf;
  }
  return out;
}

}  // namespace hsfi::core
