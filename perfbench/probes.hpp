// Layer probes: isolated replays of single library calls on inputs shaped
// like the workload's traffic (its frame size and fault configuration),
// each reported as host time per unit with the unit count. Every probe
// also checks the call's output, so a fast-but-wrong layer fails the run.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/fifo_injector.hpp"
#include "core/injector_config.hpp"
#include "link/symbol.hpp"

namespace perfbench {

using Frames = std::vector<std::vector<hsfi::link::Symbol>>;

struct ProbeResult {
  double ns_per_unit = 0.0;
  std::uint64_t units = 0;
  std::string error;  ///< non-empty when the output check failed
};

/// Myrinet data packets (route byte, header, `payload` fill bytes, CRC-8,
/// terminating GAP), with a STOP/GO pair after every fourth packet.
[[nodiscard]] Frames myrinet_frames(std::size_t payload, std::size_t count,
                                    std::uint64_t seed);
/// Fibre Channel frames of `chunk` payload bytes (SOF, header, payload,
/// CRC-32, EOF), each followed by an R_RDY and an IDLE ordered set.
[[nodiscard]] Frames fc_frames(std::size_t chunk, std::size_t count,
                               std::uint64_t seed);

/// FifoInjector::clock_burst, one frame per burst. With the match mode off
/// the device is a pure delay line and the output must equal the input.
[[nodiscard]] ProbeResult probe_clock_burst(
    const hsfi::core::FifoInjector::Params& params,
    const hsfi::core::InjectorConfig& config, const Frames& frames,
    double min_seconds);

/// FcSerdes::encode_into + decode_into per frame; the decode must return
/// the frame unchanged with no code violations. Unit: one character.
[[nodiscard]] ProbeResult probe_serdes(const Frames& frames,
                                       double min_seconds);

/// Calls fn(i) for i over [0, n) repeatedly until min_seconds pass; unit:
/// one call.
template <typename F>
ProbeResult probe_calls(std::size_t n, double min_seconds, F&& fn) {
  ProbeResult r;
  if (n == 0) return r;
  const auto start = std::chrono::steady_clock::now();
  double elapsed = 0.0;
  do {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    r.units += n;
    elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count();
  } while (elapsed < min_seconds);
  r.ns_per_unit = elapsed * 1e9 / static_cast<double>(r.units);
  return r;
}

}  // namespace perfbench
