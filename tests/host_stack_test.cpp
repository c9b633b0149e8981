// End-to-end host-stack tests on the Fig. 10 testbed, including the exact
// corruption mechanics the §4.3 campaigns use (driven through the injector
// so these double as campaign-plumbing validation).
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "host/ping.hpp"
#include "host/traffic.hpp"
#include "nftape/faults.hpp"
#include "nftape/testbed.hpp"

namespace hsfi::nftape {
namespace {

using core::Direction;
using host::UdpDatagram;
using sim::microseconds;
using sim::milliseconds;

TestbedConfig fast_config() {
  TestbedConfig c;
  c.map_period = milliseconds(20);
  c.map_reply_window = milliseconds(2);
  c.nic_config.rx_processing_time = microseconds(2);
  c.send_stack_time = microseconds(2);
  return c;
}

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

TEST(TestbedTest, MappingConvergesAndElectsController) {
  Testbed bed(fast_config());
  bed.start();
  bed.settle(milliseconds(80));
  EXPECT_TRUE(bed.host(2).mcp().acting_controller());
  EXPECT_FALSE(bed.host(0).mcp().acting_controller());
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(bed.host(i).mcp().network_map().size(), 3u) << "node " << i;
  }
}

TEST(TestbedTest, UdpEndToEndThroughSwitchAndInjector) {
  Testbed bed(fast_config());
  bed.start();
  bed.settle(milliseconds(80));

  host::UdpSink sink(bed.host(1), 5000);
  UdpDatagram d;
  d.src_port = 6000;
  d.dst_port = 5000;
  d.payload = bytes_of("hello myrinet");
  // Node 0 is behind the injector; the pass-through path is exercised.
  EXPECT_TRUE(bed.host(0).send_udp(2, std::move(d)));
  bed.settle(milliseconds(5));
  EXPECT_EQ(sink.received(), 1u);
  EXPECT_EQ(bed.host(1).stats().udp_delivered, 1u);
  EXPECT_EQ(bed.host(0).stats().udp_sent, 1u);
}

TEST(TestbedTest, EchoFloodPingRoundTrips) {
  Testbed bed(fast_config());
  bed.start();
  bed.settle(milliseconds(80));
  bed.host(1).enable_echo();

  host::Pinger::Config pc;
  pc.target = 2;  // host id of node 1
  pc.max_packets = 100;
  host::Pinger ping(bed.sim(), bed.host(0), pc);
  ping.start();
  bed.settle(milliseconds(200));
  EXPECT_EQ(ping.results().sent, 100u);
  EXPECT_EQ(ping.results().received, 100u);
  EXPECT_EQ(ping.results().timeouts, 0u);
  EXPECT_GT(ping.results().total_sim_rtt, 0);
}

TEST(TestbedTest, UdpFloodArrivesCompletely) {
  Testbed bed(fast_config());
  bed.start();
  bed.settle(milliseconds(80));
  host::UdpSink sink(bed.host(2), 9);
  host::UdpFlood::Config fc;
  fc.target = 3;
  fc.interval = microseconds(50);
  fc.max_packets = 400;
  host::UdpFlood flood(bed.sim(), bed.host(0), fc);
  flood.start();
  bed.settle(milliseconds(100));
  EXPECT_EQ(flood.sent(), 400u);
  EXPECT_EQ(sink.received(), 400u);
}

TEST(TestbedTest, RestoreReplaysSymbolsInFlight) {
  // Capture the bed while a datagram train is on the wire: symbols in
  // flight on a cable channel and in a switch forwarding batch, both of
  // which live outside the event queue. Every replay from that state must
  // deliver the same datagrams at the same times as the original run.
  Testbed bed(fast_config());
  bed.start();
  bed.settle(milliseconds(80));
  struct Arrival {
    host::HostId src;
    std::vector<std::uint8_t> payload;
    sim::SimTime when;
    bool operator==(const Arrival&) const = default;
  };
  std::vector<Arrival> arrivals;
  bed.host(1).bind(5000, [&](host::HostId src, const UdpDatagram& d,
                             sim::SimTime when) {
    arrivals.push_back({src, d.payload, when});
  });
  for (int i = 0; i < 4; ++i) {
    UdpDatagram d;
    d.src_port = 6000;
    d.dst_port = 5000;
    d.payload.assign(200, static_cast<std::uint8_t>(0x41 + i));
    ASSERT_TRUE(bed.host(0).send_udp(2, std::move(d)));
  }
  const auto in_flight = [](const Testbed::State& state) {
    std::size_t on_cables = 0;
    for (const auto& n : state.nodes) {
      on_cables += n.cable_a2b.in_flight.size() + n.cable_b2a.in_flight.size() +
                   n.cable2_a2b.in_flight.size() +
                   n.cable2_b2a.in_flight.size();
    }
    std::size_t in_switch = 0;
    for (const auto& p : state.switch_state.ports) {
      in_switch += p.forwarding.size();
    }
    return std::pair{on_cables, in_switch};
  };
  Testbed::State captured;
  for (int step = 0;; ++step) {
    ASSERT_LT(step, 200'000) << "no instant with both kinds in flight";
    ASSERT_TRUE(bed.sim().step());
    captured = bed.capture_state();
    const auto [on_cables, in_switch] = in_flight(captured);
    if (on_cables > 0 && in_switch > 0) break;
  }
  ASSERT_TRUE(arrivals.empty());

  bed.settle(milliseconds(2));
  const auto reference = arrivals;
  ASSERT_EQ(reference.size(), 4u);
  for (int replay = 0; replay < 2; ++replay) {
    bed.restore_state(captured);
    arrivals.clear();
    bed.settle(milliseconds(2));
    EXPECT_EQ(arrivals, reference) << "replay " << replay;
  }
}

TEST(TestbedTest, MisaddressedFramesDropped) {
  Testbed bed(fast_config());
  bed.start();
  bed.settle(milliseconds(80));
  // Poison node 0's cache: host id 2 maps to node 2's address. Frames for
  // id 2 now land at node 2, which sees its own physical address but a
  // foreign host id and drops: "the node drops incoming packets that are
  // misaddressed".
  bed.host(0).seed_peer(2, Testbed::eth_of(2));
  UdpDatagram d;
  d.dst_port = 1234;
  bed.host(0).send_udp(2, std::move(d));
  bed.settle(milliseconds(5));
  EXPECT_EQ(bed.host(2).stats().drop_misaddressed, 1u);
  EXPECT_EQ(bed.host(1).stats().udp_delivered, 0u);
}

TEST(CampaignMechanicsTest, SenderAddressCorruptionMakesNodeUnreachable) {
  // §4.3.3: corrupt node 0's source address (in flight, CRC repatched) to
  // node 2's. Node 1 learns the wrong address; its traffic to node 0 then
  // lands on node 2 and is dropped as misaddressed; node 0 becomes
  // unreachable to Ethernet-based traffic while mapping stays intact.
  Testbed bed(fast_config());
  bed.start();
  bed.settle(milliseconds(80));
  bed.host(1).enable_echo();

  // Node 0's frames to node 1 (dst_id=2, src_id=1): rewrite src low byte
  // 0x01 -> 0x03 (node 2's address).
  bed.injector().apply(Direction::kLeftToRight,
                       sender_eth_corruption(0x01, 2, 1, 0x03));

  // Node 0 pings node 1: requests arrive (dst intact) and poison node 1's
  // cache; replies then go to node 2's port and are dropped there.
  host::Pinger::Config pc;
  pc.target = 2;
  pc.max_packets = 20;
  pc.timeout = milliseconds(2);
  host::Pinger ping(bed.sim(), bed.host(0), pc);
  ping.start();
  bed.settle(milliseconds(200));

  EXPECT_EQ(ping.results().received, 0u);  // unreachable
  EXPECT_EQ(ping.results().timeouts, 20u);
  EXPECT_GT(bed.host(2).stats().drop_misaddressed, 0u);
  // "the routing information concerning the node remained unchanged"
  EXPECT_EQ(bed.host(2).mcp().network_map().size(), 3u);
  EXPECT_GT(bed.injector().fifo_stats(Direction::kLeftToRight).injections, 0u);
}

TEST(CampaignMechanicsTest, MappingTypeCorruptionRemovesNodeUntilNextRound) {
  // §4.3.2: corrupt mapping packets (0x0005 -> 0x0015) heading into node 0.
  // Node 0 stops answering scouts and falls out of the map; when the
  // corruption stops, the next mapping round restores it.
  Testbed bed(fast_config());
  bed.start();
  bed.settle(milliseconds(80));
  ASSERT_EQ(bed.host(2).mcp().network_map().size(), 3u);

  bed.injector().apply(Direction::kRightToLeft,
                       packet_type_corruption(myrinet::kTypeMapping, 0x0015));
  bed.settle(milliseconds(60));  // a few mapping rounds
  EXPECT_EQ(bed.host(2).mcp().network_map().size(), 2u)
      << "node 0 still mapped";
  // Senders drop traffic to the unmapped node.
  UdpDatagram d;
  d.dst_port = 1;
  bed.host(1).send_udp(1, std::move(d));
  EXPECT_GT(bed.host(1).stats().drop_unroutable, 0u);
  // Node 0 saw unrecognized types.
  EXPECT_GT(bed.host(0).stats().drop_unknown_type, 0u);

  // Stop injecting: "The node will remain out of the network until the
  // next mapping packet is received."
  core::InjectorConfig off;
  bed.injector().apply(Direction::kRightToLeft, off);
  bed.settle(milliseconds(60));
  EXPECT_EQ(bed.host(2).mcp().network_map().size(), 3u);
}

TEST(CampaignMechanicsTest, DestinationCorruptionDroppedByCrc) {
  // §4.3.3: destination address corrupted without CRC repatch — "packets
  // were dropped, and not received by either the intended destination node
  // or the erroneously specified node... a result of the incorrect CRC-8".
  Testbed bed(fast_config());
  bed.start();
  bed.settle(milliseconds(80));
  host::UdpSink at_node1(bed.host(1), 9);
  host::UdpSink at_node2(bed.host(2), 9);

  bed.injector().apply(Direction::kLeftToRight,
                       destination_eth_corruption(0x02, 0x03));
  host::UdpFlood::Config fc;
  fc.target = 2;  // node 1
  fc.max_packets = 50;
  fc.interval = microseconds(50);
  host::UdpFlood flood(bed.sim(), bed.host(0), fc);
  flood.start();
  bed.settle(milliseconds(50));

  EXPECT_EQ(at_node1.received(), 0u);
  EXPECT_EQ(at_node2.received(), 0u);
  EXPECT_EQ(bed.nic(1).stats().crc_errors, 50u);
}

TEST(CampaignMechanicsTest, MarkerMsbConsumedWithoutIncident) {
  // §4.3.2 source-route corruption: MSB set on the destination marker; the
  // interface consumes the packet as an error, no propagation.
  Testbed bed(fast_config());
  bed.start();
  bed.settle(milliseconds(80));
  host::UdpSink sink(bed.host(1), 9);

  bed.injector().apply(Direction::kLeftToRight, marker_msb_corruption());
  host::UdpFlood::Config fc;
  fc.target = 2;
  fc.max_packets = 30;
  fc.interval = microseconds(50);
  host::UdpFlood flood(bed.sim(), bed.host(0), fc);
  flood.start();
  bed.settle(milliseconds(50));

  EXPECT_EQ(sink.received(), 0u);
  EXPECT_EQ(bed.nic(1).stats().marker_errors, 30u);
  EXPECT_EQ(bed.nic(1).stats().crc_errors, 0u);  // repatch kept CRC valid
  // "without causing delays or other errors on the target node":
  EXPECT_EQ(bed.host(1).stats().drop_malformed, 0u);
}

TEST(CampaignMechanicsTest, UdpWordSwapPassesChecksumToApplication) {
  // §4.3.4: "we corrupted a UDP packet consisting of the string 'Have a
  // lot of fun' to read instead 'veHa a lot of fun'. The checksum was
  // unable to detect this, and the incorrect message was passed on."
  Testbed bed(fast_config());
  bed.start();
  bed.settle(milliseconds(80));
  std::string received;
  bed.host(1).bind(4000, [&received](host::HostId, const UdpDatagram& d,
                                     sim::SimTime) {
    received.assign(d.payload.begin(), d.payload.end());
  });

  bed.injector().apply(Direction::kLeftToRight, udp_word_swap_have_to_veha());
  UdpDatagram d;
  d.dst_port = 4000;
  d.payload = bytes_of("Have a lot of fun");
  bed.host(0).send_udp(2, std::move(d));
  bed.settle(milliseconds(5));

  EXPECT_EQ(received, "veHa a lot of fun");
  EXPECT_EQ(bed.host(1).stats().drop_bad_checksum, 0u);
}

TEST(CampaignMechanicsTest, NonAliasedUdpCorruptionDroppedByChecksum) {
  // "When the corruption did not satisfy the checksum, the packets were
  // dropped."
  Testbed bed(fast_config());
  bed.start();
  bed.settle(milliseconds(80));
  host::UdpSink sink(bed.host(1), 4000);

  bed.injector().apply(Direction::kLeftToRight, udp_payload_bit_flip());
  UdpDatagram d;
  d.dst_port = 4000;
  d.payload = bytes_of("Have a lot of fun");
  bed.host(0).send_udp(2, std::move(d));
  bed.settle(milliseconds(5));

  EXPECT_EQ(sink.received(), 0u);
  EXPECT_EQ(bed.host(1).stats().drop_bad_checksum, 1u);
  EXPECT_EQ(bed.nic(1).stats().crc_errors, 0u);  // CRC-8 was repatched
}

TEST(CampaignMechanicsTest, ControllerDuplicationConfusesMapper) {
  // §4.3.3 / Fig. 11: node 0's MCP address corrupted (in mapping replies)
  // to match the controller's. "The controller is confused... and is unable
  // to generate a consistent map."
  Testbed bed(fast_config());
  bed.start();
  bed.settle(milliseconds(80));

  // Controller is node 2 (mcp 0x2020); node 0 replies carry 0x2000.
  // Rewrite the low byte 0x00 -> 0x20 inside replies heading to the switch.
  bed.injector().apply(Direction::kLeftToRight,
                       mcp_reply_address_corruption(0x20, 0x00, 0x20));
  bed.settle(milliseconds(120));
  EXPECT_GT(bed.host(2).mcp().stats().confused_rounds, 0u);

  // Recovery once the fault is removed.
  core::InjectorConfig off;
  bed.injector().apply(Direction::kLeftToRight, off);
  bed.settle(milliseconds(60));
  EXPECT_EQ(bed.host(2).mcp().network_map().size(), 3u);
}

TEST(CampaignMechanicsTest, SerialPathProgramsCampaign) {
  // The NFTAPE way: send the fault spec over RS-232 and verify the device
  // picked it up, then run the UDP-swap experiment through it.
  Testbed bed(fast_config());
  bed.start();
  const auto cfg = udp_word_swap_have_to_veha();
  for (const auto& cmd : to_serial_commands(cfg, Direction::kLeftToRight)) {
    bed.control().send_command(cmd);
  }
  bed.settle(milliseconds(80));
  ASSERT_TRUE(bed.control().idle());
  EXPECT_EQ(bed.injector().config(Direction::kLeftToRight).compare_data,
            0x48617665u);
  EXPECT_TRUE(bed.injector().config(Direction::kLeftToRight).crc_repatch);

  std::string received;
  bed.host(1).bind(4000, [&received](host::HostId, const UdpDatagram& d,
                                     sim::SimTime) {
    received.assign(d.payload.begin(), d.payload.end());
  });
  UdpDatagram d;
  d.dst_port = 4000;
  d.payload = bytes_of("Have a lot of fun");
  bed.host(0).send_udp(2, std::move(d));
  bed.settle(milliseconds(5));
  EXPECT_EQ(received, "veHa a lot of fun");
}

TEST(TestbedTest, ResetToKnownGoodClearsState) {
  Testbed bed(fast_config());
  bed.start();
  bed.settle(milliseconds(80));
  UdpDatagram d;
  d.dst_port = 9;
  bed.host(0).send_udp(2, std::move(d));
  bed.settle(milliseconds(5));
  EXPECT_GT(bed.host(0).stats().udp_sent, 0u);
  bed.reset_to_known_good();
  EXPECT_EQ(bed.host(0).stats().udp_sent, 0u);
  EXPECT_EQ(bed.nic(0).stats().frames_sent, 0u);
  EXPECT_EQ(bed.injector().fifo_stats(Direction::kLeftToRight).characters, 0u);
}

}  // namespace
}  // namespace hsfi::nftape
