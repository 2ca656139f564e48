// Offline trace analysis: the libBGPStream-style workflow.
//
// 1. Runs a hijack scenario and records everything the vantage points saw
//    into a real MRT file (BGP4MP_ET records, byte-compatible subset of
//    RFC 6396).
// 2. Re-opens the file cold — exactly what an analyst with an archived
//    RouteViews/RIS file would do — decodes it with the archive
//    importer's ObservationConverter, and runs the ARTEMIS detection
//    service over the replay to find the hijack and measure how long it
//    was visible.
//
// Usage: trace_analysis [trace.mrt]
#include <cstdio>
#include <fstream>

#include "artemis/detection.hpp"
#include "mrt/mrt.hpp"
#include "mrt/observation_convert.hpp"
#include "mrt/stream_reader.hpp"
#include "sim/network.hpp"
#include "topology/generator.hpp"

using namespace artemis;

int main(int argc, char** argv) {
  const std::string trace_path = argc > 1 ? argv[1] : "hijack_trace.mrt";
  Rng rng(23);

  // ---- Phase 1: record a trace ------------------------------------------
  topo::GeneratorParams topo_params;
  topo_params.tier2_count = 50;
  topo_params.stub_count = 250;
  auto topo_rng = rng.fork("topology");
  const auto graph = topo::generate_topology(topo_params, topo_rng);
  const auto stubs = graph.ases_in_tier(topo::Tier::kStub);
  const bgp::Asn victim = stubs[0];
  const bgp::Asn attacker = stubs[stubs.size() - 1];
  const auto prefix = net::Prefix::must_parse("10.0.0.0/23");

  sim::Network network(graph, sim::NetworkParams{}, rng.fork("network"));

  // Tap a handful of vantage ASes and append their updates to the trace,
  // MRT-encoded, as a route collector would.
  mrt::ByteWriter trace;
  std::size_t records = 0;
  const auto tier2s = graph.ases_in_tier(topo::Tier::kTier2);
  for (std::size_t i = 0; i < 8 && i < tier2s.size(); ++i) {
    const bgp::Asn vantage = tier2s[i * tier2s.size() / 8];
    network.speaker(vantage).add_change_tap(
        [&trace, &records, &network, vantage](const bgp::UpdateMessage& update) {
          mrt::UpdateRecord record;
          record.peer_asn = vantage;
          record.local_asn = 0;
          record.peer_ip = net::IpAddress::v4(0xC0000200 | static_cast<uint32_t>(records));
          record.timestamp = network.simulator().now();
          record.update = update;
          const auto bytes = mrt::encode_update_record(record);
          trace.bytes(bytes);
          ++records;
        });
  }

  auto& sim = network.simulator();
  sim.at(SimTime::zero(), [&] { network.speaker(victim).originate(prefix); });
  sim.at(SimTime::at_seconds(3600), [&] { network.speaker(attacker).originate(prefix); });
  // The hijack ends after 8 minutes (the attacker is caught or gives up).
  sim.at(SimTime::at_seconds(3600 + 480),
         [&] { network.speaker(attacker).withdraw_origin(prefix); });
  sim.run_all();

  {
    std::ofstream out(trace_path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(trace.data().data()),
              static_cast<std::streamsize>(trace.data().size()));
  }
  std::printf("recorded %zu MRT records (%zu bytes) to %s\n", records,
              trace.data().size(), trace_path.c_str());

  // ---- Phase 2: offline analysis ----------------------------------------
  std::printf("\nreplaying the file through the detection service...\n");
  core::Config config;
  core::OwnedPrefix owned;
  owned.prefix = prefix;
  owned.legitimate_origins.insert(victim);
  config.add_owned(std::move(owned));
  core::DetectionService detector(config);

  // One merged source; delivered_at == event_time (offline: no feed lag).
  mrt::ObservationConvertOptions replay;
  replay.source_prefix = "mrt-replay";
  replay.source_scheme = mrt::ImportSourceScheme::kSingle;
  mrt::ObservationConverter converter(replay);
  SimTime first_bogus = SimTime::never();
  SimTime last_bogus = SimTime::zero();
  const auto bytes = mrt::read_file_bytes(trace_path);
  const auto stats =
      converter.convert_file(bytes, [&](std::span<const feeds::Observation> batch) {
        detector.process_batch(batch);
        for (const auto& obs : batch) {
          if (obs.type == feeds::ObservationType::kAnnouncement &&
              obs.origin_as() == attacker) {
            first_bogus = std::min(first_bogus, obs.event_time);
            last_bogus = std::max(last_bogus, obs.event_time);
          }
        }
      });
  if (!stats.clean()) {
    std::fprintf(stderr, "trace %s did not decode cleanly\n", trace_path.c_str());
    return 1;
  }
  std::printf("replayed %llu elems, %llu matched owned space\n",
              static_cast<unsigned long long>(stats.observations),
              static_cast<unsigned long long>(detector.observations_matched()));

  for (const auto& alert : detector.alerts()) {
    std::printf("\nfound in trace: %s\n", alert.to_string().c_str());
  }
  if (!first_bogus.is_never()) {
    std::printf("\nbogus origin AS%u visible from %s to %s (%s at the vantages)\n",
                attacker, first_bogus.to_string().c_str(), last_bogus.to_string().c_str(),
                (last_bogus - first_bogus).to_string().c_str());
  }
  std::printf("\n(the trace file %s is a valid MRT subset — 'records' above are "
              "BGP4MP_ET/MESSAGE_AS4)\n",
              trace_path.c_str());
  return 0;
}
