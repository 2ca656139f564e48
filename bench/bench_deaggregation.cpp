// E6 — De-aggregation effectiveness vs victim prefix length (paper §2:
// "Prefix de-aggregation is effective for hijacks of IP address prefixes
// larger than /24, but it might not work for /24 prefixes, as BGP
// advertisements of prefixes smaller than /24 are filtered by some
// ISPs").
//
// Runs the exact-origin hijack experiment with victim prefixes /16../24
// and reports whether de-aggregation was possible and what share of the
// vantage points recovered.
#include "bench_common.hpp"

using namespace artemis;
using namespace artemis::bench;

int main(int argc, char** argv) {
  auto args = BenchArgs::parse(argc, argv);
  args.trials = std::max(4, args.trials / 2);
  print_header("E6", "mitigation by prefix de-aggregation vs victim prefix length",
               "works for prefixes shorter than /24; fails for /24 (the /25 halves "
               "are filtered Internet-wide)");

  TextTable table({"victim prefix", "deagg possible", "announced", "recovered mean",
                   "fully mitigated", "total mean"});
  for (const int length : {16, 20, 22, 23, 24}) {
    Summary recovered;
    Summary total;
    int fully = 0;
    int trials = 0;
    bool deagg = false;
    std::string announced;
    for (int trial = 0; trial < args.trials; ++trial) {
      Scenario scenario(args, static_cast<std::uint64_t>(trial));
      scenario.params.victim_prefix =
          net::Prefix(net::IpAddress::v4(0x0A000000), length);
      scenario.params.horizon = SimDuration::minutes(20);
      const auto result = scenario.run();
      ++trials;
      deagg = result.deaggregation_possible;
      if (trial == 0) {
        std::vector<std::string> names;
        for (const auto& p : result.mitigation_announcements) {
          names.push_back(p.to_string());
        }
        announced = join(names, " ");
      }
      if (!result.timeline.empty()) {
        recovered.add(result.timeline.back().truth_fraction * 100.0);
      }
      if (result.truth_converged_at) {
        ++fully;
        total.add(result.total_duration()->as_seconds());
      }
    }
    table.add_row({std::string("/").append(std::to_string(length)),
                   deagg ? "yes" : "NO", announced,
                   TextTable::num(recovered.mean(), 0) + "%",
                   std::to_string(fully) + "/" + std::to_string(trials),
                   total.empty() ? "-" : fmt_seconds(total.mean())});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("shape check: /16../23 victims fully recover in minutes via their two "
              "more-specific halves; the /24 victim stays partially hijacked — the "
              "paper's de-aggregation caveat.\n\n");

  // Extension ablation: mitigation outsourcing rescues the /24 victim by
  // recruiting well-connected helper organizations to co-announce (MOAS)
  // and tunnel traffic back (an extension following the authors' later
  // work; see MitigationPolicy::Outsource in artemis/ownership.hpp).
  std::printf("--- extension: outsourced mitigation for the /24 victim ---\n");
  TextTable outsource_table({"helpers", "recovered mean", "recovered min",
                             "fully mitigated"});
  for (const int helpers : {0, 1, 3, 5}) {
    Summary recovered;
    int fully = 0;
    int trials = 0;
    for (int trial = 0; trial < args.trials; ++trial) {
      Scenario scenario(args, static_cast<std::uint64_t>(trial));
      scenario.params.victim_prefix = net::Prefix(net::IpAddress::v4(0x0A000000), 24);
      scenario.params.horizon = SimDuration::minutes(20);
      scenario.params.helper_count = helpers;
      const auto result = scenario.run();
      ++trials;
      if (!result.timeline.empty()) {
        recovered.add(result.timeline.back().truth_fraction * 100.0);
      }
      if (result.truth_converged_at) ++fully;
    }
    outsource_table.add_row({std::to_string(helpers),
                             TextTable::num(recovered.mean(), 0) + "%",
                             TextTable::num(recovered.min(), 0) + "%",
                             std::to_string(fully) + "/" + std::to_string(trials)});
  }
  std::printf("%s\n", outsource_table.to_string().c_str());
  std::printf("shape check: recovery climbs with helper count — outsourcing recovers "
              "what de-aggregation cannot.\n");
  return 0;
}
