// E2 — The full detection/mitigation timeline and the demo's
// fraction-of-vantage-points series (paper §3: detect ~45 s, announce
// de-aggregated /24s ~15 s later, mitigation completed within ~5 min,
// ~6 min end to end; §4: visualization of vantage points flipping to the
// illegitimate origin and back). Includes an MRAI ablation (pacing off ->
// convergence collapses to seconds), which shows that the minutes-long
// mitigation time is BGP's MRAI pacing, not ARTEMIS.
#include "bench_common.hpp"

using namespace artemis;
using namespace artemis::bench;

namespace {

void run_set(const BenchArgs& args, SimDuration mrai, bool print_series) {
  Summary detect;
  Summary announce;
  Summary converge;
  Summary total;
  std::vector<core::TimelineSample> series;
  SimTime series_hijack_at;

  for (int trial = 0; trial < args.trials; ++trial) {
    Scenario scenario(args, static_cast<std::uint64_t>(trial));
    scenario.net_params.mrai = mrai;
    const auto result = scenario.run();
    if (!result.detected_at || !result.truth_converged_at) continue;
    detect.add(result.detection_delay()->as_seconds());
    announce.add(result.mitigation_start_delay()->as_seconds());
    converge.add(result.mitigation_duration()->as_seconds());
    total.add(result.total_duration()->as_seconds());
    if (trial == 0) {
      series = result.timeline;
      series_hijack_at = result.hijack_at;
    }
  }

  TextTable table({"phase", "mean", "median", "p90", "max"});
  auto add_row = [&table](const char* name, const Summary& s) {
    table.add_row({name, fmt_seconds(s.mean()), fmt_seconds(s.median()),
                   fmt_seconds(s.percentile(90)), fmt_seconds(s.max())});
  };
  add_row("hijack -> detected", detect);
  add_row("detected -> /24s announced", announce);
  add_row("announced -> all vantages recovered", converge);
  add_row("TOTAL hijack -> fully mitigated", total);
  std::printf("MRAI = %s (%zu converged trials)\n%s\n", mrai.to_string().c_str(),
              total.count(), table.to_string().c_str());

  if (print_series && !series.empty()) {
    std::printf("timeline series (trial 0), the demo's visualization (§4):\n");
    std::printf("  t-rel    truth-legit  feed-legit\n");
    SimTime last_printed = SimTime::zero();
    for (const auto& sample : series) {
      // Print every ~10 s of simulated time to keep the series readable.
      if (sample.when - last_printed < SimDuration::seconds(10) &&
          sample.when != series.front().when) {
        continue;
      }
      last_printed = sample.when;
      std::printf("  %7s     %3.0f%%        %3.0f%%\n",
                  (sample.when - series_hijack_at).to_string().c_str(),
                  sample.truth_fraction * 100.0, sample.feed_fraction * 100.0);
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = BenchArgs::parse(argc, argv);
  print_header("E2", "three-phase experiment timeline + vantage-point series",
               "detect ~45 s; +~15 s controller; complete <= ~5 min; total ~6 min");
  run_set(args, SimDuration::seconds(30), /*print_series=*/true);
  std::printf("--- ablation: advertisement pacing (MRAI) disabled ---\n");
  run_set(args, SimDuration::zero(), /*print_series=*/false);
  std::printf("shape check: with pacing, re-convergence takes minutes; without, "
              "seconds — pacing is what makes mitigation minutes-scale.\n");
  return 0;
}
