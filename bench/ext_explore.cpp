// Extension X13 — FabricExplore: bounded schedule-space model checking.
//
// Where every other bench runs ONE schedule (the engine's deterministic
// insertion-order tie-break) and audits it with FabricCheck, this driver
// searches the schedule space: for each bounded scenario it enumerates
// legal tie-breaks among co-enabled same-timestamp events (DFS over
// decision prefixes with a commutativity reduction, plus an optional
// seeded fuzzer) and fails loudly on any interleaving that triggers an
// invariant violation, a deadlock, digest divergence, or a scenario
// expectation failure. Counterexamples are minimized, replay-verified,
// and written to results/counterexamples/*.json; `--schedule FILE`
// replays such an artifact through the exact same decision points.
//
// The mutation seams (--mutation / FABSIM_MUTATION) re-introduce two
// historical bugs behind test-only config flags so CI can prove the
// search actually finds real defects, not just burns CPU:
//   strand_pending_reads — the PR-4 stranded-RDMA-Read hang (deadlock)
//   drop_final_ack       — swallowed final acks (spurious retry
//                          exhaustion, an expectation finding)
//
// Exit status: 0 = clean sweep (or a replayed artifact reproduced its
// recorded failure), 1 = findings (or a replay that did not reproduce).
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/bench.hpp"
#include "explore/explorer.hpp"
#include "explore/scenarios.hpp"

using namespace fabsim;
using namespace fabsim::explore;

namespace {

struct Options {
  std::string scenario;          ///< empty = every bounded scenario
  std::string schedule_file;     ///< replay mode when non-empty
  Mutation mutation = Mutation::kNone;
  ExploreBudget budget;
  std::string out_dir = "results/counterexamples";
};

/// Replay mode: load an artifact, steer the named scenario through its
/// recorded choices, and report whether the recorded failure reproduces.
int replay_schedule(const Options& opt) {
  std::ifstream in(opt.schedule_file);
  if (!in) {
    std::fprintf(stderr, "ext_explore: cannot read %s\n", opt.schedule_file.c_str());
    return 1;
  }
  std::ostringstream text;
  text << in.rdbuf();
  const Schedule schedule = Schedule::from_json(text.str());

  Mutation mutation = opt.mutation;
  if (!mutation_from_name(schedule.mutation, mutation)) {
    std::fprintf(stderr, "ext_explore: artifact has unknown mutation '%s'\n",
                 schedule.mutation.c_str());
    return 1;
  }
  const Scenario scenario = find_scenario(schedule.scenario, mutation);
  const RunOutcome outcome = Explorer::replay(scenario, schedule);

  std::printf("replay %s: scenario=%s mutation=%s choices=%zu\n", opt.schedule_file.c_str(),
              schedule.scenario.c_str(), mutation_name(mutation), schedule.choices.size());
  std::printf("  recorded: kind=%s rule=%s digest=%s\n", schedule.kind.c_str(),
              schedule.rule.c_str(), to_hex_u64(schedule.digest).c_str());
  std::printf("  observed: failed=%d kind=%s rule=%s digest=%s events=%llu\n", outcome.failed,
              finding_kind_name(outcome.kind), outcome.rule.c_str(),
              to_hex_u64(outcome.digest).c_str(),
              static_cast<unsigned long long>(outcome.events));
  const bool reproduced = outcome.failed &&
                          finding_kind_name(outcome.kind) == schedule.kind &&
                          outcome.rule == schedule.rule;
  std::printf("  %s\n", reproduced ? "REPRODUCED" : "NOT REPRODUCED");
  return reproduced ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  // The mutation seam is also reachable via the environment so CI can
  // flip it without touching the command line of the shared runner.
  if (const char* env = std::getenv("FABSIM_MUTATION")) {
    if (!mutation_from_name(env, opt.mutation)) {
      std::fprintf(stderr, "ext_explore: bad FABSIM_MUTATION '%s'\n", env);
      return 2;
    }
  }
  std::optional<std::uint64_t> runs, fuzz;  // unset: quick's or the full sweep's default
  const core::Bench bench(
      "ext_explore", argc, argv,
      {.quick = true,
       .options = {
           core::text_option("--scenario", "NAME", opt.scenario),
           {"--mutation", "none|strand_pending_reads|drop_final_ack|leak_credit_on_drain",
            [&opt](const std::string& name) { return mutation_from_name(name, opt.mutation); }},
           core::number_option("--budget", runs),
           core::number_option("--depth", opt.budget.max_depth),
           core::number_option("--branch", opt.budget.max_branch),
           core::number_option("--fuzz", fuzz),
           core::number_option("--seed", opt.budget.seed),
           {"--no-reduction", "",
            [&opt](const std::string&) {
              opt.budget.reduction = false;
              return true;
            }},
           core::text_option("--schedule", "FILE", opt.schedule_file),
           core::text_option("--out", "DIR", opt.out_dir),
       }});
  opt.budget.max_runs = runs.value_or(bench.quick() ? 128 : opt.budget.max_runs);
  opt.budget.fuzz_runs = fuzz.value_or(bench.quick() ? 16 : opt.budget.fuzz_runs);
  if (!opt.schedule_file.empty()) return replay_schedule(opt);

  std::vector<Scenario> scenarios;
  if (opt.scenario.empty()) {
    scenarios = bounded_scenarios(opt.mutation);
  } else {
    scenarios.push_back(find_scenario(opt.scenario, opt.mutation));
  }

  // Quick and mutation runs report under their own names, so neither
  // overwrites the clean default sweep in results/ext_explore.*.
  core::Report report(
      bench.report_name(opt.mutation == Mutation::kNone ? "" : mutation_name(opt.mutation)));
  report.add_note(std::string("mutation=") + mutation_name(opt.mutation));
  report.add_note("budget: runs=" + std::to_string(opt.budget.max_runs) +
                  " depth=" + std::to_string(opt.budget.max_depth) +
                  " branch=" + std::to_string(opt.budget.max_branch) +
                  " fuzz=" + std::to_string(opt.budget.fuzz_runs) +
                  " seed=" + std::to_string(opt.budget.seed) +
                  " reduction=" + std::to_string(opt.budget.reduction));
  report.add_note("search: DFS over co-enabled tie-breaks + seeded fuzz; see "
                  "docs/model_checking.md");

  std::size_t total_findings = 0;
  std::uint64_t total_events = 0;
  std::vector<std::string> artifacts;
  MetricRegistry registry;
  core::Table table("schedule exploration per scenario", "scenario",
                    {"runs", "decisions", "enqueued", "pruned", "exhausted", "findings"});
  int row = 0;
  for (Scenario& scenario : scenarios) {
    const std::string name = scenario.name;
    Explorer explorer(std::move(scenario), opt.budget);
    const ExploreResult result = explorer.explore();
    const ExploreStats& s = result.stats;
    table.add_row(row++,
                  {static_cast<double>(s.runs), static_cast<double>(s.baseline_decisions),
                   static_cast<double>(s.enqueued), static_cast<double>(s.pruned),
                   s.frontier_exhausted ? 1.0 : 0.0,
                   static_cast<double>(result.findings.size())});
    report.add_note(name + ": runs=" + std::to_string(s.runs) +
                    " pruned=" + std::to_string(s.pruned) +
                    " findings=" + std::to_string(result.findings.size()));
    total_events += s.baseline_events;
    registry.counter(name + ".sim.events").set(s.baseline_events);
    registry.counter(name + ".sim.digest").set(s.baseline_digest);
    registry.counter(name + ".explore.runs").set(s.runs);
    registry.counter(name + ".explore.pruned").set(s.pruned);
    registry.counter(name + ".explore.findings").set(result.findings.size());

    for (const Finding& finding : result.findings) {
      ++total_findings;
      report.add_note(name + ": FINDING kind=" + finding_kind_name(finding.kind) +
                      " rule=" + finding.rule +
                      " replay_confirmed=" + std::to_string(finding.replay_confirmed) +
                      " choices=" + std::to_string(finding.schedule.choices.size()) + " (was " +
                      std::to_string(finding.original_choices) + "): " + finding.detail);
      Schedule artifact = finding.schedule;
      artifact.mutation = mutation_name(opt.mutation);
      std::error_code ec;
      std::filesystem::create_directories(opt.out_dir, ec);
      std::string path = opt.out_dir + "/" + name;
      if (opt.mutation != Mutation::kNone) path += std::string("_") + artifact.mutation;
      path += std::string("_") + finding_kind_name(finding.kind) + ".json";
      std::ofstream out(path);
      out << artifact.to_json();
      artifacts.push_back(path);
    }
  }
  report.add_table(std::move(table));
  report.add_scalar("findings", static_cast<double>(total_findings));
  report.add_scalar("scenarios", static_cast<double>(scenarios.size()));
  // Aggregate baseline-run event count so scripts/assert_clean.py can
  // apply its "workload actually ran" gate to this report too.
  registry.counter("sim.events").set(total_events);
  report.add_metrics(registry);
  for (const std::string& path : artifacts) report.add_note("counterexample: " + path);
  if (total_findings != 0) {
    report.add_note(std::to_string(total_findings) + " finding(s): schedule space NOT clean");
    return bench.finish(report, 1);
  }
  report.add_note("schedule space clean within budget");
  return bench.finish(report);
}
