// Extension X4 — ablation of the two Figure-2 mechanisms:
//  (a) disable the iWARP RNIC's pipelining (initiation interval ==
//      latency, i.e. a processor-based engine): its multi-connection
//      scaling must collapse to IB-like behaviour;
//  (b) sweep the IB HCA's QP-context cache size: the serialization knee
//      must track the cache capacity.
#include <vector>

#include "core/bench.hpp"
#include "core/runners.hpp"

using namespace fabsim;
using namespace fabsim::core;

int main(int argc, char** argv) {
  const Bench bench("ext_ablation_engine", argc, argv);
  // Probe past both knees: deep enough that the ablated engines have
  // visibly serialized and the context cache is thrashing.
  constexpr int kProbeConns = 32;

  Report report(bench.report_name());
  report.add_note("Fig 2 mechanism ablations: RNIC pipelining off, HCA context-cache sweep");
  report.add_note("probe: per-round latency histograms + metrics at conns=32 msg=1KB");
  report.add_note("expected: (a) the ablated iWARP engine stops improving once the serial "
                  "engine saturates: the pipelined design is what buys Figure 2's scaling");
  report.add_note("expected: (b) IB's knee sits right after its context-cache size: a 2-entry "
                  "cache serializes at 4 connections, a 32-entry cache pushes the knee past 32");

  {
    NetworkProfile piped = iwarp_profile();
    NetworkProfile serial = iwarp_profile();
    // Processor-based variant: a segment occupies the engine for its full
    // processing latency.
    serial.rnic.tx_occupancy = serial.rnic.tx_latency;
    serial.rnic.rx_occupancy = serial.rnic.rx_latency;

    Table table("iWARP normalized multi-conn latency (us), 1 KB messages", "connections",
                {"pipelined (real)", "processor-based (ablated)"});
    for (int c : {1, 2, 4, 8, 16, 32, 64}) {
      Probe piped_probe(c == kProbeConns), serial_probe(c == kProbeConns);
      table.add_row(c, {multiconn_normalized_latency_us(piped, c, 1024, 16, piped_probe.hist(),
                                                        piped_probe.metrics()),
                        multiconn_normalized_latency_us(serial, c, 1024, 16,
                                                        serial_probe.hist())});
      piped_probe.record(report, "iwarp_pipelined", "norm_latency_us");
      serial_probe.record(report, "iwarp_serial", "norm_latency_us");
    }
    report.add_table(table);
  }

  {
    std::vector<int> cache_sizes = {2, 8, 32};
    std::vector<std::string> cols;
    for (int s : cache_sizes) cols.push_back("cache=" + std::to_string(s));
    Table table("IB normalized multi-conn latency (us), 1 KB messages", "connections", cols);
    for (int c : {1, 2, 4, 8, 16, 32, 64}) {
      std::vector<double> row;
      for (int s : cache_sizes) {
        NetworkProfile p = ib_profile();
        p.hca.context_cache_entries = s;
        // The thrash case: context_hits/misses in the metric dump show
        // the cache-serialization mechanism directly.
        Probe probe(c == kProbeConns && s == 2);
        row.push_back(multiconn_normalized_latency_us(p, c, 1024, 16, probe.hist(),
                                                      probe.metrics()));
        probe.record(report, "ib_cache2", "norm_latency_us");
      }
      table.add_row(c, std::move(row));
    }
    report.add_table(table);
  }

  return bench.finish(report);
}
