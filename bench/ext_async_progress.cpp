// Extension X10 — asynchronous progress ("enhance the NetEffect MPI
// implementation", paper Sec. 7). Adds a background progress engine to
// the verbs MPIs and re-runs the two experiments that synchronous
// progress ruins: the LogP receiver overhead at rendezvous sizes and
// sender-side overlap. MX already progresses on the NIC; with async
// progress the verbs stacks catch up.
#include "core/bench.hpp"
#include "core/runners.hpp"

using namespace fabsim;
using namespace fabsim::core;

int main(int argc, char** argv) {
  const Bench bench("ext_async_progress", argc, argv);
  constexpr std::uint32_t kProbeMsg = 65536;  // rendezvous regime: the point of the ablation

  Report report(bench.report_name());
  report.add_note("LogP Or(m), synchronous vs asynchronous progress, verbs MPIs");
  report.add_note("probe: Or call-duration histograms + metrics at msg=64KB, iWARP sync/async");
  report.add_note("expected: with a progress engine the rendezvous handshake is answered while "
                  "the receiver computes, so the Or(m) jump (tens to hundreds of microseconds "
                  "under synchronous progress) collapses to the microsecond class: the verbs "
                  "stacks behave like MX's NIC progression");

  Table table("LogP receiver overhead Or(m) in us: sync vs async progress", "msg_bytes",
              {"iWARP sync", "iWARP async", "IB sync", "IB async"});
  for (std::uint32_t msg : {1024u, 16384u, 65536u, 262144u}) {
    NetworkProfile iw_async = iwarp_profile();
    iw_async.mpi.async_progress = true;
    NetworkProfile ib_async = ib_profile();
    ib_async.mpi.async_progress = true;
    Probe sync_probe(msg == kProbeMsg), async_probe(msg == kProbeMsg);
    table.add_row(msg, {logp_parameters(iwarp_profile(), msg, 10, nullptr, sync_probe.hist(),
                                        sync_probe.metrics())
                            .or_us,
                        logp_parameters(iw_async, msg, 10, nullptr, async_probe.hist()).or_us,
                        logp_parameters(ib_profile(), msg, 10).or_us,
                        logp_parameters(ib_async, msg, 10).or_us});
    sync_probe.record(report, "iwarp_sync", "or_us");
    async_probe.record(report, "iwarp_async", "or_us");
  }
  report.add_table(table);
  return bench.finish(report);
}
