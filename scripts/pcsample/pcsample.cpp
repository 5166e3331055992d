// Leaf-PC sampler: an LD_PRELOAD shim that records the interrupted
// program counter on every ITIMER_PROF tick (process CPU time) and, at
// exit, writes the samples and the process's memory map to
// "$PCSAMPLE_OUT.<pid>"; without PCSAMPLE_OUT the shim stays idle.
// pcsample.py runs a command under it and symbolizes the result.
// x86-64 Linux only.
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace {

constexpr std::size_t kMaxSamples = std::size_t{1} << 22;
/// Sampling period in CPU time; the kernel rounds it up to its own tick.
constexpr long kPeriodUs = 1000;
std::uintptr_t* g_pcs = nullptr;
volatile std::size_t g_count = 0;

void on_tick(int, siginfo_t*, void* context) {
  if (g_count < kMaxSamples) {
    const auto* uc = static_cast<const ucontext_t*>(context);
    g_pcs[g_count] = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
    g_count = g_count + 1;
  }
}

__attribute__((constructor)) void start() {
  if (std::getenv("PCSAMPLE_OUT") == nullptr) return;
  g_pcs = static_cast<std::uintptr_t*>(std::calloc(kMaxSamples, sizeof(std::uintptr_t)));
  if (g_pcs == nullptr) return;
  struct sigaction action {};
  action.sa_sigaction = on_tick;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigaction(SIGPROF, &action, nullptr);
  const itimerval timer{{0, kPeriodUs}, {0, kPeriodUs}};
  setitimer(ITIMER_PROF, &timer, nullptr);
}

__attribute__((destructor)) void stop() {
  if (g_pcs == nullptr) return;
  const itimerval off{};
  setitimer(ITIMER_PROF, &off, nullptr);
  char path[4096];
  std::snprintf(path, sizeof path, "%s.%d", std::getenv("PCSAMPLE_OUT"), static_cast<int>(getpid()));
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) return;
  if (std::FILE* maps = std::fopen("/proc/self/maps", "r")) {
    char line[4096];
    while (std::fgets(line, sizeof line, maps) != nullptr) std::fprintf(out, "map %s", line);
    std::fclose(maps);
  }
  for (std::size_t i = 0; i < g_count; ++i) std::fprintf(out, "pc %zx\n", g_pcs[i]);
  std::fclose(out);
}

}  // namespace
