// A compute node: CPU + memory + the PCIe slot NICs plug into.
#pragma once

#include <memory>

#include "hw/cpu.hpp"
#include "hw/memory.hpp"
#include "hw/pci.hpp"
#include "sim/engine.hpp"
#include "sim/scope.hpp"

namespace fabsim::hw {

class Node {
 public:
  Node(Engine& engine, int id, PciConfig pcie, CpuConfig cpu = {})
      : engine_(&engine), id_(id), cpu_(engine, cpu), pcie_(pcie) {
    pcie_.set_owner(&engine);
  }

  int id() const { return id_; }
  Engine& engine() const { return *engine_; }
  HostCpu& cpu() { return cpu_; }
  AddressSpace& mem() { return mem_; }
  PcieBus& pcie() { return pcie_; }

 private:
  // Scope/ownership annotations (scripts/scope_check.py, src/sim/scope.hpp).
  FABSIM_ENGINE_LOCAL;  // engine plumbing + node identity
  Engine* engine_;
  int id_;
  FABSIM_OWNED_BY(id_);  // host resources: booked only by this node's
                         // events (or scope -1 coroutine resumes)
  HostCpu cpu_;
  AddressSpace mem_;
  PcieBus pcie_;
};

}  // namespace fabsim::hw
