// Architectural parameters of the simulated GPU.
//
// The constants come from public datasheets / the CUDA programming guide
// and are fixed once per device preset — they are not tuned per experiment
// (see DESIGN.md §5). Two presets mirror the paper's hardware: TITAN V
// (Volta, the main evaluation device) and Tesla K80 (Kepler, used for the
// NTG model validation in §4.2).
#pragma once

#include <cstdint>
#include <string>

namespace harmonia::gpusim {

struct DeviceSpec {
  std::string name;

  // SIMT geometry.
  unsigned warp_size = 32;
  unsigned num_sms = 80;
  /// Warps the scheduler can keep resident per SM; bounds latency hiding.
  unsigned max_resident_warps_per_sm = 64;

  // Memory system.
  std::uint64_t global_mem_bytes = 12ULL << 30;
  std::uint64_t const_mem_bytes = 64 << 10;  // classic CUDA limit
  std::uint64_t l2_bytes = 4608 << 10;
  std::uint64_t readonly_cache_bytes_per_sm = 128 << 10;
  unsigned line_bytes = 128;
  unsigned cache_ways = 8;

  // Latencies (cycles) by the level that finally serves a line.
  unsigned lat_dram = 400;
  unsigned lat_l2 = 200;
  unsigned lat_readonly = 30;
  unsigned lat_const = 8;
  /// Extra LSU issue cost for each additional transaction of one warp load
  /// (serialization caused by memory divergence).
  unsigned txn_issue_cycles = 4;

  // Compute.
  unsigned cycles_per_compute_step = 4;
  double clock_ghz = 1.455;

  /// Device-wide DRAM bandwidth expressed as cycles per 128 B transaction.
  /// TITAN V: 652.8 GB/s at 1.455 GHz -> 448.7 B/cycle -> 0.285 cyc/line.
  double dram_cycles_per_txn = 0.285;

  /// Fixed kernel launch overhead (cycles at device clock).
  double launch_overhead_cycles = 8000.0;

  /// Sanity-checks the parameters; Device's constructor calls this so a
  /// hand-built spec fails fast instead of mis-simulating.
  void validate() const;
};

/// TITAN V (Volta GV100): 80 SMs, 1.455 GHz boost, 652.8 GB/s HBM2, 4.5 MiB L2.
DeviceSpec titan_v();

/// Tesla K80 (one GK210 die): 13 SMs, 0.875 GHz, 240 GB/s, 1.5 MiB L2.
DeviceSpec tesla_k80();

}  // namespace harmonia::gpusim
