#include "energy/energy_model.hh"

namespace kagura
{

NvmParams
nvmParams(NvmType type, std::uint64_t mem_bytes)
{
    // Latencies follow the Table I ReRAM row (tRCD 18 ns + tCL 15 ns +
    // burst ~ 7.5 ns at a 200 MHz core -> ~9 cycles read). Energies are
    // per-32 B-block figures for embedded NVM macros at 45 nm; standby
    // power scales with capacity (peripheral leakage), which drives the
    // Fig. 27 trend (bigger NVM -> costlier misses).
    NvmParams p{};
    const double mb =
        static_cast<double>(mem_bytes) / (1024.0 * 1024.0);
    switch (type) {
      case NvmType::ReRam:
        p.readLatency = 9;
        p.writeLatency = 32;
        p.readEnergy = 100.0 + 2.5 * mb;
        p.writeEnergy = 200.0 + 2.5 * mb;
        p.standbyPower = 0.5e-6 * mb / 16.0;
        break;
      case NvmType::Pcm:
        p.readLatency = 12;
        p.writeLatency = 60;
        p.readEnergy = 85.0 + 2.5 * mb;
        p.writeEnergy = 360.0 + 3.5 * mb;
        p.standbyPower = 0.4e-6 * mb / 16.0;
        break;
      case NvmType::SttRam:
        p.readLatency = 8;
        p.writeLatency = 24;
        p.readEnergy = 75.0 + 2.0 * mb;
        p.writeEnergy = 150.0 + 2.0 * mb;
        p.standbyPower = 0.6e-6 * mb / 16.0;
        break;
    }
    return p;
}

} // namespace kagura
