/**
 * @file
 * Off-chip DRAM technology table (paper Secs. 5.3, 6.2): four HBM
 * generations for the training node-scaling study, and the inference
 * study's sweep from GDDR6 to the hypothetical HBMX.
 */

#ifndef OPTIMUS_TECH_DRAM_H
#define OPTIMUS_TECH_DRAM_H

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace optimus {

/** One DRAM technology generation. */
struct DramTech
{
    std::string name;
    double bandwidth = 0.0;  ///< bytes/s per device
    double capacity = 0.0;   ///< bytes per device
    double energyPerByte = 0.0;  ///< J/byte access energy
};

namespace dram {

DramTech gddr6();   ///< 600 GB/s
DramTech hbm2();    ///< 1.0 TB/s
DramTech hbm2e();   ///< 1.9 TB/s
DramTech hbm3_26(); ///< 2.6 TB/s (the node-scaling study's HBM3)
DramTech hbm3();    ///< 3.35 TB/s (H100's HBM3)
DramTech hbm3e();   ///< 4.8 TB/s
DramTech hbm4();    ///< 3.3 TB/s projected stack used in Fig. 6
DramTech hbmx();    ///< 6.8 TB/s futuristic (Fig. 9)

/**
 * The technology spelled @p name ("gddr6", "hbm2", "hbm2e",
 * "hbm3-26", "hbm3", "hbm3e", "hbm4", "hbmx"), or nullopt.
 */
std::optional<DramTech> byName(std::string_view name);

/** The Fig. 6 training sweep: HBM2, HBM2E, HBM3(2.6), HBM4. */
const std::vector<DramTech> &trainingSweep();

/** The Fig. 9 inference sweep: GDDR6 ... HBMX. */
const std::vector<DramTech> &inferenceSweep();

} // namespace dram
} // namespace optimus

#endif // OPTIMUS_TECH_DRAM_H
