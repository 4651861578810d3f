#include "tech/dram.h"

#include "util/names.h"
#include "util/units.h"

namespace optimus {
namespace dram {

namespace {

DramTech
make(const std::string &name, double bw, double cap, double pj_per_byte)
{
    return {name, bw, cap, pj_per_byte * 1e-12};
}

} // namespace

DramTech gddr6() { return make("GDDR6", 600 * GBps, 48 * GiB, 60.0); }
DramTech hbm2() { return make("HBM2", 1.0 * TBps, 32 * GiB, 31.0); }
DramTech hbm2e() { return make("HBM2E", 1.9 * TBps, 80 * GiB, 28.0); }
DramTech hbm3_26() { return make("HBM3", 2.6 * TBps, 96 * GiB, 26.0); }
DramTech hbm3() { return make("HBM3", 3.35 * TBps, 80 * GiB, 26.0); }
DramTech hbm3e() { return make("HBM3E", 4.8 * TBps, 141 * GiB, 24.0); }
DramTech hbm4() { return make("HBM4", 3.3 * TBps, 160 * GiB, 22.0); }
DramTech hbmx() { return make("HBMX", 6.8 * TBps, 192 * GiB, 20.0); }

std::optional<DramTech>
byName(std::string_view name)
{
    static constexpr Named<DramTech (*)()> kTechs[] = {
        {"gddr6", gddr6}, {"hbm2", hbm2}, {"hbm2e", hbm2e},
        {"hbm3-26", hbm3_26}, {"hbm3", hbm3}, {"hbm3e", hbm3e},
        {"hbm4", hbm4}, {"hbmx", hbmx},
    };
    if (std::optional<DramTech (*)()> make = findNamed(kTechs, name))
        return (*make)();
    return std::nullopt;
}

const std::vector<DramTech> &
trainingSweep()
{
    static const std::vector<DramTech> sweep = {hbm2(), hbm2e(),
                                                hbm3_26(), hbm4()};
    return sweep;
}

const std::vector<DramTech> &
inferenceSweep()
{
    static const std::vector<DramTech> sweep = {
        gddr6(), hbm2(), hbm2e(), hbm3(), hbm3e(), hbmx()};
    return sweep;
}

} // namespace dram
} // namespace optimus
