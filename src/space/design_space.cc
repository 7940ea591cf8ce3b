#include "space/design_space.hh"

#include <algorithm>
#include <cstdlib>

#include "common/logging.hh"

namespace adaptsim::space
{

namespace
{

std::vector<std::uint64_t>
linearRange(std::uint64_t lo, std::uint64_t hi, std::uint64_t step)
{
    std::vector<std::uint64_t> out;
    for (std::uint64_t v = lo; v <= hi; v += step)
        out.push_back(v);
    return out;
}

std::vector<std::uint64_t>
geometricRange(std::uint64_t lo, std::uint64_t hi)
{
    std::vector<std::uint64_t> out;
    for (std::uint64_t v = lo; v <= hi; v *= 2)
        out.push_back(v);
    return out;
}

} // namespace

std::array<Param, numParams>
allParams()
{
    std::array<Param, numParams> out;
    for (std::size_t i = 0; i < numParams; ++i)
        out[i] = static_cast<Param>(i);
    return out;
}

DesignSpace::DesignSpace()
{
    auto set = [&](Param p, std::string name,
                   std::vector<std::uint64_t> vals) {
        const auto i = static_cast<std::size_t>(p);
        names_[i] = std::move(name);
        values_[i] = std::move(vals);
    };

    set(Param::Width, "Width", {2, 4, 6, 8});
    set(Param::RobSize, "ROB", linearRange(32, 160, 8));
    set(Param::IqSize, "IQ", linearRange(8, 80, 8));
    set(Param::LsqSize, "LSQ", linearRange(8, 80, 8));
    set(Param::RfSize, "RF", linearRange(40, 160, 8));
    set(Param::RfRdPorts, "RFrd", linearRange(2, 16, 2));
    set(Param::RfWrPorts, "RFwr", linearRange(1, 8, 1));
    set(Param::GshareSize, "Gshare", geometricRange(1024, 32768));
    set(Param::BtbSize, "BTB", {1024, 2048, 4096});
    set(Param::MaxBranches, "Branches", {8, 16, 24, 32});
    set(Param::ICacheSize, "ICache",
        geometricRange(8 * 1024, 128 * 1024));
    set(Param::DCacheSize, "DCache",
        geometricRange(8 * 1024, 128 * 1024));
    set(Param::L2CacheSize, "UCache",
        geometricRange(256 * 1024, 4 * 1024 * 1024));
    set(Param::Depth, "Depth", linearRange(9, 36, 3));
}

const DesignSpace &
DesignSpace::the()
{
    static const DesignSpace instance;
    return instance;
}

const std::string &
DesignSpace::name(Param p) const
{
    return names_[static_cast<std::size_t>(p)];
}

std::size_t
DesignSpace::numValues(Param p) const
{
    return values_[static_cast<std::size_t>(p)].size();
}

std::uint64_t
DesignSpace::value(Param p, std::size_t idx) const
{
    const auto &vals = values_[static_cast<std::size_t>(p)];
    if (idx >= vals.size())
        panic("DesignSpace::value index out of range for ", name(p));
    return vals[idx];
}

const std::vector<std::uint64_t> &
DesignSpace::values(Param p) const
{
    return values_[static_cast<std::size_t>(p)];
}

std::size_t
DesignSpace::indexOf(Param p, std::uint64_t v) const
{
    const auto &vals = values_[static_cast<std::size_t>(p)];
    const auto it = std::find(vals.begin(), vals.end(), v);
    if (it == vals.end())
        fatal("value ", v, " is not legal for parameter ", name(p));
    return static_cast<std::size_t>(it - vals.begin());
}

double
DesignSpace::totalPoints() const
{
    double total = 1.0;
    for (const auto &vals : values_)
        total *= static_cast<double>(vals.size());
    return total;
}

std::size_t
DesignSpace::totalValueCount() const
{
    std::size_t total = 0;
    for (const auto &vals : values_)
        total += vals.size();
    return total;
}

} // namespace adaptsim::space
