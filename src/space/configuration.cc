#include "space/configuration.hh"

#include <sstream>

#include "common/logging.hh"

namespace adaptsim::space
{

Configuration::Configuration()
{
    indices_.fill(0);
}

Configuration
Configuration::fromValues(const std::array<std::uint64_t, numParams> &vals)
{
    const auto &ds = DesignSpace::the();
    Configuration cfg;
    for (std::size_t i = 0; i < numParams; ++i) {
        const auto p = static_cast<Param>(i);
        cfg.indices_[i] =
            static_cast<std::uint8_t>(ds.indexOf(p, vals[i]));
    }
    return cfg;
}

Configuration
Configuration::profiling()
{
    const auto &ds = DesignSpace::the();
    Configuration cfg;
    for (auto p : allParams()) {
        cfg.setIndex(p, static_cast<std::uint8_t>(
            ds.numValues(p) - 1));
    }
    // Depth does not saturate; pin it to the mid-range 12 FO4/stage.
    cfg.setValue(Param::Depth, 12);
    return cfg;
}

void
Configuration::setIndex(Param p, std::uint8_t idx)
{
    const auto &ds = DesignSpace::the();
    if (idx >= ds.numValues(p))
        fatal("index ", int(idx), " out of range for ", ds.name(p));
    indices_[static_cast<std::size_t>(p)] = idx;
}

void
Configuration::setValue(Param p, std::uint64_t v)
{
    indices_[static_cast<std::size_t>(p)] =
        static_cast<std::uint8_t>(DesignSpace::the().indexOf(p, v));
}

std::uint64_t
Configuration::encode() const
{
    const auto &ds = DesignSpace::the();
    std::uint64_t code = 0;
    for (std::size_t i = numParams; i-- > 0;) {
        const auto p = static_cast<Param>(i);
        code = code * ds.numValues(p) + indices_[i];
    }
    return code;
}

Configuration
Configuration::decode(std::uint64_t code)
{
    const auto &ds = DesignSpace::the();
    Configuration cfg;
    for (std::size_t i = 0; i < numParams; ++i) {
        const auto p = static_cast<Param>(i);
        const std::uint64_t radix = ds.numValues(p);
        cfg.indices_[i] = static_cast<std::uint8_t>(code % radix);
        code /= radix;
    }
    return cfg;
}

std::string
Configuration::toString() const
{
    const auto &ds = DesignSpace::the();
    std::ostringstream os;
    bool first = true;
    for (auto p : allParams()) {
        if (!first)
            os << ' ';
        first = false;
        os << ds.name(p) << '=' << value(p);
    }
    return os.str();
}

std::string
Configuration::key() const
{
    std::ostringstream os;
    os << std::hex << encode();
    return os.str();
}

} // namespace adaptsim::space
