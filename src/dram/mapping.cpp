#include "dram/mapping.hpp"

#include <bit>

namespace rmcc::dram
{

namespace
{

unsigned
log2u(std::uint64_t v)
{
    return static_cast<unsigned>(std::bit_width(v) - 1);
}

} // namespace

AddressMapper::AddressMapper(const DramConfig &cfg) : cfg_(cfg)
{
    col_bits_ = log2u(cfg_.row_bytes / addr::kBlockSize);
    bank_bits_ = log2u(cfg_.banks_per_rank);
    rank_bits_ = cfg_.ranks > 1 ? log2u(cfg_.ranks) : 0;
    chan_bits_ = cfg_.channels > 1 ? log2u(cfg_.channels) : 0;
}

} // namespace rmcc::dram
