/**
 * @file
 * Physical-address to DRAM-coordinate mapping.
 *
 * Uses an XOR-based (Skylake-like, per Table I / DRAMA) bank function:
 * bank index bits are XORed with row bits so that strided streams spread
 * across banks instead of ping-ponging one bank's row buffer.
 */
#ifndef RMCC_DRAM_MAPPING_HPP
#define RMCC_DRAM_MAPPING_HPP

#include <cstdint>

#include "address/types.hpp"
#include "dram/config.hpp"

namespace rmcc::dram
{

/** DRAM coordinates of a block address. */
struct DramCoord
{
    unsigned channel;
    unsigned rank;
    unsigned bank;      //!< Bank within the rank.
    std::uint64_t row;
    std::uint64_t column;

    /** Flat bank identifier across channels/ranks. */
    std::uint64_t flatBank(const DramConfig &cfg) const
    {
        return (static_cast<std::uint64_t>(channel) * cfg.ranks + rank) *
                   cfg.banks_per_rank +
               bank;
    }
};

/**
 * Address decoder with the XOR bank hash.
 */
class AddressMapper
{
  public:
    explicit AddressMapper(const DramConfig &cfg);

    /** Decode a byte address into DRAM coordinates. */
    DramCoord decode(addr::Addr a) const
    {
        // Bit layout (low to high): block offset | column | channel |
        // bank | rank | row.  The bank field is XOR-hashed with the low
        // row bits.
        std::uint64_t x = a >> addr::kBlockShift;
        DramCoord c{};
        c.column = x & ((1ULL << col_bits_) - 1);
        x >>= col_bits_;
        c.channel = static_cast<unsigned>(x & ((1ULL << chan_bits_) - 1));
        x >>= chan_bits_;
        const auto bank_raw =
            static_cast<unsigned>(x & ((1ULL << bank_bits_) - 1));
        x >>= bank_bits_;
        c.rank = static_cast<unsigned>(x & ((1ULL << rank_bits_) - 1));
        x >>= rank_bits_;
        c.row = x;
        // Skylake-style XOR hash: fold the low row bits into the bank
        // index.
        c.bank = bank_raw ^
                 static_cast<unsigned>(c.row & ((1ULL << bank_bits_) - 1));
        return c;
    }

  private:
    DramConfig cfg_;
    unsigned col_bits_, bank_bits_, rank_bits_, chan_bits_;
};

} // namespace rmcc::dram

#endif // RMCC_DRAM_MAPPING_HPP
