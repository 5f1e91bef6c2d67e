#include "checks.hh"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <set>

#include "common/hex.hh"
#include "crypto/sha256.hh"
#include "crypto/xts.hh"
#include "simd/simd.hh"

using namespace coldboot;

namespace perfbench
{

namespace
{

constexpr uint64_t kKeyPeriodBytes = 4096 * 64;
constexpr uint64_t kReadChunk = 1ull << 20;

std::string
keyString(const uint8_t *key)
{
    return std::string(reinterpret_cast<const char *>(key), 64);
}

} // anonymous namespace

std::string
checkAttack(const std::vector<attack::RecoveredXtsKeys> &pairs,
            const std::vector<std::vector<uint8_t>> &op_plaintexts,
            const Capture &truth)
{
    if (pairs.size() != op_plaintexts.size())
        return "one decrypted sector per recovered pair expected";
    const uint8_t *data_key = truth.master_keys.data();
    const uint8_t *tweak_key = truth.master_keys.data() + 32;
    for (size_t i = 0; i < pairs.size(); ++i) {
        const auto &pair = pairs[i];
        if (pair.data_key.size() != 32 || pair.tweak_key.size() != 32 ||
            std::memcmp(pair.data_key.data(), data_key, 32) != 0 ||
            std::memcmp(pair.tweak_key.data(), tweak_key, 32) != 0)
            continue;
        crypto::XtsAes xts({pair.data_key.data(), 32},
                           {pair.tweak_key.data(), 32});
        std::vector<uint8_t> plain(truth.sector_ciphertext.size());
        xts.decryptSector(kPlantedSector, truth.sector_ciphertext, plain);
        if (plain != truth.planted)
            return "the matching pair does not decrypt the planted "
                   "sector";
        if (op_plaintexts[i] != truth.planted)
            return "the operation's decrypted sector is wrong";
        return "";
    }
    return "no recovered XTS pair equals the volume's master keys (" +
           std::to_string(pairs.size()) + " pairs)";
}

std::string
checkDescrambledFile(const std::string &out_path,
                     const exec::DumpSource &capture,
                     const std::string &reported_sha256_hex,
                     const std::vector<Key64> &truth_keys)
{
    std::ifstream in(out_path, std::ios::binary);
    if (!in)
        return "cannot read back '" + out_path + "'";
    crypto::Sha256 sha;
    std::vector<uint8_t> out(kReadChunk);
    exec::ChunkBuffer buf;
    uint8_t key[64];
    uint64_t offset = 0;
    while (true) {
        in.read(reinterpret_cast<char *>(out.data()),
                static_cast<std::streamsize>(out.size()));
        uint64_t got = static_cast<uint64_t>(in.gcount());
        if (got == 0)
            break;
        if (offset + got > capture.size() || got % 64 != 0)
            return "descrambled file is not the capture's size";
        sha.update({out.data(), got});
        auto cap = capture.chunk(offset, got, buf);
        for (uint64_t line = 0; line < got; line += 64) {
            uint8_t x[64];
            for (int b = 0; b < 64; ++b)
                x[b] = static_cast<uint8_t>(out[line + b] ^ cap[line + b]);
            if (offset + line == 0)
                std::memcpy(key, x, 64);
            else if (std::memcmp(key, x, 64) != 0)
                return "output XOR capture differs at line " +
                       std::to_string((offset + line) / 64);
        }
        offset += got;
    }
    if (offset != capture.size())
        return "descrambled file is not the capture's size";
    auto digest = sha.finish();
    if (toHex(digest) != reported_sha256_hex)
        return "reported SHA-256 does not match the written file";
    for (const Key64 &t : truth_keys)
        if (std::memcmp(t.data(), key, 64) == 0)
            return "";
    return "the descrambling key is not a ground-truth line key";
}

std::string
checkMinedKeys(const std::vector<attack::MinedKey> &mined,
               const std::vector<Key64> &truth_keys)
{
    if (mined.size() != truth_keys.size())
        return "mined " + std::to_string(mined.size()) + " keys, not " +
               std::to_string(truth_keys.size());
    std::vector<bool> taken(truth_keys.size(), false);
    for (size_t i = 0; i < mined.size(); ++i) {
        size_t best = 0;
        unsigned best_bits = 513;
        for (size_t t = 0; t < truth_keys.size(); ++t) {
            unsigned bits = simd::hammingDistance(
                mined[i].key.data(), truth_keys[t].data(), 64);
            if (bits < best_bits) {
                best = t;
                best_bits = bits;
            }
        }
        if (best_bits > kMinedKeyMaxBitErrors)
            return "mined key " + std::to_string(i) + " is " +
                   std::to_string(best_bits) +
                   " bits from every ground-truth key";
        if (taken[best])
            return "two mined keys match ground-truth key " +
                   std::to_string(best);
        taken[best] = true;
    }
    return "";
}

size_t
countExactKeys(const std::vector<attack::MinedKey> &mined,
               const std::vector<Key64> &truth_keys)
{
    std::set<std::string> truth;
    for (const Key64 &t : truth_keys)
        truth.insert(keyString(t.data()));
    size_t exact = 0;
    for (const auto &mk : mined)
        exact += truth.erase(keyString(mk.key.data()));
    return exact;
}

std::string
checkTriage(const attack::PipelineReport &report, uint64_t capture_bytes)
{
    if (!report.mined_keys.empty())
        return std::to_string(report.mined_keys.size()) +
               " scrambler keys mined from an encrypted capture";
    if (!report.recovered.empty())
        return "an AES key table was found";
    if (!report.xts_pairs.empty())
        return "an XTS pair was formed";
    if (report.miner_stats.blocks_scanned != capture_bytes / 64)
        return "the miner scanned " +
               std::to_string(report.miner_stats.blocks_scanned) +
               " blocks, not the capture's " +
               std::to_string(capture_bytes / 64);
    return "";
}

uint64_t
countKeyPeriodRepeats(const exec::DumpSource &capture)
{
    if (capture.size() <= kKeyPeriodBytes)
        return 0;
    exec::ChunkBuffer buf;
    uint64_t repeats = 0;
    const uint64_t span = capture.size() - kKeyPeriodBytes;
    for (uint64_t off = 0; off < span; off += kReadChunk) {
        uint64_t len = std::min(kReadChunk, span - off);
        // One read covers the chunk and its partner lines.
        auto bytes = capture.chunk(off, len + kKeyPeriodBytes, buf);
        for (uint64_t line = 0; line < len; line += 64)
            repeats += simd::hammingDistance(
                           bytes.data() + line,
                           bytes.data() + line + kKeyPeriodBytes,
                           64) <= 64;
    }
    return repeats;
}

std::string
checkNoKeyPeriodRepeats(const exec::DumpSource &capture)
{
    uint64_t repeats = countKeyPeriodRepeats(capture);
    if (repeats != 0)
        return std::to_string(repeats) +
               " line pairs one key period apart are within 64 bits";
    return "";
}

std::string
compareReports(const attack::PipelineReport &a,
               const attack::PipelineReport &b)
{
    if (a.mined_keys.size() != b.mined_keys.size())
        return "mined key counts differ";
    for (size_t i = 0; i < a.mined_keys.size(); ++i) {
        const auto &x = a.mined_keys[i];
        const auto &y = b.mined_keys[i];
        if (x.key != y.key || x.occurrences != y.occurrences ||
            x.first_offset != y.first_offset)
            return "mined key " + std::to_string(i) + " differs";
    }
    if (a.recovered.size() != b.recovered.size())
        return "recovered table counts differ";
    for (size_t i = 0; i < a.recovered.size(); ++i) {
        const auto &x = a.recovered[i];
        const auto &y = b.recovered[i];
        if (x.master != y.master || x.key_size != y.key_size ||
            x.table_offset != y.table_offset ||
            x.verified_blocks != y.verified_blocks ||
            x.total_bit_errors != y.total_bit_errors)
            return "recovered table " + std::to_string(i) + " differs";
    }
    if (a.xts_pairs.size() != b.xts_pairs.size())
        return "XTS pair counts differ";
    for (size_t i = 0; i < a.xts_pairs.size(); ++i) {
        const auto &x = a.xts_pairs[i];
        const auto &y = b.xts_pairs[i];
        if (x.data_key != y.data_key || x.tweak_key != y.tweak_key ||
            x.table_offset != y.table_offset)
            return "XTS pair " + std::to_string(i) + " differs";
    }
    const auto &m = a.miner_stats;
    const auto &n = b.miner_stats;
    if (m.blocks_scanned != n.blocks_scanned ||
        m.litmus_hits != n.litmus_hits || m.clusters != n.clusters ||
        m.keys_reported != n.keys_reported)
        return "miner counts differ";
    const auto &s = a.search_stats;
    const auto &t = b.search_stats;
    if (s.blocks_scanned != t.blocks_scanned ||
        s.descramble_attempts != t.descramble_attempts ||
        s.litmus_hits != t.litmus_hits ||
        s.reconstructions_tried != t.reconstructions_tried ||
        s.reconstructions_verified != t.reconstructions_verified)
        return "search counts differ";
    return "";
}

} // namespace perfbench
