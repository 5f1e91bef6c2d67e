/**
 * @file
 * The benchmark's checks must reject a planted wrong answer. Small
 * captures made by the benchmark's own set-up stand in for the long
 * workloads. The scrambled one is 16 MiB so that mining sees enough
 * copies of every key to majority-vote it exactly, as the
 * descramble_64mib workload does.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>

#include "attack/key_miner.hh"
#include "attack/sessions.hh"
#include "checks.hh"
#include "common/hex.hh"
#include "common/units.hh"
#include "crypto/sha256.hh"
#include "crypto/xts.hh"
#include "scenario.hh"

using namespace coldboot;
using namespace perfbench;

namespace
{

/** A small capture of the given make-up, written to the cwd. */
struct SmallCapture
{
    SmallCapture(const char *path, OpKind kind, uint64_t bytes,
                 bool chacha8)
    {
        WorkloadSpec spec{"small", kind, 4242, bytes, chacha8};
        Tracer off(false);
        cap = simulateCapture(spec, 0, path, off);
        dump = exec::openDumpSource(path);
    }
    ~SmallCapture() { std::remove(cap.path.c_str()); }

    Capture cap;
    std::unique_ptr<exec::DumpSource> dump;
};

std::unique_ptr<SmallCapture> scrambled;
std::unique_ptr<SmallCapture> encrypted;

class Checks : public testing::Test
{
  protected:
    static void SetUpTestSuite()
    {
        scrambled = std::make_unique<SmallCapture>(
            "perfbench_test_scrambled.img", OpKind::Descramble, MiB(16),
            false);
        encrypted = std::make_unique<SmallCapture>(
            "perfbench_test_chacha8.img", OpKind::Triage, MiB(1), true);
    }
    static void TearDownTestSuite()
    {
        scrambled.reset();
        encrypted.reset();
    }
};

attack::RecoveredXtsKeys
truePair(const Capture &cap)
{
    attack::RecoveredXtsKeys pair;
    pair.data_key.assign(cap.master_keys.begin(),
                         cap.master_keys.begin() + 32);
    pair.tweak_key.assign(cap.master_keys.begin() + 32,
                          cap.master_keys.end());
    return pair;
}

std::vector<uint8_t>
decryptPlanted(const attack::RecoveredXtsKeys &pair, const Capture &cap)
{
    crypto::XtsAes xts(pair.data_key, pair.tweak_key);
    std::vector<uint8_t> plain(cap.sector_ciphertext.size());
    xts.decryptSector(kPlantedSector, cap.sector_ciphertext, plain);
    return plain;
}

std::vector<attack::MinedKey>
asMined(const std::vector<Key64> &keys)
{
    std::vector<attack::MinedKey> mined;
    for (const Key64 &k : keys)
        mined.emplace_back(k, 2, 0);
    return mined;
}

} // anonymous namespace

// Runs before the Checks suite, while the test process is still
// single-threaded, as the benchmark's own forked set-up is.
TEST(Setup, ChildHandsBackTheSameGroundTruth)
{
    WorkloadSpec spec{"small", OpKind::Attack, 4242, MiB(1), false};
    Tracer off(false);
    Capture here = simulateCapture(spec, 3, "perfbench_test_here.img", off);
    Capture child =
        simulateCaptureInChild(spec, 3, "perfbench_test_child.img");
    EXPECT_EQ(child.path, "perfbench_test_child.img");
    EXPECT_EQ(child.bytes, here.bytes);
    EXPECT_EQ(child.keytable_addr, here.keytable_addr);
    EXPECT_EQ(child.bits_flipped, here.bits_flipped);
    EXPECT_EQ(child.master_keys, here.master_keys);
    EXPECT_EQ(child.sector_ciphertext, here.sector_ciphertext);
    EXPECT_EQ(child.planted, here.planted);
    EXPECT_EQ(child.truth_keys, here.truth_keys);
    EXPECT_GT(child.times.transfer, 0.0);
    auto a = exec::openDumpSource(here.path);
    auto b = exec::openDumpSource(child.path);
    ASSERT_EQ(a->size(), b->size());
    exec::ChunkBuffer abuf, bbuf;
    auto x = a->chunk(0, a->size(), abuf);
    auto y = b->chunk(0, b->size(), bbuf);
    EXPECT_TRUE(std::equal(x.begin(), x.end(), y.begin()));
    std::remove(here.path.c_str());
    std::remove(child.path.c_str());
}

TEST_F(Checks, AttackAcceptsTheMasterKeys)
{
    const Capture &cap = scrambled->cap;
    auto pair = truePair(cap);
    EXPECT_EQ(checkAttack({pair}, {decryptPlanted(pair, cap)}, cap), "");
}

TEST_F(Checks, AttackRejectsOneFlippedKeyBit)
{
    const Capture &cap = scrambled->cap;
    for (bool tweak : {false, true}) {
        auto pair = truePair(cap);
        (tweak ? pair.tweak_key : pair.data_key)[7] ^= 0x10;
        EXPECT_NE(checkAttack({pair}, {decryptPlanted(pair, cap)}, cap),
                  "")
            << (tweak ? "tweak key" : "data key");
    }
}

TEST_F(Checks, AttackRejectsAWrongDecryptionOrNoPair)
{
    const Capture &cap = scrambled->cap;
    auto pair = truePair(cap);
    auto plain = decryptPlanted(pair, cap);
    plain[0] ^= 1;
    EXPECT_NE(checkAttack({pair}, {plain}, cap), "");
    EXPECT_NE(checkAttack({}, {}, cap), "");
}

TEST_F(Checks, DescrambleRejectsOneChangedByte)
{
    const char *out = "perfbench_test_descrambled.img";
    attack::DescrambleSession session(*scrambled->dump, out);
    session.runToCompletion();
    const auto &res = session.result();
    const auto &truth = scrambled->cap.truth_keys;
    ASSERT_EQ(checkDescrambledFile(out, *scrambled->dump, res.sha256_hex,
                                   truth),
              "");

    {
        std::fstream f(out, std::ios::in | std::ios::out |
                                std::ios::binary);
        f.seekp(12345);
        f.put('\x5a');
    }
    EXPECT_NE(checkDescrambledFile(out, *scrambled->dump, res.sha256_hex,
                                   truth),
              "");
    // Even with a digest that matches the changed file, the output
    // no longer differs from the capture by one repeated key.
    std::ifstream in(out, std::ios::binary);
    std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
    EXPECT_NE(checkDescrambledFile(out, *scrambled->dump,
                                   toHex(crypto::Sha256::digest(bytes)),
                                   truth),
              "");
    std::remove(out);
}

TEST_F(Checks, DescrambleRejectsAKeyOutsideTheTruth)
{
    const char *out = "perfbench_test_descrambled2.img";
    attack::DescrambleSession session(*scrambled->dump, out);
    session.runToCompletion();
    auto truth = scrambled->cap.truth_keys;
    for (auto &k : truth)
        k[0] ^= 1;
    EXPECT_NE(checkDescrambledFile(out, *scrambled->dump,
                                   session.result().sha256_hex, truth),
              "");
    std::remove(out);
}

TEST_F(Checks, MinedKeysRejectAMissingOrExtraKey)
{
    const auto &truth = scrambled->cap.truth_keys;
    ASSERT_EQ(truth.size(), 4096u);
    EXPECT_EQ(checkMinedKeys(asMined(truth), truth), "");
    EXPECT_EQ(countExactKeys(asMined(truth), truth), 4096u);

    auto missing = asMined(truth);
    missing.erase(missing.begin() + 100);
    EXPECT_NE(checkMinedKeys(missing, truth), "");

    auto extra = asMined(truth);
    Key64 bogus = truth[0];
    bogus[5] ^= 0x80;
    extra.emplace_back(bogus, 2, 0);
    EXPECT_NE(checkMinedKeys(extra, truth), "");

    auto duplicate = asMined(truth);
    duplicate.back() = duplicate.front();
    EXPECT_NE(checkMinedKeys(duplicate, truth), "");
    EXPECT_EQ(countExactKeys(duplicate, truth), 4095u);
}

TEST_F(Checks, MinedKeysTolerateAFewBitErrorsButCountThem)
{
    const auto &truth = scrambled->cap.truth_keys;
    auto near = asMined(truth);
    near[7].key[3] ^= 0x01; // one decayed bit left by the vote
    EXPECT_EQ(checkMinedKeys(near, truth), "");
    EXPECT_EQ(countExactKeys(near, truth), 4095u);

    auto far = asMined(truth);
    for (unsigned b = 0; b <= kMinedKeyMaxBitErrors; ++b)
        far[7].key[b] ^= 0x01;
    EXPECT_NE(checkMinedKeys(far, truth), "");
}

TEST_F(Checks, TriageAcceptsAnEncryptedCapture)
{
    attack::MinerParams params;
    params.scan_limit_bytes = 0;
    attack::PipelineReport report;
    report.mined_keys = attack::mineScramblerKeys(
        *encrypted->dump, params, &report.miner_stats);
    EXPECT_EQ(checkTriage(report, encrypted->cap.bytes), "");
    EXPECT_EQ(checkNoKeyPeriodRepeats(*encrypted->dump), "");

    report.miner_stats.blocks_scanned -= 1;
    EXPECT_NE(checkTriage(report, encrypted->cap.bytes), "");
}

TEST_F(Checks, TriageRejectsAScrambledCapture)
{
    attack::MinerParams params;
    params.scan_limit_bytes = 0;
    attack::PipelineReport report;
    report.mined_keys = attack::mineScramblerKeys(
        *scrambled->dump, params, &report.miner_stats);
    EXPECT_NE(checkTriage(report, scrambled->cap.bytes), "");
    EXPECT_GT(countKeyPeriodRepeats(*scrambled->dump), 0u);
    EXPECT_NE(checkNoKeyPeriodRepeats(*scrambled->dump), "");
}

TEST_F(Checks, CompareReportsSeesOneFlippedBit)
{
    attack::PipelineReport a;
    a.xts_pairs.push_back(truePair(scrambled->cap));
    attack::PipelineReport b = a;
    EXPECT_EQ(compareReports(a, b), "");
    b.xts_pairs[0].tweak_key[31] ^= 1;
    EXPECT_NE(compareReports(a, b), "");
}

TEST(Trace, ParentsResolveOnlyWhenNestedProperly)
{
    Tracer tracer(true);
    {
        Scope outer(tracer, "outer", 7);
        Scope inner(tracer, "inner", 7);
    }
    EXPECT_TRUE(tracer.parentsResolve());
    ASSERT_EQ(tracer.spans().size(), 2u);
    EXPECT_EQ(tracer.spans()[1].parent, tracer.spans()[0].id);
    EXPECT_NE(tracer.chromeJson().find("\"parent\":1"),
              std::string::npos);

    uint64_t a = tracer.open("a", 1);
    tracer.open("b", 1);
    tracer.close(a); // out of order
    EXPECT_FALSE(tracer.parentsResolve());
}
