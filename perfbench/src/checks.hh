/**
 * @file
 * Correctness checks the benchmark applies to every operation.
 *
 * Each check compares an operation's output against ground truth the
 * set-up kept aside, or recomputes a property independently of the
 * attack code. A check returns "" when it passes and otherwise a
 * one-line reason.
 */

#ifndef PERFBENCH_CHECKS_HH
#define PERFBENCH_CHECKS_HH

#include <string>
#include <vector>

#include "attack/attack_pipeline.hh"
#include "exec/dump_io.hh"
#include "scenario.hh"

namespace perfbench
{

/**
 * attack_4mib: some recovered XTS pair equals the victim's master
 * keys, and decrypting the planted sector with it - independently
 * here, and as the operation did (@p op_plaintexts, one per pair) -
 * gives back the planted plaintext.
 */
std::string checkAttack(
    const std::vector<coldboot::attack::RecoveredXtsKeys> &pairs,
    const std::vector<std::vector<uint8_t>> &op_plaintexts,
    const Capture &truth);

/**
 * descramble_64mib: the file at @p out_path hashes to
 * @p reported_sha256_hex, has the capture's size, differs from the
 * capture by one 64-byte value repeated on every line, and that
 * value is one of the ground-truth line keys.
 */
std::string checkDescrambledFile(const std::string &out_path,
                                 const coldboot::exec::DumpSource &capture,
                                 const std::string &reported_sha256_hex,
                                 const std::vector<Key64> &truth_keys);

/** Bits a mined key may differ from its ground-truth key. */
constexpr unsigned kMinedKeyMaxBitErrors = 8;

/**
 * The mined keys match the ground-truth keys one to one: each is
 * within kMinedKeyMaxBitErrors bits of its nearest ground-truth key
 * (random keys are ~256 bits apart), and no two share one.
 */
std::string checkMinedKeys(
    const std::vector<coldboot::attack::MinedKey> &mined,
    const std::vector<Key64> &truth_keys);

/** Ground-truth keys some mined key equals byte for byte. */
size_t countExactKeys(const std::vector<coldboot::attack::MinedKey> &mined,
                      const std::vector<Key64> &truth_keys);

/**
 * triage: nothing mined, no key table, no pair, and the miner
 * scanned every line of a @p capture_bytes capture.
 */
std::string checkTriage(const coldboot::attack::PipelineReport &report,
                        uint64_t capture_bytes);

/**
 * Pairs of lines 256 KiB (one scrambler key period) apart whose
 * Hamming distance is at most 64 bits. A per-address keystream
 * leaves none; the stock DDR4 scrambler leaves one per pair of zero
 * lines.
 */
uint64_t countKeyPeriodRepeats(const coldboot::exec::DumpSource &capture);

/** checkTriage's companion: countKeyPeriodRepeats() must be 0. */
std::string checkNoKeyPeriodRepeats(
    const coldboot::exec::DumpSource &capture);

/**
 * Whether two attack results are byte-identical: mined keys,
 * recovered tables, pairs and the miner/search counts.
 */
std::string compareReports(const coldboot::attack::PipelineReport &a,
                           const coldboot::attack::PipelineReport &b);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_HH
