/**
 * @file
 * The benchmark's workloads and the simulated set-up that makes each
 * one's capture: boot and fill a victim, mount an encrypted volume,
 * cold-boot transfer its DIMM to an attacker machine, and write the
 * attacker's dump to a file.
 *
 * Alongside the capture file the set-up keeps the ground truth the
 * correctness checks compare against. The operations under test only
 * ever see the capture file.
 */

#ifndef PERFBENCH_SCENARIO_HH
#define PERFBENCH_SCENARIO_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "trace.hh"

namespace perfbench
{

/** What one operation of a workload does. */
enum class OpKind
{
    /** Open the capture, run the whole attack, decrypt a sector. */
    Attack,
    /** A DescrambleSession writing the descrambled image. */
    Descramble,
    /** The attack with an unlimited mining scan; finds nothing. */
    Triage,
};

/** Make-up of one workload (README.md lists the values). */
struct WorkloadSpec
{
    std::string name;
    OpKind kind = OpKind::Attack;
    /** Base of every simulation seed; --seed offsets it. */
    uint64_t base_seed = 0;
    /** Victim DRAM capacity in bytes. */
    uint64_t capacity = 0;
    /** Victim memory protected by ChaCha8 instead of the scrambler. */
    bool chacha8 = false;
    /**
     * The key-table search covers only the first this many bytes of
     * the capture (0 = all of it). Mining always reads the whole
     * capture, up to the miner's own scan limit.
     */
    uint64_t search_bytes = 0;
};

/** The benchmark's workloads, in BENCHMARK.json order. */
const std::vector<WorkloadSpec> &workloads();

/** Workload by name, or nullptr. */
const WorkloadSpec *findWorkload(const std::string &name);

/** Volume sector the set-up plants a known plaintext in. */
constexpr uint64_t kPlantedSector = 3;

/** One 64-byte scrambler key. */
using Key64 = std::array<uint8_t, 64>;

/** Seconds each set-up step took. */
struct SetupTimes
{
    double boot = 0.0;
    double fill = 0.0;
    double mount = 0.0;
    double decrypt = 0.0;
    double transfer = 0.0;
    double capture_write = 0.0;
};

/** A capture file plus the ground truth the attack never sees. */
struct Capture
{
    std::string path;
    uint64_t bytes = 0;
    /**
     * Where the volume driver cached its two key schedules: 3/4 into
     * the searched span, + 16 bytes.
     */
    uint64_t keytable_addr = 0;
    /** The volume's XTS master keys: data key || tweak key. */
    std::vector<uint8_t> master_keys;
    /** Ciphertext of kPlantedSector in the volume container. */
    std::vector<uint8_t> sector_ciphertext;
    /** Plaintext the set-up wrote to kPlantedSector. */
    std::vector<uint8_t> planted;
    /**
     * Victim XOR attacker scrambler line keys for line indices
     * 0..4095 (what a zero line reads as in the dump); empty for an
     * encrypted victim.
     */
    std::vector<Key64> truth_keys;
    /** Bits that decayed during the transfer. */
    uint64_t bits_flipped = 0;
    SetupTimes times;
};

/**
 * Simulate the workload's victim and transfer, and write the
 * attacker's dump to @p path. Each step runs in a span of operation
 * 0 on @p tracer. The same (@p spec, @p seed) gives the same capture.
 */
Capture simulateCapture(const WorkloadSpec &spec, uint64_t seed,
                        const std::string &path, Tracer &tracer);

/**
 * simulateCapture() in a forked child process, untraced. The child
 * hands its ground truth back through @p path + ".truth", so the
 * simulator's memory stays out of this process's peak RSS. Call it
 * before this process starts any thread. Throws if the child fails.
 */
Capture simulateCaptureInChild(const WorkloadSpec &spec, uint64_t seed,
                               const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_SCENARIO_HH
