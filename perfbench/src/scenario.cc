#include "scenario.hh"

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <type_traits>

#include "common/units.hh"
#include "dram/dram_module.hh"
#include "engine/encrypted_controller.hh"
#include "platform/coldboot.hh"
#include "platform/machine.hh"
#include "platform/workload.hh"
#include "volume/veracrypt_volume.hh"

using namespace coldboot;

namespace perfbench
{

namespace
{

const char kPassphrase[] = "hunter2";
const char kSecret[] = "the secret plans";
constexpr uint64_t kVolumeSectors = 16;
/** Seeds of one run are base + kSeedStride * --seed + 0..4. */
constexpr uint64_t kSeedStride = 16;
/** Longest vector a truth file may hold (4096 keys fit easily). */
constexpr uint64_t kMaxTruthElems = 1u << 20;

template <typename T>
void
put(std::ofstream &f, const T &v)
{
    static_assert(std::is_trivially_copyable_v<T>);
    f.write(reinterpret_cast<const char *>(&v), sizeof(v));
}

template <typename T>
void
putVec(std::ofstream &f, const std::vector<T> &v)
{
    put(f, static_cast<uint64_t>(v.size()));
    f.write(reinterpret_cast<const char *>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(T)));
}

template <typename T>
void
get(std::ifstream &f, T &v)
{
    static_assert(std::is_trivially_copyable_v<T>);
    f.read(reinterpret_cast<char *>(&v), sizeof(v));
}

template <typename T>
void
getVec(std::ifstream &f, std::vector<T> &v)
{
    uint64_t n = 0;
    get(f, n);
    if (!f || n > kMaxTruthElems)
        throw std::runtime_error("set-up: corrupt truth file");
    v.resize(n);
    f.read(reinterpret_cast<char *>(v.data()),
           static_cast<std::streamsize>(n * sizeof(T)));
}

void
writeTruth(const Capture &cap, const std::string &path)
{
    std::ofstream f(path, std::ios::binary);
    put(f, cap.bytes);
    put(f, cap.keytable_addr);
    put(f, cap.bits_flipped);
    put(f, cap.times);
    putVec(f, cap.master_keys);
    putVec(f, cap.sector_ciphertext);
    putVec(f, cap.planted);
    putVec(f, cap.truth_keys);
    f.close();
    if (!f)
        throw std::runtime_error("set-up: cannot write " + path);
}

Capture
readTruth(const std::string &path)
{
    Capture cap;
    std::ifstream f(path, std::ios::binary);
    get(f, cap.bytes);
    get(f, cap.keytable_addr);
    get(f, cap.bits_flipped);
    get(f, cap.times);
    getVec(f, cap.master_keys);
    getVec(f, cap.sector_ciphertext);
    getVec(f, cap.planted);
    getVec(f, cap.truth_keys);
    if (!f)
        throw std::runtime_error("set-up: cannot read " + path);
    return cap;
}

} // anonymous namespace

const std::vector<WorkloadSpec> &
workloads()
{
    static const std::vector<WorkloadSpec> table = {
        // E4's attack, in a capture big enough for the miner to find
        // every key (a 4 MiB capture leaves some table keys with too
        // few copies on some seeds), searching a 512 KiB window so a
        // run holds several operations (see README.md).
        {"attack_4mib", OpKind::Attack, 9000, MiB(16), false, KiB(512)},
        {"descramble_64mib", OpKind::Descramble, 500, MiB(64), false, 0},
        {"triage_chacha8_256mib", OpKind::Triage, 7000, MiB(256), true,
         0},
    };
    return table;
}

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &spec : workloads())
        if (spec.name == name)
            return &spec;
    return nullptr;
}

Capture
simulateCapture(const WorkloadSpec &spec, uint64_t seed,
                const std::string &path, Tracer &tracer)
{
    const uint64_t s = spec.base_seed + kSeedStride * seed;
    Capture cap;
    cap.path = path;
    cap.bytes = spec.capacity;
    cap.keytable_addr =
        (spec.search_bytes ? spec.search_bytes : spec.capacity) * 3 / 4 +
        16;

    // The victim: an i5-6400 (Skylake, DDR4) with one DIMM.
    std::optional<platform::Machine> victim;
    cap.times.boot = timed(tracer, "platform.boot", 0, [&] {
        const auto &model = platform::cpuModelByName("i5-6400");
        if (spec.chacha8)
            victim.emplace(model, platform::BiosConfig{}, 1, s,
                           engine::chachaEncryptionFactory(8));
        else
            victim.emplace(model, platform::BiosConfig{}, 1, s);
        victim->installDimm(0, std::make_shared<dram::DramModule>(
                                   dram::Generation::DDR4,
                                   spec.capacity, dram::DecayParams{},
                                   s + 1));
        victim->boot();
    });
    cap.times.fill = timed(tracer, "platform.fill", 0, [&] {
        platform::fillWorkload(*victim, platform::WorkloadParams{},
                               s + 2);
    });

    // A VeraCrypt-style volume, mounted: its two key schedules sit
    // in victim RAM at 3/4 of memory + 16 bytes.
    std::optional<volume::VolumeFile> container;
    std::optional<volume::MountedVolume> mounted;
    cap.planted.assign(volume::sectorBytes, 0);
    std::memcpy(cap.planted.data(), kSecret, sizeof(kSecret) - 1);
    cap.times.mount = timed(tracer, "volume.mount", 0, [&] {
        container = volume::VolumeFile::create(kPassphrase,
                                               kVolumeSectors, s + 3);
        mounted = volume::MountedVolume::mount(
            *victim, *container, kPassphrase, cap.keytable_addr);
        if (!mounted)
            throw std::runtime_error("set-up: volume did not mount");
        mounted->writeSector(kPlantedSector, cap.planted);
    });
    std::vector<uint8_t> readback(volume::sectorBytes);
    cap.times.decrypt = timed(tracer, "volume.decrypt", 0, [&] {
        mounted->readSector(kPlantedSector, readback);
    });
    if (readback != cap.planted)
        throw std::runtime_error("set-up: planted sector reads back "
                                 "wrong");
    cap.master_keys.assign(mounted->masterKeys().begin(),
                           mounted->masterKeys().end());
    auto ct = container->sectorCiphertext(kPlantedSector);
    cap.sector_ciphertext.assign(ct.begin(), ct.end());

    // The attacker: an i5-6600K whose firmware clobbers 64 KiB of
    // low memory on boot. The DIMM is sprayed to -25 C and carried
    // for 5 s.
    platform::BiosConfig attacker_bios;
    attacker_bios.boot_pollution_bytes = KiB(64);
    platform::Machine attacker(platform::cpuModelByName("i5-6600K"),
                               attacker_bios, 1, s + 4);
    std::optional<platform::ColdBootResult> cold;
    cap.times.transfer = timed(tracer, "platform.transfer", 0, [&] {
        platform::ColdBootParams params;
        params.cool_first = true;
        params.cooled_celsius = -25.0;
        params.transfer_seconds = 5.0;
        cold = platform::coldBootTransfer(*victim, attacker, 0, params);
    });
    cap.bits_flipped = cold->bits_flipped;

    if (!spec.chacha8) {
        // Ground truth, as bench_key_mining scores it: a zero line
        // at index i dumps as victim key(i) XOR attacker key(i).
        const auto &vscr = victim->controller().scrambler(0);
        const auto &ascr = attacker.controller().scrambler(0);
        cap.truth_keys.resize(4096);
        for (unsigned i = 0; i < 4096; ++i) {
            uint8_t vk[64], ak[64];
            vscr.lineKey(static_cast<uint64_t>(i) << 6, vk);
            ascr.lineKey(static_cast<uint64_t>(i) << 6, ak);
            for (int b = 0; b < 64; ++b)
                cap.truth_keys[i][b] = static_cast<uint8_t>(vk[b] ^ ak[b]);
        }
    }

    cap.times.capture_write =
        timed(tracer, "platform.capture_write", 0,
              [&] { cold->dump.saveRaw(path); });
    return cap;
}

Capture
simulateCaptureInChild(const WorkloadSpec &spec, uint64_t seed,
                       const std::string &path)
{
    const std::string truth_path = path + ".truth";
    pid_t pid = fork();
    if (pid < 0)
        throw std::runtime_error("set-up: fork failed");
    if (pid == 0) {
        int code = 0;
        try {
            Tracer off(false);
            writeTruth(simulateCapture(spec, seed, path, off),
                       truth_path);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "perfbench: set-up: %s\n", e.what());
            code = 1;
        }
        // Leave without the parent's exit handlers and destructors.
        std::_Exit(code);
    }
    int status = 0;
    while (waitpid(pid, &status, 0) < 0)
        if (errno != EINTR)
            throw std::runtime_error("set-up: waitpid failed");
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        throw std::runtime_error("set-up: the simulating process failed");
    Capture cap = readTruth(truth_path);
    cap.path = path;
    std::filesystem::remove(truth_path);
    return cap;
}

} // namespace perfbench
