// End-to-end checks of the exaclim_cli binary: what a user sees when it is
// handed a damaged or crafted file.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "climate/dataset.hpp"
#include "climate/synthetic_esm.hpp"
#include "common/framing.hpp"
#include "common/io.hpp"
#include "core/emulator.hpp"
#include "core/serialize.hpp"

namespace {

using namespace exaclim;

struct CliRun {
  int status = -1;
  std::string output;  // stdout and stderr
};

CliRun run_cli(const std::string& args) {
  const std::string cmd = std::string(EXACLIM_CLI_PATH) + " " + args + " 2>&1";
  CliRun run;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return run;
  std::array<char, 512> buf{};
  while (std::fgets(buf.data(), static_cast<int>(buf.size()), pipe) != nullptr) {
    run.output += buf.data();
  }
  const int raw = pclose(pipe);
  run.status = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
  return run;
}

/// Writes `bytes` to a fresh file under the test temp dir.
std::string write_temp(const std::string& name,
                       const std::vector<unsigned char>& bytes) {
  const std::string path = ::testing::TempDir() + "/" + name;
  common::atomic_write_file(path, bytes.data(), bytes.size());
  return path;
}

TEST(CliInfo, RejectedDatasetReportsTheDatasetReason) {
  // The 48-byte EXACLIM1 file whose nlat = nlon = 2^31 header wraps the
  // payload size: info must print the dataset loader's verdict, not the
  // model parser's "bad magic" from retrying the file as a model.
  std::vector<unsigned char> bytes = {'E', 'X', 'A', 'C', 'L', 'I', 'M', '1'};
  const index_t header[5] = {index_t{1} << 31, index_t{1} << 31, 4, 1, 1};
  const auto* h = reinterpret_cast<const unsigned char*>(header);
  bytes.insert(bytes.end(), h, h + sizeof(header));
  ASSERT_EQ(bytes.size(), 48u);
  const std::string path = write_temp("exaclim_cli_wrapped.bin", bytes);
  const CliRun run = run_cli("info --file " + path);
  std::filesystem::remove(path);
  EXPECT_EQ(run.status, 1) << run.output;
  EXPECT_NE(run.output.find("payload bytes but the file holds 0"),
            std::string::npos)
      << run.output;
  EXPECT_EQ(run.output.find("bad magic"), std::string::npos) << run.output;
}

TEST(CliInfo, DispatchesOnTheMagic) {
  // A valid dataset still describes itself ...
  climate::ClimateDataset ds(sht::GridShape{3, 4}, 2, 1, 2);
  const std::string data_path =
      ::testing::TempDir() + "/exaclim_cli_dataset.bin";
  ds.save(data_path);
  const CliRun data = run_cli("info --file " + data_path);
  std::filesystem::remove(data_path);
  EXPECT_EQ(data.status, 0) << data.output;
  EXPECT_NE(data.output.find("dataset: 3 x 4 grid"), std::string::npos)
      << data.output;

  // ... and any other file goes to the model parser, whose error names it.
  const std::string other =
      write_temp("exaclim_cli_other.bin", {'E', 'X', 'A', 'C', 'L', 'I', 'M'});
  const CliRun run = run_cli("info --file " + other);
  std::filesystem::remove(other);
  EXPECT_EQ(run.status, 1) << run.output;
  EXPECT_NE(run.output.find("emulator model"), std::string::npos)
      << run.output;
}

/// A small trained model saved at `path`, then re-framed at `crafted` with
/// its header's band limit (header byte 0) set to `band_limit`; every CRC of
/// the crafted file is valid.
void save_models(const std::string& path, const std::string& crafted,
                 index_t band_limit) {
  climate::SyntheticEsmConfig data_cfg;
  data_cfg.band_limit = 6;
  data_cfg.grid = {7, 12};
  data_cfg.num_years = 2;
  data_cfg.steps_per_year = 32;
  data_cfg.num_ensembles = 2;
  const auto esm = climate::generate_synthetic_esm(data_cfg);
  core::EmulatorConfig cfg;
  cfg.band_limit = 6;
  cfg.ar_order = 2;
  cfg.harmonics = 2;
  cfg.steps_per_year = 32;
  core::ClimateEmulator emulator(cfg);
  emulator.train(esm.data, esm.forcing);
  core::save_emulator(emulator, path);

  const common::FramedFile file(path, "EXACMDL4", "emulator model");
  common::FramedWriter writer("EXACMDL4");
  for (std::uint32_t tag = 1; tag <= 5; ++tag) {
    common::ByteReader in = file.section(tag);
    std::vector<unsigned char> payload(in.remaining());
    in.raw(payload.data(), payload.size());
    if (tag == 1) std::memcpy(payload.data(), &band_limit, sizeof(band_limit));
    common::ByteWriter out;
    out.raw(payload.data(), payload.size());
    writer.add_section(tag, std::move(out));
  }
  writer.commit(crafted);
}

TEST(CliInfo, ModelHeaderIsAllInfoReads) {
  // info prints a model's header; a header whose band limit 2^31 makes the
  // factor's n(n+1)/2 entries overflow is an error line and exit 1, not a
  // signal (it once crashed writing a wrapped dense factor).
  const std::string path = ::testing::TempDir() + "/exaclim_cli_model.bin";
  const std::string crafted =
      ::testing::TempDir() + "/exaclim_cli_crafted_model.bin";
  save_models(path, crafted, index_t{1} << 31);
  const CliRun good = run_cli("info --file " + path);
  const CliRun bad = run_cli("info --file " + crafted);
  std::filesystem::remove(path);
  std::filesystem::remove(crafted);
  EXPECT_EQ(good.status, 0) << good.output;
  EXPECT_EQ(good.output, "model: L=6, P=2, K=2, tau=32, grid 7 x 12\n");
  EXPECT_EQ(bad.status, 1) << bad.output;
  EXPECT_EQ(bad.output.rfind("error: ", 0), 0u) << bad.output;
  EXPECT_NE(bad.output.find("implausible header dimensions"),
            std::string::npos)
      << bad.output;
}

TEST(CliFlags, UnknownFlagExitsOneNamingFlagAndSubcommand) {
  // A flag the subcommand does not read (a typo, or the removed --tune) is an
  // error before any work starts, not a run as if the flag were absent.
  const std::string dir = ::testing::TempDir();
  const std::string data = dir + "/exaclim_cli_flags_data.bin";
  const std::string model = dir + "/exaclim_cli_flags_model.bin";
  const std::string unwritten[] = {dir + "/exaclim_cli_flags_typo.bin",
                                   dir + "/exaclim_cli_flags_typo_model.bin",
                                   dir + "/exaclim_cli_flags_emu.bin"};
  const std::string small =
      " --band-limit 6 --years 2 --steps-per-year 16 --ensembles 2";
  const CliRun generated = run_cli("generate --out " + data + small);
  ASSERT_EQ(generated.status, 0) << generated.output;
  const std::string train = "train --data " + data + " --ar-order 1" +
                            " --harmonics 1 --model ";
  const CliRun trained = run_cli(train + model);
  ASSERT_EQ(trained.status, 0) << trained.output;

  struct Case {
    std::string args, flag, subcommand;
  };
  const Case cases[] = {
      {"generate --out " + unwritten[0] + small + " --sede 5", "--sede",
       "generate"},
      {train + unwritten[1] + " --tile-sise 999", "--tile-sise", "train"},
      {"emulate --model " + model + " --out " + unwritten[2] +
           " --steps 8 --verify bogus",
       "--verify", "emulate"},
      {train + unwritten[1] + " --tune auto", "--tune", "train"},
  };
  for (const Case& c : cases) {
    const CliRun run = run_cli(c.args);
    EXPECT_EQ(run.status, 1) << c.args << "\n" << run.output;
    EXPECT_EQ(run.output.rfind("error: ", 0), 0u) << run.output;
    EXPECT_NE(run.output.find(c.flag), std::string::npos) << run.output;
    EXPECT_NE(run.output.find("'" + c.subcommand + "'"), std::string::npos)
        << run.output;
  }
  for (const std::string& path : unwritten) {
    EXPECT_FALSE(std::filesystem::exists(path)) << path;
    std::filesystem::remove(path);
  }
  std::filesystem::remove(data);
  std::filesystem::remove(model);
}

}  // namespace
