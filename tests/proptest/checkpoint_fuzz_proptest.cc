// Fuzz property for the household checkpoint reader (serve/session.h).
//
// Valid v2 images are mutated — bit flips, inserted and deleted byte runs,
// truncations — and fed to HouseholdSession::restore twice: as mutated,
// where the CRC32 trailer rejects them, and with the trailer recomputed,
// which is what reaches the field validation behind it. Every case must
// end in a DataError or in a session whose re-save equals the input byte
// for byte; nothing may crash, throw another type, allocate from a count
// it did not check, or raise a sanitizer report (the sanitize job runs
// this suite with reduced cases).
//
// Labeled `proptest` in CTest; scale the case count with
// RLBLH_PROPTEST_ITERS.
#include <gtest/gtest.h>
#include <zlib.h>

#include <cstdint>
#include <cstring>
#include <exception>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "serve/session.h"
#include "sim/scenario.h"
#include "util/error.h"
#include "util/proptest.h"

namespace rlblh::serve {
namespace {

/// Valid images to mutate: two specs, before and after learning days.
const std::vector<std::string>& base_images() {
  static const std::vector<std::string> images = [] {
    std::vector<std::string> out;
    for (const char* spec :
         {"policy=rlblh;seed=3", "policy=rlblh;seed=4;battery=13.5"}) {
      HouseholdSession session(9, spec);
      std::unique_ptr<TraceSource> source =
          make_scenario_source(ScenarioSpec::parse(spec));
      for (std::uint32_t d = 0; d < 3; ++d) {
        if (d != 2) out.push_back(session.save());
        session.apply_readings(d, 0, source->next_day().values());
      }
      out.push_back(session.save());
    }
    return out;
  }();
  return images;
}

/// The header, session, battery, policy counters, weight tables, RNG and
/// the first intervals all lie in the first few KB; most of an image is
/// the tracker's doubles.
constexpr std::size_t kStructuredPrefix = 4096;

struct FuzzCase {
  std::size_t base = 0;
  std::string bytes;
  std::string log;
};

std::size_t pick_position(Rng& rng, std::size_t size) {
  if (size == 0) return 0;
  const std::size_t limit =
      rng.bernoulli(0.5) ? std::min(size, kStructuredPrefix) : size;
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<int>(limit - 1)));
}

/// One random mutation of `bytes`, described into `log`.
void mutate(Rng& rng, std::string& bytes, std::string& log) {
  const std::size_t at = pick_position(rng, bytes.size());
  switch (rng.uniform_int(0, 3)) {
    case 0: {
      if (bytes.empty()) return;
      const int bit = rng.uniform_int(0, 7);
      bytes[at] = static_cast<char>(bytes[at] ^ (1 << bit));
      log += " flip@" + std::to_string(at) + ":" + std::to_string(bit);
      return;
    }
    case 1: {
      const auto n = static_cast<std::size_t>(rng.uniform_int(1, 16));
      std::string run(n, '\0');
      for (char& c : run) c = static_cast<char>(rng.uniform_int(0, 255));
      bytes.insert(at, run);
      log += " insert@" + std::to_string(at) + "+" + std::to_string(n);
      return;
    }
    case 2: {
      const auto n = static_cast<std::size_t>(rng.uniform_int(1, 16));
      bytes.erase(at, n);
      log += " erase@" + std::to_string(at) + "-" + std::to_string(n);
      return;
    }
    default:
      bytes.resize(at);
      log += " truncate@" + std::to_string(at);
      return;
  }
}

/// `bytes` with the last four bytes replaced by the CRC32 of the rest.
std::string with_crc(std::string bytes) {
  if (bytes.size() < 4) return bytes;
  const std::size_t body = bytes.size() - 4;
  const auto crc = static_cast<std::uint32_t>(
      crc32_z(0, reinterpret_cast<const Bytef*>(bytes.data()), body));
  std::memcpy(bytes.data() + body, &crc, sizeof crc);
  return bytes;
}

/// Restores `bytes`: DataError, or a session that re-saves to `bytes`.
void check_restore(const std::string& bytes, const std::string& what) {
  std::unique_ptr<HouseholdSession> session;
  try {
    session = HouseholdSession::restore(bytes);
  } catch (const DataError&) {
    return;
  } catch (const std::exception& e) {
    throw std::runtime_error(what + ": threw a non-DataError: " + e.what());
  }
  if (session->save() != bytes) {
    throw std::runtime_error(what + ": restored, but re-saves differently");
  }
}

TEST(CheckpointFuzzProptest, MutatedImagesEndInDataErrorOrAnIdenticalResave) {
  proptest::Domain<FuzzCase> domain;
  domain.generate = [](Rng& rng) {
    FuzzCase c;
    const std::vector<std::string>& images = base_images();
    c.base = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(images.size() - 1)));
    c.bytes = images[c.base];
    const int mutations = rng.uniform_int(1, 3);
    for (int m = 0; m < mutations; ++m) mutate(rng, c.bytes, c.log);
    return c;
  };
  domain.describe = [](const FuzzCase& c) {
    return "image " + std::to_string(c.base) + ":" + c.log;
  };
  const auto result = proptest::for_all(
      "a mutated checkpoint is a DataError or re-saves identically", domain,
      [](const FuzzCase& c, Rng&) {
        check_restore(c.bytes, "as mutated");
        check_restore(with_crc(c.bytes), "with the CRC recomputed");
      });
  ASSERT_TRUE(result.success) << result.message;
}

TEST(CheckpointFuzzProptest, EveryValidImageRoundTrips) {
  for (const std::string& image : base_images()) {
    EXPECT_TRUE(HouseholdSession::restore(image)->save() == image);
  }
}

}  // namespace
}  // namespace rlblh::serve
