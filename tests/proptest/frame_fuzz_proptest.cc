// Fuzz properties for the serve wire protocol's decoders (serve/protocol.h).
//
// Valid payloads of every message type are mutated — bit flips, inserted
// and deleted byte runs, truncations — and fed to decode_payload. Every
// case must end in a DataError or in a frame whose re-encoding equals the
// mutated payload byte for byte. Valid frames with mutated length prefixes
// are fed to FrameReader, which must throw DataError exactly when the
// prefix exceeds kMaxFrameBytes and otherwise wait for, or return, the
// payload the prefix names. Nothing may crash, throw another type or raise
// a sanitizer report (the sanitize job runs this suite with reduced cases).
//
// Labeled `proptest` in CTest; scale the case count with
// RLBLH_PROPTEST_ITERS.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/protocol.h"
#include "util/error.h"
#include "util/proptest.h"

namespace rlblh::serve {
namespace {

using Bytes = std::vector<std::uint8_t>;

/// The frame `frame` encodes to, length prefix included.
Bytes encode(const Frame& frame) {
  Bytes out;
  switch (frame.type) {
    case MessageType::kHello:
      encode_hello(out, frame.hello);
      break;
    case MessageType::kHelloAck:
      encode_hello_ack(out, frame.hello_ack);
      break;
    case MessageType::kReadings:
      encode_readings(out, frame.readings);
      break;
    case MessageType::kReadingsAck:
      encode_readings_ack(out, frame.readings_ack);
      break;
    case MessageType::kCheckpoint:
      encode_checkpoint(out, frame.checkpoint);
      break;
    case MessageType::kCheckpointAck:
      encode_checkpoint_ack(out, frame.checkpoint_ack);
      break;
    case MessageType::kStats:
      encode_stats(out, frame.stats);
      break;
    case MessageType::kStatsAck:
      encode_stats_ack(out, frame.stats_ack);
      break;
    case MessageType::kError:
      encode_error(out, frame.error);
      break;
    case MessageType::kBye:
      encode_bye(out, frame.bye);
      break;
    case MessageType::kByeAck:
      encode_bye_ack(out, frame.bye_ack);
      break;
  }
  return out;
}

/// Valid frames to mutate, length prefixes included: every message type,
/// with empty and nonempty strings and value runs.
const std::vector<Bytes>& base_frames() {
  static const std::vector<Bytes> frames = [] {
    std::vector<Bytes> out(13);
    encode_hello(out[0], {7, "policy=rlblh;seed=3;battery=13.5"});
    encode_hello(out[1], {0, ""});
    encode_hello_ack(out[2], {7, 12, 480, 1, 1});
    encode_readings(out[3], {7, 2, 96, {0.0, 0.013, 0.08, 1e-300, 4.5}});
    encode_readings(out[4], {7, 0, 0, {}});
    encode_readings_ack(out[5], {7, 2, 101, 0});
    encode_checkpoint(out[6], {7});
    encode_checkpoint_ack(out[7], {7, 12});
    encode_stats(out[8], {7});
    encode_stats_ack(out[9], {7, 12, 310.5, -2.25, 1200.0, 6.75});
    encode_error(out[10], {ErrorCode::kBadSpec, "unknown policy 'x'"});
    encode_bye(out[11], {7});
    encode_bye_ack(out[12], {7});
    return out;
  }();
  return frames;
}

struct FuzzCase {
  std::size_t base = 0;
  Bytes bytes;
  std::string log;
};

/// One random mutation of `bytes`, described into `log`.
void mutate(Rng& rng, Bytes& bytes, std::string& log) {
  const auto at = static_cast<std::size_t>(
      bytes.empty() ? 0
                    : rng.uniform_int(0, static_cast<int>(bytes.size() - 1)));
  switch (rng.uniform_int(0, 3)) {
    case 0: {
      if (bytes.empty()) return;
      const int bit = rng.uniform_int(0, 7);
      bytes[at] = static_cast<std::uint8_t>(bytes[at] ^ (1 << bit));
      log += " flip@" + std::to_string(at) + ":" + std::to_string(bit);
      return;
    }
    case 1: {
      const auto n = static_cast<std::size_t>(rng.uniform_int(1, 16));
      Bytes run(n);
      for (std::uint8_t& b : run) {
        b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      }
      bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                   run.begin(), run.end());
      log += " insert@" + std::to_string(at) + "+" + std::to_string(n);
      return;
    }
    case 2: {
      const auto n = std::min(
          static_cast<std::size_t>(rng.uniform_int(1, 16)), bytes.size() - at);
      bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                  bytes.begin() + static_cast<std::ptrdiff_t>(at + n));
      log += " erase@" + std::to_string(at) + "-" + std::to_string(n);
      return;
    }
    default:
      bytes.resize(at);
      log += " truncate@" + std::to_string(at);
      return;
  }
}

TEST(FrameFuzzProptest, MutatedPayloadsEndInDataErrorOrAnIdenticalFrame) {
  proptest::Domain<FuzzCase> domain;
  domain.generate = [](Rng& rng) {
    FuzzCase c;
    const std::vector<Bytes>& frames = base_frames();
    c.base = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(frames.size() - 1)));
    c.bytes.assign(frames[c.base].begin() + 4, frames[c.base].end());
    const int mutations = rng.uniform_int(1, 3);
    for (int m = 0; m < mutations; ++m) mutate(rng, c.bytes, c.log);
    return c;
  };
  domain.describe = [](const FuzzCase& c) {
    return "frame " + std::to_string(c.base) + ":" + c.log;
  };
  proptest::PropertyOptions options;
  options.iterations = 2000;
  const auto result = proptest::for_all(
      "a mutated payload is a DataError or re-encodes identically", domain,
      [](const FuzzCase& c, Rng&) {
        Frame frame;
        try {
          frame = decode_payload(c.bytes.data(), c.bytes.size());
        } catch (const DataError&) {
          return;
        } catch (const std::exception& e) {
          throw std::runtime_error(std::string("threw a non-DataError: ") +
                                   e.what());
        }
        const Bytes reencoded = encode(frame);
        if (!std::equal(reencoded.begin() + 4, reencoded.end(),
                        c.bytes.begin(), c.bytes.end())) {
          throw std::runtime_error("decoded, but re-encodes differently");
        }
      },
      options);
  ASSERT_TRUE(result.success) << result.message;
}

struct PrefixCase {
  std::size_t base = 0;
  std::uint32_t length = 0;  ///< the mutated length prefix
};

TEST(FrameFuzzProptest, MutatedLengthPrefixesThrowOnlyAboveTheLimit) {
  proptest::Domain<PrefixCase> domain;
  domain.generate = [](Rng& rng) {
    PrefixCase c;
    const std::vector<Bytes>& frames = base_frames();
    c.base = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(frames.size() - 1)));
    std::memcpy(&c.length, frames[c.base].data(), sizeof c.length);
    switch (rng.uniform_int(0, 2)) {
      case 0:  // flip one bit of the valid prefix
        c.length ^= std::uint32_t{1} << rng.uniform_int(0, 31);
        break;
      case 1:  // near the limit, on either side
        c.length = kMaxFrameBytes - 2 +
                   static_cast<std::uint32_t>(rng.uniform_int(0, 4));
        break;
      default:  // any value
        c.length = static_cast<std::uint32_t>(rng.engine()());
        break;
    }
    return c;
  };
  domain.describe = [](const PrefixCase& c) {
    return "frame " + std::to_string(c.base) + " with length " +
           std::to_string(c.length);
  };
  proptest::PropertyOptions options;
  options.iterations = 2000;
  const auto result = proptest::for_all(
      "FrameReader throws exactly for prefixes above kMaxFrameBytes", domain,
      [](const PrefixCase& c, Rng&) {
        Bytes stream = base_frames()[c.base];
        std::memcpy(stream.data(), &c.length, sizeof c.length);
        FrameReader reader;
        reader.append(stream.data(), stream.size());
        Bytes payload;
        bool taken = false;
        try {
          taken = reader.take(payload);
        } catch (const DataError&) {
          PROPTEST_CHECK(c.length > kMaxFrameBytes,
                         "DataError for a prefix within the limit");
          return;
        }
        PROPTEST_CHECK(c.length <= kMaxFrameBytes,
                       "no DataError for a prefix above the limit");
        const std::size_t available = stream.size() - 4;
        PROPTEST_CHECK(taken == (c.length <= available),
                       "take() disagrees with the bytes buffered");
        if (taken) {
          PROPTEST_CHECK(std::equal(payload.begin(), payload.end(),
                                    stream.begin() + 4,
                                    stream.begin() + 4 + c.length),
                         "payload is not the bytes the prefix names");
          PROPTEST_CHECK(reader.buffered() == available - c.length,
                         "take() consumed the wrong byte count");
        }
      },
      options);
  ASSERT_TRUE(result.success) << result.message;
}

TEST(FrameFuzzProptest, EveryValidFrameReencodesIdentically) {
  for (const Bytes& frame : base_frames()) {
    EXPECT_TRUE(encode(decode_payload(frame.data() + 4, frame.size() - 4)) ==
                frame);
  }
}

}  // namespace
}  // namespace rlblh::serve
