// Wire-protocol tests: every message type round-trips through its encoder
// and decode_payload; every class of malformation raises DataError; the
// incremental FrameReader reassembles frames from arbitrary byte
// fragmentation and rejects unrecoverable length prefixes.
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "serve/protocol.h"
#include "util/error.h"

namespace rlblh::serve {
namespace {

/// Splits an encoded frame into its length prefix and payload.
std::vector<std::uint8_t> payload_of(const std::vector<std::uint8_t>& frame) {
  EXPECT_GE(frame.size(), 4u + 2u);
  std::uint32_t length = 0;
  std::memcpy(&length, frame.data(), 4);
  EXPECT_EQ(length, frame.size() - 4);
  return {frame.begin() + 4, frame.end()};
}

Frame decode_frame(const std::vector<std::uint8_t>& frame) {
  const std::vector<std::uint8_t> payload = payload_of(frame);
  return decode_payload(payload.data(), payload.size());
}

TEST(ProtocolTest, HelloRoundTrip) {
  HelloMsg msg;
  msg.household_id = 0x0123456789abcdefull;
  msg.spec = "policy=rlblh;battery=5;seed=21";
  std::vector<std::uint8_t> frame;
  encode_hello(frame, msg);

  const Frame decoded = decode_frame(frame);
  ASSERT_EQ(decoded.type, MessageType::kHello);
  EXPECT_EQ(decoded.hello.household_id, msg.household_id);
  EXPECT_EQ(decoded.hello.spec, msg.spec);
}

TEST(ProtocolTest, HelloAckRoundTrip) {
  HelloAckMsg msg;
  msg.household_id = 42;
  msg.days_completed = 7;
  msg.next_interval = 481;
  msg.day_open = 1;
  msg.resumed = 1;
  std::vector<std::uint8_t> frame;
  encode_hello_ack(frame, msg);

  const Frame decoded = decode_frame(frame);
  ASSERT_EQ(decoded.type, MessageType::kHelloAck);
  EXPECT_EQ(decoded.hello_ack.household_id, 42u);
  EXPECT_EQ(decoded.hello_ack.days_completed, 7u);
  EXPECT_EQ(decoded.hello_ack.next_interval, 481u);
  EXPECT_EQ(decoded.hello_ack.day_open, 1);
  EXPECT_EQ(decoded.hello_ack.resumed, 1);
}

TEST(ProtocolTest, ReadingsRoundTrip) {
  ReadingsMsg msg;
  msg.household_id = 9;
  msg.day = 3;
  msg.first_interval = 240;
  msg.values = {0.0, 0.125, 1.75, 0.333251953125};
  std::vector<std::uint8_t> frame;
  encode_readings(frame, msg);

  const Frame decoded = decode_frame(frame);
  ASSERT_EQ(decoded.type, MessageType::kReadings);
  EXPECT_EQ(decoded.readings.household_id, 9u);
  EXPECT_EQ(decoded.readings.day, 3u);
  EXPECT_EQ(decoded.readings.first_interval, 240u);
  EXPECT_EQ(decoded.readings.values, msg.values);
}

TEST(ProtocolTest, ReadingsAckRoundTrip) {
  ReadingsAckMsg msg;
  msg.household_id = 9;
  msg.day = 3;
  msg.next_interval = 244;
  msg.day_completed = 1;
  std::vector<std::uint8_t> frame;
  encode_readings_ack(frame, msg);

  const Frame decoded = decode_frame(frame);
  ASSERT_EQ(decoded.type, MessageType::kReadingsAck);
  EXPECT_EQ(decoded.readings_ack.household_id, 9u);
  EXPECT_EQ(decoded.readings_ack.day, 3u);
  EXPECT_EQ(decoded.readings_ack.next_interval, 244u);
  EXPECT_EQ(decoded.readings_ack.day_completed, 1);
}

TEST(ProtocolTest, CheckpointAndStatsAndByeRoundTrip) {
  std::vector<std::uint8_t> frame;
  encode_checkpoint(frame, CheckpointMsg{77});
  Frame decoded = decode_frame(frame);
  ASSERT_EQ(decoded.type, MessageType::kCheckpoint);
  EXPECT_EQ(decoded.checkpoint.household_id, 77u);

  frame.clear();
  encode_checkpoint_ack(frame, CheckpointAckMsg{77, 12});
  decoded = decode_frame(frame);
  ASSERT_EQ(decoded.type, MessageType::kCheckpointAck);
  EXPECT_EQ(decoded.checkpoint_ack.days_completed, 12u);

  frame.clear();
  encode_stats(frame, StatsMsg{77});
  decoded = decode_frame(frame);
  ASSERT_EQ(decoded.type, MessageType::kStats);

  frame.clear();
  StatsAckMsg stats_ack;
  stats_ack.household_id = 77;
  stats_ack.days_completed = 12;
  stats_ack.savings_cents = 123.4375;
  stats_ack.bill_cents = -0.5;
  stats_ack.usage_cost_cents = 9001.0;
  stats_ack.battery_level_kwh = 2.5;
  encode_stats_ack(frame, stats_ack);
  decoded = decode_frame(frame);
  ASSERT_EQ(decoded.type, MessageType::kStatsAck);
  EXPECT_EQ(decoded.stats_ack.savings_cents, 123.4375);
  EXPECT_EQ(decoded.stats_ack.bill_cents, -0.5);
  EXPECT_EQ(decoded.stats_ack.usage_cost_cents, 9001.0);
  EXPECT_EQ(decoded.stats_ack.battery_level_kwh, 2.5);

  frame.clear();
  encode_bye(frame, ByeMsg{77});
  decoded = decode_frame(frame);
  ASSERT_EQ(decoded.type, MessageType::kBye);

  frame.clear();
  encode_bye_ack(frame, ByeAckMsg{77});
  decoded = decode_frame(frame);
  ASSERT_EQ(decoded.type, MessageType::kByeAck);
  EXPECT_EQ(decoded.bye_ack.household_id, 77u);
}

TEST(ProtocolTest, ErrorRoundTrip) {
  ErrorMsg msg;
  msg.code = ErrorCode::kOutOfOrder;
  msg.message = "expected interval 480";
  std::vector<std::uint8_t> frame;
  encode_error(frame, msg);

  const Frame decoded = decode_frame(frame);
  ASSERT_EQ(decoded.type, MessageType::kError);
  EXPECT_EQ(decoded.error.code, ErrorCode::kOutOfOrder);
  EXPECT_EQ(decoded.error.message, msg.message);
}

/// Bytes of a hex string; spaces only separate fields for the reader.
std::vector<std::uint8_t> hex(std::string_view text) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == ' ') continue;
    out.push_back(static_cast<std::uint8_t>(
        std::stoul(std::string(text.substr(i, 2)), nullptr, 16)));
    ++i;
  }
  return out;
}

TEST(ProtocolTest, EveryMessageTypeEncodesToPinnedBytes) {
  // One frame per type, written out by hand from the layout in protocol.h:
  // u32 length prefix, version, type, then the fields, all little-endian.
  // The round trips above cannot see a width or byte-order change made to
  // the encoder and the decoder alike; these bytes can.
  using Encode = std::function<void(std::vector<std::uint8_t>&)>;
  const std::vector<std::pair<Encode, std::string_view>> frames = {
      {[](auto& out) { encode_hello(out, {0x0123456789abcdefull, "ab"}); },
       "0e000000 01 01 efcdab8967452301 0200 6162"},
      {[](auto& out) { encode_hello_ack(out, {42, 7, 481, 1, 0}); },
       "14000000 01 02 2a00000000000000 07000000 e1010000 01 00"},
      {[](auto& out) { encode_readings(out, {5, 3, 258, {1.0, 0.25}}); },
       "24000000 01 03 0500000000000000 03000000 02010000 0200 "
       "000000000000f03f 000000000000d03f"},
      {[](auto& out) { encode_readings_ack(out, {5, 3, 1440, 1}); },
       "13000000 01 04 0500000000000000 03000000 a0050000 01"},
      {[](auto& out) { encode_checkpoint(out, {0x1122334455667788ull}); },
       "0a000000 01 05 8877665544332211"},
      {[](auto& out) { encode_checkpoint_ack(out, {9, 12}); },
       "0e000000 01 06 0900000000000000 0c000000"},
      {[](auto& out) { encode_stats(out, {9}); },
       "0a000000 01 07 0900000000000000"},
      {[](auto& out) { encode_stats_ack(out, {9, 2, 1.5, -2.0, 0.125, 3.0}); },
       "2e000000 01 08 0900000000000000 02000000 000000000000f83f "
       "00000000000000c0 000000000000c03f 0000000000000840"},
      {[](auto& out) { encode_error(out, {ErrorCode::kOutOfOrder, "no"}); },
       "08000000 01 09 0400 0200 6e6f"},
      {[](auto& out) { encode_bye(out, {0x0102}); },
       "0a000000 01 0a 0201000000000000"},
      {[](auto& out) { encode_bye_ack(out, {0xff}); },
       "0a000000 01 0b ff00000000000000"},
  };
  // Each encoder also appends behind what a buffer already holds.
  std::vector<std::uint8_t> stream;
  std::vector<std::uint8_t> expected_stream;
  for (const auto& [encode, bytes] : frames) {
    const std::vector<std::uint8_t> expected = hex(bytes);
    std::vector<std::uint8_t> frame;
    encode(frame);
    EXPECT_EQ(frame, expected) << bytes;
    encode(stream);
    expected_stream.insert(expected_stream.end(), expected.begin(),
                           expected.end());
  }
  EXPECT_EQ(stream, expected_stream);
}

TEST(ProtocolTest, RejectsWrongVersion) {
  std::vector<std::uint8_t> frame;
  encode_bye(frame, ByeMsg{1});
  std::vector<std::uint8_t> payload = payload_of(frame);
  payload[0] = kProtocolVersion + 1;
  EXPECT_THROW(decode_payload(payload.data(), payload.size()), DataError);
}

TEST(ProtocolTest, RejectsUnknownType) {
  std::vector<std::uint8_t> frame;
  encode_bye(frame, ByeMsg{1});
  std::vector<std::uint8_t> payload = payload_of(frame);
  payload[1] = 200;  // not a MessageType
  EXPECT_THROW(decode_payload(payload.data(), payload.size()), DataError);
}

TEST(ProtocolTest, RejectsTruncatedBody) {
  std::vector<std::uint8_t> frame;
  encode_readings(frame, ReadingsMsg{5, 0, 0, {1.0, 2.0}});
  std::vector<std::uint8_t> payload = payload_of(frame);
  payload.resize(payload.size() - 3);
  EXPECT_THROW(decode_payload(payload.data(), payload.size()), DataError);
}

TEST(ProtocolTest, RejectsTrailingBytes) {
  std::vector<std::uint8_t> frame;
  encode_bye(frame, ByeMsg{1});
  std::vector<std::uint8_t> payload = payload_of(frame);
  payload.push_back(0);
  EXPECT_THROW(decode_payload(payload.data(), payload.size()), DataError);
}

TEST(ProtocolTest, RejectsEmptyAndHeaderlessPayloads) {
  EXPECT_THROW(decode_payload(nullptr, 0), DataError);
  const std::uint8_t just_version[] = {kProtocolVersion};
  EXPECT_THROW(decode_payload(just_version, 1), DataError);
}

TEST(ProtocolTest, RejectsNonFiniteReadings) {
  ReadingsMsg msg;
  msg.household_id = 1;
  msg.values = {1.0, std::numeric_limits<double>::infinity()};
  std::vector<std::uint8_t> frame;
  encode_readings(frame, msg);
  const std::vector<std::uint8_t> payload = payload_of(frame);
  EXPECT_THROW(decode_payload(payload.data(), payload.size()), DataError);
}

TEST(FrameReaderTest, ReassemblesByteAtATime) {
  ReadingsMsg msg;
  msg.household_id = 3;
  msg.day = 1;
  msg.first_interval = 96;
  for (int i = 0; i < 50; ++i) msg.values.push_back(0.01 * i);
  std::vector<std::uint8_t> stream;
  encode_readings(stream, msg);
  encode_bye(stream, ByeMsg{3});

  FrameReader reader;
  std::vector<Frame> frames;
  std::vector<std::uint8_t> payload;
  for (const std::uint8_t byte : stream) {
    reader.append(&byte, 1);
    while (reader.take(payload)) {
      frames.push_back(decode_payload(payload.data(), payload.size()));
    }
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, MessageType::kReadings);
  EXPECT_EQ(frames[0].readings.values, msg.values);
  EXPECT_EQ(frames[1].type, MessageType::kBye);
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(FrameReaderTest, ReassemblesConcatenatedFramesInOneAppend) {
  std::vector<std::uint8_t> stream;
  for (std::uint64_t id = 1; id <= 5; ++id) {
    encode_stats(stream, StatsMsg{id});
  }
  FrameReader reader;
  reader.append(stream.data(), stream.size());
  std::vector<std::uint8_t> payload;
  for (std::uint64_t id = 1; id <= 5; ++id) {
    ASSERT_TRUE(reader.take(payload));
    const Frame frame = decode_payload(payload.data(), payload.size());
    ASSERT_EQ(frame.type, MessageType::kStats);
    EXPECT_EQ(frame.stats.household_id, id);
  }
  EXPECT_FALSE(reader.take(payload));
}

TEST(FrameReaderTest, ThrowsOnOversizedLengthPrefix) {
  const std::uint32_t huge = kMaxFrameBytes + 1;
  std::uint8_t prefix[4];
  std::memcpy(prefix, &huge, 4);
  FrameReader reader;
  reader.append(prefix, 4);
  std::vector<std::uint8_t> payload;
  EXPECT_THROW(reader.take(payload), DataError);
}

}  // namespace
}  // namespace rlblh::serve
