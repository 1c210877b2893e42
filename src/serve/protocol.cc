#include "serve/protocol.h"

#include <cmath>
#include <cstring>
#include <string_view>

#include "util/bytes.h"
#include "util/error.h"

namespace rlblh::serve {

namespace {

using Bytes = std::vector<std::uint8_t>;

/// Opens a frame: reserves the length prefix and writes version + type.
/// Returns the index of the prefix for close_frame to patch.
std::size_t open_frame(Bytes& out, MessageType type) {
  const std::size_t prefix_at = out.size();
  ByteWriter w(out);
  w.u32(0);  // patched by close_frame
  w.u8(kProtocolVersion);
  w.u8(static_cast<std::uint8_t>(type));
  return prefix_at;
}

void close_frame(Bytes& out, std::size_t prefix_at) {
  const std::size_t payload = out.size() - prefix_at - 4;
  RLBLH_REQUIRE(payload <= kMaxFrameBytes,
                "serve protocol: frame exceeds kMaxFrameBytes");
  const auto length = static_cast<std::uint32_t>(payload);
  std::memcpy(out.data() + prefix_at, &length, sizeof length);
}

double checked_f64(ByteReader& r, const char* what) {
  const double v = r.f64();
  if (!std::isfinite(v)) r.fail(std::string("non-finite ") + what);
  return v;
}

}  // namespace

void encode_hello(Bytes& out, const HelloMsg& msg) {
  RLBLH_REQUIRE(msg.spec.size() <= 0xFFFF,
                "serve protocol: spec string too long");
  const std::size_t at = open_frame(out, MessageType::kHello);
  ByteWriter w(out);
  w.u64(msg.household_id);
  w.u16(static_cast<std::uint16_t>(msg.spec.size()));
  w.bytes(msg.spec);
  close_frame(out, at);
}

void encode_hello_ack(Bytes& out, const HelloAckMsg& msg) {
  const std::size_t at = open_frame(out, MessageType::kHelloAck);
  ByteWriter w(out);
  w.u64(msg.household_id);
  w.u32(msg.days_completed);
  w.u32(msg.next_interval);
  w.u8(msg.day_open);
  w.u8(msg.resumed);
  close_frame(out, at);
}

void encode_readings(Bytes& out, const ReadingsMsg& msg) {
  RLBLH_REQUIRE(msg.values.size() <= 0xFFFF,
                "serve protocol: too many readings in one frame");
  const std::size_t at = open_frame(out, MessageType::kReadings);
  ByteWriter w(out);
  w.u64(msg.household_id);
  w.u32(msg.day);
  w.u32(msg.first_interval);
  w.u16(static_cast<std::uint16_t>(msg.values.size()));
  w.f64s(msg.values);
  close_frame(out, at);
}

void encode_readings_ack(Bytes& out, const ReadingsAckMsg& msg) {
  const std::size_t at = open_frame(out, MessageType::kReadingsAck);
  ByteWriter w(out);
  w.u64(msg.household_id);
  w.u32(msg.day);
  w.u32(msg.next_interval);
  w.u8(msg.day_completed);
  close_frame(out, at);
}

void encode_checkpoint(Bytes& out, const CheckpointMsg& msg) {
  const std::size_t at = open_frame(out, MessageType::kCheckpoint);
  ByteWriter w(out);
  w.u64(msg.household_id);
  close_frame(out, at);
}

void encode_checkpoint_ack(Bytes& out, const CheckpointAckMsg& msg) {
  const std::size_t at = open_frame(out, MessageType::kCheckpointAck);
  ByteWriter w(out);
  w.u64(msg.household_id);
  w.u32(msg.days_completed);
  close_frame(out, at);
}

void encode_stats(Bytes& out, const StatsMsg& msg) {
  const std::size_t at = open_frame(out, MessageType::kStats);
  ByteWriter w(out);
  w.u64(msg.household_id);
  close_frame(out, at);
}

void encode_stats_ack(Bytes& out, const StatsAckMsg& msg) {
  const std::size_t at = open_frame(out, MessageType::kStatsAck);
  ByteWriter w(out);
  w.u64(msg.household_id);
  w.u32(msg.days_completed);
  w.f64(msg.savings_cents);
  w.f64(msg.bill_cents);
  w.f64(msg.usage_cost_cents);
  w.f64(msg.battery_level_kwh);
  close_frame(out, at);
}

void encode_error(Bytes& out, const ErrorMsg& msg) {
  RLBLH_REQUIRE(msg.message.size() <= 0xFFFF,
                "serve protocol: error message too long");
  const std::size_t at = open_frame(out, MessageType::kError);
  ByteWriter w(out);
  w.u16(static_cast<std::uint16_t>(msg.code));
  w.u16(static_cast<std::uint16_t>(msg.message.size()));
  w.bytes(msg.message);
  close_frame(out, at);
}

void encode_bye(Bytes& out, const ByeMsg& msg) {
  const std::size_t at = open_frame(out, MessageType::kBye);
  ByteWriter w(out);
  w.u64(msg.household_id);
  close_frame(out, at);
}

void encode_bye_ack(Bytes& out, const ByeAckMsg& msg) {
  const std::size_t at = open_frame(out, MessageType::kByeAck);
  ByteWriter w(out);
  w.u64(msg.household_id);
  close_frame(out, at);
}

Frame decode_payload(const std::uint8_t* data, std::size_t size) {
  ByteReader r(std::string_view(reinterpret_cast<const char*>(data), size),
               "serve protocol");
  const std::uint8_t version = r.u8();
  if (version != kProtocolVersion) {
    r.fail("unsupported version " + std::to_string(version));
  }
  Frame frame;
  const std::uint8_t raw_type = r.u8();
  switch (static_cast<MessageType>(raw_type)) {
    case MessageType::kHello: {
      frame.type = MessageType::kHello;
      frame.hello.household_id = r.u64();
      frame.hello.spec = r.bytes(r.u16());
      break;
    }
    case MessageType::kHelloAck: {
      frame.type = MessageType::kHelloAck;
      frame.hello_ack.household_id = r.u64();
      frame.hello_ack.days_completed = r.u32();
      frame.hello_ack.next_interval = r.u32();
      frame.hello_ack.day_open = r.u8();
      frame.hello_ack.resumed = r.u8();
      break;
    }
    case MessageType::kReadings: {
      frame.type = MessageType::kReadings;
      frame.readings.household_id = r.u64();
      frame.readings.day = r.u32();
      frame.readings.first_interval = r.u32();
      frame.readings.values.resize(r.u16());
      r.f64s(frame.readings.values);
      for (const double v : frame.readings.values) {
        if (!std::isfinite(v)) r.fail("non-finite reading value");
      }
      break;
    }
    case MessageType::kReadingsAck: {
      frame.type = MessageType::kReadingsAck;
      frame.readings_ack.household_id = r.u64();
      frame.readings_ack.day = r.u32();
      frame.readings_ack.next_interval = r.u32();
      frame.readings_ack.day_completed = r.u8();
      break;
    }
    case MessageType::kCheckpoint: {
      frame.type = MessageType::kCheckpoint;
      frame.checkpoint.household_id = r.u64();
      break;
    }
    case MessageType::kCheckpointAck: {
      frame.type = MessageType::kCheckpointAck;
      frame.checkpoint_ack.household_id = r.u64();
      frame.checkpoint_ack.days_completed = r.u32();
      break;
    }
    case MessageType::kStats: {
      frame.type = MessageType::kStats;
      frame.stats.household_id = r.u64();
      break;
    }
    case MessageType::kStatsAck: {
      frame.type = MessageType::kStatsAck;
      frame.stats_ack.household_id = r.u64();
      frame.stats_ack.days_completed = r.u32();
      frame.stats_ack.savings_cents = checked_f64(r, "savings");
      frame.stats_ack.bill_cents = checked_f64(r, "bill");
      frame.stats_ack.usage_cost_cents = checked_f64(r, "usage cost");
      frame.stats_ack.battery_level_kwh = checked_f64(r, "battery level");
      break;
    }
    case MessageType::kError: {
      frame.type = MessageType::kError;
      frame.error.code = static_cast<ErrorCode>(r.u16());
      frame.error.message = r.bytes(r.u16());
      break;
    }
    case MessageType::kBye: {
      frame.type = MessageType::kBye;
      frame.bye.household_id = r.u64();
      break;
    }
    case MessageType::kByeAck: {
      frame.type = MessageType::kByeAck;
      frame.bye_ack.household_id = r.u64();
      break;
    }
    default:
      r.fail("unknown message type " + std::to_string(raw_type));
  }
  r.expect_end();
  return frame;
}

void FrameReader::append(const std::uint8_t* data, std::size_t size) {
  // Compact lazily: only when the consumed prefix dominates the buffer, so
  // steady-state appends are amortized O(size).
  if (consumed_ > 0 && consumed_ * 2 > buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + size);
}

bool FrameReader::take(std::vector<std::uint8_t>& payload) {
  const std::size_t available = buffer_.size() - consumed_;
  if (available < 4) return false;
  const std::uint8_t* p = buffer_.data() + consumed_;
  std::uint32_t length = 0;
  std::memcpy(&length, p, sizeof length);  // little-endian (util/bytes.h)
  if (length > kMaxFrameBytes) {
    throw DataError("serve protocol: frame length " + std::to_string(length) +
                    " exceeds limit");
  }
  if (available < 4 + static_cast<std::size_t>(length)) return false;
  payload.assign(p + 4, p + 4 + length);
  consumed_ += 4 + static_cast<std::size_t>(length);
  return true;
}

}  // namespace rlblh::serve
