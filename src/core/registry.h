// Scenario registry primitives: spec strings, parameter bags and named
// component factories.
//
// A scenario spec is a semicolon-separated list of key=value pairs, e.g.
//
//   policy=rlblh;household=weekday_heavy;pricing=tou2;battery=13.5;seed=7
//
// Top-level keys select named components (policy / household / pricing) and
// set the run geometry (battery, nd, seed, ...); dotted keys such as
// `policy.alpha=0.01` or `pricing.rate=11` are forwarded verbatim to the
// selected component's factory. This header provides the pieces the
// per-component registries (pricing_registry, household_registry,
// policy_registry) and the scenario assembler (sim/scenario.h) share:
//
//   * SpecParams  — an ordered key->value bag with typed accessors and
//                   strict unknown-key rejection, so a typo in a spec fails
//                   loudly instead of silently running the default;
//   * parse_spec  — the `k=v;k2=v2` grammar;
//   * Registry<T> — a string -> factory map with deterministic listing,
//                   shared by every component family.
//
// Header-only on purpose: every subsystem library (pricing, meter,
// baselines) hosts its own factory table without acquiring a link edge back
// to rlblh_core.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "util/error.h"

namespace rlblh {

/// Parses a decimal unsigned integer that fits in 64 bits: one or more
/// ASCII digits and nothing else — no sign, no whitespace, no trailing
/// junk. The one integer rule for spec values and command-line flags.
inline std::optional<std::uint64_t> parse_u64(std::string_view text) {
  std::uint64_t value = 0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

/// Ordered key -> value parameter bag of one spec (or one component's slice
/// of a spec). Keys are unique; insertion order is preserved for canonical
/// printing.
class SpecParams {
 public:
  SpecParams() = default;

  /// Sets (or replaces) a key. Values are stored as strings; the double
  /// overload formats losslessly (%.17g) so a value survives the
  /// spec -> string -> spec round trip bitwise.
  void set(const std::string& key, std::string value) {
    RLBLH_REQUIRE(!key.empty(), "SpecParams: key must be nonempty");
    auto it = values_.find(key);
    if (it == values_.end()) {
      values_.emplace(key, std::move(value));
      order_.push_back(key);
    } else {
      it->second = std::move(value);
    }
  }
  void set(const std::string& key, const char* value) {
    set(key, std::string(value));
  }
  void set(const std::string& key, double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    set(key, std::string(buffer));
  }
  void set(const std::string& key, std::uint64_t value) {
    set(key, std::to_string(value));
  }
  void set(const std::string& key, int value) {
    set(key, std::to_string(value));
  }
  void set(const std::string& key, unsigned value) {
    set(key, std::to_string(value));
  }
  void set(const std::string& key, bool value) {
    set(key, std::string(value ? "1" : "0"));
  }

  /// True when the key is present.
  bool has(const std::string& key) const { return find(key) != nullptr; }

  /// Typed accessors: return the parsed value, or `fallback` when the key is
  /// absent. Throw ConfigError when the value does not parse.
  std::string get_string(const std::string& key,
                         const std::string& fallback) const {
    const std::string* value = find(key);
    return value != nullptr ? *value : fallback;
  }
  double get_double(const std::string& key, double fallback) const {
    const std::string* value = find(key);
    if (value == nullptr) return fallback;
    try {
      std::size_t consumed = 0;
      const double parsed = std::stod(*value, &consumed);
      if (consumed != value->size()) throw std::invalid_argument(*value);
      return parsed;
    } catch (const std::exception&) {
      throw ConfigError("spec key '" + key + "': '" + *value +
                        "' is not a number");
    }
  }
  std::uint64_t get_u64(const std::string& key, std::uint64_t fallback) const {
    const std::string* value = find(key);
    if (value == nullptr) return fallback;
    if (const std::optional<std::uint64_t> parsed = parse_u64(*value)) {
      return *parsed;
    }
    throw ConfigError("spec key '" + key + "': '" + *value +
                      "' is not a non-negative integer");
  }
  std::size_t get_size(const std::string& key, std::size_t fallback) const {
    return static_cast<std::size_t>(get_u64(key, fallback));
  }
  bool get_bool(const std::string& key, bool fallback) const {
    const std::string* value = find(key);
    if (value == nullptr) return fallback;
    if (*value == "1" || *value == "true" || *value == "on" ||
        *value == "yes") {
      return true;
    }
    if (*value == "0" || *value == "false" || *value == "off" ||
        *value == "no") {
      return false;
    }
    throw ConfigError("spec key '" + key + "': '" + *value +
                      "' is not a boolean (use 0/1/true/false/on/off)");
  }

  /// Throws ConfigError when any present key is not in `allowed` — the
  /// strictness that turns spec typos into errors. `context` names the
  /// component for the message.
  void allow_only(const std::vector<std::string>& allowed,
                  const std::string& context) const {
    for (const auto& key : order_) {
      bool known = false;
      for (const auto& candidate : allowed) {
        if (key == candidate) {
          known = true;
          break;
        }
      }
      if (known) continue;
      std::string accepted;
      for (const auto& candidate : allowed) {
        if (!accepted.empty()) accepted += ", ";
        accepted += candidate;
      }
      throw ConfigError(
          context + ": unknown parameter '" + key +
          "' (accepted: " + (accepted.empty() ? "none" : accepted) + ")");
    }
  }

  /// Number of keys.
  std::size_t size() const { return order_.size(); }

  /// True when no key is set.
  bool empty() const { return order_.empty(); }

  /// Keys in insertion order.
  const std::vector<std::string>& keys() const { return order_; }

  /// Canonical `k=v;k2=v2` rendering in insertion order (empty string when
  /// empty).
  std::string canonical() const {
    std::string out;
    for (const auto& key : order_) {
      if (!out.empty()) out += ';';
      out += key;
      out += '=';
      out += values_.at(key);
    }
    return out;
  }

 private:
  const std::string* find(const std::string& key) const {
    auto it = values_.find(key);
    return it == values_.end() ? nullptr : &it->second;
  }

  std::map<std::string, std::string> values_;
  std::vector<std::string> order_;
};

/// Parses the `k=v;k2=v2` spec grammar. Empty segments are ignored (so a
/// trailing ';' is fine); a segment without '=' or with an empty key is a
/// ConfigError. Duplicate keys keep the last value.
inline SpecParams parse_spec(const std::string& spec) {
  SpecParams params;
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    std::size_t end = spec.find(';', begin);
    if (end == std::string::npos) end = spec.size();
    const std::string segment = spec.substr(begin, end - begin);
    begin = end + 1;
    if (segment.empty()) continue;
    const std::size_t eq = segment.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw ConfigError("spec segment '" + segment +
                        "' is not of the form key=value");
    }
    params.set(segment.substr(0, eq), segment.substr(eq + 1));
  }
  return params;
}

/// A named-factory table for one component family. Factories take the
/// component's parameter slice and return a built component; names() is
/// sorted so listings and error messages are deterministic.
template <typename T>
class Registry {
 public:
  using Factory = std::function<T(const SpecParams&)>;

  /// Registers a factory under a primary name plus optional aliases.
  /// Re-registering a name is a ConfigError (catches double registration).
  void add(const std::string& name, Factory factory,
           const std::vector<std::string>& aliases = {}) {
    add_one(name, factory, /*is_alias=*/false);
    for (const auto& alias : aliases) add_one(alias, factory, true);
  }

  /// True when `name` (or an alias) is registered.
  bool contains(const std::string& name) const {
    return factories_.find(name) != factories_.end();
  }

  /// Builds the named component. Unknown names raise ConfigError listing
  /// every registered name.
  T create(const std::string& name, const SpecParams& params) const {
    auto it = factories_.find(name);
    if (it == factories_.end()) {
      std::string known;
      for (const auto& candidate : names()) {
        if (!known.empty()) known += ", ";
        known += candidate;
      }
      throw ConfigError("unknown " + family_ + " '" + name +
                        "' (registered: " + known + ")");
    }
    return it->second(params);
  }

  /// Primary names, sorted (aliases excluded so listings stay short).
  std::vector<std::string> names() const {
    std::vector<std::string> out;
    for (const auto& [name, factory] : factories_) {
      if (!is_alias_.at(name)) out.push_back(name);
    }
    return out;  // std::map iteration is already sorted
  }

  /// Names the family in error messages, e.g. "pricing plan".
  void set_family(std::string family) { family_ = std::move(family); }

 private:
  void add_one(const std::string& name, const Factory& factory,
               bool is_alias) {
    RLBLH_REQUIRE(!name.empty(), "Registry: component name must be nonempty");
    if (!factories_.emplace(name, factory).second) {
      throw ConfigError("Registry: duplicate registration of '" + name + "'");
    }
    is_alias_.emplace(name, is_alias);
  }

  std::string family_ = "component";
  std::map<std::string, Factory> factories_;
  std::map<std::string, bool> is_alias_;
};

}  // namespace rlblh
